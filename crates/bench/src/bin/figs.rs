//! The one experiment driver: runs any selection of the declarative
//! figure/table specs and writes `results/<name>.txt` for each.
//!
//! ```text
//! figs --list                 # what exists
//! figs --all                  # regenerate every results/*.txt
//! figs fig06_comparison       # one spec: print to stdout and write its file
//! figs fig01_conflicts fig02_repeatability --budget 50000 --jobs 4
//! figs --all --out-dir /tmp/check   # byte-diff gate in ci.sh
//! ```
//!
//! Shared simulations are deduplicated across the selected specs and run on
//! the deterministic worker pool, so the output is byte-identical for any
//! `--jobs` value — including the retired one-binary-per-figure harnesses'
//! stdout, which these files replace.

use lvp_bench::specs::{self, ExperimentSpec, RenderedSpec};
use lvp_bench::{telemetry, Progress};
use lvp_json::{Json, ToJson};
use lvp_obs::{NullPhases, PhaseRecorder};
use lvp_store::SimService;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    names: Vec<String>,
    all: bool,
    list: bool,
    budget: u64,
    jobs: usize,
    out_dir: PathBuf,
    store: Option<String>,
    telemetry: Option<PathBuf>,
    host_trace: Option<PathBuf>,
    quiet: bool,
}

fn usage() -> String {
    let mut u = String::from(
        "usage: figs [--list] [--all | <spec>...] [--budget N] [--jobs N] [--out-dir DIR]\n\
         \x20           [--store DIR] [--telemetry PATH] [--host-trace PATH] [--quiet]\n\n\
         Runs the named experiment specs (or all of them) and writes\n\
         <out-dir>/<spec>.txt for each. Defaults: budget 200000, out-dir 'results',\n\
         jobs = available cores. --store DIR caches simulation results in a\n\
         content-addressed store, so reruns recompute only what changed (the\n\
         .txt artifacts stay byte-identical). --telemetry/--host-trace record\n\
         host-side phase timing (never part of the .txt artifacts); --quiet\n\
         silences progress.\n\nspecs:\n",
    );
    for spec in specs::SPECS {
        u.push_str(&format!("  {:<22} {}\n", spec.name, spec.title));
    }
    u
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        names: Vec::new(),
        all: false,
        list: false,
        budget: lvp_workloads::DEFAULT_BUDGET,
        jobs: lvp_bench::default_jobs(),
        out_dir: PathBuf::from("results"),
        store: None,
        telemetry: None,
        host_trace: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => args.list = true,
            "--all" => args.all = true,
            "--quiet" => args.quiet = true,
            "--budget" => {
                let v = it.next().ok_or("--budget needs a value")?;
                args.budget = v.parse().map_err(|_| format!("bad budget '{v}'"))?;
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                args.jobs = v.parse().map_err(|_| format!("bad jobs '{v}'"))?;
            }
            "--out-dir" => {
                args.out_dir = PathBuf::from(it.next().ok_or("--out-dir needs a value")?);
            }
            "--store" => {
                args.store = Some(it.next().ok_or("--store needs a value")?);
            }
            "--telemetry" => {
                args.telemetry = Some(PathBuf::from(it.next().ok_or("--telemetry needs a value")?));
            }
            "--host-trace" => {
                args.host_trace = Some(PathBuf::from(
                    it.next().ok_or("--host-trace needs a value")?,
                ));
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown flag '{other}'")),
            name => args.names.push(name.to_string()),
        }
    }
    Ok(args)
}

/// Runs the selected specs, recording host telemetry when requested. The
/// rendered texts are byte-identical either way.
fn run(args: &Args, selected: &[&ExperimentSpec]) -> Result<Vec<RenderedSpec>, String> {
    let total = specs::distinct_requests(selected).len() + specs::distinct_analyses(selected).len();
    let progress = Progress::new("figs", total, !args.quiet && total > 0);
    let service = SimService::from_flag(args.store.as_deref()).map_err(|e| e.to_string())?;
    if args.telemetry.is_none() && args.host_trace.is_none() {
        return Ok(specs::run_specs_serviced(
            selected,
            args.budget,
            args.jobs,
            &NullPhases,
            &progress,
            &service,
        ));
    }
    let rec = PhaseRecorder::new();
    let rendered =
        specs::run_specs_serviced(selected, args.budget, args.jobs, &rec, &progress, &service);
    let config = Json::obj([
        (
            "specs",
            Json::Array(selected.iter().map(|s| s.name.to_json()).collect()),
        ),
        ("budget", args.budget.to_json()),
    ]);
    telemetry::emit(
        "figs",
        &config,
        args.budget,
        Vec::new(),
        args.jobs,
        &rec,
        service.enabled().then(|| service.counters()),
        args.telemetry.as_deref(),
        args.host_trace.as_deref(),
    )?;
    Ok(rendered)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("figs: {msg}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };

    if args.list {
        for spec in specs::SPECS {
            println!("{:<22} {}", spec.name, spec.title);
        }
        return ExitCode::SUCCESS;
    }

    let selected: Vec<&ExperimentSpec> = if args.all {
        specs::SPECS.iter().collect()
    } else {
        let mut v = Vec::new();
        for name in &args.names {
            match specs::by_name(name) {
                Some(spec) => v.push(spec),
                None => {
                    eprintln!("figs: unknown spec '{name}'\n\n{}", usage());
                    return ExitCode::from(2);
                }
            }
        }
        v
    };
    if selected.is_empty() {
        eprintln!(
            "figs: nothing to run (name specs or pass --all)\n\n{}",
            usage()
        );
        return ExitCode::from(2);
    }

    let rendered = match run(&args, &selected) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("figs: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("figs: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::FAILURE;
    }
    let single = rendered.len() == 1;
    for r in &rendered {
        let path = args.out_dir.join(format!("{}.txt", r.name));
        if let Err(e) = std::fs::write(&path, &r.text) {
            eprintln!("figs: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        if single {
            print!("{}", r.text);
        } else {
            println!("wrote {}", path.display());
        }
    }
    ExitCode::SUCCESS
}
