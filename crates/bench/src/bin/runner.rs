//! `runner` — the sharded, deterministic batch experiment runner.
//!
//! ```text
//! cargo run --release -p lvp-bench --bin runner -- [flags]
//!
//!   --workloads a,b,c     workloads to run (default: all; `--list` to see)
//!   --schemes x,y         schemes (baseline,CAP,VTAGE,DLVP,DLVP+VTAGE|tournament)
//!   --variants v,w        config variants (default,oracle_replay,gshare,
//!                         no_prefetch,narrow_frontend,small_pvt)
//!   --budget N            dynamic instructions per workload (default 200000)
//!   --sample FF:W:D:P     fast-forward + sampled execution: skip FF insts,
//!                         then per P-inst period run W warm-only and D
//!                         detailed cycle-level insts (stats from D only)
//!   --jobs N              worker threads (default: LVP_JOBS or all cores)
//!   --out PATH            results file (default results/matrix.json)
//!   --baseline PATH       diff against a golden snapshot; non-zero exit on drift
//!   --tol-rel X           relative per-counter tolerance for --baseline (default 0)
//!   --tol-abs X           absolute per-counter tolerance for --baseline (default 0)
//!   --update-golden PATH  write the snapshot (use to regenerate goldens on
//!                         an intentional model change)
//!   --store DIR           cache per-job results in a content-addressed
//!                         store; reruns recompute only what changed
//!   --client QDIR         farm the matrix to a `serve` process via the
//!                         file queue at QDIR instead of running locally
//!                         (results stay byte-identical)
//!   --client-timeout S    give up waiting on the server after S seconds
//!                         (default 600)
//!   --telemetry PATH      write a host-telemetry manifest of this run
//!   --host-trace PATH     write a Chrome trace of host phases (one lane
//!                         per worker) for chrome://tracing
//!   --quiet               suppress stderr progress lines
//!   --list                print workloads/schemes/variants and exit
//! ```
//!
//! The same spec produces byte-identical output for any `--jobs` value —
//! with or without telemetry: manifests and progress go to their own files
//! and stderr, never into the results artifact.

use lvp_bench::runner::{
    check_against_golden, default_jobs, run_matrix, ConfigVariant, MatrixResults, MatrixSpec,
    Tolerances,
};
use lvp_bench::{telemetry, Exec, Progress, SchemeKind};
use lvp_json::ToJson;
use lvp_obs::PhaseRecorder;
use lvp_store::SimService;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    spec: MatrixSpec,
    jobs: usize,
    out: PathBuf,
    baseline: Option<PathBuf>,
    update_golden: Option<PathBuf>,
    tol: Tolerances,
    store: Option<String>,
    client: Option<PathBuf>,
    client_timeout_s: u64,
    telemetry: Option<PathBuf>,
    host_trace: Option<PathBuf>,
    quiet: bool,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}\n");
    eprintln!("usage: runner [--workloads a,b] [--schemes x,y] [--variants v] [--budget N]");
    eprintln!("              [--sample FF:W:D:P]");
    eprintln!("              [--jobs N] [--out PATH] [--baseline PATH] [--tol-rel X]");
    eprintln!("              [--tol-abs X] [--update-golden PATH] [--store DIR]");
    eprintln!("              [--client QDIR] [--client-timeout S]");
    eprintln!("              [--telemetry PATH] [--host-trace PATH] [--quiet] [--list]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut spec = MatrixSpec::full(lvp_workloads::DEFAULT_BUDGET);
    let mut jobs = default_jobs();
    let mut out = PathBuf::from("results/matrix.json");
    let mut baseline = None;
    let mut update_golden = None;
    let mut tol = Tolerances::default();
    let mut store = None;
    let mut client = None;
    let mut client_timeout_s = 600u64;
    let mut telemetry = None;
    let mut host_trace = None;
    let mut quiet = false;

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> String {
        *i += 1;
        argv.get(*i)
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
            .clone()
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workloads" => {
                spec.workloads = value(&mut i, "--workloads")
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--schemes" => {
                spec.schemes = value(&mut i, "--schemes")
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        SchemeKind::from_name(s)
                            .unwrap_or_else(|| usage(&format!("unknown scheme '{s}'")))
                    })
                    .collect();
            }
            "--variants" => {
                spec.variants = value(&mut i, "--variants")
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        ConfigVariant::from_name(s)
                            .unwrap_or_else(|| usage(&format!("unknown variant '{s}'")))
                    })
                    .collect();
            }
            "--budget" => {
                spec.budget = value(&mut i, "--budget")
                    .parse()
                    .unwrap_or_else(|_| usage("--budget must be an integer"));
            }
            "--sample" => {
                let v = value(&mut i, "--sample");
                let parts: Vec<u64> = v
                    .split(':')
                    .map(|p| {
                        p.parse()
                            .unwrap_or_else(|_| usage("--sample needs FF:WARMUP:DETAIL:PERIOD"))
                    })
                    .collect();
                let [ff, warmup, detail, period] = parts[..] else {
                    usage("--sample needs exactly four ':'-separated integers")
                };
                let sample = lvp_uarch::SampleSpec {
                    ff,
                    warmup,
                    detail,
                    period,
                };
                if let Err(e) = sample.validate() {
                    usage(&format!("--sample: {e}"));
                }
                spec.sample = Some(sample);
            }
            "--jobs" => {
                jobs = value(&mut i, "--jobs")
                    .parse()
                    .unwrap_or_else(|_| usage("--jobs must be an integer"));
                if jobs == 0 {
                    usage("--jobs must be >= 1");
                }
            }
            "--out" => out = PathBuf::from(value(&mut i, "--out")),
            "--store" => store = Some(value(&mut i, "--store")),
            "--client" => client = Some(PathBuf::from(value(&mut i, "--client"))),
            "--client-timeout" => {
                client_timeout_s = value(&mut i, "--client-timeout")
                    .parse()
                    .unwrap_or_else(|_| usage("--client-timeout must be an integer"));
            }
            "--telemetry" => telemetry = Some(PathBuf::from(value(&mut i, "--telemetry"))),
            "--host-trace" => host_trace = Some(PathBuf::from(value(&mut i, "--host-trace"))),
            "--quiet" => quiet = true,
            "--baseline" => baseline = Some(PathBuf::from(value(&mut i, "--baseline"))),
            "--update-golden" => {
                update_golden = Some(PathBuf::from(value(&mut i, "--update-golden")))
            }
            "--tol-rel" => {
                tol.rel = value(&mut i, "--tol-rel")
                    .parse()
                    .unwrap_or_else(|_| usage("--tol-rel must be a number"));
            }
            "--tol-abs" => {
                tol.abs = value(&mut i, "--tol-abs")
                    .parse()
                    .unwrap_or_else(|_| usage("--tol-abs must be a number"));
            }
            "--list" => {
                println!("workloads:");
                for w in lvp_workloads::all() {
                    println!("  {:<12} [{}] {}", w.name, w.suite, w.description);
                }
                println!("schemes:");
                for s in SchemeKind::all() {
                    println!("  {}", s.name());
                }
                println!("variants:");
                for v in ConfigVariant::all() {
                    println!("  {}", v.name());
                }
                std::process::exit(0);
            }
            other => usage(&format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    if let Err(bad) = spec.validate() {
        usage(&format!(
            "unknown workloads: {} (try --list)",
            bad.join(", ")
        ));
    }
    if client.is_some() && store.is_some() {
        usage("--client and --store are mutually exclusive (the server owns the store)");
    }
    Args {
        spec,
        jobs,
        out,
        baseline,
        update_golden,
        tol,
        store,
        client,
        client_timeout_s,
        telemetry,
        host_trace,
        quiet,
    }
}

/// Runs the matrix, recording host telemetry when any telemetry output was
/// requested (the recording path costs a little; the default path
/// monomorphizes it away entirely).
fn run(args: &Args, njobs: usize) -> Result<MatrixResults, String> {
    if let Some(queue) = &args.client {
        // Farm the whole matrix to a serve process; the reassembled
        // results are byte-identical to a local run.
        let (results, sources) = lvp_bench::serve::client_run_matrix(
            queue,
            &args.spec,
            50,
            args.client_timeout_s.saturating_mul(1000),
        )?;
        if !args.quiet {
            eprintln!(
                "runner: served via {} (store {}, computed {}, deduped {})",
                queue.display(),
                sources.get("store").copied().unwrap_or(0),
                sources.get("computed").copied().unwrap_or(0),
                sources.get("deduped").copied().unwrap_or(0),
            );
        }
        return Ok(results);
    }
    let progress = Progress::new("runner", njobs, !args.quiet);
    let service = SimService::from_flag(args.store.as_deref()).map_err(|e| e.to_string())?;
    let exec = Exec::new(args.jobs)
        .with_progress(&progress)
        .with_service(&service);
    if args.telemetry.is_none() && args.host_trace.is_none() {
        return Ok(run_matrix(&args.spec, &exec));
    }
    let rec = PhaseRecorder::new();
    let results = run_matrix(&args.spec, &exec.with_phases(&rec));
    let seeds = args.spec.expand().iter().map(|j| j.seed()).collect();
    telemetry::emit(
        "runner",
        &args.spec.to_json(),
        args.spec.budget,
        seeds,
        args.jobs,
        &rec,
        service.enabled().then(|| service.counters()),
        args.telemetry.as_deref(),
        args.host_trace.as_deref(),
    )?;
    Ok(results)
}

fn main() -> ExitCode {
    let args = parse_args();
    let njobs = args.spec.expand().len();
    if !args.quiet {
        eprintln!(
            "runner: {} jobs ({} workloads x {} variants x {} schemes), budget {}, {} workers",
            njobs,
            args.spec.workloads.len(),
            args.spec.variants.len(),
            args.spec.schemes.len(),
            args.spec.budget,
            args.jobs,
        );
    }
    let t0 = std::time::Instant::now();
    let results = match run(&args, njobs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("runner: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !args.quiet {
        eprintln!("runner: completed in {:.2}s", t0.elapsed().as_secs_f64());
    }

    // A job that committed nothing would flow 0.0 IPC into every derived
    // figure; surface the typed EmptyRun error per job and fail instead.
    let mut empty_jobs = 0usize;
    for j in &results.jobs {
        if let Err(e) = j.outcome.stats.try_ipc() {
            eprintln!(
                "runner: {} / {} / {}: {e}",
                j.spec.workload,
                j.spec.variant.name(),
                j.spec.scheme.name()
            );
            empty_jobs += 1;
        }
    }
    if empty_jobs > 0 {
        eprintln!("runner: {empty_jobs} empty job(s); refusing to write results");
        return ExitCode::FAILURE;
    }

    if let Err(e) = results.write_to(&args.out) {
        eprintln!("runner: cannot write {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", args.out.display());

    if let Some(golden) = &args.update_golden {
        if let Err(e) = results.write_to(golden) {
            eprintln!("runner: cannot write golden {}: {e}", golden.display());
            return ExitCode::FAILURE;
        }
        println!("updated golden {}", golden.display());
    }

    if let Some(golden) = &args.baseline {
        match check_against_golden(&results, golden, args.tol) {
            Err(e) => {
                eprintln!("runner: {e}");
                return ExitCode::FAILURE;
            }
            Ok(drifts) if drifts.is_empty() => {
                println!(
                    "baseline check PASSED against {} (tol rel {} abs {})",
                    golden.display(),
                    args.tol.rel,
                    args.tol.abs
                );
            }
            Ok(drifts) => {
                eprintln!(
                    "baseline check FAILED against {}: {} counters drifted",
                    golden.display(),
                    drifts.len()
                );
                for d in drifts.iter().take(50) {
                    eprintln!("  {d}");
                }
                if drifts.len() > 50 {
                    eprintln!("  ... and {} more", drifts.len() - 50);
                }
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
