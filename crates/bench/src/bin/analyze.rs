//! `analyze` — static load/store dependence analysis with the
//! static-vs-dynamic cross-validation gate.
//!
//! ```text
//! cargo run --release -p lvp-bench --bin analyze -- [flags]
//!
//!   --workloads a,b,c    workloads to analyze (default: all; `--list` to see)
//!   --budget N           dynamic instructions per workload for the
//!                        cross-validation simulation (default 60000)
//!   --out PATH           report file (default results/analysis/report.json)
//!   --depgraph PATH      static dependence-graph file (default
//!                        results/analysis/depgraph.json); purely static, so
//!                        byte-identical across budgets and bug injections
//!   --json PATH          also write a machine-readable violations document
//!                        (schema: {passed, total_violations, violations:
//!                        [{workload, pc, rule, detail}]})
//!   --check              additionally verify report *and* depgraph are
//!                        byte-identical to the existing files (determinism
//!                        gate)
//!   --inject-train-bug   disable the APT's §3.1.2 confidence reset on
//!                        address mismatch (must make the gate FAIL; used to
//!                        demonstrate the gate catches predictor bugs)
//!   --inject-lscd-bug    make the LSCD also capture cleanly-validated
//!                        loads, so conflict-free PCs get suppressed (rule
//!                        R7 must catch this)
//!   --list               print workloads and exit
//!   --help               print this help and exit
//! ```
//!
//! Exit status: 0 when the cross-validation gate passes (and, with
//! `--check`, both artifacts are byte-identical); 1 on violations or
//! determinism failures; 2 on usage errors. Warn-level path-hash
//! collisions (rule R8) are counted in the report but never affect the
//! exit status.

use lvp_analysis::XvalConfig;
use lvp_bench::analysis::{
    analyze_workloads, depgraph_json, report_json, total_collisions, total_violations,
    WorkloadAnalysis,
};
use lvp_bench::{telemetry, Exec, Progress};
use lvp_json::{Json, ToJson};
use lvp_obs::PhaseRecorder;
use lvp_store::SimService;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workloads: Vec<String>,
    budget: u64,
    out: PathBuf,
    depgraph: PathBuf,
    json: Option<PathBuf>,
    check: bool,
    inject_train_bug: bool,
    inject_lscd_bug: bool,
    store: Option<String>,
    telemetry: Option<PathBuf>,
    host_trace: Option<PathBuf>,
    quiet: bool,
}

fn help_text() -> String {
    [
        "usage: analyze [--workloads a,b] [--budget N] [--out PATH] [--depgraph PATH]",
        "               [--json PATH] [--check] [--inject-train-bug] [--inject-lscd-bug]",
        "               [--store DIR] [--telemetry PATH] [--host-trace PATH] [--quiet]",
        "               [--list] [--help]",
        "",
        "  --workloads a,b,c    workloads to analyze (default: all)",
        "  --budget N           dynamic instructions per workload (default 60000)",
        "  --out PATH           report file (default results/analysis/report.json)",
        "  --depgraph PATH      static dependence graphs (default results/analysis/depgraph.json)",
        "  --json PATH          machine-readable violations document",
        "  --check              byte-compare report and depgraph against existing files",
        "  --inject-train-bug   seed the APT training bug (gate must FAIL)",
        "  --inject-lscd-bug    seed the LSCD over-capture bug (rule R7 must FAIL)",
        "  --store DIR          cache the validating simulations in a content-addressed",
        "                       store; reruns recompute only what changed",
        "  --telemetry PATH     write a host-telemetry manifest of this run",
        "  --host-trace PATH    write a Chrome trace of the host phases",
        "  --quiet              suppress stderr progress lines",
        "  --list               print workloads and exit",
        "",
        "exit status:",
        "  0  gate passed (and, with --check, artifacts byte-identical)",
        "  1  cross-validation violations, determinism failure, or I/O error",
        "  2  usage error",
    ]
    .join("\n")
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}\n");
    eprintln!("{}", help_text());
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: Vec::new(),
        budget: 60_000,
        out: PathBuf::from("results/analysis/report.json"),
        depgraph: PathBuf::from("results/analysis/depgraph.json"),
        json: None,
        check: false,
        inject_train_bug: false,
        inject_lscd_bug: false,
        store: None,
        telemetry: None,
        host_trace: None,
        quiet: false,
    };
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
                args.workloads = value(&mut i, "--workloads")
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--budget" => {
                args.budget = value(&mut i, "--budget")
                    .parse()
                    .unwrap_or_else(|_| usage("--budget must be an integer"));
            }
            "--out" => args.out = PathBuf::from(value(&mut i, "--out")),
            "--depgraph" => args.depgraph = PathBuf::from(value(&mut i, "--depgraph")),
            "--json" => args.json = Some(PathBuf::from(value(&mut i, "--json"))),
            "--check" => args.check = true,
            "--inject-train-bug" => args.inject_train_bug = true,
            "--inject-lscd-bug" => args.inject_lscd_bug = true,
            "--store" => args.store = Some(value(&mut i, "--store")),
            "--telemetry" => args.telemetry = Some(PathBuf::from(value(&mut i, "--telemetry"))),
            "--host-trace" => args.host_trace = Some(PathBuf::from(value(&mut i, "--host-trace"))),
            "--quiet" => args.quiet = true,
            "--list" => {
                println!("workloads:");
                for w in lvp_workloads::all() {
                    println!("  {:<12} [{}] {}", w.name, w.suite, w.description);
                }
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!("{}", help_text());
                std::process::exit(0);
            }
            other => usage(&format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    args
}

/// Writes `text` to `path`, or with `check` compares byte-for-byte against
/// the existing file. `what` labels messages.
fn write_or_check(path: &Path, text: &str, check: bool, what: &str) -> Result<(), ()> {
    if check {
        match std::fs::read_to_string(path) {
            Ok(prev) if prev == text => {
                println!("{what} determinism check PASSED against {}", path.display());
                Ok(())
            }
            Ok(_) => {
                eprintln!(
                    "analyze: {what} differs from existing {} (non-determinism or \
                     un-regenerated artifact)",
                    path.display()
                );
                Err(())
            }
            Err(e) => {
                eprintln!("analyze: cannot read {}: {e}", path.display());
                Err(())
            }
        }
    } else {
        if let Some(dir) = path.parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("analyze: cannot create {}: {e}", dir.display());
                return Err(());
            }
        }
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("analyze: cannot write {}: {e}", path.display());
            return Err(());
        }
        println!("wrote {}", path.display());
        Ok(())
    }
}

/// Runs the analysis pass, recording host telemetry when requested. The
/// report/depgraph/violations artifacts are byte-identical either way.
fn run(
    args: &Args,
    workloads: &[lvp_workloads::Workload],
    pap: dlvp::PapConfig,
    dlvp_cfg: dlvp::DlvpConfig,
) -> Result<Vec<WorkloadAnalysis>, String> {
    let xval = XvalConfig::default();
    let progress = Progress::new("analyze", workloads.len(), !args.quiet);
    let service = SimService::from_flag(args.store.as_deref()).map_err(|e| e.to_string())?;
    let exec = Exec::new(1).with_progress(&progress).with_service(&service);
    if args.telemetry.is_none() && args.host_trace.is_none() {
        return Ok(analyze_workloads(
            workloads,
            args.budget,
            pap,
            dlvp_cfg,
            &xval,
            &exec,
        ));
    }
    let rec = PhaseRecorder::new();
    let results = analyze_workloads(
        workloads,
        args.budget,
        pap,
        dlvp_cfg,
        &xval,
        &exec.with_phases(&rec),
    );
    let config = Json::obj([
        (
            "workloads",
            Json::Array(workloads.iter().map(|w| w.name.to_json()).collect()),
        ),
        ("budget", args.budget.to_json()),
        ("inject_train_bug", args.inject_train_bug.to_json()),
        ("inject_lscd_bug", args.inject_lscd_bug.to_json()),
    ]);
    telemetry::emit(
        "analyze",
        &config,
        args.budget,
        Vec::new(),
        1,
        &rec,
        service.enabled().then(|| service.counters()),
        args.telemetry.as_deref(),
        args.host_trace.as_deref(),
    )?;
    Ok(results)
}

fn main() -> ExitCode {
    let args = parse_args();
    let workloads: Vec<lvp_workloads::Workload> = if args.workloads.is_empty() {
        lvp_workloads::all()
    } else {
        let mut ws = Vec::new();
        for name in &args.workloads {
            match lvp_workloads::by_name(name) {
                Some(w) => ws.push(w),
                None => usage(&format!("unknown workload '{name}' (try --list)")),
            }
        }
        ws
    };
    let pap = dlvp::PapConfig {
        train_reset_on_mismatch: !args.inject_train_bug,
        ..dlvp::PapConfig::default()
    };
    let dlvp_cfg = dlvp::DlvpConfig {
        inject_lscd_bug: args.inject_lscd_bug,
        ..dlvp::DlvpConfig::default()
    };
    let injected = match (args.inject_train_bug, args.inject_lscd_bug) {
        (true, true) => " [INJECTED TRAIN + LSCD BUGS]",
        (true, false) => " [INJECTED TRAIN BUG]",
        (false, true) => " [INJECTED LSCD BUG]",
        (false, false) => "",
    };
    if !args.quiet {
        eprintln!(
            "analyze: {} workloads, budget {}{injected}",
            workloads.len(),
            args.budget,
        );
    }
    let t0 = std::time::Instant::now();
    let results = match run(&args, &workloads, pap, dlvp_cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("analyze: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !args.quiet {
        eprintln!("analyze: completed in {:.2}s", t0.elapsed().as_secs_f64());
    }

    let report = report_json(&results, args.budget).pretty();
    if write_or_check(&args.out, &report, args.check, "report").is_err() {
        return ExitCode::FAILURE;
    }
    let depgraph = depgraph_json(&results).pretty();
    if write_or_check(&args.depgraph, &depgraph, args.check, "depgraph").is_err() {
        return ExitCode::FAILURE;
    }
    if let Some(path) = &args.json {
        let violations: Vec<Json> = results
            .iter()
            .flat_map(|r| {
                r.violations.iter().map(|v| {
                    Json::obj([
                        ("workload", r.name.to_json()),
                        ("pc", v.pc.to_json()),
                        ("rule", v.rule.to_json()),
                        ("detail", v.detail.to_json()),
                    ])
                })
            })
            .collect();
        let doc = Json::obj([
            ("passed", (total_violations(&results) == 0).to_json()),
            (
                "total_violations",
                (total_violations(&results) as u64).to_json(),
            ),
            (
                "total_hash_collisions",
                (total_collisions(&results) as u64).to_json(),
            ),
            ("violations", Json::Array(violations)),
        ]);
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, doc.pretty()) {
            eprintln!("analyze: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }

    for r in &results {
        let counts = r.analysis.class_counts();
        eprintln!(
            "  {:<12} loads {:>3} (const {:>2} strided {:>2} path {:>2} unk {:>2}) \
             conflict-free {:>3} must-edges {:>2} collisions {:>2} violations {}",
            r.name,
            r.loads.len(),
            counts[0],
            counts[1],
            counts[2],
            counts[3],
            r.loads.iter().filter(|l| l.conflict_free).count(),
            r.dep.graph.must_edges().count(),
            r.dep.collisions.len(),
            r.violations.len(),
        );
        for c in &r.dep.collisions {
            eprintln!(
                "    warn [R8] load {:#x}: addresses {:#x}/{:#x} collide at APT ({}, {:#x})",
                c.pc, c.addr_a, c.addr_b, c.index, c.tag
            );
        }
        for v in &r.violations {
            eprintln!("    VIOLATION [{}] {}", v.rule, v.detail);
        }
    }
    let collisions = total_collisions(&results);
    if collisions > 0 {
        eprintln!("analyze: {collisions} warn-level path-hash collisions (R8)");
    }
    let total = total_violations(&results);
    if total > 0 {
        eprintln!("analyze: cross-validation FAILED: {total} violations");
        return ExitCode::FAILURE;
    }
    println!("cross-validation gate PASSED ({} workloads)", results.len());
    ExitCode::SUCCESS
}
