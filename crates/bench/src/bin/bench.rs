//! `bench` — the sim-throughput regression gate.
//!
//! ```text
//! cargo run --release -p lvp-bench --bin bench -- [flags]
//!
//!   --check                compare this run against the committed baseline
//!                          (non-zero exit when the gate fails)
//!   --baseline PATH        baseline document (default BENCH_simcore.json)
//!   --out PATH             write this run as a schema-v2 baseline document
//!   --tol-rel X            override the baseline's relative tolerance band
//!   --samples N            timed samples per cell (clamped to >= 5)
//!   --warmup-ms N          warm-up wall-clock discarded per cell
//!   --min-sample-ms N      minimum wall-clock per timed sample
//!   --inject-slowdown      burn a busy loop around every simulated cell
//!                          (results stay bit-identical; --check must
//!                          FAIL — proves the gate bites)
//!   --telemetry PATH       write a host-telemetry manifest of this run
//!   --host-trace PATH      write a Chrome trace of the host phases
//!   --validate-manifest P  parse a telemetry manifest and exit (CI smoke:
//!                          0 iff the file round-trips the schema)
//!   --list                 print the benchmark matrix and exit
//! ```
//!
//! Measurement policy: median-of-N (N >= 5) per-run wall time after a
//! discarded warm-up, per cell. Deterministic counters are compared
//! exactly; medians under the relative tolerance band. See DESIGN.md §12.

use lvp_bench::perf::{
    bench_doc, check, run_benchmarks, tier_speedups, Baseline, BenchPolicy, ANALYZE_BUDGET,
    ANALYZE_WORKLOAD, DEFAULT_TOL_REL, FUZZ_PROFILE, FUZZ_SEEDS, INJECT_SPIN, SIMCORE_BUDGET,
    SIMCORE_SCHEMES, SIMCORE_WORKLOADS, STORE_PHASES, TIER_PHASES, TIER_SAMPLE,
};
use lvp_bench::telemetry::{self, fmt_rate, Manifest};
use lvp_json::{Json, ToJson};
use lvp_obs::{NullPhases, PhaseRecorder};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!("usage: bench [--check] [--baseline PATH] [--out PATH] [--tol-rel X]");
    eprintln!("             [--samples N] [--warmup-ms N] [--min-sample-ms N]");
    eprintln!("             [--inject-slowdown] [--telemetry PATH] [--host-trace PATH]");
    eprintln!("             [--validate-manifest PATH] [--list]");
    std::process::exit(2);
}

struct Flags {
    argv: Vec<String>,
}

impl Flags {
    fn take(&mut self, flag: &str) -> Option<String> {
        let i = self.argv.iter().position(|a| a == flag)?;
        if i + 1 >= self.argv.len() {
            usage(&format!("{flag} needs a value"));
        }
        let v = self.argv.remove(i + 1);
        self.argv.remove(i);
        Some(v)
    }

    fn take_parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Option<T> {
        self.take(flag).map(|v| {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("{flag}: cannot parse '{v}'")))
        })
    }

    fn take_bool(&mut self, flag: &str) -> bool {
        if let Some(i) = self.argv.iter().position(|a| a == flag) {
            self.argv.remove(i);
            true
        } else {
            false
        }
    }

    fn finish(self) {
        if let Some(stray) = self.argv.first() {
            usage(&format!("unknown argument '{stray}'"));
        }
    }
}

/// The CI telemetry smoke: 0 iff the manifest parses and re-serializes to
/// the same bytes it was written with.
fn validate_manifest(path: &PathBuf) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bench: {} is not JSON: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let manifest = match Manifest::parse(&doc) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("bench: {} is not a telemetry manifest: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    if manifest.to_json().pretty() != doc.pretty() {
        eprintln!(
            "bench: {} does not round-trip the manifest schema",
            path.display()
        );
        return ExitCode::FAILURE;
    }
    println!(
        "manifest OK: tool {}, config {}, {} jobs on {} workers, {} sim cycles/s",
        manifest.tool,
        manifest.config_hash,
        manifest.per_job.len(),
        manifest.workers,
        fmt_rate(manifest.sim_cycles_per_sec),
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut flags = Flags {
        argv: std::env::args().skip(1).collect(),
    };
    if flags.take_bool("--list") {
        println!(
            "simcore   : {} workloads x {} schemes, budget {}",
            SIMCORE_WORKLOADS.len(),
            SIMCORE_SCHEMES.len(),
            SIMCORE_BUDGET
        );
        for w in SIMCORE_WORKLOADS {
            for s in SIMCORE_SCHEMES {
                println!("  simcore/{w}/{}", s.name());
            }
        }
        println!(
            "tiers     : {} workloads x {} tiers, budget {} (sampled: ff {} / warm {} / detail {} / period {})",
            SIMCORE_WORKLOADS.len(),
            TIER_PHASES.len(),
            SIMCORE_BUDGET,
            TIER_SAMPLE.ff,
            TIER_SAMPLE.warmup,
            TIER_SAMPLE.detail,
            TIER_SAMPLE.period,
        );
        for w in SIMCORE_WORKLOADS {
            for p in TIER_PHASES {
                println!("  {p}/{w}");
            }
        }
        println!(
            "store     : {} workloads x {{cold miss, warm hit}}, budget {}",
            SIMCORE_WORKLOADS.len(),
            SIMCORE_BUDGET
        );
        for w in SIMCORE_WORKLOADS {
            for p in STORE_PHASES {
                println!("  {p}/{w}");
            }
        }
        println!("analyze   : {ANALYZE_WORKLOAD}, budget {ANALYZE_BUDGET}");
        println!("fuzz_oracle: profile {FUZZ_PROFILE}, seeds 0..{FUZZ_SEEDS}");
        flags.finish();
        return ExitCode::SUCCESS;
    }
    if let Some(path) = flags.take("--validate-manifest").map(PathBuf::from) {
        flags.finish();
        return validate_manifest(&path);
    }

    let do_check = flags.take_bool("--check");
    let baseline_path = flags
        .take("--baseline")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_simcore.json"));
    let out = flags.take("--out").map(PathBuf::from);
    let tol_override: Option<f64> = flags.take_parsed("--tol-rel");
    let mut policy = BenchPolicy::default();
    if let Some(n) = flags.take_parsed::<usize>("--samples") {
        policy.samples = n;
    }
    if let Some(ms) = flags.take_parsed::<u64>("--warmup-ms") {
        policy.warmup = Duration::from_millis(ms);
    }
    if let Some(ms) = flags.take_parsed::<u64>("--min-sample-ms") {
        policy.min_sample = Duration::from_millis(ms);
    }
    let inject = flags.take_bool("--inject-slowdown");
    let telemetry_path = flags.take("--telemetry").map(PathBuf::from);
    let host_trace = flags.take("--host-trace").map(PathBuf::from);
    flags.finish();

    let spin = if inject { INJECT_SPIN } else { 0 };
    if inject {
        eprintln!("bench: injecting a {INJECT_SPIN}-iteration busy loop per simulated instruction");
    }

    let want_telemetry = telemetry_path.is_some() || host_trace.is_some();
    let rec = PhaseRecorder::new();
    let rows = if want_telemetry {
        run_benchmarks(&policy, spin, &rec)
    } else {
        run_benchmarks(&policy, spin, &NullPhases)
    };
    if want_telemetry {
        let config = Json::obj([
            (
                "workloads",
                Json::Array(SIMCORE_WORKLOADS.iter().map(|w| w.to_json()).collect()),
            ),
            ("budget", SIMCORE_BUDGET.to_json()),
            ("samples", (policy.normalized().samples as u64).to_json()),
            ("inject_slowdown", inject.to_json()),
        ]);
        if let Err(e) = telemetry::emit(
            "bench",
            &config,
            SIMCORE_BUDGET,
            (0..FUZZ_SEEDS).collect(),
            1,
            &rec,
            None,
            telemetry_path.as_deref(),
            host_trace.as_deref(),
        ) {
            eprintln!("bench: {e}");
            return ExitCode::FAILURE;
        }
    }

    println!(
        "{:<12} {:<12} {:<14} {:>14} {:>14}",
        "phase", "workload", "scheme", "median_ns", "cycles/s"
    );
    for r in &rows {
        println!(
            "{:<12} {:<12} {:<14} {:>14} {:>14}",
            r.phase,
            r.workload,
            r.scheme,
            r.median_ns,
            fmt_rate(r.sim_cycles_per_sec)
        );
    }
    // Tier summary: wall-clock speedup of each tier over cycle-level DLVP
    // on the same workloads (geometric mean).
    let speedups = tier_speedups(&rows);
    if !speedups.is_empty() {
        let parts: Vec<String> = speedups
            .iter()
            .map(|(phase, x)| format!("{} {:.1}x", phase.trim_start_matches("tier_"), x))
            .collect();
        println!(
            "tier speedup vs cycle-level DLVP (geomean): {}",
            parts.join(", ")
        );
    }

    if let Some(path) = &out {
        let tol = tol_override.unwrap_or(DEFAULT_TOL_REL);
        if let Err(e) = telemetry::write_json(path, &bench_doc(&policy, tol, &rows)) {
            eprintln!("bench: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }

    if do_check {
        let text = match std::fs::read_to_string(&baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench: cannot read {}: {e}", baseline_path.display());
                return ExitCode::FAILURE;
            }
        };
        let doc = match Json::parse(&text) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("bench: {} is not JSON: {e}", baseline_path.display());
                return ExitCode::FAILURE;
            }
        };
        let baseline = match Baseline::parse(&doc) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("bench: {e}");
                return ExitCode::FAILURE;
            }
        };
        let report = check(&baseline, &rows, tol_override);
        for note in &report.notes {
            eprintln!("note: {note}");
        }
        if !report.passed() {
            eprintln!(
                "bench: throughput gate FAILED against {} ({} failure(s)):",
                baseline_path.display(),
                report.failures.len()
            );
            for f in &report.failures {
                eprintln!("  {f}");
            }
            return ExitCode::FAILURE;
        }
        println!(
            "throughput gate PASSED against {} (tol rel {}, {} cells)",
            baseline_path.display(),
            tol_override.unwrap_or(baseline.tol_rel),
            rows.len()
        );
    }
    ExitCode::SUCCESS
}
