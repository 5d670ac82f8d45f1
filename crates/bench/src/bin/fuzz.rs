//! `fuzz` — drives lvp-fuzz campaigns through the parallel runner pool.
//!
//! ```text
//! fuzz [--profile P] [--seeds N] [--seed-base B] [--jobs J] [--out PATH]
//!      [--minimize] [--inject-train-bug] [--inject-lscd-bug] [--smoke]
//!      [--store DIR] [--telemetry PATH] [--host-trace PATH] [--quiet] [--list]
//! ```
//!
//! Each seed is synthesized, executed, soundness-checked against the static
//! analyzer, and run through the differential oracle; the campaign report
//! is a pure function of `(profile, seed range, oracle config)` — byte-
//! identical across `--jobs` values and re-runs.
//!
//! * `--smoke` pins the CI configuration (smoke profile, 25 seeds) whose
//!   report is diffed against `results/golden/fuzz_corpus.json`.
//! * `--inject-train-bug` disables `PapConfig::train_reset_on_mismatch`
//!   (the PR 2 seeded predictor bug) and *inverts* the exit semantics: the
//!   campaign must catch the bug on at least one seed, and with
//!   `--minimize` shrink it to a small reproducer.
//! * `--inject-lscd-bug` seeds `DlvpConfig::inject_lscd_bug` (the LSCD
//!   over-captures cleanly-validated loads, so statically conflict-free
//!   PCs get suppressed) with the same inverted exit semantics — the
//!   dependence rule R7 must catch it on at least one seed.
//! * `--minimize` greedily shrinks each failing seed's program and appends
//!   the reproducers to the report.
//!
//! The oracle's DLVP deep-check simulations run behind a [`SimService`]:
//! an in-memory memo by default (duplicate programs across seeds simulate
//! once), or the shared on-disk store with `--store DIR`.

use lvp_bench::{par_map, telemetry, Exec, Progress};
use lvp_fuzz::minimize::minimize;
use lvp_fuzz::{campaign_report, plan, run_seed_serviced, OracleConfig, SeedOutcome, SynthProfile};
use lvp_json::{Json, ToJson};
use lvp_obs::{PhaseRecorder, PhaseSink};
use lvp_store::SimService;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!("usage: fuzz [--profile P] [--seeds N] [--seed-base B] [--jobs J] [--out PATH]");
    eprintln!("            [--minimize] [--inject-train-bug] [--inject-lscd-bug] [--smoke]");
    eprintln!(
        "            [--store DIR] [--telemetry PATH] [--host-trace PATH] [--quiet] [--list]"
    );
    eprintln!("profiles: {}", SynthProfile::preset_names().join(", "));
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

/// Runs the seed campaign on the worker pool, one `job:` span per seed
/// (charged with its dynamic instruction count). The outcomes are
/// byte-identical with or without recording.
fn run_campaign<P: PhaseSink>(
    seed_list: &[u64],
    profile: &SynthProfile,
    cfg: &OracleConfig,
    exec: &Exec<P>,
    service: &SimService,
) -> Vec<SeedOutcome> {
    let mut span = exec.phases.span(0, "campaign");
    let outcomes = par_map(
        seed_list,
        exec,
        |seed| format!("job:seed{seed}/fuzz/oracle"),
        |o: &SeedOutcome| (0, o.dynamic as u64),
        |&seed| run_seed_serviced(profile, seed, cfg, service),
    );
    let dynamic: u64 = outcomes.iter().map(|o| o.dynamic as u64).sum();
    span.charge(0, dynamic, outcomes.len() as u64);
    span.finish();
    outcomes
}

fn main() -> ExitCode {
    let mut flags = Flags {
        argv: std::env::args().skip(1).collect(),
    };
    if flags.take_bool("--list") {
        for name in SynthProfile::preset_names() {
            let p = SynthProfile::preset(name).expect("catalogue entry");
            println!(
                "{name:<16} loads {} mix {:?} conflict-density {} depth {} iters {}",
                p.loads, p.mix, p.store_conflict_density, p.branch_path_depth, p.iterations
            );
        }
        flags.finish();
        return ExitCode::SUCCESS;
    }
    let smoke = flags.take_bool("--smoke");
    let profile_name = flags.take("--profile").unwrap_or_else(|| {
        if smoke {
            "smoke".into()
        } else {
            "mixed".into()
        }
    });
    let seeds: u64 = flags
        .take_parsed("--seeds")
        .unwrap_or(if smoke { 25 } else { 50 });
    let seed_base: u64 = flags.take_parsed("--seed-base").unwrap_or(0);
    let jobs: usize = flags
        .take_parsed("--jobs")
        .unwrap_or_else(lvp_bench::default_jobs);
    let out = flags.take("--out").map(PathBuf::from).unwrap_or_else(|| {
        if smoke {
            PathBuf::from("results/fuzz/fuzz_corpus.json")
        } else {
            PathBuf::from(format!("results/fuzz/{profile_name}.json"))
        }
    });
    let do_minimize = flags.take_bool("--minimize");
    let inject_train = flags.take_bool("--inject-train-bug");
    let inject_lscd = flags.take_bool("--inject-lscd-bug");
    let inject = inject_train || inject_lscd;
    let store_dir = flags.take("--store");
    let telemetry_path = flags.take("--telemetry").map(PathBuf::from);
    let host_trace = flags.take("--host-trace").map(PathBuf::from);
    let quiet = flags.take_bool("--quiet");
    flags.finish();

    // The oracle dedups identical deep-check sims in-process by default;
    // --store additionally persists them into the shared result store.
    let service = match store_dir.as_deref() {
        Some(dir) => match SimService::open(dir) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("fuzz: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => SimService::in_memory(),
    };

    let profile = SynthProfile::preset(&profile_name)
        .unwrap_or_else(|| usage(&format!("unknown profile '{profile_name}'")));
    if seeds == 0 {
        usage("--seeds must be >= 1");
    }
    if jobs == 0 {
        usage("--jobs must be >= 1");
    }

    let mut cfg = OracleConfig::default();
    if inject_train {
        cfg.sim.pap.train_reset_on_mismatch = false;
    }
    if inject_lscd {
        cfg.sim.dlvp.inject_lscd_bug = true;
    }

    let seed_list: Vec<u64> = (seed_base..seed_base + seeds).collect();
    let progress = Progress::new("fuzz", seed_list.len(), !quiet);
    let want_telemetry = telemetry_path.is_some() || host_trace.is_some();
    let rec = PhaseRecorder::new();
    let exec = Exec::new(jobs).with_progress(&progress);
    let outcomes = if want_telemetry {
        run_campaign(
            &seed_list,
            &profile,
            &cfg,
            &exec.with_phases(&rec),
            &service,
        )
    } else {
        run_campaign(&seed_list, &profile, &cfg, &exec, &service)
    };
    if want_telemetry {
        let config = Json::obj([
            ("profile", profile_name.to_json()),
            ("seeds", seeds.to_json()),
            ("seed_base", seed_base.to_json()),
            ("inject_train_bug", inject_train.to_json()),
            ("inject_lscd_bug", inject_lscd.to_json()),
        ]);
        if let Err(e) = telemetry::emit(
            "fuzz",
            &config,
            seeds,
            seed_list.clone(),
            jobs,
            &rec,
            service.enabled().then(|| service.counters()),
            telemetry_path.as_deref(),
            host_trace.as_deref(),
        ) {
            eprintln!("fuzz: {e}");
            return ExitCode::FAILURE;
        }
    }

    let mut report = campaign_report(&profile, &outcomes);
    let failing: Vec<u64> = outcomes
        .iter()
        .filter(|o| !o.passed())
        .map(|o| o.seed)
        .collect();

    if do_minimize && !failing.is_empty() {
        let minimized = par_map(
            &failing,
            &Exec::new(jobs),
            |_| String::new(),
            |_| (0, 0),
            |&seed| {
                let spec = plan(&profile, seed);
                minimize(&spec, &cfg).map(|m| {
                    Json::obj([
                        ("seed", seed.to_json()),
                        ("instructions", (m.program.instructions() as u64).to_json()),
                        ("steps", (m.steps as u64).to_json()),
                        (
                            "findings",
                            Json::Array(m.findings.iter().map(|f| f.to_json()).collect()),
                        ),
                    ])
                })
            },
        );
        if let Json::Object(ref mut fields) = report {
            fields.push((
                "minimized".into(),
                Json::Array(minimized.into_iter().flatten().collect()),
            ));
        }
    }

    if let Some(dir) = out.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("fuzz: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = std::fs::write(&out, report.pretty() + "\n") {
        eprintln!("fuzz: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }

    let findings: usize = outcomes.iter().map(|o| o.findings.len()).sum();
    let unsound = outcomes.iter().filter(|o| !o.soundness.is_empty()).count();
    println!(
        "fuzz: profile {profile_name}, {} seeds ({} failing, {} unsound, {} findings) -> {}",
        outcomes.len(),
        failing.len(),
        unsound,
        findings,
        out.display()
    );
    for o in outcomes.iter().filter(|o| !o.passed()).take(5) {
        for s in &o.soundness {
            println!("  seed {}: soundness: {s}", o.seed);
        }
        for f in &o.findings {
            println!(
                "  seed {}: [{}] {}: {}",
                o.seed, f.scheme, f.invariant, f.detail
            );
        }
    }

    if inject {
        // The campaign *must* catch the seeded bug(s).
        let what = if inject_train && inject_lscd {
            "training + LSCD bugs"
        } else if inject_lscd {
            "LSCD bug"
        } else {
            "training bug"
        };
        if failing.is_empty() {
            eprintln!("fuzz: injected {what} was NOT caught over {seeds} seeds");
            return ExitCode::FAILURE;
        }
        println!(
            "fuzz: injected {what} caught on {} of {} seeds",
            failing.len(),
            outcomes.len()
        );
        return ExitCode::SUCCESS;
    }
    if failing.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
