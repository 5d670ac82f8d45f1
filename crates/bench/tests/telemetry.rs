//! Host-telemetry contract tests: recording phases, progress meters, and
//! manifest emission must never change any deterministic artifact, and the
//! manifest/trace documents must round-trip their schemas.

use lvp_bench::perf::{bench_doc, spun, BenchPolicy, DEFAULT_TOL_REL};
use lvp_bench::runner::{run_matrix, MatrixSpec};
use lvp_bench::specs::{self, run_specs, run_specs_with};
use lvp_bench::{analysis, config_hash, par_map, run_scheme, Exec, Manifest, Progress, SchemeKind};
use lvp_json::{Json, ToJson};
use lvp_obs::{host_trace, PhaseRecorder, PhaseSink};
use lvp_uarch::SimConfig;

const BUDGET: u64 = 8_000;

fn small_spec() -> MatrixSpec {
    let mut spec = MatrixSpec::full(BUDGET);
    spec.workloads = vec!["aifirf".into(), "libquantum".into()];
    spec.schemes = vec![SchemeKind::Baseline, SchemeKind::Dlvp];
    spec
}

/// The load-bearing byte-identity guarantee: recording telemetry or
/// ticking a progress meter does not perturb the results artifact, for any
/// worker count.
#[test]
fn recorded_matrix_results_are_byte_identical() {
    let spec = small_spec();
    let plain = run_matrix(&spec, &Exec::new(1)).to_json().pretty();
    for workers in [1usize, 3] {
        let rec = PhaseRecorder::new();
        let progress = Progress::new("test", spec.expand().len(), true);
        let exec = Exec::new(workers)
            .with_phases(&rec)
            .with_progress(&progress);
        assert_eq!(run_matrix(&spec, &exec).to_json().pretty(), plain);
        assert!(
            rec.spans().iter().any(|s| s.name == "simulate"),
            "recorder captured the simulate phase"
        );
        assert_eq!(progress.done(), spec.expand().len());
    }
}

/// Spec-pipeline renders are identical with and without telemetry.
#[test]
fn recorded_spec_renders_are_byte_identical() {
    let selected = vec![specs::by_name("fig05_prefetch").expect("registered spec")];
    let plain = run_specs(&selected, BUDGET, 2);
    let rec = PhaseRecorder::new();
    let recorded = run_specs_with(&selected, BUDGET, 2, &rec, &Progress::off());
    assert_eq!(recorded.len(), plain.len());
    for (a, b) in recorded.iter().zip(plain.iter()) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.text, b.text);
    }
    let spans = rec.spans();
    for phase in ["build_traces", "simulate", "render"] {
        assert!(spans.iter().any(|s| s.name == phase), "missing {phase}");
    }
}

/// Analysis reports are identical with and without telemetry.
#[test]
fn recorded_analysis_is_byte_identical() {
    let workloads = vec![lvp_workloads::by_name("aifirf").expect("workload")];
    let pap = dlvp::PapConfig::default();
    let dcfg = dlvp::DlvpConfig::default();
    let xval = lvp_analysis::XvalConfig::default();
    let plain = analysis::analyze_workloads(&workloads, BUDGET, pap, dcfg, &xval, &Exec::new(1));
    let rec = PhaseRecorder::new();
    let recorded = analysis::analyze_workloads(
        &workloads,
        BUDGET,
        pap,
        dcfg,
        &xval,
        &Exec::new(1).with_phases(&rec),
    );
    assert_eq!(
        analysis::report_json(&recorded, BUDGET).pretty(),
        analysis::report_json(&plain, BUDGET).pretty()
    );
    assert_eq!(
        analysis::depgraph_json(&recorded).pretty(),
        analysis::depgraph_json(&plain).pretty()
    );
}

/// The bench-layer slowdown burn slows the wall clock but never the
/// simulation: every deterministic counter matches the unspun run, on the
/// flat and the sampled path alike.
#[test]
fn injected_slowdown_is_invisible_to_the_simulation() {
    let trace = lvp_workloads::by_name("aifirf")
        .expect("workload")
        .trace(BUDGET);
    let sampled = SimConfig {
        sample: Some(lvp_bench::perf::TIER_SAMPLE),
        ..SimConfig::default()
    };
    for cfg in [SimConfig::default(), sampled] {
        let plain = run_scheme(&trace, SchemeKind::Dlvp, &cfg);
        let slowed = spun(40, trace.len(), || {
            run_scheme(&trace, SchemeKind::Dlvp, &cfg)
        });
        assert_eq!(slowed.stats, plain.stats);
        assert_eq!(slowed.to_json().pretty(), plain.to_json().pretty());
    }
}

/// `par_map` returns the same results with and without a recorder, and its
/// `job:` spans carry the metered work.
#[test]
fn metered_pool_matches_plain_pool() {
    let items: Vec<u64> = (0..17).collect();
    let square = |&x: &u64| x * x;
    let label = |x: &u64| format!("job:{x}");
    let meter = |r: &u64| (*r, 1);
    let plain = par_map(&items, &Exec::new(1), label, meter, square);
    assert_eq!(plain, items.iter().map(square).collect::<Vec<_>>());
    let rec = PhaseRecorder::new();
    let progress = Progress::off();
    let exec = Exec::new(4).with_phases(&rec).with_progress(&progress);
    let metered = par_map(&items, &exec, label, meter, square);
    assert_eq!(metered, plain, "input order for any worker count");
    assert_eq!(progress.done(), items.len());
    assert!(par_map(&[], &exec, label, meter, square).is_empty());
    let spans = rec.spans();
    let jobs: Vec<_> = spans
        .iter()
        .filter(|s| s.name.starts_with("job:"))
        .collect();
    assert_eq!(jobs.len(), items.len());
    assert!(jobs.iter().all(|s| s.lane >= 1), "jobs run on worker lanes");
    let charged: u64 = jobs.iter().map(|s| s.sim_cycles).sum();
    assert_eq!(charged, items.iter().map(|x| x * x).sum::<u64>());
}

/// The manifest's config hash is a function of the configuration alone —
/// stable across `--jobs` — and the manifest document round-trips.
#[test]
fn manifest_round_trips_and_hash_ignores_workers() {
    let spec = small_spec();
    let mut manifests = Vec::new();
    for workers in [1usize, 4] {
        let rec = PhaseRecorder::new();
        let _ = run_matrix(&spec, &Exec::new(workers).with_phases(&rec));
        let m = Manifest::build(
            "runner",
            &spec.to_json(),
            spec.budget,
            spec.expand().iter().map(|j| j.seed()).collect(),
            workers,
            &rec,
            None,
        );
        assert_eq!(m.per_job.len(), spec.expand().len());
        assert!(m.per_job.iter().all(|j| (j.worker as usize) < workers));
        let parsed = Manifest::parse(&m.to_json()).expect("manifest parses back");
        assert_eq!(parsed.to_json().pretty(), m.to_json().pretty());
        manifests.push(m);
    }
    assert_eq!(manifests[0].config_hash, manifests[1].config_hash);
    assert_eq!(
        manifests[0].config_hash,
        config_hash("runner", &spec.to_json())
    );
    assert_ne!(
        config_hash("figs", &spec.to_json()),
        manifests[0].config_hash,
        "tool name is part of the hash"
    );
}

/// The Chrome host trace is one JSON array of complete events, one lane per
/// worker, covering every recorded span.
#[test]
fn chrome_host_trace_round_trips() {
    let rec = PhaseRecorder::new();
    rec.time(0, "outer", || {
        rec.time(1, "job:a/x/y", || std::hint::black_box(3 + 4))
    });
    let spans = rec.spans();
    let doc = Json::parse(&host_trace(&spans).pretty()).expect("host trace is JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    let phase_events: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    assert_eq!(phase_events.len(), spans.len());
    for ev in &phase_events {
        assert!(ev.get("name").and_then(Json::as_str).is_some());
        assert!(matches!(ev.get("pid"), Some(Json::U64(_))));
    }
    // Lane metadata: a "main" thread name plus one per worker lane used.
    assert!(events
        .iter()
        .any(|e| e.get("name").and_then(Json::as_str) == Some("thread_name")));
}

/// Schema-v2 baseline documents survive a disk round-trip through the same
/// parser `bench --check` uses.
#[test]
fn bench_doc_round_trips_through_baseline_parser() {
    let rows = vec![lvp_bench::perf::BenchRow {
        phase: "simcore".into(),
        workload: "aifirf".into(),
        scheme: "DLVP".into(),
        budget: 50_000,
        det: vec![("sim_cycles".into(), 12_345)],
        median_ns: 1_000_000,
        min_ns: 900_000,
        max_ns: 1_100_000,
        sim_cycles_per_sec: 12_345.0e3,
    }];
    let doc = bench_doc(&BenchPolicy::default(), DEFAULT_TOL_REL, &rows);
    let reparsed = Json::parse(&doc.pretty()).expect("doc is JSON");
    let baseline = lvp_bench::perf::Baseline::parse(&reparsed).expect("v2 baseline parses");
    assert_eq!(baseline.tol_rel, DEFAULT_TOL_REL);
    assert_eq!(baseline.rows, rows);
}
