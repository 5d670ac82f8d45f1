//! Accuracy of the sampled driver against full detail.
//!
//! `run_sampled` streams every warm-up and detail window through one
//! long-lived core, so caches, branch predictors and store sets stay warm
//! across windows. Under the bench's fixed `TIER_SAMPLE` spec, at a 500k
//! budget, the sampled DLVP IPC must land within 5% of the full-detail
//! IPC on each bench workload. The test is slow in debug builds; run it
//! with `cargo test --release -p lvp-bench --test sampled_accuracy --
//! --ignored`.

use lvp_bench::perf::TIER_SAMPLE;
use lvp_bench::{run_scheme, SchemeKind};
use lvp_uarch::SimConfig;

const BUDGET: u64 = 500_000;
const WORKLOADS: [&str; 6] = [
    "aifirf",
    "autcor",
    "viterbi",
    "perlbmk",
    "libquantum",
    "nat",
];
/// Largest accepted |sampled − full| / full IPC, in percent.
const MAX_ERR_PCT: f64 = 5.0;

#[test]
#[ignore = "release-mode accuracy run; see the module docs"]
fn sampled_tracks_full_detail() {
    let full_cfg = SimConfig::default();
    let sampled_cfg = SimConfig {
        sample: Some(TIER_SAMPLE),
        ..SimConfig::default()
    };
    let mut failures = Vec::new();
    for name in WORKLOADS {
        let trace = lvp_workloads::by_name(name)
            .expect("workload is registered")
            .trace(BUDGET);
        let full = run_scheme(&trace, SchemeKind::Dlvp, &full_cfg).stats.ipc();
        let sampled = run_scheme(&trace, SchemeKind::Dlvp, &sampled_cfg)
            .stats
            .ipc();
        let err = 100.0 * (sampled - full).abs() / full;
        println!("{name:<11} full IPC {full:.4}  sampled IPC {sampled:.4}  error {err:.2}%");
        if err > MAX_ERR_PCT {
            failures.push(format!("{name}: {err:.2}%"));
        }
    }
    assert!(
        failures.is_empty(),
        "sampled IPC strays more than {MAX_ERR_PCT}% from full detail: {failures:?}"
    );
}
