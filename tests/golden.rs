//! Golden-stats regression suite: the committed snapshot under
//! `results/golden/` pins every counter of a small scheme × workload ×
//! config matrix. Any behavioural change to the emulator, the predictors,
//! the memory hierarchy or the timing model shows up here as a per-counter
//! drift — regenerate intentionally with
//! `cargo run --release -p lvp-bench --bin runner -- <same spec> --update-golden results/golden/small.json`.

use lvp_bench::runner::{check_against_golden, diff_matrices, run_matrix, Tolerances};
use lvp_bench::{ConfigVariant, Exec, MatrixSpec, SchemeKind};
use lvp_json::Json;
use std::path::Path;

/// The spec of the committed snapshot. Must match the command in the
/// module docs above.
fn golden_spec() -> MatrixSpec {
    MatrixSpec {
        workloads: ["aifirf", "nat", "perlbmk", "gzip", "bzip2", "mcf"]
            .map(str::to_string)
            .to_vec(),
        schemes: SchemeKind::all().to_vec(),
        variants: vec![ConfigVariant::Default, ConfigVariant::NoPrefetch],
        budget: 20_000,
        sample: None,
    }
}

fn golden_path() -> &'static Path {
    Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/golden/small.json"
    ))
}

#[test]
fn stats_match_committed_golden_snapshot() {
    let results = run_matrix(&golden_spec(), &Exec::new(4));
    let drifts = check_against_golden(&results, golden_path(), Tolerances::default())
        .expect("golden snapshot must exist and parse");
    assert!(
        drifts.is_empty(),
        "{} counters drifted from {} — if intentional, regenerate the golden \
         (see module docs):\n{}",
        drifts.len(),
        golden_path().display(),
        drifts
            .iter()
            .take(25)
            .map(|d| format!("  {d}\n"))
            .collect::<String>()
    );
}

#[test]
fn drift_detection_catches_a_single_counter_change() {
    let text = std::fs::read_to_string(golden_path()).expect("read golden");
    let golden = Json::parse(&text).expect("parse golden");

    // Tamper with one numeric leaf and the diff must flag exactly it.
    let mut tampered = golden.clone();
    fn bump_first_cycles(j: &mut Json) -> bool {
        match j {
            Json::Object(fields) => fields.iter_mut().any(|(k, v)| {
                if k == "cycles" {
                    if let Json::U64(n) = v {
                        *n += 1;
                        return true;
                    }
                }
                bump_first_cycles(v)
            }),
            Json::Array(items) => items.iter_mut().any(bump_first_cycles),
            _ => false,
        }
    }
    assert!(
        bump_first_cycles(&mut tampered),
        "golden must contain a cycles counter"
    );

    let drifts = diff_matrices(&golden, &tampered, Tolerances::default());
    assert_eq!(
        drifts.len(),
        1,
        "exactly the tampered counter drifts: {drifts:?}"
    );
    assert!(
        drifts[0].path.ends_with("cycles"),
        "unexpected path {}",
        drifts[0].path
    );

    // A generous tolerance absorbs the off-by-one.
    let tol = Tolerances { rel: 0.0, abs: 2.0 };
    assert!(diff_matrices(&golden, &tampered, tol).is_empty());
}
