//! Property tests for the content-addressed result store's key space and
//! the cold/warm/disabled execution invariants (DESIGN.md §14).
//!
//! The contract under test: a store key is a pure function of the request
//! *content* — never of JSON assembly order, worker count, or which
//! consumer built the document — and bumping the key schema version makes
//! every previously stored entry unreachable rather than misinterpreted.

use lvp_bench::{
    execute_batch, run_matrix, sim_request_doc, BatchRequest, ConfigVariant, Exec, MatrixSpec,
    SchemeKind,
};
use lvp_json::{Json, ToJson};
use lvp_store::{request_key, request_key_versioned, SimService, Store, KEY_SCHEMA_VERSION};
use lvp_uarch::{SampleSpec, SimConfig};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lvp-store-prop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Recursively shuffles every JSON object's key order (reverses each pair
/// list) without changing content.
fn permute(j: &Json) -> Json {
    match j {
        Json::Object(pairs) => Json::Object(
            pairs
                .iter()
                .rev()
                .map(|(k, v)| (k.clone(), permute(v)))
                .collect(),
        ),
        Json::Array(items) => Json::Array(items.iter().map(permute).collect()),
        other => other.clone(),
    }
}

#[test]
fn keys_are_invariant_to_json_assembly_order() {
    for scheme in SchemeKind::all() {
        for variant in ConfigVariant::all() {
            let doc = sim_request_doc(0xdead_beef, 20_000, scheme.name(), &variant.config());
            let shuffled = permute(&doc);
            assert_ne!(
                doc.compact(),
                shuffled.compact(),
                "permutation must actually reorder the serialized form"
            );
            assert_eq!(
                request_key(&doc),
                request_key(&shuffled),
                "{}/{}: key depends on JSON key order",
                scheme.name(),
                variant.name()
            );
        }
    }
}

#[test]
fn pinned_preset_scheme_matrix_never_collides() {
    // Every (preset, scheme, budget, trace, sampled?) combination the
    // committed experiments can request must map to a distinct key; a
    // collision would silently serve one config's results as another's.
    let mut seen: HashMap<String, String> = HashMap::new();
    for &fingerprint in &[0x1111_u64, 0x2222] {
        for &budget in &[20_000u64, 200_000] {
            for scheme in SchemeKind::all() {
                for variant in ConfigVariant::all() {
                    for sample in [
                        None,
                        Some(SampleSpec {
                            ff: 10_000,
                            warmup: 2_000,
                            detail: 4_000,
                            period: 10_000,
                        }),
                    ] {
                        let mut cfg = variant.config();
                        cfg.sample = sample;
                        let id = format!(
                            "{fingerprint:x}/{budget}/{}/{}/{}",
                            scheme.name(),
                            variant.name(),
                            sample.is_some()
                        );
                        let key =
                            request_key(&sim_request_doc(fingerprint, budget, scheme.name(), &cfg));
                        if let Some(prev) = seen.insert(key, id.clone()) {
                            panic!("key collision between '{prev}' and '{id}'");
                        }
                    }
                }
            }
        }
    }
    assert_eq!(seen.len(), 2 * 2 * 5 * 6 * 2);
}

#[test]
fn schema_version_bump_invalidates_stored_entries() {
    let dir = temp_dir("schema");
    let store = Store::open(&dir).expect("open store");
    let doc = sim_request_doc(0xabcd, 20_000, "DLVP", &SimConfig::default());
    let old_key = request_key_versioned(&doc, KEY_SCHEMA_VERSION);
    assert_eq!(
        old_key,
        request_key(&doc),
        "request_key must use the current schema version"
    );
    store
        .put(&old_key, &Json::obj([("cycles", Json::U64(7))]))
        .expect("put");

    // After a (hypothetical) schema bump the same request hashes to a key
    // the old entry is not stored under: a clean miss, never a stale read.
    let new_key = request_key_versioned(&doc, KEY_SCHEMA_VERSION + 1);
    assert_ne!(old_key, new_key);
    assert_eq!(store.get(&new_key).expect("get"), None);
    assert!(store.get(&old_key).expect("get").is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn matrix_results_and_stored_keys_are_jobs_invariant() {
    let spec = MatrixSpec {
        workloads: vec!["aifirf".into(), "nat".into()],
        schemes: vec![SchemeKind::Baseline, SchemeKind::Dlvp],
        variants: vec![ConfigVariant::Default],
        budget: 3_000,
        sample: None,
    };

    let dir1 = temp_dir("jobs1");
    let dir4 = temp_dir("jobs4");
    let svc1 = SimService::open(&dir1).expect("open service");
    let svc4 = SimService::open(&dir4).expect("open service");
    let serial = run_matrix(&spec, &Exec::new(1).with_service(&svc1));
    let parallel = run_matrix(&spec, &Exec::new(4).with_service(&svc4));

    // Same artifact bytes regardless of worker count...
    assert_eq!(serial.to_json().pretty(), parallel.to_json().pretty());
    // ...and the two stores ended up with the exact same key population.
    let keys1 = Store::open(&dir1).expect("reopen").keys().expect("keys");
    let keys4 = Store::open(&dir4).expect("reopen").keys().expect("keys");
    assert_eq!(keys1, keys4, "stored keys depend on --jobs");
    assert_eq!(keys1.len(), 4, "one entry per job");
    assert_eq!(svc1.counters().misses, 4);
    assert_eq!(svc1.counters().hits, 0);

    // A warm re-run (any worker count) answers fully from the store with
    // byte-identical results.
    let warm_svc = SimService::open(&dir1).expect("open service");
    let warm = run_matrix(&spec, &Exec::new(2).with_service(&warm_svc));
    assert_eq!(serial.to_json().pretty(), warm.to_json().pretty());
    assert_eq!(warm_svc.counters().hits, 4);
    assert_eq!(warm_svc.counters().misses, 0);

    // And a store-disabled run of the same spec is byte-identical too.
    let disabled = run_matrix(&spec, &Exec::new(2).with_service(&SimService::disabled()));
    assert_eq!(serial.to_json().pretty(), disabled.to_json().pretty());

    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir4);
}

/// `runner` and `serve` share one key space: a store filled by a matrix
/// run answers a served batch of the same jobs from the store alone, with
/// the same keys and byte-identical outcomes.
#[test]
fn store_filled_by_run_matrix_answers_execute_batch() {
    let spec = MatrixSpec {
        workloads: vec!["aifirf".into(), "perlbmk".into()],
        schemes: vec![SchemeKind::Baseline, SchemeKind::Vtage],
        variants: vec![ConfigVariant::Default, ConfigVariant::NoPrefetch],
        budget: 3_000,
        sample: None,
    };
    let dir = temp_dir("matrix-to-serve");
    let filled = run_matrix(
        &spec,
        &Exec::new(2).with_service(&SimService::open(&dir).expect("open service")),
    );

    let served_svc = SimService::open(&dir).expect("reopen service");
    let req = BatchRequest {
        id: "b-shared".into(),
        jobs: spec.expand(),
    };
    let lines = execute_batch(&req, &served_svc, 2);
    assert_eq!(lines.len(), filled.jobs.len());
    for (line, job) in lines.iter().zip(&filled.jobs) {
        assert_eq!(line.get("source").and_then(Json::as_str), Some("store"));
        assert_eq!(line.get("outcome"), Some(&job.outcome.to_json()));
        let doc = sim_request_doc(
            lvp_workloads::by_name(&job.spec.workload)
                .expect("workload")
                .trace(spec.budget)
                .fingerprint(),
            spec.budget,
            job.spec.scheme.name(),
            &job.spec.config(),
        );
        assert_eq!(
            line.get("key").and_then(Json::as_str),
            Some(request_key(&doc).as_str())
        );
    }
    let c = served_svc.counters();
    assert_eq!((c.hits, c.misses, c.writes), (lines.len() as u64, 0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn distinct_dimensions_change_the_key() {
    let cfg = SimConfig::default();
    let base = request_key(&sim_request_doc(1, 20_000, "DLVP", &cfg));
    let other_trace = request_key(&sim_request_doc(2, 20_000, "DLVP", &cfg));
    let other_budget = request_key(&sim_request_doc(1, 20_001, "DLVP", &cfg));
    let other_scheme = request_key(&sim_request_doc(1, 20_000, "VTAGE", &cfg));
    let keys: HashSet<_> = [&base, &other_trace, &other_budget, &other_scheme]
        .into_iter()
        .collect();
    assert_eq!(keys.len(), 4, "every request dimension must reach the key");
}
