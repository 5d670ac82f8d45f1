//! Integration suite for `lvp-analysis`: soundness of the static analyzer
//! against real executions, and the static-vs-dynamic cross-validation
//! gate — including the mandated demonstration that the gate FAILS on an
//! injected predictor bug.

use dlvp::{DlvpConfig, PapConfig};
use lvp_analysis::{LoadClass, ProgramAnalysis, XvalConfig};
use lvp_bench::analysis::{
    analyze_workload, analyze_workloads, depgraph_json, report_json, total_violations,
};
use lvp_bench::Exec;
use std::collections::HashMap;

const BUDGET: u64 = 30_000;

/// The static analysis is an over-approximation: every dynamically executed
/// memory access must satisfy the static verdicts for its PC, on every
/// workload in the suite.
#[test]
fn static_verdicts_are_sound_against_real_executions() {
    for w in lvp_workloads::all() {
        let pa = ProgramAnalysis::analyze(&w.program());
        let loads: HashMap<u64, _> = pa.loads.iter().map(|l| (l.pc, l)).collect();
        let stores: HashMap<u64, _> = pa.stores.iter().map(|s| (s.pc, s)).collect();
        let trace = w.trace(BUDGET);
        for rec in trace.records() {
            let bytes = match rec.inst.mem_bytes() {
                Some(b) => b,
                None => continue,
            };
            if rec.inst.is_load() {
                let l = loads
                    .get(&rec.pc)
                    .unwrap_or_else(|| panic!("{}: load {:#x} missing", w.name, rec.pc));
                assert!(
                    l.region.contains(rec.eff_addr, bytes),
                    "{}: load {:#x} touched {:#x} outside its static region {:?}",
                    w.name,
                    rec.pc,
                    rec.eff_addr,
                    l.region
                );
                if let LoadClass::Constant { addr } = l.class {
                    assert_eq!(
                        addr, rec.eff_addr,
                        "{}: constant-class load {:#x} executed a different address",
                        w.name, rec.pc
                    );
                }
            }
            if rec.inst.is_store() {
                let s = stores
                    .get(&rec.pc)
                    .unwrap_or_else(|| panic!("{}: store {:#x} missing", w.name, rec.pc));
                assert!(
                    s.region.contains(rec.eff_addr, bytes),
                    "{}: store {:#x} touched {:#x} outside its static region {:?}",
                    w.name,
                    rec.pc,
                    rec.eff_addr,
                    s.region
                );
            }
        }
    }
}

/// A statically conflict-free load must never be flagged `conflict_exposed`
/// by the simulator, and the full gate must pass, on every workload.
#[test]
fn gate_passes_on_the_correct_simulator() {
    let ws = ["aifirf", "nat", "gzip", "libquantum", "mcf"];
    for name in ws {
        let w = lvp_workloads::by_name(name).expect("workload");
        let r = analyze_workload(
            &w,
            BUDGET,
            PapConfig::default(),
            DlvpConfig::default(),
            &XvalConfig::default(),
        );
        assert!(
            r.violations.is_empty(),
            "{name}: gate must pass on the correct simulator: {:?}",
            r.violations
        );
        for l in &r.loads {
            if l.conflict_free {
                assert_eq!(
                    l.stats.conflict_exposed, 0,
                    "{name}: conflict-free load {:#x} saw an in-flight store",
                    l.pc
                );
            }
        }
    }
}

/// The headline regression: skipping the APT's §3.1.2 confidence reset on
/// address mismatch (a realistic predictor bug) must make the gate FAIL.
#[test]
fn gate_fails_on_injected_training_bug() {
    let buggy = PapConfig {
        train_reset_on_mismatch: false,
        ..PapConfig::default()
    };
    let mut caught = 0;
    for name in ["nat", "gzip"] {
        let w = lvp_workloads::by_name(name).expect("workload");
        let r = analyze_workload(
            &w,
            60_000,
            buggy,
            DlvpConfig::default(),
            &XvalConfig::default(),
        );
        if !r.violations.is_empty() {
            caught += 1;
            assert!(
                r.violations.iter().any(|v| v.rule == "addr-accuracy"),
                "{name}: expected an addr-accuracy violation, got {:?}",
                r.violations
            );
        }
    }
    assert!(
        caught > 0,
        "the injected training bug must trip the gate on at least one workload"
    );
}

/// The second mandated bug demonstration: an LSCD that also captures
/// cleanly-validated loads suppresses statically conflict-free PCs, which
/// the dependence rule R7 must catch.
#[test]
fn gate_fails_on_injected_lscd_bug() {
    let buggy = DlvpConfig {
        inject_lscd_bug: true,
        ..DlvpConfig::default()
    };
    let mut caught = 0;
    for name in ["aifirf", "nat", "gzip"] {
        let w = lvp_workloads::by_name(name).expect("workload");
        let r = analyze_workload(
            &w,
            60_000,
            PapConfig::default(),
            buggy,
            &XvalConfig::default(),
        );
        if r.violations.iter().any(|v| v.rule == "lscd-subset") {
            caught += 1;
        }
    }
    assert!(
        caught > 0,
        "the injected LSCD bug must trip rule R7 on at least one workload"
    );
}

/// The full multi-workload report is byte-deterministic.
#[test]
fn report_is_byte_deterministic() {
    let ws: Vec<_> = ["aifirf", "nat", "mcf"]
        .iter()
        .map(|n| lvp_workloads::by_name(n).expect("workload"))
        .collect();
    let cfg = XvalConfig::default();
    let a = analyze_workloads(
        &ws,
        BUDGET,
        PapConfig::default(),
        DlvpConfig::default(),
        &cfg,
        &Exec::new(1),
    );
    let b = analyze_workloads(
        &ws,
        BUDGET,
        PapConfig::default(),
        DlvpConfig::default(),
        &cfg,
        &Exec::new(1),
    );
    assert_eq!(
        report_json(&a, BUDGET).pretty(),
        report_json(&b, BUDGET).pretty(),
        "analyze report must be byte-deterministic"
    );
    assert_eq!(
        depgraph_json(&a).pretty(),
        depgraph_json(&b).pretty(),
        "depgraph must be byte-deterministic"
    );
    assert_eq!(total_violations(&a), 0);
}
