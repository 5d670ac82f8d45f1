//! The one static-vs-dynamic join behind every DLVP cross-validation.
//!
//! The `analyze` gate, the `table05_conflicts` spec and the oracle's DLVP
//! deep check all read the same validating simulation
//! ([`DlvpSimSlice`]) against the same static analyses. [`XvalJoin::new`]
//! merges the slice's per-PC counters into the analyzer's per-load
//! verdicts, computes R5's must-edge exercise metric from the trace, and
//! runs the gate rules R1–R7; callers only layer their own policy on top.

use dlvp::DlvpSimSlice;
use lvp_analysis::{
    cross_validate, cross_validate_dep, DepAnalysis, DepInputs, DynLoadStats, ProgramAnalysis,
    Violation, XvalConfig, XvalLoad,
};
use lvp_trace::Trace;
use std::collections::BTreeMap;

/// The static-vs-dynamic join of one validating simulation.
#[derive(Debug, Clone)]
pub struct XvalJoin {
    /// Per load: static verdicts + merged dynamic counters, address order.
    pub loads: Vec<XvalLoad>,
    /// Per must-edge `(load_pc, store_pc)`: load executions after the
    /// store's first execution (R5's exercise metric).
    pub must_exercised: BTreeMap<(u64, u64), u64>,
    /// Cross-validation violations, R1–R4 then R5–R7 (empty = gate passed).
    pub violations: Vec<Violation>,
}

impl XvalJoin {
    /// Joins `sim`, a validating simulation of `trace`, with the static
    /// analyses of the program that produced the trace, and runs the gate:
    /// R1–R4 ([`cross_validate`]) then the dependence rules R5–R7
    /// ([`cross_validate_dep`]).
    pub fn new(
        sim: &DlvpSimSlice,
        analysis: &ProgramAnalysis,
        dep: &DepAnalysis,
        trace: &Trace,
        xval: &XvalConfig,
    ) -> XvalJoin {
        let loads: Vec<XvalLoad> = analysis
            .loads
            .iter()
            .map(|l| {
                let s = sim.per_pc.get(&l.pc).copied().unwrap_or_default();
                let eng = sim.outcomes.get(&l.pc).copied().unwrap_or_default();
                XvalLoad {
                    pc: l.pc,
                    class: l.class,
                    conflict_free: l.conflict_free(),
                    ordered: l.ordered,
                    stats: DynLoadStats {
                        executions: s.executions,
                        conflict_exposed: s.conflict_exposed,
                        ordering_violations: s.ordering_violations,
                        injected: s.injected,
                        value_correct: s.correct,
                        attempts: eng.attempts,
                        predictions: eng.predictions,
                        addr_mispredicts: eng.addr_mispredicts,
                        stale_mispredicts: eng.stale_mispredicts,
                        lscd_suppressed: eng.lscd_suppressed,
                    },
                }
            })
            .collect();
        let must_exercised = must_exercised(trace, dep);
        let mut violations = cross_validate(&loads, xval);
        violations.extend(cross_validate_dep(
            &loads,
            &DepInputs {
                graph: &dep.graph,
                bounds: &dep.bounds,
                must_exercised: &must_exercised,
            },
            xval,
        ));
        XvalJoin {
            loads,
            must_exercised,
            violations,
        }
    }
}

/// Counts, for every must-conflict edge, how many times the load committed
/// *after* the store's first dynamic execution — the R5 exercise metric.
/// The simulator's conflict-granule map is persistent, so any such load
/// execution is guaranteed to observe the exposure.
fn must_exercised(trace: &Trace, dep: &DepAnalysis) -> BTreeMap<(u64, u64), u64> {
    let mut store_first: BTreeMap<u64, usize> = BTreeMap::new();
    let mut load_indices: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, r) in trace.records().iter().enumerate() {
        if r.inst.is_store() {
            store_first.entry(r.pc).or_insert(i);
        } else if r.inst.is_load() {
            load_indices.entry(r.pc).or_default().push(i);
        }
    }
    dep.graph
        .must_edges()
        .map(|e| {
            let n = store_first
                .get(&e.store_pc)
                .map(|&first| {
                    load_indices
                        .get(&e.load_pc)
                        .map_or(0, |v| v.iter().filter(|&&i| i > first).count() as u64)
                })
                .unwrap_or(0);
            ((e.load_pc, e.store_pc), n)
        })
        .collect()
}
