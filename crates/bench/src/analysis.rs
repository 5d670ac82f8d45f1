//! The `analyze` pipeline: static analysis of every workload program,
//! cross-validated against a dynamic DLVP simulation of the same workload.
//!
//! This is the library backing the `analyze` CLI, the `table05_conflicts`
//! spec and the integration tests: [`analyze_workloads`] runs `lvp-analysis`
//! over each workload's program — the path-insensitive pass *and* the
//! path-sensitive dependence pass ([`lvp_analysis::DepAnalysis`]: path
//! contexts, store→load conflict graph, static predictability bounds) —
//! simulates each trace under DLVP as one [`SimJob`] on the shared batch
//! engine ([`run_batch`]), and joins the two with [`XvalJoin::new`] — the
//! same join the fuzz oracle's DLVP deep check uses — which runs both gate
//! rule sets (R1–R4 and R5–R7). Path-hash collisions (the warn-level R8
//! audit) are counted in the report but never fail the gate.
//! [`report_json`] renders the whole batch as one deterministic JSON
//! document; [`depgraph_json`] renders the purely static dependence graphs
//! (byte-diffed in CI — they depend only on the programs, not the budget).

use crate::service::{run_batch, Exec, SimJob};
use dlvp::{DlvpConfig, DlvpSimSlice, PapConfig};
use lvp_analysis::{DepAnalysis, ProgramAnalysis, Violation, XvalConfig, XvalLoad};
use lvp_fuzz::XvalJoin;
use lvp_json::{Json, ToJson};
use lvp_trace::Trace;
use lvp_uarch::CoreConfig;
use lvp_workloads::Workload;
use std::collections::BTreeMap;

/// One workload's static analysis, merged dynamic counters and gate
/// verdicts.
pub struct WorkloadAnalysis {
    /// Workload name.
    pub name: &'static str,
    /// The static analysis of the workload's program.
    pub analysis: ProgramAnalysis,
    /// The path-sensitive dependence analysis (contexts, conflict graph,
    /// bounds, R8 collision audit).
    pub dep: DepAnalysis,
    /// Per load: static verdicts + merged dynamic counters, address order.
    pub loads: Vec<XvalLoad>,
    /// Per must-edge `(load_pc, store_pc)`: load executions after the
    /// store's first execution (R5's exercise metric).
    pub must_exercised: BTreeMap<(u64, u64), u64>,
    /// Cross-validation violations, R1–R4 then R5–R7 (empty = gate passed).
    pub violations: Vec<Violation>,
    /// Cycles the validating DLVP simulation ran for (host-telemetry
    /// accounting only — never serialized into the report).
    pub sim_cycles: u64,
    /// Instructions the validating simulation committed (telemetry only).
    pub sim_instructions: u64,
}

/// One workload's validating DLVP simulation as a batch job. Its request
/// document and payload are [`DlvpSimSlice`]'s, so the fuzz oracle's deep
/// check and this pipeline share store entries.
struct XvalJob {
    workload: &'static str,
    budget: u64,
    pap: PapConfig,
    dlvp: DlvpConfig,
}

impl SimJob for XvalJob {
    type Output = DlvpSimSlice;

    fn trace_id(&self) -> (&str, u64) {
        (self.workload, self.budget)
    }

    fn label(&self) -> String {
        format!("job:{}/analyze/dlvp", self.workload)
    }

    fn request_doc(&self, trace_fingerprint: u64) -> Json {
        let core = CoreConfig::default();
        DlvpSimSlice::request_doc(trace_fingerprint, self.budget, &core, &self.dlvp, &self.pap)
    }

    fn run(&self, trace: &Trace) -> DlvpSimSlice {
        DlvpSimSlice::run(trace, CoreConfig::default(), self.dlvp, self.pap)
    }

    fn encode(output: &DlvpSimSlice) -> Json {
        output.to_payload()
    }

    fn decode(payload: &Json) -> Option<DlvpSimSlice> {
        DlvpSimSlice::from_payload(payload)
    }

    fn work(output: &DlvpSimSlice) -> (u64, u64) {
        (output.cycles, output.instructions)
    }
}

/// [`analyze_workloads`] for one workload, without telemetry or a store.
pub fn analyze_workload(
    workload: &Workload,
    budget: u64,
    pap: PapConfig,
    dlvp: DlvpConfig,
    xval: &XvalConfig,
) -> WorkloadAnalysis {
    let one = std::slice::from_ref(workload);
    let mut results = analyze_workloads(one, budget, pap, dlvp, xval, &Exec::new(1));
    results.remove(0)
}

/// Analyzes a batch of workloads and cross-validates each against a DLVP
/// simulation of `budget` dynamic instructions. `pap` and `dlvp` configure
/// the engine under test — pass `PapConfig { train_reset_on_mismatch:
/// false, .. }` or `DlvpConfig { inject_lscd_bug: true, .. }` to inject the
/// bugs the gate is designed to catch.
///
/// The validating simulations are one [`run_batch`] on `exec`: traces are
/// built once, the result store answers what it holds, and only misses
/// run, each under a `job:<workload>/analyze/dlvp` span — so a fully warm
/// run's manifest reports zero jobs, exactly like the `figs`/`runner`
/// batches. The static passes and the join run under a lane-0 `analyze`
/// span, in input order. Results are byte-identical for any `exec`.
pub fn analyze_workloads<P: lvp_obs::PhaseSink>(
    workloads: &[Workload],
    budget: u64,
    pap: PapConfig,
    dlvp: DlvpConfig,
    xval: &XvalConfig,
    exec: &Exec<P>,
) -> Vec<WorkloadAnalysis> {
    let jobs: Vec<XvalJob> = workloads
        .iter()
        .map(|w| XvalJob {
            workload: w.name,
            budget,
            pap,
            dlvp,
        })
        .collect();
    let batch = run_batch(&jobs, &[], exec);
    let mut span = exec.phases.span(0, "analyze");
    let results = workloads
        .iter()
        .zip(batch.results)
        .map(|(w, (sim, _))| {
            let trace = batch
                .traces
                .iter()
                .find_map(|((name, _), t)| (name == w.name).then_some(t))
                .expect("run_batch builds every job's trace");
            let program = w.program();
            let analysis = ProgramAnalysis::analyze(&program);
            let dep = DepAnalysis::analyze(&program, &analysis);
            let XvalJoin {
                loads,
                must_exercised,
                violations,
            } = XvalJoin::new(&sim, &analysis, &dep, trace, xval);
            WorkloadAnalysis {
                name: w.name,
                analysis,
                dep,
                loads,
                must_exercised,
                violations,
                sim_cycles: sim.cycles,
                sim_instructions: sim.instructions,
            }
        })
        .collect();
    span.finish();
    results
}

/// Total violations across a batch.
pub fn total_violations(results: &[WorkloadAnalysis]) -> usize {
    results.iter().map(|r| r.violations.len()).sum()
}

/// Total warn-level path-hash collisions (R8 audit) across a batch.
pub fn total_collisions(results: &[WorkloadAnalysis]) -> usize {
    results.iter().map(|r| r.dep.collisions.len()).sum()
}

fn dyn_load_to_json(l: &XvalLoad, r: &WorkloadAnalysis) -> Json {
    let s = l.stats;
    let bound = r.dep.bounds.iter().find(|b| b.pc == l.pc);
    Json::obj([
        ("pc", l.pc.to_json()),
        ("class", l.class.name().to_json()),
        ("conflict_free", l.conflict_free.to_json()),
        ("ordered", l.ordered.to_json()),
        (
            "coverage_bound",
            bound.map_or(1.0, |b| b.coverage_bound).to_json(),
        ),
        (
            "must_conflict",
            bound.is_some_and(|b| b.must_conflict).to_json(),
        ),
        ("executions", s.executions.to_json()),
        ("conflict_exposed", s.conflict_exposed.to_json()),
        ("ordering_violations", s.ordering_violations.to_json()),
        ("injected", s.injected.to_json()),
        ("value_correct", s.value_correct.to_json()),
        ("attempts", s.attempts.to_json()),
        ("predictions", s.predictions.to_json()),
        ("addr_mispredicts", s.addr_mispredicts.to_json()),
        ("stale_mispredicts", s.stale_mispredicts.to_json()),
        ("lscd_suppressed", s.lscd_suppressed.to_json()),
    ])
}

fn violation_to_json(v: &Violation) -> Json {
    Json::obj([
        ("pc", v.pc.to_json()),
        ("rule", v.rule.to_json()),
        ("detail", v.detail.to_json()),
    ])
}

/// The full deterministic report for one batch.
pub fn report_json(results: &[WorkloadAnalysis], budget: u64) -> Json {
    Json::obj([
        ("schema_version", 2u64.to_json()),
        ("budget", budget.to_json()),
        (
            "total_violations",
            (total_violations(results) as u64).to_json(),
        ),
        (
            "total_hash_collisions",
            (total_collisions(results) as u64).to_json(),
        ),
        (
            "workloads",
            Json::Array(
                results
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("name", r.name.to_json()),
                            ("static", r.analysis.to_json()),
                            (
                                "dep",
                                Json::obj([
                                    (
                                        "must_edges",
                                        (r.dep.graph.must_edges().count() as u64).to_json(),
                                    ),
                                    (
                                        "may_edges",
                                        ((r.dep.graph.edges.len()
                                            - r.dep.graph.must_edges().count())
                                            as u64)
                                            .to_json(),
                                    ),
                                    ("hash_collisions", (r.dep.collisions.len() as u64).to_json()),
                                    (
                                        "must_exercised",
                                        Json::Array(
                                            r.must_exercised
                                                .iter()
                                                .map(|(&(l, s), &n)| {
                                                    Json::obj([
                                                        ("load_pc", l.to_json()),
                                                        ("store_pc", s.to_json()),
                                                        ("executions_after", n.to_json()),
                                                    ])
                                                })
                                                .collect(),
                                        ),
                                    ),
                                ]),
                            ),
                            (
                                "loads",
                                Json::Array(
                                    r.loads.iter().map(|l| dyn_load_to_json(l, r)).collect(),
                                ),
                            ),
                            (
                                "violations",
                                Json::Array(r.violations.iter().map(violation_to_json).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The purely static dependence-graph document for a batch: one
/// [`DepAnalysis::to_json`] per workload. Depends only on the programs —
/// deterministic across budgets, bug injections, and re-runs, so CI
/// byte-diffs it against the committed artifact.
pub fn depgraph_json(results: &[WorkloadAnalysis]) -> Json {
    Json::obj([
        ("schema_version", 1u64.to_json()),
        (
            "workloads",
            Json::Array(
                results
                    .iter()
                    .map(|r| Json::obj([("name", r.name.to_json()), ("depgraph", r.dep.to_json())]))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fir_kernel_passes_the_gate_and_reports() {
        let w = lvp_workloads::by_name("aifirf").expect("workload");
        let r = analyze_workload(
            &w,
            30_000,
            PapConfig::default(),
            DlvpConfig::default(),
            &XvalConfig::default(),
        );
        assert!(
            r.violations.is_empty(),
            "gate must pass on the correct simulator: {:?}",
            r.violations
        );
        assert!(!r.loads.is_empty());
        // The report must parse back and stay deterministic.
        let text = report_json(&[r], 30_000).pretty();
        let again = analyze_workload(
            &w,
            30_000,
            PapConfig::default(),
            DlvpConfig::default(),
            &XvalConfig::default(),
        );
        assert_eq!(text, report_json(&[again], 30_000).pretty());
        assert!(Json::parse(&text).is_ok());
    }

    #[test]
    fn depgraph_is_deterministic_and_independent_of_budget() {
        let w = lvp_workloads::by_name("libquantum").expect("workload");
        let a = analyze_workload(
            &w,
            10_000,
            PapConfig::default(),
            DlvpConfig::default(),
            &XvalConfig::default(),
        );
        let b = analyze_workload(
            &w,
            20_000,
            PapConfig::default(),
            DlvpConfig::default(),
            &XvalConfig::default(),
        );
        let ja = depgraph_json(&[a]).pretty();
        let jb = depgraph_json(&[b]).pretty();
        assert_eq!(ja, jb, "depgraph must not depend on the dynamic budget");
        assert!(Json::parse(&ja).is_ok());
    }

    #[test]
    fn must_edges_are_exercised_on_rmw_workloads() {
        // aifirf's accumulator cells are read and re-written at constant
        // addresses every outer iteration: the dependence pass must find
        // the must-conflict edges and the trace must exercise them.
        let w = lvp_workloads::by_name("aifirf").expect("workload");
        let r = analyze_workload(
            &w,
            30_000,
            PapConfig::default(),
            DlvpConfig::default(),
            &XvalConfig::default(),
        );
        assert!(
            r.dep.graph.must_edges().count() > 0,
            "expected a must-conflict edge"
        );
        assert!(
            r.must_exercised.values().any(|&n| n > 0),
            "the trace must exercise a must edge: {:?}",
            r.must_exercised
        );
        assert!(r.violations.is_empty(), "violations: {:?}", r.violations);
    }
}
