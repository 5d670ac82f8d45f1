//! Greedy shrinking of failing programs to minimal reproducers.
//!
//! The minimizer operates on the structured [`ProgramSpec`], not the
//! instruction stream, so every candidate it proposes is a well-formed
//! program by construction. Three reductions run to a fixpoint:
//!
//! 1. drop whole load sites (largest win per step);
//! 2. downgrade stores (`Conflicting`/`Disjoint` → `None`);
//! 3. halve the iteration count (stopping above the confidence warm-up
//!    floor so threshold-dependent failures stay reproducible).
//!
//! A candidate is kept only if it *still fails* the same oracle — so the
//! result is a locally minimal spec whose synthesized program reproduces at
//! least one finding.

use crate::oracle::{check, execute, Finding, OracleConfig};
use crate::synth::{build, ProgramSpec, StorePlacement, SynthProgram};
use lvp_store::SimService;

/// Iteration floor for the halving reduction: far enough above the
/// predictors' confidence thresholds that threshold-gated bugs still fire.
const MIN_ITERATIONS: u64 = 96;

/// Result of a minimization run.
#[derive(Debug, Clone)]
pub struct Minimized {
    /// The shrunken program (still failing).
    pub program: SynthProgram,
    /// Findings the minimal reproducer still triggers.
    pub findings: Vec<Finding>,
    /// Reduction steps that were accepted (for the campaign report).
    pub steps: usize,
}

fn failing(
    spec: &ProgramSpec,
    cfg: &OracleConfig,
    service: &SimService,
) -> Option<(SynthProgram, Vec<Finding>)> {
    if spec.sites.is_empty() {
        return None;
    }
    let sp = build(spec);
    let run = execute(&sp);
    let findings = check(&sp, &run, cfg, service);
    if findings.is_empty() {
        None
    } else {
        Some((sp, findings))
    }
}

/// Greedily shrinks `spec` while it keeps failing `cfg`'s oracle. Returns
/// `None` if the initial spec does not fail at all (nothing to minimize).
///
/// Every candidate's oracle run shares one in-memory [`SimService`], so a
/// candidate re-proposed in a later fixpoint round reuses its DLVP
/// deep-check simulation instead of re-running it.
pub fn minimize(spec: &ProgramSpec, cfg: &OracleConfig) -> Option<Minimized> {
    let service = SimService::in_memory();
    let still_failing = |spec: &ProgramSpec| failing(spec, cfg, &service);
    let (mut best_sp, mut best_findings) = still_failing(spec)?;
    let mut best = spec.clone();
    let mut steps = 0usize;
    loop {
        let mut improved = false;

        // 1. Site removal, first-to-last: fewer sites always wins.
        let mut i = 0;
        while i < best.sites.len() && best.sites.len() > 1 {
            let mut cand = best.clone();
            cand.sites.remove(i);
            if let Some((sp, findings)) = still_failing(&cand) {
                best = cand;
                best_sp = sp;
                best_findings = findings;
                steps += 1;
                improved = true;
                // Do not advance: the next site shifted into slot i.
            } else {
                i += 1;
            }
        }

        // 2. Store downgrade: a site that fails without its store is a
        // simpler reproducer.
        for i in 0..best.sites.len() {
            if best.sites[i].store == StorePlacement::None {
                continue;
            }
            let mut cand = best.clone();
            cand.sites[i].store = StorePlacement::None;
            if let Some((sp, findings)) = still_failing(&cand) {
                best = cand;
                best_sp = sp;
                best_findings = findings;
                steps += 1;
                improved = true;
            }
        }

        // 3. Iteration halving down to the warm-up floor.
        while best.iterations / 2 >= MIN_ITERATIONS {
            let mut cand = best.clone();
            cand.iterations /= 2;
            if let Some((sp, findings)) = still_failing(&cand) {
                best = cand;
                best_sp = sp;
                best_findings = findings;
                steps += 1;
                improved = true;
            } else {
                break;
            }
        }

        if !improved {
            break;
        }
    }
    Some(Minimized {
        program: best_sp,
        findings: best_findings,
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::SynthProfile;
    use crate::synth::plan;

    #[test]
    fn healthy_program_is_not_minimized() {
        let spec = plan(&SynthProfile::preset("smoke").expect("preset"), 2);
        assert!(minimize(&spec, &OracleConfig::default()).is_none());
    }

    #[test]
    fn injected_train_bug_minimizes_to_small_reproducer() {
        let mut cfg = OracleConfig::default();
        cfg.sim.pap.train_reset_on_mismatch = false;
        let profile = SynthProfile::preset("strided").expect("preset");
        let mut minimized = None;
        for seed in 0..8 {
            let spec = plan(&profile, seed);
            if let Some(m) = minimize(&spec, &cfg) {
                minimized = Some(m);
                break;
            }
        }
        let m = minimized.expect("injected training bug must be caught on some seed");
        assert!(
            m.program.instructions() <= 20,
            "reproducer has {} instructions, want <= 20",
            m.program.instructions()
        );
        assert!(!m.findings.is_empty());
    }
}
