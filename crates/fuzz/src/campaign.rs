//! Campaign driving: per-seed evaluation and deterministic reports.
//!
//! A campaign is `(profile, seed range)` mapped through [`run_seed`] —
//! synthesize, execute, soundness-check, differential-check — and folded
//! into a single JSON report by [`campaign_report`]. Both halves are pure
//! functions of their inputs, so a report is byte-identical no matter how
//! many workers evaluated the seeds or in what order they finished.

use crate::oracle::{check, execute, soundness, Finding, OracleConfig};
use crate::profile::SynthProfile;
use crate::synth::{synthesize, StorePlacement, SynthProgram};
use lvp_analysis::ProgramAnalysis;
use lvp_json::{Json, ToJson};
use lvp_store::SimService;

/// Everything the campaign records about one seed.
#[derive(Debug, Clone)]
pub struct SeedOutcome {
    pub seed: u64,
    /// FNV-1a hash over the encoded instruction words — a stable program
    /// fingerprint for corpus pinning.
    pub program_hash: u64,
    /// Static instruction count (padding excluded).
    pub instructions: usize,
    /// Dynamic instructions executed.
    pub dynamic: usize,
    /// Declared class counts in `class_counts` order.
    pub declared: [usize; 4],
    /// Sites whose store the alias pass must flag as may-conflicting.
    pub conflicting_sites: usize,
    /// Analyzer-vs-synthesizer soundness defects (empty = sound).
    pub soundness: Vec<String>,
    /// Differential-oracle findings (empty = passed).
    pub findings: Vec<Finding>,
}

impl SeedOutcome {
    /// Whether the seed passed both the soundness and differential checks.
    pub fn passed(&self) -> bool {
        self.soundness.is_empty() && self.findings.is_empty()
    }
}

impl ToJson for SeedOutcome {
    fn to_json(&self) -> Json {
        Json::obj([
            ("seed", self.seed.to_json()),
            (
                "program_hash",
                format!("{:016x}", self.program_hash).to_json(),
            ),
            ("instructions", (self.instructions as u64).to_json()),
            ("dynamic", (self.dynamic as u64).to_json()),
            (
                "declared",
                Json::Array(
                    self.declared
                        .iter()
                        .map(|&c| (c as u64).to_json())
                        .collect(),
                ),
            ),
            (
                "conflicting_sites",
                (self.conflicting_sites as u64).to_json(),
            ),
            (
                "soundness",
                Json::Array(self.soundness.iter().map(|s| s.to_json()).collect()),
            ),
            (
                "findings",
                Json::Array(self.findings.iter().map(|f| f.to_json()).collect()),
            ),
        ])
    }
}

/// Stable fingerprint of a program: FNV-1a over its encoded words.
pub fn program_hash(sp: &SynthProgram) -> u64 {
    let mut words = Vec::new();
    for (_, inst) in sp.program.iter() {
        lvp_isa::encode(inst, &mut words);
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
    }
    h
}

/// Evaluates one seed end to end: synthesize, execute, soundness-check
/// against the analyzer, and run the differential oracle. The oracle's
/// DLVP deep-check simulation consults `service`, so duplicate programs
/// across seeds simulate once. Outcomes are identical for any service
/// state.
pub fn run_seed(
    profile: &SynthProfile,
    seed: u64,
    cfg: &OracleConfig,
    service: &SimService,
) -> SeedOutcome {
    let sp = synthesize(profile, seed);
    let analysis = ProgramAnalysis::analyze(&sp.program);
    let sound = soundness(&sp, &analysis, profile.mix_tolerance);
    let run = execute(&sp);
    let findings = check(&sp, &run, cfg, service);
    SeedOutcome {
        seed,
        program_hash: program_hash(&sp),
        instructions: sp.instructions(),
        dynamic: run.trace.len(),
        declared: sp.declared_counts(),
        conflicting_sites: sp
            .spec
            .sites
            .iter()
            .filter(|s| s.store == StorePlacement::Conflicting)
            .count(),
        soundness: sound,
        findings,
    }
}

/// Folds per-seed outcomes into the deterministic campaign report.
/// `outcomes` must be in ascending seed order (the CLI sorts after the
/// parallel map); the report is then byte-identical across worker counts.
pub fn campaign_report(profile: &SynthProfile, outcomes: &[SeedOutcome]) -> Json {
    let failing = outcomes.iter().filter(|o| !o.passed()).count();
    let unsound = outcomes.iter().filter(|o| !o.soundness.is_empty()).count();
    let findings: usize = outcomes.iter().map(|o| o.findings.len()).sum();
    Json::obj([
        ("schema_version", 1u64.to_json()),
        ("profile", profile.to_json()),
        ("seeds", (outcomes.len() as u64).to_json()),
        ("failing_seeds", (failing as u64).to_json()),
        ("unsound_seeds", (unsound as u64).to_json()),
        ("total_findings", (findings as u64).to_json()),
        (
            "outcomes",
            Json::Array(outcomes.iter().map(|o| o.to_json()).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_outcome_is_deterministic() {
        let p = SynthProfile::preset("smoke").expect("preset");
        let cfg = OracleConfig::default();
        let a = run_seed(&p, 1, &cfg, &SimService::disabled());
        let b = run_seed(&p, 1, &cfg, &SimService::disabled());
        assert_eq!(a.program_hash, b.program_hash);
        assert_eq!(a.to_json().pretty(), b.to_json().pretty());
    }

    #[test]
    fn report_counts_failures() {
        let p = SynthProfile::preset("smoke").expect("preset");
        let cfg = OracleConfig::default();
        let outcomes: Vec<SeedOutcome> = (0..3)
            .map(|s| run_seed(&p, s, &cfg, &SimService::disabled()))
            .collect();
        let report = campaign_report(&p, &outcomes);
        let text = report.pretty();
        assert!(text.contains("\"schema_version\""));
        assert!(text.contains("\"outcomes\""));
        assert_eq!(
            campaign_report(&p, &outcomes).pretty(),
            text,
            "report must be reproducible"
        );
    }
}
