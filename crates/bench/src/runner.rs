//! Sharded, deterministic experiment runner.
//!
//! The figure binaries each re-run the full (workload × scheme) matrix
//! serially and print text. This module runs the whole matrix **once, in
//! parallel**, and persists machine-readable results:
//!
//! * a [`MatrixSpec`] expands to a flat job list — (workload ×
//!   [`ConfigVariant`] × [`SchemeKind`]) at a fixed instruction budget;
//! * [`run_matrix`] executes jobs through the shared batch engine
//!   ([`crate::service::run_batch`]). Worker count comes from
//!   `--jobs`/[`default_jobs`]; results land in their job-index slot, so
//!   the output order — and the serialized bytes — are identical for 1
//!   worker and 8;
//! * every job is a **pure function of its spec**: traces are rebuilt from
//!   per-kernel constant seeds, predictor FPC/LFSR seeds are per-entry
//!   constants, and no state is shared between jobs. The recorded per-job
//!   [`JobSpec::seed`] is the FNV-1a hash of the job identity — the
//!   deterministic seed namespace jobs draw from, and a quick fingerprint
//!   for log correlation;
//! * [`diff_matrices`] compares a run against a committed golden snapshot
//!   (`results/golden/`), reporting per-counter deltas and failing on drift
//!   beyond configurable [`Tolerances`].

use crate::experiments::{run_scheme, SchemeKind, SchemeOutcome};
use crate::service::{run_batch, sim_request_doc, Exec, SimJob};
use lvp_json::{Json, ToJson};
use lvp_obs::PhaseSink;
use lvp_trace::Trace;
use lvp_uarch::{SampleSpec, SimConfig};

/// A named, serializable configuration override. Variants rather than
/// closures so job specs can be parsed from the CLI, hashed into seeds, and
/// written into result files. Each variant is a [`SimConfig`] preset of the
/// same name; the full preset catalogue (ablation design points included)
/// lives in `SimConfig::preset_names`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfigVariant {
    /// Paper Table 4 baseline.
    Default,
    /// Oracle-replay misprediction recovery (Figure 10).
    OracleReplay,
    /// Gshare instead of TAGE (branch-sensitivity ablation).
    Gshare,
    /// Stride prefetcher disabled.
    NoPrefetch,
    /// 2-wide front-end (fetch bottleneck study).
    NarrowFrontend,
    /// 8-entry PVT instead of 32 (pressure study).
    SmallPvt,
}

impl ConfigVariant {
    /// Every variant, in canonical matrix order.
    pub fn all() -> [ConfigVariant; 6] {
        [
            ConfigVariant::Default,
            ConfigVariant::OracleReplay,
            ConfigVariant::Gshare,
            ConfigVariant::NoPrefetch,
            ConfigVariant::NarrowFrontend,
            ConfigVariant::SmallPvt,
        ]
    }

    /// Stable name used in CLI flags and result files.
    pub fn name(self) -> &'static str {
        match self {
            ConfigVariant::Default => "default",
            ConfigVariant::OracleReplay => "oracle_replay",
            ConfigVariant::Gshare => "gshare",
            ConfigVariant::NoPrefetch => "no_prefetch",
            ConfigVariant::NarrowFrontend => "narrow_frontend",
            ConfigVariant::SmallPvt => "small_pvt",
        }
    }

    /// Parses a variant name (the inverse of [`ConfigVariant::name`]).
    pub fn from_name(name: &str) -> Option<ConfigVariant> {
        Self::all().into_iter().find(|v| v.name() == name)
    }

    /// The configuration this variant runs under: the [`SimConfig`] preset
    /// of the same name.
    pub fn config(self) -> SimConfig {
        SimConfig::preset(self.name()).expect("every variant names a preset")
    }
}

impl ToJson for ConfigVariant {
    fn to_json(&self) -> Json {
        Json::Str(self.name().to_string())
    }
}

/// One unit of work: run `scheme` on `workload` under `variant`'s config for
/// `budget` dynamic instructions.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    pub workload: String,
    pub scheme: SchemeKind,
    pub variant: ConfigVariant,
    pub budget: u64,
    /// Fast-forward + sampled execution, threaded from the matrix level.
    /// `None` (every committed artifact) runs the flat cycle-level path.
    pub sample: Option<SampleSpec>,
}

impl JobSpec {
    /// Deterministic per-job seed: FNV-1a over the job identity. Identical
    /// specs get identical seeds on every run, machine, and thread schedule.
    pub fn seed(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x1_0000_0000_01b3);
            }
        };
        eat(self.workload.as_bytes());
        eat(self.scheme.name().as_bytes());
        eat(self.variant.name().as_bytes());
        eat(&self.budget.to_le_bytes());
        h
    }

    /// The configuration this job runs under: its variant's preset, with
    /// the job's sampling spec.
    pub fn config(&self) -> SimConfig {
        let mut cfg = self.variant.config();
        cfg.sample = self.sample;
        cfg
    }
}

impl SimJob for JobSpec {
    type Output = SchemeOutcome;

    fn trace_id(&self) -> (&str, u64) {
        (&self.workload, self.budget)
    }

    fn label(&self) -> String {
        format!(
            "job:{}/{}/{}",
            self.workload,
            self.variant.name(),
            self.scheme.name()
        )
    }

    fn request_doc(&self, trace_fingerprint: u64) -> Json {
        sim_request_doc(
            trace_fingerprint,
            self.budget,
            self.scheme.name(),
            &self.config(),
        )
    }

    fn run(&self, trace: &Trace) -> SchemeOutcome {
        run_scheme(trace, self.scheme, &self.config())
    }

    fn encode(outcome: &SchemeOutcome) -> Json {
        outcome.to_json()
    }

    fn decode(payload: &Json) -> Option<SchemeOutcome> {
        SchemeOutcome::from_json(payload).ok()
    }

    fn work(outcome: &SchemeOutcome) -> (u64, u64) {
        outcome.stats.sim_work()
    }
}

/// The job matrix: the cartesian product of workloads, variants and schemes
/// at one instruction budget.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixSpec {
    pub workloads: Vec<String>,
    pub schemes: Vec<SchemeKind>,
    pub variants: Vec<ConfigVariant>,
    pub budget: u64,
    /// Run every job under fast-forward + sampled execution (`--sample`).
    pub sample: Option<SampleSpec>,
}

impl MatrixSpec {
    /// The full paper matrix: every workload × {baseline, CAP, VTAGE, DLVP,
    /// DLVP+VTAGE} under the default configuration.
    pub fn full(budget: u64) -> MatrixSpec {
        MatrixSpec {
            workloads: lvp_workloads::names()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            schemes: SchemeKind::all().to_vec(),
            variants: vec![ConfigVariant::Default],
            budget,
            sample: None,
        }
    }

    /// Expands to the flat job list in canonical (workload, variant, scheme)
    /// order — the order of records in the results file.
    pub fn expand(&self) -> Vec<JobSpec> {
        let mut jobs =
            Vec::with_capacity(self.workloads.len() * self.variants.len() * self.schemes.len());
        for w in &self.workloads {
            for &variant in &self.variants {
                for &scheme in &self.schemes {
                    jobs.push(JobSpec {
                        workload: w.clone(),
                        scheme,
                        variant,
                        budget: self.budget,
                        sample: self.sample,
                    });
                }
            }
        }
        jobs
    }

    /// Validates that every named workload exists, returning the unknown
    /// names otherwise.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let bad: Vec<String> = self
            .workloads
            .iter()
            .filter(|w| lvp_workloads::by_name(w).is_none())
            .cloned()
            .collect();
        if bad.is_empty() {
            Ok(())
        } else {
            Err(bad)
        }
    }
}

impl ToJson for MatrixSpec {
    /// The `sample` key appears only when sampling is on, so unsampled
    /// results files keep their exact pre-sampling bytes.
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("workloads", self.workloads.to_json()),
            ("schemes", self.schemes.to_json()),
            ("variants", self.variants.to_json()),
            ("budget", self.budget.to_json()),
        ];
        if let Some(sample) = &self.sample {
            pairs.push(("sample", sample.to_json()));
        }
        Json::obj(pairs)
    }
}

/// One finished job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    pub spec: JobSpec,
    pub suite: String,
    pub seed: u64,
    pub outcome: SchemeOutcome,
}

impl JobResult {
    /// Files `outcome` under `spec`, with the job's seed and its
    /// workload's suite (empty for an unknown workload).
    pub fn new(spec: JobSpec, outcome: SchemeOutcome) -> JobResult {
        JobResult {
            seed: spec.seed(),
            suite: lvp_workloads::by_name(&spec.workload)
                .map(|w| w.suite.to_string())
                .unwrap_or_default(),
            spec,
            outcome,
        }
    }
}

impl ToJson for JobResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("workload", self.spec.workload.to_json()),
            ("suite", self.suite.to_json()),
            ("scheme", self.spec.scheme.to_json()),
            ("variant", self.spec.variant.to_json()),
            ("budget", self.spec.budget.to_json()),
            ("seed", self.seed.to_json()),
            ("outcome", self.outcome.to_json()),
        ])
    }
}

/// All results of one matrix run, in canonical job order.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixResults {
    pub spec: MatrixSpec,
    pub jobs: Vec<JobResult>,
}

impl MatrixResults {
    /// The serialized document: `{"spec": ..., "jobs": [...]}`. Contains no
    /// timestamps, host names, or thread counts — re-running the same spec
    /// anywhere yields byte-identical output.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("spec", self.spec.to_json()),
            (
                "jobs",
                Json::Array(self.jobs.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }

    /// Writes the canonical pretty form, creating parent directories.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json().pretty())
    }
}

/// Default worker count: `LVP_JOBS` env var if set, else available
/// parallelism, else 1.
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var("LVP_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Executes the matrix on the shared batch engine and returns results in
/// canonical job order, bit-identical for any worker count.
///
/// Each workload's trace is built once, shared read-only across its jobs.
/// With `exec` recording phases, trace construction runs under a lane-0
/// `build_traces` span and simulation under a `simulate` span with one
/// `job:<workload>/<variant>/<scheme>` span per executed job. Behind a
/// result store, jobs are keyed in the same key space `figs` uses and only
/// misses execute. The results — and their serialized bytes — are the
/// same with telemetry, progress or a store on or off.
pub fn run_matrix<P: PhaseSink>(spec: &MatrixSpec, exec: &Exec<P>) -> MatrixResults {
    let jobs = spec.expand();
    let batch = run_batch(&jobs, &[], exec);
    MatrixResults {
        spec: spec.clone(),
        jobs: jobs
            .into_iter()
            .zip(batch.results)
            .map(|(job, (outcome, _))| JobResult::new(job, outcome))
            .collect(),
    }
}

/// Tolerances for golden comparison. A counter drifts when
/// `|cur - gold| > abs + rel * |gold|`. Defaults are zero: the simulation
/// is deterministic, so goldens should match exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    pub rel: f64,
    pub abs: f64,
}

impl Default for Tolerances {
    fn default() -> Tolerances {
        Tolerances { rel: 0.0, abs: 0.0 }
    }
}

/// One counter (or structural) difference between a run and its golden.
#[derive(Debug, Clone, PartialEq)]
pub struct Drift {
    /// Dotted path of the counter, e.g. `jobs.3.outcome.stats.cycles`.
    pub path: String,
    pub golden: Option<f64>,
    pub current: Option<f64>,
}

impl std::fmt::Display for Drift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.golden, self.current) {
            (Some(g), Some(c)) => {
                write!(
                    f,
                    "{}: golden {} -> current {} (delta {:+})",
                    self.path,
                    g,
                    c,
                    c - g
                )
            }
            (Some(g), None) => write!(f, "{}: missing in current run (golden {})", self.path, g),
            (None, Some(c)) => write!(f, "{}: not in golden (current {})", self.path, c),
            (None, None) => write!(f, "{}: structural mismatch", self.path),
        }
    }
}

/// Diffs every numeric leaf of `current` against `golden` under `tol`.
/// Non-numeric leaves (scheme names, variant names) are compared exactly via
/// their serialized form and reported as structural drift when they differ.
pub fn diff_matrices(golden: &Json, current: &Json, tol: Tolerances) -> Vec<Drift> {
    let mut drifts = Vec::new();
    let g: std::collections::BTreeMap<String, f64> = golden.flatten_numbers().into_iter().collect();
    let c: std::collections::BTreeMap<String, f64> =
        current.flatten_numbers().into_iter().collect();
    for (path, &gv) in &g {
        match c.get(path) {
            None => drifts.push(Drift {
                path: path.clone(),
                golden: Some(gv),
                current: None,
            }),
            Some(&cv) => {
                if (cv - gv).abs() > tol.abs + tol.rel * gv.abs() {
                    drifts.push(Drift {
                        path: path.clone(),
                        golden: Some(gv),
                        current: Some(cv),
                    });
                }
            }
        }
    }
    for (path, &cv) in &c {
        if !g.contains_key(path) {
            drifts.push(Drift {
                path: path.clone(),
                golden: None,
                current: Some(cv),
            });
        }
    }
    // Non-numeric structure: compare the skeletons with numbers erased.
    let (gs, cs) = (erase_numbers(golden), erase_numbers(current));
    if gs != cs {
        drifts.push(Drift {
            path: "<structure>".to_string(),
            golden: None,
            current: None,
        });
    }
    drifts
}

fn erase_numbers(v: &Json) -> Json {
    match v {
        Json::U64(_) | Json::I64(_) | Json::F64(_) => Json::Null,
        Json::Array(items) => Json::Array(items.iter().map(erase_numbers).collect()),
        Json::Object(pairs) => Json::Object(
            pairs
                .iter()
                .map(|(k, x)| (k.clone(), erase_numbers(x)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Compares a results file against a golden snapshot on disk. Returns the
/// drift list (empty = pass).
pub fn check_against_golden(
    results: &MatrixResults,
    golden_path: &std::path::Path,
    tol: Tolerances,
) -> Result<Vec<Drift>, String> {
    let text = std::fs::read_to_string(golden_path)
        .map_err(|e| format!("cannot read golden {}: {e}", golden_path.display()))?;
    let golden = Json::parse(&text)
        .map_err(|e| format!("golden {} is not valid JSON: {e}", golden_path.display()))?;
    Ok(diff_matrices(&golden, &results.to_json(), tol))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> MatrixSpec {
        MatrixSpec {
            workloads: vec!["aifirf".to_string(), "nat".to_string()],
            schemes: vec![SchemeKind::Baseline, SchemeKind::Dlvp],
            variants: vec![ConfigVariant::Default],
            budget: 5_000,
            sample: None,
        }
    }

    #[test]
    fn expansion_is_canonical_order() {
        let jobs = tiny_spec().expand();
        assert_eq!(jobs.len(), 4);
        assert_eq!(jobs[0].workload, "aifirf");
        assert_eq!(jobs[0].scheme, SchemeKind::Baseline);
        assert_eq!(jobs[1].scheme, SchemeKind::Dlvp);
        assert_eq!(jobs[2].workload, "nat");
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        let jobs = tiny_spec().expand();
        let seeds: Vec<u64> = jobs.iter().map(JobSpec::seed).collect();
        let again: Vec<u64> = tiny_spec().expand().iter().map(JobSpec::seed).collect();
        assert_eq!(seeds, again);
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len(), "job seeds must be distinct");
    }

    #[test]
    fn diff_flags_counter_drift_and_structure() {
        let spec = MatrixSpec {
            workloads: vec!["aifirf".to_string()],
            schemes: vec![SchemeKind::Baseline],
            variants: vec![ConfigVariant::Default],
            budget: 3_000,
            sample: None,
        };
        let results = run_matrix(&spec, &Exec::new(2));
        let golden = results.to_json();
        assert!(diff_matrices(&golden, &results.to_json(), Tolerances::default()).is_empty());

        // Inject drift into one counter.
        let mut tampered = results.clone();
        tampered.jobs[0].outcome.cycles += 100;
        let drifts = diff_matrices(&golden, &tampered.to_json(), Tolerances::default());
        assert!(
            drifts.iter().any(|d| d.path.ends_with("cycles")),
            "drifts: {drifts:?}"
        );
        // A generous tolerance absorbs it.
        let ok = diff_matrices(
            &golden,
            &tampered.to_json(),
            Tolerances { rel: 0.5, abs: 0.0 },
        );
        assert!(
            ok.is_empty(),
            "unexpected drifts under 50% tolerance: {ok:?}"
        );

        // Structural change: scheme renamed.
        let mut structural = golden.clone();
        if let Json::Object(ref mut top) = structural {
            let jobs = top.iter_mut().find(|(k, _)| k == "jobs").unwrap();
            if let Json::Array(ref mut arr) = jobs.1 {
                if let Json::Object(ref mut job) = arr[0] {
                    for (k, v) in job.iter_mut() {
                        if k == "scheme" {
                            *v = Json::Str("RENAMED".to_string());
                        }
                    }
                }
            }
        }
        let drifts = diff_matrices(&structural, &results.to_json(), Tolerances::default());
        assert!(drifts.iter().any(|d| d.path == "<structure>"));
    }

    #[test]
    fn sampled_matrix_is_jobs_invariant_and_spec_key_is_conditional() {
        let mut spec = tiny_spec();
        assert!(
            !spec.to_json().pretty().contains("\"sample\""),
            "unsampled specs must not grow a sample key"
        );
        spec.budget = 20_000;
        spec.sample = Some(SampleSpec {
            ff: 4_000,
            warmup: 1_000,
            detail: 2_000,
            period: 6_000,
        });
        let serial = run_matrix(&spec, &Exec::new(1));
        let parallel = run_matrix(&spec, &Exec::new(4));
        assert_eq!(serial, parallel, "sampling must stay --jobs invariant");
        assert_eq!(serial.to_json().pretty(), parallel.to_json().pretty());
        assert!(serial.to_json().pretty().contains("\"sample\""));
        for j in &serial.jobs {
            assert!(j.outcome.stats.sampling.is_some());
            assert!(j.outcome.stats.instructions < spec.budget);
        }
    }

    #[test]
    fn variant_configs_differ_from_default() {
        for v in ConfigVariant::all() {
            assert_eq!(ConfigVariant::from_name(v.name()), Some(v));
            assert!(
                SimConfig::preset_names().contains(&v.name()),
                "{} must name a preset",
                v.name()
            );
            if v != ConfigVariant::Default {
                assert_ne!(
                    v.config(),
                    SimConfig::default(),
                    "{} must change config",
                    v.name()
                );
            }
        }
    }

    #[test]
    fn full_matrix_covers_registry() {
        let spec = MatrixSpec::full(1_000);
        assert!(spec.validate().is_ok());
        assert_eq!(spec.workloads.len(), lvp_workloads::names().len());
        assert_eq!(spec.expand().len(), spec.workloads.len() * 5);
    }
}
