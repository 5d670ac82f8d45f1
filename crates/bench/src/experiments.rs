//! Shared experiment machinery: run a workload trace under each prediction
//! scheme and collect the statistics every figure draws from.
//!
//! Scheme dispatch lives in `dlvp::SchemeKind::build` — the single registry
//! that turns a scheme name into a configured predictor. The functions here
//! add the harness-side plumbing: core construction from a [`SimConfig`],
//! outcome collection, optional event tracing, and the derived energy model.

pub use dlvp::SchemeKind;
use lvp_energy::{core_energy, EnergyInput, EnergyParams, PredictorEnergyInput};
use lvp_json::{Json, ToJson};
use lvp_mem::{stats_parse_error, stats_u64, StatsParseError};
use lvp_obs::{ObsEvent, RingSink};
use lvp_trace::Trace;
use lvp_uarch::{Core, SimConfig, SimStats, VpScheme};

/// One scheme's outcome on one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeOutcome {
    pub scheme: SchemeKind,
    pub stats: SimStats,
    pub cycles: u64,
    pub coverage: f64,
    pub accuracy: f64,
    /// Scheme-specific counters (LSCD, PAQ, tournament providers, …).
    pub extra: Vec<(String, f64)>,
    /// Predictor storage and activity, for the energy model.
    pub predictor_bits: u64,
    pub predictor_reads: u64,
    pub predictor_writes: u64,
}

impl SchemeOutcome {
    /// Collects the outcome from a finished scheme: stats plus the scheme's
    /// own counters, storage budget and table activity.
    fn collect<S: VpScheme>(scheme: SchemeKind, stats: SimStats, s: &S) -> SchemeOutcome {
        let (reads, writes) = s.activity();
        SchemeOutcome {
            scheme,
            cycles: stats.cycles,
            coverage: stats.coverage(),
            accuracy: stats.accuracy(),
            extra: s
                .extra_counters()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            predictor_bits: s.storage_bits(),
            predictor_reads: reads,
            predictor_writes: writes,
            stats,
        }
    }

    /// One named extra counter.
    pub fn extra_counter(&self, name: &str) -> Option<f64> {
        self.extra.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Core energy under the default model.
    pub fn energy(&self) -> f64 {
        let s = &self.stats;
        let input = EnergyInput {
            cycles: s.cycles,
            instructions: s.instructions,
            l1i_accesses: s.mem.l1i.accesses,
            l1d_accesses: s.mem.l1d.accesses,
            l1d_probes: s.mem.l1d.probes,
            l2_accesses: s.mem.l2.accesses,
            l3_accesses: s.mem.l3.accesses,
            tlb_accesses: s.mem.tlb.accesses,
            prf_reads: s.prf_reads,
            prf_writes: s.prf_writes,
            pvt_reads: s.pvt_reads,
            pvt_writes: s.pvt_writes,
            flushes: s.vp_flushes,
            predictor: PredictorEnergyInput {
                storage_bits: self.predictor_bits,
                reads: self.predictor_reads,
                writes: self.predictor_writes,
            },
        };
        core_energy(&EnergyParams::default(), &input)
    }
}

impl ToJson for SchemeOutcome {
    fn to_json(&self) -> Json {
        Json::obj([
            ("scheme", self.scheme.to_json()),
            ("cycles", self.cycles.to_json()),
            ("coverage", self.coverage.to_json()),
            ("accuracy", self.accuracy.to_json()),
            (
                "extra",
                Json::obj(self.extra.iter().map(|(k, v)| (k.clone(), v.to_json()))),
            ),
            ("predictor_bits", self.predictor_bits.to_json()),
            ("predictor_reads", self.predictor_reads.to_json()),
            ("predictor_writes", self.predictor_writes.to_json()),
            ("stats", self.stats.to_json()),
        ])
    }
}

fn outcome_f64(j: &Json, key: &str) -> Result<f64, StatsParseError> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| stats_parse_error(format!("'{key}' must be a number")))
}

impl SchemeOutcome {
    /// Inverse of [`ToJson::to_json`]: rebuilds an outcome from a cached
    /// store payload. Counters are `u64` (exact) and every float was
    /// written with the shortest-roundtrip formatter, so re-serializing
    /// the parsed outcome reproduces the original bytes.
    pub fn from_json(j: &Json) -> Result<SchemeOutcome, StatsParseError> {
        let name = j
            .get("scheme")
            .and_then(Json::as_str)
            .ok_or_else(|| stats_parse_error("'scheme' must be a string"))?;
        let scheme = SchemeKind::from_name(name)
            .ok_or_else(|| stats_parse_error(format!("unknown scheme '{name}'")))?;
        let extra = match j.get("extra") {
            Some(Json::Object(pairs)) => pairs
                .iter()
                .map(|(k, v)| {
                    v.as_f64().map(|x| (k.clone(), x)).ok_or_else(|| {
                        stats_parse_error(format!("extra counter '{k}' must be a number"))
                    })
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(stats_parse_error("'extra' must be an object")),
        };
        let stats = j
            .get("stats")
            .ok_or_else(|| stats_parse_error("missing key 'stats'"))?;
        Ok(SchemeOutcome {
            scheme,
            stats: SimStats::from_json(stats)?,
            cycles: stats_u64(j, "cycles")?,
            coverage: outcome_f64(j, "coverage")?,
            accuracy: outcome_f64(j, "accuracy")?,
            extra,
            predictor_bits: stats_u64(j, "predictor_bits")?,
            predictor_reads: stats_u64(j, "predictor_reads")?,
            predictor_writes: stats_u64(j, "predictor_writes")?,
        })
    }
}

/// Runs `scheme` over `trace` under `cfg`.
///
/// This function is **pure**: all predictor and core state is constructed
/// per call (no globals, no interior mutability shared between calls), so
/// for the same `(trace, scheme, cfg)` it returns bit-identical outcomes no
/// matter which thread runs it or how many run concurrently — the property
/// the parallel experiment runner is built on.
pub fn run_scheme(trace: &Trace, scheme: SchemeKind, cfg: &SimConfig) -> SchemeOutcome {
    // Sampled dispatch: a config carrying a SampleSpec runs the tiered
    // fast-forward driver instead of the flat cycle-level pass. Configs
    // without one (every committed artifact) take the unchanged path below.
    let (stats, s) = match cfg.sample {
        Some(spec) => lvp_uarch::run_sampled_trace(&cfg.core, scheme.build(cfg), trace, spec),
        None => Core::new(cfg.core.clone(), scheme.build(cfg)).run_with_scheme(trace),
    };
    SchemeOutcome::collect(scheme, stats, &s)
}

/// [`run_scheme`] with event tracing: the core records up to
/// `ring_capacity` lifecycle events into a ring sink. Returns the outcome,
/// the recorded events oldest-first, and how many events the ring
/// overwrote. The returned `SimStats` are byte-identical (via `ToJson`) to
/// an untraced [`run_scheme`] of the same inputs — sinks only observe.
pub fn run_scheme_traced(
    trace: &Trace,
    scheme: SchemeKind,
    cfg: &SimConfig,
    ring_capacity: usize,
) -> (SchemeOutcome, Vec<ObsEvent>, u64) {
    let core = Core::with_sink(
        cfg.core.clone(),
        scheme.build(cfg),
        RingSink::new(ring_capacity),
    );
    let (stats, s, sink) = core.run_traced(trace);
    let ring = sink.into_ring();
    let overwritten = ring.overwritten();
    let outcome = SchemeOutcome::collect(scheme, stats, &s);
    (outcome, ring.drain(), overwritten)
}

/// Per-workload comparison row for the Figure 6-style experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    pub workload: String,
    pub suite: String,
    pub baseline: SchemeOutcome,
    pub schemes: Vec<SchemeOutcome>,
}

impl ComparisonRow {
    /// Speedup of scheme `i` over the baseline.
    pub fn speedup(&self, i: usize) -> f64 {
        self.schemes[i].stats.speedup_over(&self.baseline.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_roundtrips_through_json_byte_exactly() {
        let w = lvp_workloads::by_name("aifirf").expect("workload");
        let t = w.trace(8_000);
        for kind in SchemeKind::all() {
            let o = run_scheme(&t, kind, &SimConfig::default());
            let text = o.to_json().pretty();
            let back =
                SchemeOutcome::from_json(&Json::parse(&text).expect("parse")).expect("from_json");
            assert_eq!(back, o);
            assert_eq!(back.to_json().pretty(), text);
        }
    }

    #[test]
    fn outcome_energy_positive() {
        let w = lvp_workloads::by_name("nat").expect("workload");
        let t = w.trace(5_000);
        let o = run_scheme(&t, SchemeKind::Dlvp, &SimConfig::default());
        assert!(o.energy() > 0.0);
        assert!(o.extra_counter("addr_predictions").is_some());
    }

    #[test]
    fn replay_never_flushes() {
        let w = lvp_workloads::by_name("viterbi").expect("workload");
        let t = w.trace(20_000);
        let cfg = SimConfig::preset("oracle_replay").expect("known preset");
        let o = run_scheme(&t, SchemeKind::Cap, &cfg);
        assert_eq!(o.stats.vp_flushes, 0);
    }

    #[test]
    fn sampled_dispatch_is_deterministic_and_marked() {
        let w = lvp_workloads::by_name("autcor").expect("workload");
        let t = w.trace(20_000);
        let mut cfg = SimConfig {
            sample: Some(lvp_uarch::SampleSpec {
                ff: 2_000,
                warmup: 500,
                detail: 1_000,
                period: 3_000,
            }),
            ..SimConfig::default()
        };
        let a = run_scheme(&t, SchemeKind::Dlvp, &cfg);
        let b = run_scheme(&t, SchemeKind::Dlvp, &cfg);
        assert_eq!(a, b, "sampled outcomes must be deterministic");
        assert!(a.stats.sampling.is_some(), "sampled stats carry accounting");
        assert!(a.stats.instructions < t.len() as u64);
        // Unsampled outcomes stay free of the sampling key.
        cfg.sample = None;
        let plain = run_scheme(&t, SchemeKind::Dlvp, &cfg);
        assert!(plain.stats.sampling.is_none());
        assert!(!plain.to_json().pretty().contains("sampling"));
    }

    #[test]
    fn traced_stats_match_untraced() {
        let w = lvp_workloads::by_name("aifirf").expect("workload");
        let t = w.trace(5_000);
        let cfg = SimConfig::default();
        for kind in SchemeKind::all() {
            let plain = run_scheme(&t, kind, &cfg);
            let (traced, events, _lost) = run_scheme_traced(&t, kind, &cfg, 1024);
            assert_eq!(plain, traced, "{} diverged under tracing", kind.name());
            // Even the baseline records core pipeline lifecycle events.
            assert!(!events.is_empty(), "{} recorded nothing", kind.name());
        }
    }
}
