//! Cheaper execution tiers and the fast-forward + sampled driver.
//!
//! The cycle-level [`Core`] is one way to consume a trace; it
//! is also by far the most expensive. The tiers here turn a trace into
//! [`SimStats`] with less timing fidelity, for harnesses that trade
//! fidelity for speed:
//!
//! * [`FunctionalTier`] — atomic execution: architectural counters only,
//!   one "cycle" per instruction. The speed ceiling of the simulator.
//! * [`SimpleTier`] — a 1-cycle-per-instruction in-order timing model that
//!   still charges real memory-hierarchy latencies for loads and stores.
//!
//! [`run_sampled`] combines the tiers SMARTS-style: skip a fast-forward
//! prefix functionally, then alternate per-period `warmup` windows (the
//! scheme trains through [`VpScheme::set_warm_only`] but injects nothing,
//! stats discarded) with `detail` windows whose stats accumulate, skipping
//! the remainder of each period. All windows of a run stream through one
//! long-lived [`Core`], so caches, predictors and store sets stay warm from
//! window to window while each window's timing starts from a drained
//! pipeline. Sampling never changes any unsampled artifact: the driver is
//! only entered when a [`SampleSpec`] is present.

use crate::config::CoreConfig;
use crate::core::Core;
use crate::simconfig::SampleSpec;
use crate::stats::{SamplingStats, SimStats};
use crate::vp::VpScheme;
use lvp_mem::MemoryHierarchy;
use lvp_obs::{EventSink, NullSink, ObsEvent, TierKind};
use lvp_trace::{Trace, TraceRecord};

/// Burns `spin` busy-loop iterations per instruction of a finished
/// `instructions`-long window: host time only, no simulated state is read
/// or written.
fn burn(spin: u32, instructions: u64) {
    let mut x = 0u64;
    for i in 0..spin as u64 * instructions {
        x = std::hint::black_box(x ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    }
    std::hint::black_box(x);
}

/// Counts the record into the architectural counters shared by every tier.
fn count_arch(stats: &mut SimStats, rec: &TraceRecord) {
    stats.instructions += 1;
    if rec.inst.is_load() {
        stats.loads += 1;
    }
    if rec.inst.is_store() {
        stats.stores += 1;
    }
    if rec.inst.is_branch() {
        stats.branches += 1;
    }
}

/// Atomic functional execution: no timing model at all. Cycles are defined
/// as the instruction count (IPC ≡ 1), every microarchitectural counter
/// stays zero. Architectural counters (instructions, loads, stores,
/// branches) reflect the trace exactly, as on every tier.
#[derive(Debug, Default, Clone, Copy)]
pub struct FunctionalTier;

impl FunctionalTier {
    /// Executes the whole trace and returns the statistics.
    pub fn run(&self, trace: &Trace) -> SimStats {
        let mut stats = SimStats::default();
        for rec in trace.records() {
            count_arch(&mut stats, rec);
        }
        stats.cycles = stats.instructions;
        stats
    }
}

/// A 1-cycle-per-instruction in-order timing model with a real memory
/// hierarchy: each load/store additionally pays its
/// [`MemoryHierarchy::access_data`] latency. No branch prediction, no
/// value prediction, no overlap — a cheap middle ground between
/// [`FunctionalTier`] and the OoO core.
#[derive(Debug, Clone)]
pub struct SimpleTier {
    cfg: CoreConfig,
}

impl SimpleTier {
    /// Builds the tier; the memory hierarchy comes from `cfg.mem`.
    pub fn new(cfg: CoreConfig) -> SimpleTier {
        SimpleTier { cfg }
    }

    /// Executes the whole trace and returns the statistics.
    pub fn run(&self, trace: &Trace) -> SimStats {
        let mut stats = SimStats::default();
        let mut mem = MemoryHierarchy::new(self.cfg.mem);
        for rec in trace.records() {
            count_arch(&mut stats, rec);
            stats.cycles += 1;
            let is_load = rec.inst.is_load();
            if is_load || rec.inst.is_store() {
                let access = mem.access_data(rec.pc, rec.eff_addr, is_load);
                stats.cycles += access.latency as u64;
            }
        }
        stats.mem = mem.stats();
        stats
    }
}

/// Fast-forward + sampled detailed simulation over a record stream.
///
/// Consumes `records` according to `spec` on **one** long-lived cycle-level
/// [`Core`]: the first `spec.ff` records are skipped functionally, then
/// each `spec.period`-record period streams its first `spec.warmup` records
/// through the core with the scheme gated warm-only (training continues,
/// injection stops, stats discarded), its next `spec.detail` records with
/// the gate lifted (stats accumulated), and skips the rest. Each window
/// starts with the pipeline drained at the previous window's last commit
/// cycle ([`Core::run_window`]); the caches, TLB, prefetcher, branch
/// predictors, store sets and scheme carry their state across windows, as
/// in SMARTS (Wunderlich et al., ISCA 2003). Skipped records warm nothing.
///
/// Returns the accumulated detail-window stats — with
/// [`SimStats::sampling`] populated — and the scheme. Tier transitions are
/// emitted into `sink` (pass [`NullSink`] to discard them).
///
/// `spin` is a host-side slowdown for wall-clock gate tests: after each
/// warmup or detail window has run, `spin` busy-loop iterations per window
/// instruction are burned. It never enters the core's step loop and leaves
/// every simulated result unchanged; pass 0 to disable it.
pub fn run_sampled<S, I, K>(
    cfg: &CoreConfig,
    scheme: S,
    records: I,
    spec: SampleSpec,
    spin: u32,
    mut sink: K,
) -> (SimStats, S)
where
    S: VpScheme,
    I: IntoIterator<Item = TraceRecord>,
    K: EventSink,
{
    let mut records = records.into_iter().peekable();
    let mut core = Core::new(cfg.clone(), scheme);
    let mut total = SimStats::default();
    let mut acct = SamplingStats::default();
    let mut consumed: u64 = 0;

    if spec.ff > 0 && K::ENABLED {
        sink.emit(ObsEvent::TierTransition {
            seq: consumed,
            cycle: total.cycles,
            tier: TierKind::Skip,
        });
    }
    for _ in 0..spec.ff {
        if records.next().is_none() {
            break;
        }
        consumed += 1;
        acct.skipped_instructions += 1;
    }

    loop {
        // ---- warmup: train predictors, discard timing -----------------
        if spec.warmup > 0 {
            if records.peek().is_none() {
                break;
            }
            if K::ENABLED {
                sink.emit(ObsEvent::TierTransition {
                    seq: consumed,
                    cycle: total.cycles,
                    tier: TierKind::Warmup,
                });
            }
            core.scheme_mut().set_warm_only(true);
            let warmed = core.run_window(records.by_ref().take(spec.warmup as usize));
            core.scheme_mut().set_warm_only(false);
            burn(spin, warmed.instructions);
            consumed += warmed.instructions;
            acct.warmup_instructions += warmed.instructions;
            if warmed.instructions < spec.warmup {
                break;
            }
        }

        // ---- detail: accumulate stats ---------------------------------
        if records.peek().is_none() {
            break;
        }
        if K::ENABLED {
            sink.emit(ObsEvent::TierTransition {
                seq: consumed,
                cycle: total.cycles,
                tier: TierKind::Detail,
            });
        }
        let stats = core.run_window(records.by_ref().take(spec.detail as usize));
        burn(spin, stats.instructions);
        consumed += stats.instructions;
        acct.windows += 1;
        total.accumulate(&stats);
        if stats.instructions < spec.detail {
            break;
        }

        // ---- skip to the end of the period ----------------------------
        let skip = spec.period - spec.warmup - spec.detail;
        if skip > 0 && K::ENABLED {
            sink.emit(ObsEvent::TierTransition {
                seq: consumed,
                cycle: total.cycles,
                tier: TierKind::Skip,
            });
        }
        let mut exhausted = false;
        for _ in 0..skip {
            if records.next().is_none() {
                exhausted = true;
                break;
            }
            consumed += 1;
            acct.skipped_instructions += 1;
        }
        if exhausted {
            break;
        }
    }

    total.sampling = Some(acct);
    (total, core.into_scheme())
}

/// [`run_sampled`] over an in-memory trace with no event sink — the common
/// harness entry point.
pub fn run_sampled_trace<S: VpScheme>(
    cfg: &CoreConfig,
    scheme: S,
    trace: &Trace,
    spec: SampleSpec,
) -> (SimStats, S) {
    run_sampled(
        cfg,
        scheme,
        trace.records().iter().cloned(),
        spec,
        0,
        NullSink,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use crate::vp::NoVp;

    fn trace(name: &str, budget: u64) -> Trace {
        lvp_workloads::by_name(name)
            .expect("workload exists")
            .trace(budget)
    }

    #[test]
    fn functional_tier_matches_ooo_architectural_counters() {
        let t = trace("nat", 20_000);
        let ooo = simulate(&t, NoVp);
        let f = FunctionalTier.run(&t);
        assert_eq!(f.instructions, ooo.instructions);
        assert_eq!(f.loads, ooo.loads);
        assert_eq!(f.stores, ooo.stores);
        assert_eq!(f.branches, ooo.branches);
        assert_eq!(
            f.cycles, f.instructions,
            "functional IPC is 1 by definition"
        );
        assert_eq!(f.mem.l1d.accesses, 0, "no timing model, no hierarchy");
    }

    #[test]
    fn simple_tier_sits_between_functional_and_ooo() {
        let t = trace("autcor", 20_000);
        let tier = SimpleTier::new(CoreConfig::default());
        let s = tier.run(&t);
        assert_eq!(s.instructions, t.len() as u64);
        assert!(
            s.cycles >= s.instructions,
            "memory latency can only add cycles"
        );
        assert_eq!(
            s.mem.l1d.accesses,
            s.loads + s.stores,
            "every memory op touches the hierarchy"
        );
    }

    #[test]
    fn single_window_covering_the_trace_equals_an_unsampled_run() {
        let t = trace("aifirf", 10_000);
        let n = t.len() as u64;
        let spec = SampleSpec {
            ff: 0,
            warmup: 0,
            detail: n,
            period: n,
        };
        let (sampled, _) = run_sampled_trace(&CoreConfig::default(), NoVp, &t, spec);
        let mut full = simulate(&t, NoVp);
        assert_eq!(sampled.sampling.map(|s| s.windows), Some(1));
        full.sampling = sampled.sampling;
        assert_eq!(
            sampled, full,
            "one whole-trace detail window is the full run"
        );
    }

    #[test]
    fn warm_state_persists_across_windows() {
        let t = trace("aifirf", 5_000);
        let mut core = Core::new(CoreConfig::default(), NoVp);
        let cold = core.run_window(t.records());
        assert_eq!(cold, simulate(&t, NoVp), "a fresh core's window is a run");
        let warm = core.run_window(t.records());
        assert_eq!(warm.instructions, cold.instructions);
        assert!(
            warm.mem.l1d.misses < cold.mem.l1d.misses,
            "repeated records must hit the long-lived L1D: {} vs {} misses",
            warm.mem.l1d.misses,
            cold.mem.l1d.misses
        );
        assert!(warm.branch_mispredicts <= cold.branch_mispredicts);
        assert!(warm.cycles < cold.cycles);
    }

    #[test]
    fn sampled_run_is_deterministic_and_accounts_for_every_instruction() {
        let t = trace("viterbi", 30_000);
        let spec = SampleSpec {
            ff: 1_000,
            warmup: 500,
            detail: 1_500,
            period: 4_000,
        };
        let cfg = CoreConfig::default();
        let (a, _) = run_sampled_trace(&cfg, NoVp, &t, spec);
        let (b, _) = run_sampled_trace(&cfg, NoVp, &t, spec);
        assert_eq!(a, b, "sampling must be deterministic");
        let acct = a.sampling.expect("sampled stats carry accounting");
        assert_eq!(
            acct.skipped_instructions + acct.warmup_instructions + a.instructions,
            t.len() as u64,
            "every record lands in exactly one tier"
        );
        assert!(acct.windows > 1);
        assert!(a.instructions < t.len() as u64, "detail is a sample");
    }

    #[test]
    fn sampled_run_emits_tier_transitions() {
        let t = trace("aifirf", 10_000);
        let spec = SampleSpec {
            ff: 2_000,
            warmup: 500,
            detail: 1_000,
            period: 3_000,
        };
        let mut sink = lvp_obs::RingSink::new(4096);
        let (stats, _) = run_sampled(
            &CoreConfig::default(),
            NoVp,
            t.records().iter().cloned(),
            spec,
            0,
            &mut sink,
        );
        let events = sink.into_ring().drain();
        assert!(!events.is_empty());
        assert_eq!(
            events[0],
            ObsEvent::TierTransition {
                seq: 0,
                cycle: 0,
                tier: TierKind::Skip
            }
        );
        assert!(events.iter().any(|e| matches!(
            e,
            ObsEvent::TierTransition {
                tier: TierKind::Detail,
                ..
            }
        )));
        assert!(stats.sampling.is_some());
    }
}
