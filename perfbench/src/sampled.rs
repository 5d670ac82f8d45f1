//! `sampled_long`: SMARTS-style fast-forward plus sampled DLVP over a long
//! budget, streaming `lvp_emu::Emulator::records` straight into
//! `lvp_uarch::run_sampled`, one kernel at a time.
//!
//! Only [`WARMUP`] + [`DETAIL`] of every [`PERIOD`] instructions reach the
//! cycle-level core, so the emulator and the per-window `Core::new` carry
//! most of the host time. One operation is one kernel's sampled run; it is
//! checked to account for exactly [`BUDGET`] instructions (skipped + warmed
//! + detailed), and each round's stats must equal the first round's.

use crate::tracer::timed;
use crate::{combine, seed_stream, stats_digest, Pass, Round, Verified, Workload};
use dlvp::SchemeKind;
use lvp_bench::run_scheme;
use lvp_emu::{Emulator, Records};
use lvp_isa::Program;
use lvp_obs::PhaseRecorder;
use lvp_trace::TraceRecord;
use lvp_uarch::{run_sampled, NullSink, SampleSpec, SimConfig, SimStats};
use std::collections::VecDeque;
use std::time::Instant;

/// Kernels from three suites (EEMBC, SPEC2K, SPEC2K6).
pub const KERNELS: [&str; 3] = ["aifirf", "perlbmk", "mcf"];
/// Instructions streamed per kernel.
const BUDGET: u64 = 1_000_000;
const PERIOD: u64 = 50_000;
const WARMUP: u64 = 2_000;
const DETAIL: u64 = 3_000;
/// Budget of the warm-up sampled run each set-up makes per kernel.
const SETUP_BUDGET: u64 = 500_000;

/// The sampling spec; the seed picks the fast-forward offset, a whole
/// number of thousands in `[1k, PERIOD)`.
pub fn sample_spec(seed: u64) -> SampleSpec {
    SampleSpec {
        ff: 1_000 * (1 + seed_stream(seed, 1) % (PERIOD / 1_000 - 1)),
        warmup: WARMUP,
        detail: DETAIL,
        period: PERIOD,
    }
}

pub struct SampledLong {
    programs: Vec<Program>,
    cfg: SimConfig,
    spec: SampleSpec,
    /// Per-kernel stats of the first timed round.
    first: Option<Vec<SimStats>>,
}

/// Records the traced run pulls from the emulator per `emu` span.
const CHUNK: usize = 1024;

/// The emulator's record stream, pulled [`CHUNK`] records at a time under
/// an `emu` span each, so a traced run charges stepping to the emulator
/// rather than to the sampler that drains the stream.
struct Chunked<'a> {
    records: Records,
    buf: VecDeque<TraceRecord>,
    rec: &'a PhaseRecorder,
}

impl Iterator for Chunked<'_> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        if self.buf.is_empty() {
            let (records, buf) = (&mut self.records, &mut self.buf);
            timed(Some(self.rec), "emu/Emulator::records", 0, || {
                buf.extend(records.take(CHUNK))
            });
        }
        self.buf.pop_front()
    }
}

fn sample(
    cfg: &SimConfig,
    spec: SampleSpec,
    records: impl IntoIterator<Item = TraceRecord>,
) -> SimStats {
    run_sampled(
        &cfg.core,
        SchemeKind::Dlvp.build(cfg),
        records,
        spec,
        0,
        NullSink,
    )
    .0
}

/// Streams `budget` instructions of `program` through the sampler with a
/// DLVP scheme.
pub fn sampled_run(
    program: &Program,
    cfg: &SimConfig,
    spec: SampleSpec,
    budget: u64,
    tracer: Option<&PhaseRecorder>,
) -> SimStats {
    let (emu, _) = timed(tracer, "emu/Emulator::new", 0, || {
        Emulator::new(program.clone())
    });
    let records = emu.records(budget);
    let (stats, _) = timed(
        tracer,
        "uarch/lvp_uarch::run_sampled",
        budget,
        || match tracer {
            None => sample(cfg, spec, records),
            Some(rec) => sample(
                cfg,
                spec,
                Chunked {
                    records,
                    buf: VecDeque::with_capacity(CHUNK),
                    rec,
                },
            ),
        },
    );
    stats
}

/// Instructions a sampled run consumed: skipped + warmed + detailed.
pub fn consumed(stats: &SimStats) -> u64 {
    let s = stats.sampling.unwrap_or_default();
    s.skipped_instructions + s.warmup_instructions + stats.instructions
}

fn ipc(stats: &SimStats) -> f64 {
    stats.instructions as f64 / stats.cycles as f64
}

impl SampledLong {
    /// Builds the kernels' programs and makes one short sampled run of
    /// each, so lazy state is in place before timing.
    pub fn setup(seed: u64) -> SampledLong {
        let cfg = SimConfig::paper_default();
        let spec = sample_spec(seed);
        let programs: Vec<Program> = KERNELS
            .iter()
            .map(|k| {
                lvp_workloads::by_name(k)
                    .expect("sampled kernels are registered")
                    .program()
            })
            .collect();
        for p in &programs {
            std::hint::black_box(sampled_run(p, &cfg, spec, SETUP_BUDGET, None));
        }
        SampledLong {
            programs,
            cfg,
            spec,
            first: None,
        }
    }
}

impl Workload for SampledLong {
    fn pass(&mut self, seconds: f64, tracer: Option<&PhaseRecorder>) -> Pass {
        let start = Instant::now();
        let mut pass = Pass::default();
        while pass.rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let mut stats = Vec::with_capacity(self.programs.len());
            let mut ns = 0;
            let mut latencies_ms = Vec::with_capacity(self.programs.len());
            for p in &self.programs {
                let run = Instant::now();
                stats.push(sampled_run(p, &self.cfg, self.spec, BUDGET, tracer));
                let run_ns = run.elapsed().as_nanos() as u64;
                ns += run_ns;
                latencies_ms.push(run_ns as f64 / 1e6);
            }
            pass.attempted += stats.len() as u64;
            pass.failed += stats.iter().filter(|s| consumed(s) != BUDGET).count() as u64;
            match &self.first {
                None => self.first = Some(stats),
                Some(first) => {
                    pass.failed += first.iter().zip(&stats).filter(|(a, b)| a != b).count() as u64;
                }
            }
            pass.rounds.push(Round {
                ns,
                instructions: BUDGET * KERNELS.len() as u64,
                ops: KERNELS.len() as u64,
                latencies_ms,
            });
        }
        pass
    }

    fn verify(&mut self) -> Verified {
        let first = self.first.as_ref().expect("a pass ran before verify");
        let digests: Vec<u64> = first.iter().map(stats_digest).collect();
        Verified {
            attempted: 0,
            failed: 0,
            digest: combine(&digests),
            digest_scope: format!("sampled SimStats of {KERNELS:?}, ff {}", self.spec.ff),
        }
    }
}

/// Mean over [`KERNELS`] of |sampled - full-detail| / full-detail DLVP
/// IPC, in percent, under the seed's sampling spec. The reference is the
/// repository's own cycle-level model over the same [`BUDGET`]
/// instructions, not hardware. Deterministic; computed outside timing.
pub fn ipc_err_pct(seed: u64) -> f64 {
    let cfg = SimConfig::paper_default();
    let spec = sample_spec(seed);
    let mut sum = 0.0;
    for kernel in KERNELS {
        let w = lvp_workloads::by_name(kernel).expect("sampled kernels are registered");
        let sampled = sampled_run(&w.program(), &cfg, spec, BUDGET, None);
        let full = run_scheme(&w.trace(BUDGET), SchemeKind::Dlvp, &cfg).stats;
        let err = 100.0 * (ipc(&sampled) - ipc(&full)).abs() / ipc(&full);
        println!(
            "sampled_long: {kernel} ff {} sampled IPC {:.4} full-detail IPC {:.4} error {err:.3}%",
            spec.ff,
            ipc(&sampled),
            ipc(&full)
        );
        sum += err;
    }
    sum / KERNELS.len() as f64
}
