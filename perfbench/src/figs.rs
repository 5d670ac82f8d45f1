//! `figs_all`: every `figs` spec through `lvp_bench::run_specs_with`,
//! store disabled, on [`ROUND_WORKERS`] thread — the paper-reproduction
//! traffic.
//!
//! One operation is one simulation job. A round runs all specs once; the
//! pass repeats rounds until its time is up. Each job is checked to commit
//! exactly [`BUDGET`] instructions, and every round's rendered texts and
//! per-job work must match the first round's.

use crate::tracer::timed;
use crate::{combine, stats_digest, Pass, Round, Verified, Workload, WORKERS};
use lvp_bench::specs::{run_specs_serviced, ExperimentSpec, SimOutput, SimRequest, SPECS};
use lvp_bench::{run_specs, run_specs_with, sim_request_doc, Progress};
use lvp_obs::{NullPhases, PhaseRecorder};
use lvp_store::{fnv1a_64, SimService};
use lvp_uarch::SimConfig;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Per-workload instruction budget of every job.
pub const BUDGET: u64 = 10_000;

/// Budget of the warm-up round each set-up runs.
const WARMUP_BUDGET: u64 = 200;

/// Worker threads of the set-up and the timed rounds. With two workers on
/// a shared 2-vCPU virtual machine, ten runs of the same code spread by up
/// to 30% of their median (interquartile range); one worker runs on one
/// pinned CPU at a time, like the other workloads.
const ROUND_WORKERS: usize = 1;

pub struct FigsAll {
    specs: Vec<&'static ExperimentSpec>,
    /// Rendered texts and per-job work of the first timed round.
    first: Option<(Vec<String>, u64)>,
}

impl FigsAll {
    /// Resolves the spec list and runs one small warm-up round, so thread
    /// start-up and first-touch page faults are paid before timing.
    pub fn setup() -> FigsAll {
        let specs: Vec<&'static ExperimentSpec> = SPECS.iter().collect();
        std::hint::black_box(run_specs(&specs, WARMUP_BUDGET, ROUND_WORKERS));
        FigsAll { specs, first: None }
    }
}

/// What one round produced besides its timing.
struct Outputs {
    bad_jobs: u64,
    texts: Vec<String>,
    /// FNV-1a over each job's name, cycles and instructions, in name order.
    work_digest: u64,
}

impl FigsAll {
    /// Runs every spec once. Its phases go to `tracer` when set, under a
    /// span of the call, and to a recorder of the round's own otherwise.
    fn round(&self, tracer: Option<&PhaseRecorder>) -> (Round, Outputs) {
        let own = PhaseRecorder::new();
        let rec = tracer.unwrap_or(&own);
        let before = rec.spans().len();
        let (rendered, ns) = timed(tracer, "bench/lvp_bench::run_specs_with", 0, || {
            run_specs_with(&self.specs, BUDGET, ROUND_WORKERS, rec, &Progress::off())
        });
        let phases = rec.spans().split_off(before);
        let mut jobs: Vec<_> = phases
            .iter()
            .filter(|p| p.name.starts_with("job:"))
            .collect();
        jobs.sort_by(|a, b| a.name.cmp(&b.name));
        let mut work = Vec::new();
        for j in &jobs {
            work.extend_from_slice(j.name.as_bytes());
            work.push(0);
            work.extend_from_slice(&j.sim_cycles.to_le_bytes());
            work.extend_from_slice(&j.instructions.to_le_bytes());
        }
        let round = Round {
            ns,
            instructions: jobs.iter().map(|p| p.instructions).sum(),
            ops: jobs.len() as u64,
            latencies_ms: jobs.iter().map(|p| p.dur_ns as f64 / 1e6).collect(),
        };
        let outputs = Outputs {
            bad_jobs: jobs.iter().filter(|p| p.instructions != BUDGET).count() as u64,
            texts: rendered.into_iter().map(|r| r.text).collect(),
            work_digest: fnv1a_64(&work),
        };
        (round, outputs)
    }
}

impl Workload for FigsAll {
    fn pass(&mut self, seconds: f64, tracer: Option<&PhaseRecorder>) -> Pass {
        let start = Instant::now();
        let mut pass = Pass::default();
        while pass.rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let (round, out) = self.round(tracer);
            pass.attempted += round.ops;
            pass.failed += out.bad_jobs;
            match &self.first {
                None => self.first = Some((out.texts, out.work_digest)),
                Some((texts, work)) => {
                    if *texts != out.texts || *work != out.work_digest {
                        eprintln!("figs_all: round output differs from the first round");
                        pass.failed += round.ops;
                    }
                }
            }
            pass.rounds.push(round);
        }
        pass
    }

    /// Reruns every spec once behind an in-memory store, so each job's
    /// `SimStats` can be read back by key and hashed; the rendered texts
    /// must equal the timed rounds'.
    fn verify(&mut self) -> Verified {
        let service = SimService::in_memory();
        let rendered = run_specs_serviced(
            &self.specs,
            BUDGET,
            WORKERS,
            &NullPhases,
            &Progress::off(),
            &service,
        );
        let texts: Vec<String> = rendered.into_iter().map(|r| r.text).collect();
        let mut failed = 0;
        if self.first.as_ref().map(|(t, _)| t) != Some(&texts) {
            eprintln!("figs_all: digest run renders differently from the timed rounds");
            failed += 1;
        }

        let mut seen = HashSet::new();
        let requests: Vec<SimRequest> = self
            .specs
            .iter()
            .flat_map(|s| (s.sims)())
            .filter(|r| seen.insert(*r))
            .collect();
        let mut fingerprints = HashMap::new();
        let mut digests = Vec::with_capacity(requests.len());
        for req in &requests {
            let fp = *fingerprints.entry(req.workload).or_insert_with(|| {
                lvp_workloads::by_name(req.workload)
                    .expect("specs name registered workloads")
                    .trace(BUDGET)
                    .fingerprint()
            });
            let cfg = SimConfig::preset(req.preset).expect("specs name registered presets");
            let key = service.key(&sim_request_doc(fp, BUDGET, req.scheme.label(), &cfg));
            let stats = match service
                .lookup(&key)
                .as_ref()
                .and_then(SimOutput::from_payload)
            {
                Some(SimOutput::Outcome(o)) => o.stats,
                Some(SimOutput::Stats(s)) => s,
                None => {
                    eprintln!("figs_all: no stored result for {req:?}");
                    failed += 1;
                    continue;
                }
            };
            if stats.instructions != BUDGET {
                failed += 1;
            }
            digests.push(stats_digest(&stats));
        }
        Verified {
            attempted: 1 + requests.len() as u64,
            failed,
            digest: combine(&digests),
            digest_scope: format!("SimStats of {} jobs at budget {BUDGET}", requests.len()),
        }
    }
}
