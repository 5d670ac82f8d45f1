//! `serve_mixed`: one closed-loop client sends single-job `BatchRequest`s
//! to `lvp_bench::execute_batch` over an on-disk `SimService`.
//!
//! The traffic follows the repository's incremental flow: `figs --all`
//! re-run against a warm store after one spec's requests changed. One such
//! run is one process, so one `SimService` session; the other specs'
//! requests are store hits and the changed spec's are misses.
//! [`Traffic::incremental_figs`] derives the hit share and the session
//! length from the registered specs. Set-up stores one request per kernel.
//! The timed loop then sends repeats of stored requests (reads) and
//! requests not yet stored (simulate plus write) in that ratio, and opens
//! the store afresh for every session: its in-process memo starts empty and
//! is dropped at the end. The seed picks the order and each request's
//! scheme and config, as [`Schedule`] describes.
//!
//! Every response must carry no `error`, come from where the schedule
//! expects (`store` for a repeat, `computed` for a new request) and commit
//! its budget. A seeded sample of store hits is checked after timing
//! against a fresh `run_scheme` of the same request.

use crate::tracer::timed;
use crate::{combine, seed_stream, Pass, Round, Verified, Workload};
use crate::{OUT_DIR, WORKERS};
use dlvp::SchemeKind;
use lvp_bench::experiments::SchemeOutcome;
use lvp_bench::specs::SPECS;
use lvp_bench::{execute_batch, run_scheme, BatchRequest, ConfigVariant, JobSpec};
use lvp_json::{Json, ToJson};
use lvp_obs::PhaseRecorder;
use lvp_store::fnv1a_64;
use lvp_store::SimService;
use lvp_workloads::util::Prng;
use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Instant;

/// Instruction budget of every request.
const BUDGET: u64 = 20_000;
/// Requests the simulation digest covers: the first of the schedule, which
/// every pass completes even when its time is up.
const DIGEST_REQUESTS: u64 = 128;
/// Requests per measured round, at least; a round is a whole number of
/// [`Traffic::mix`] periods.
const BLOCK: u64 = 64;
/// Store hits checked against a fresh simulation after timing.
const HIT_CHECKS: usize = 6;

/// The shape of the client's traffic, derived from the registered specs.
#[derive(Debug, Clone, Copy)]
pub struct Traffic {
    /// Of every `mix` requests, the last is a miss and the rest are repeats.
    pub mix: u64,
    /// Requests per session (one `SimService` instance).
    pub session: u64,
}

impl Traffic {
    /// `figs --all` against a warm store after one spec's requests changed:
    /// the distinct requests of every other spec hit, and the changed
    /// spec's distinct requests miss. Averaged over which spec changed, a
    /// miss comes once every `mix` requests (rounded), and a run sends
    /// `session` requests.
    pub fn incremental_figs() -> Traffic {
        let per_spec: Vec<HashSet<_>> = SPECS
            .iter()
            .map(|s| (s.sims)().into_iter().collect())
            .collect();
        let (mut hits, mut misses) = (0, 0);
        for (i, own) in per_spec.iter().enumerate() {
            let others: HashSet<_> = per_spec
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .flat_map(|(_, reqs)| reqs.iter().copied())
                .collect();
            hits += others.len() as u64;
            misses += own.len() as u64;
        }
        let total = hits + misses;
        Traffic {
            mix: ((total as f64 / misses.max(1) as f64).round() as u64).max(1),
            session: (total as f64 / per_spec.len().max(1) as f64).round() as u64,
        }
    }
}

/// The request schedule. Every workload appears equally often among both
/// repeats and misses. The seed picks the order of both and the scheme and
/// config of each workload's stored request. A miss's cost depends on its
/// scheme and config too, so the misses walk every workload's schemes and
/// configs in the same order for every seed: run-to-run figures then
/// compare across seeds.
pub struct Schedule {
    seed: u64,
    workloads: Vec<&'static str>,
    /// Order in which repeats and misses visit the workloads.
    hit_order: Vec<usize>,
    miss_order: Vec<usize>,
}

fn shuffled(n: usize, rng: &mut Prng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

impl Schedule {
    pub fn new(seed: u64) -> Schedule {
        let workloads = lvp_workloads::names();
        let mut rng = Prng::seed_from_u64(seed_stream(seed, 2));
        Schedule {
            seed,
            hit_order: shuffled(workloads.len(), &mut rng),
            miss_order: shuffled(workloads.len(), &mut rng),
            workloads,
        }
    }

    /// Workload `w` with scheme and config number `k` of the 5 schemes x 6
    /// configs, at `budget`.
    fn job(&self, w: usize, k: u64, budget: u64) -> JobSpec {
        let schemes = SchemeKind::all();
        let variants = ConfigVariant::all();
        let k = k % (schemes.len() * variants.len()) as u64;
        JobSpec {
            workload: self.workloads[w].to_string(),
            scheme: schemes[(k % schemes.len() as u64) as usize],
            variant: variants[(k / schemes.len() as u64) as usize],
            budget,
            sample: None,
        }
    }

    /// Workload `w`'s stored request: a seeded scheme and config.
    fn stored_job(&self, w: usize) -> JobSpec {
        self.job(w, seed_stream(self.seed, 10 + w as u64), BUDGET)
    }

    /// The repeat set: one request per workload, stored during set-up.
    pub fn stored(&self) -> Vec<JobSpec> {
        (0..self.workloads.len())
            .map(|w| self.stored_job(w))
            .collect()
    }

    /// The `n`-th repeat, cycling through the repeat set.
    pub fn hit(&self, n: u64) -> JobSpec {
        self.stored_job(self.hit_order[(n % self.workloads.len() as u64) as usize])
    }

    /// The `n`-th miss: every workload once per round. Round `r` gives
    /// workload `w` scheme and config number `w + r`, so each round covers
    /// the schemes and configs evenly. Misses run one instruction past the
    /// stored budget, plus one per 30 rounds, so no miss shares a key with
    /// a stored request or an earlier miss.
    pub fn miss(&self, n: u64) -> JobSpec {
        let count = self.workloads.len() as u64;
        let (w, round) = (self.miss_order[(n % count) as usize], n / count);
        let combos = (SchemeKind::all().len() * ConfigVariant::all().len()) as u64;
        self.job(w, w as u64 + round, BUDGET + 1 + round / combos)
    }
}

/// An on-disk store directory, removed on drop.
pub struct StoreDir(PathBuf);

impl StoreDir {
    pub fn fresh(tag: &str) -> Result<StoreDir, String> {
        let dir = PathBuf::from(OUT_DIR).join(format!("{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot clear {dir:?}: {e}"))?;
        }
        Ok(StoreDir(dir))
    }

    pub fn open(&self) -> Result<SimService, String> {
        SimService::open(&self.0).map_err(|e| format!("cannot open store {:?}: {e}", self.0))
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn single(id: u64, job: &JobSpec) -> BatchRequest {
    BatchRequest {
        id: format!("q{id}"),
        jobs: vec![job.clone()],
    }
}

/// The one response line of a single-job batch: its provenance and
/// outcome, or the error it carries.
pub fn response(lines: &[Json]) -> Result<(String, &Json), String> {
    let [line] = lines else {
        return Err(format!("{} response lines for one job", lines.len()));
    };
    if let Some(e) = line.get("error") {
        return Err(format!("error response: {}", e.compact()));
    }
    let source = line
        .get("source")
        .and_then(Json::as_str)
        .ok_or("no 'source'")?;
    let outcome = line.get("outcome").ok_or("no 'outcome'")?;
    Ok((source.to_string(), outcome))
}

pub struct ServeMixed {
    schedule: Schedule,
    /// The store; removed when the workload is dropped.
    dir: StoreDir,
    /// The current session's service.
    service: SimService,
    /// Picks the store hits checked after timing.
    rng: Prng,
    traffic: Traffic,
    /// Next schedule position.
    next: u64,
    /// Digests of the first [`DIGEST_REQUESTS`] responses' stats.
    digests: Vec<u64>,
    /// Seeded sample of store hits: request and the outcome served.
    hits: Vec<(JobSpec, String)>,
}

impl ServeMixed {
    /// Creates a fresh store and stores the repeat set.
    pub fn setup(seed: u64) -> Result<ServeMixed, String> {
        let schedule = Schedule::new(seed);
        let traffic = Traffic::incremental_figs();
        let dir = StoreDir::fresh("serve-store")?;
        // Stored one request at a time, like the timed client sends them.
        let service = dir.open()?;
        for (i, job) in schedule.stored().iter().enumerate() {
            let lines = execute_batch(&single(i as u64, job), &service, WORKERS);
            response(&lines).map_err(|e| format!("set-up request {i}: {e}"))?;
        }
        drop(service);
        let service = dir.open()?;
        Ok(ServeMixed {
            schedule,
            dir,
            service,
            rng: Prng::seed_from_u64(seed_stream(seed, 3)),
            traffic,
            next: 0,
            digests: Vec::new(),
            hits: Vec::new(),
        })
    }
}

impl ServeMixed {
    /// Sends the next request and checks its response; returns the
    /// instructions it simulated (zero for a store hit) or why it failed.
    fn request(
        &mut self,
        tracer: Option<&PhaseRecorder>,
        latencies_ms: &mut Vec<f64>,
    ) -> Result<u64, String> {
        let Traffic { mix, session } = self.traffic;
        let n = self.next;
        self.next += 1;
        if n > 0 && n.is_multiple_of(session) {
            self.service = self.dir.open()?;
        }
        let is_miss = n % mix == mix - 1;
        let job = if is_miss {
            self.schedule.miss(n / mix)
        } else {
            self.schedule.hit(n - n / mix)
        };
        let (lines, ns) = timed(tracer, "bench/lvp_bench::execute_batch", 1, || {
            execute_batch(&single(n, &job), &self.service, WORKERS)
        });
        latencies_ms.push(ns as f64 / 1e6);
        let (source, outcome) = response(&lines).map_err(|e| format!("request {n}: {e}"))?;
        let expected = if is_miss { "computed" } else { "store" };
        if source != expected {
            return Err(format!(
                "request {n}: source '{source}', expected '{expected}'"
            ));
        }
        let stats = outcome.get("stats").ok_or("outcome without 'stats'")?;
        match stats.get("instructions") {
            Some(Json::U64(i)) if *i == job.budget => {}
            other => {
                return Err(format!(
                    "request {n}: committed {other:?} instructions, budget {}",
                    job.budget
                ))
            }
        }
        if n < DIGEST_REQUESTS {
            self.digests.push(fnv1a_64(stats.compact().as_bytes()));
        }
        if is_miss {
            Ok(job.budget)
        } else {
            if self.hits.len() < HIT_CHECKS && self.rng.below(16) == 0 {
                self.hits.push((job, outcome.compact()));
            }
            Ok(0)
        }
    }
}

impl Workload for ServeMixed {
    fn pass(&mut self, seconds: f64, tracer: Option<&PhaseRecorder>) -> Pass {
        let start = Instant::now();
        let mut pass = Pass::default();
        let block = BLOCK.div_ceil(self.traffic.mix) * self.traffic.mix;
        while self.next < DIGEST_REQUESTS || start.elapsed().as_secs_f64() < seconds {
            let round = Instant::now();
            let mut instructions = 0;
            let mut latencies_ms = Vec::with_capacity(block as usize);
            for _ in 0..block {
                match self.request(tracer, &mut latencies_ms) {
                    Ok(simulated) => instructions += simulated,
                    Err(e) => {
                        eprintln!("serve_mixed: {e}");
                        pass.failed += 1;
                    }
                }
            }
            pass.attempted += block;
            pass.rounds.push(Round {
                ns: round.elapsed().as_nanos() as u64,
                instructions,
                ops: block,
                latencies_ms,
            });
        }
        pass
    }

    fn verify(&mut self) -> Verified {
        let mut failed = 0;
        for (job, served) in &self.hits {
            let trace = lvp_workloads::by_name(&job.workload)
                .expect("the schedule names registered workloads")
                .trace(job.budget);
            let fresh: SchemeOutcome = run_scheme(&trace, job.scheme, &job.variant.config());
            if fresh.to_json().compact() != *served {
                eprintln!("serve_mixed: stored outcome differs from a fresh run of {job:?}");
                failed += 1;
            }
        }
        Verified {
            attempted: self.hits.len() as u64,
            failed,
            digest: combine(&self.digests),
            digest_scope: format!(
                "SimStats of the first {DIGEST_REQUESTS} responses; 1 miss per {} requests, sessions of {}",
                self.traffic.mix, self.traffic.session
            ),
        }
    }
}
