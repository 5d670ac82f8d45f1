//! The one execution path every simulation request takes.
//!
//! `runner`, `figs` and `serve` all reduce to the same batch: build each
//! distinct `(workload, budget)` trace once, key each request by the
//! canonical hash of its request document, answer what the result store
//! already holds, coalesce identical keys in flight, run only the misses
//! on the worker pool, and record what was computed. [`run_batch`] is that
//! batch; the matrix, spec and serve modules are thin front ends that
//! translate their request type in ([`SimJob`]) and their output type out.
//!
//! Request documents ([`sim_request_doc`]) embed the trace *fingerprint*
//! rather than the workload name: a workload-generator edit changes the
//! fingerprint and silently invalidates every affected entry, while
//! `SimConfig` is embedded fully resolved so a preset edit recomputes
//! exactly the design points it touches (the incremental-`figs` property).
//! Every front end shares this one key space, so a result computed by any
//! of them is a hit for all of them.

use crate::telemetry::Progress;
use lvp_json::{Json, ToJson};
use lvp_obs::{NullPhases, PhaseSink};
use lvp_store::SimService;
use lvp_trace::Trace;
use lvp_uarch::SimConfig;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The canonical request document for one simulation: everything its
/// result is a pure function of.
pub fn sim_request_doc(trace_fingerprint: u64, budget: u64, scheme: &str, cfg: &SimConfig) -> Json {
    Json::obj([
        ("kind", Json::Str("sim".to_string())),
        ("trace", Json::Str(format!("{trace_fingerprint:016x}"))),
        ("budget", Json::U64(budget)),
        ("scheme", Json::Str(scheme.to_string())),
        ("config", cfg.to_json()),
    ])
}

/// How a batch executes: worker count, host-phase sink, progress meter and
/// result store, passed as one value.
///
/// [`Exec::new`] is the plain case — no telemetry, no progress, no store;
/// the builder methods add each. Telemetry and progress only observe a
/// run, and store payloads round-trip losslessly, so every combination
/// yields bit-identical results.
pub struct Exec<'a, P: PhaseSink = NullPhases> {
    pub workers: usize,
    pub phases: &'a P,
    pub progress: Option<&'a Progress>,
    pub service: Option<&'a SimService>,
}

impl<P: PhaseSink> Clone for Exec<'_, P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P: PhaseSink> Copy for Exec<'_, P> {}

impl Exec<'static> {
    /// `workers` threads, nothing else.
    pub fn new(workers: usize) -> Exec<'static> {
        Exec {
            workers,
            phases: &NullPhases,
            progress: None,
            service: None,
        }
    }
}

impl<'a, P: PhaseSink> Exec<'a, P> {
    /// Records host phases into `phases`: each item runs inside a span on
    /// its worker's lane, charged with the work it reports.
    pub fn with_phases<'b, Q: PhaseSink>(self, phases: &'b Q) -> Exec<'b, Q>
    where
        'a: 'b,
    {
        Exec {
            workers: self.workers,
            phases,
            progress: self.progress,
            service: self.service,
        }
    }

    /// Ticks `progress` once per finished item.
    pub fn with_progress(self, progress: &'a Progress) -> Self {
        Exec {
            progress: Some(progress),
            ..self
        }
    }

    /// Answers requests from `service` where it can and records the rest.
    pub fn with_service(self, service: &'a SimService) -> Self {
        Exec {
            service: Some(service),
            ..self
        }
    }
}

/// Applies `f` to every item on a scoped worker pool and returns results in
/// **input order** — bit-identical for any worker count, provided `f` is
/// pure. Items are consumed via an atomic cursor; each result lands in its
/// own index slot, so neither the thread count nor the completion schedule
/// can reorder output.
///
/// Each item runs inside a phase span named `label(item)` on its worker's
/// lane (worker `i` = lane `i + 1`), charged with the `(sim_cycles,
/// instructions)` that `meter` reads off its result, and ticks the
/// progress meter. With [`NullPhases`] the span and `label` calls compile
/// out. An empty batch spawns no thread; a one-worker batch runs on the
/// calling thread.
pub fn par_map<T, R, P, L, M, F>(items: &[T], exec: &Exec<P>, label: L, meter: M, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    P: PhaseSink,
    L: Fn(&T) -> String + Sync,
    M: Fn(&R) -> (u64, u64) + Sync,
    F: Fn(&T) -> R + Sync,
{
    let workers = exec.workers.max(1).min(items.len());
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let work = |lane: u32| loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        let mut guard = P::ENABLED.then(|| exec.phases.span(lane, &label(item)));
        let r = f(item);
        let (sim_cycles, instructions) = meter(&r);
        if let Some(g) = guard.as_mut() {
            g.charge(sim_cycles, instructions, 1);
            g.finish();
        }
        if let Some(p) = exec.progress {
            p.tick(sim_cycles);
        }
        *slots[i].lock().expect("result slot lock poisoned") = Some(r);
    };
    if workers == 1 {
        work(1);
    } else if workers > 1 {
        std::thread::scope(|scope| {
            for w in 0..workers {
                let work = &work;
                scope.spawn(move || work((w + 1) as u32));
            }
        });
    }
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot lock poisoned")
                .expect("every item processed")
        })
        .collect()
}

/// One simulation request as the batch engine sees it: the trace it reads,
/// its canonical request document, how to run it, and how its output
/// travels through the result store.
pub trait SimJob: Sync {
    /// The simulation's result.
    type Output: Clone + Send;

    /// The `(workload, budget)` trace this job reads.
    fn trace_id(&self) -> (&str, u64);

    /// The `job:` span label.
    fn label(&self) -> String;

    /// The canonical request document, given the trace's fingerprint.
    fn request_doc(&self, trace_fingerprint: u64) -> Json;

    /// Runs the simulation. Must be pure.
    fn run(&self, trace: &Trace) -> Self::Output;

    /// The result-store payload for an output.
    fn encode(output: &Self::Output) -> Json;

    /// Inverse of [`SimJob::encode`]; `None` on any shape mismatch (the
    /// engine then treats the entry as a miss and recomputes).
    fn decode(payload: &Json) -> Option<Self::Output>;

    /// The `(sim_cycles, instructions)` an output cost.
    fn work(output: &Self::Output) -> (u64, u64);
}

/// How one batch item's output was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Answered from the result store (memo or disk).
    Store,
    /// Simulated by this batch (and recorded, when a store is on).
    Computed,
    /// Coalesced onto an identical request earlier in the same batch.
    Deduped,
}

impl Provenance {
    pub fn name(self) -> &'static str {
        match self {
            Provenance::Store => "store",
            Provenance::Computed => "computed",
            Provenance::Deduped => "deduped",
        }
    }
}

/// What a batch actually executed (the misses): simulated cycles,
/// instructions, and job count. The batch's `simulate` span is charged
/// with these, so manifests attribute wall time only to sims that ran — a
/// fully warm run reports zero jobs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutedWork {
    pub sim_cycles: u64,
    pub instructions: u64,
    pub jobs: u64,
}

/// A finished batch.
pub struct Batch<R> {
    /// Every item's output and provenance, in input order.
    pub results: Vec<(R, Provenance)>,
    /// Every item's store key, in input order; empty when no store is on.
    pub keys: Vec<String>,
    /// The traces built, keyed by `(workload, budget)`.
    pub traces: Vec<((String, u64), Trace)>,
    /// The work the computed items cost.
    pub executed: ExecutedWork,
}

/// Runs a batch of simulation requests on the single execution path.
///
/// 1. Builds each distinct `(workload, budget)` trace once — those of
///    `extra_traces` first, then the items' in first-seen order — on the
///    pool, under a lane-0 `build_traces` span with one `trace:<name>`
///    span per trace.
/// 2. With a store on, fingerprints each trace once, keys every item,
///    coalesces equal keys (later duplicates report
///    [`Provenance::Deduped`]) and looks each first occurrence up.
///    Without one, every item is a miss and nothing is keyed.
/// 3. Runs the misses on the pool under a lane-0 `simulate` span, one
///    label span per miss, ticking the progress meter; records each
///    computed output.
///
/// # Panics
///
/// Panics if an item names an unknown workload; front ends validate
/// requests first.
pub fn run_batch<J: SimJob, P: PhaseSink>(
    items: &[J],
    extra_traces: &[(&str, u64)],
    exec: &Exec<P>,
) -> Batch<J::Output> {
    let mut trace_ids: Vec<(&str, u64)> = Vec::new();
    let mut trace_index: HashMap<(&str, u64), usize> = HashMap::new();
    for id in extra_traces
        .iter()
        .copied()
        .chain(items.iter().map(SimJob::trace_id))
    {
        trace_index.entry(id).or_insert_with(|| {
            trace_ids.push(id);
            trace_ids.len() - 1
        });
    }
    let mut span = exec.phases.span(0, "build_traces");
    let traces: Vec<Trace> = par_map(
        &trace_ids,
        &Exec {
            progress: None,
            ..*exec
        },
        |(name, _)| format!("trace:{name}"),
        |t: &Trace| (0, t.len() as u64),
        |(name, budget)| {
            lvp_workloads::by_name(name)
                .unwrap_or_else(|| panic!("unknown workload '{name}'"))
                .trace(*budget)
        },
    );
    span.charge(0, traces.iter().map(|t| t.len() as u64).sum(), 0);
    span.finish();
    let trace_of = |job: &J| &traces[trace_index[&job.trace_id()]];

    let mut span = exec.phases.span(0, "simulate");
    let service = exec.service.filter(|s| s.enabled());
    let mut slots: Vec<Option<(J::Output, Provenance)>> = vec![None; items.len()];
    let mut keys: Vec<String> = Vec::new();
    let mut misses: Vec<usize> = Vec::new();
    let mut duplicates: Vec<(usize, usize)> = Vec::new();
    match service {
        None => misses.extend(0..items.len()),
        Some(service) => {
            let fingerprints: Vec<u64> = traces.iter().map(Trace::fingerprint).collect();
            keys = items
                .iter()
                .map(|job| {
                    let fingerprint = fingerprints[trace_index[&job.trace_id()]];
                    service.key(&job.request_doc(fingerprint))
                })
                .collect();
            let mut first_of_key: HashMap<&str, usize> = HashMap::new();
            for (i, key) in keys.iter().enumerate() {
                match first_of_key.entry(key) {
                    Entry::Occupied(first) => duplicates.push((i, *first.get())),
                    Entry::Vacant(slot) => {
                        slot.insert(i);
                        // A payload that fails to decode (e.g. a hand-edited
                        // entry) falls back to recomputation, exactly like an
                        // absent entry.
                        match service.lookup(key).and_then(|p| J::decode(&p)) {
                            Some(out) => slots[i] = Some((out, Provenance::Store)),
                            None => misses.push(i),
                        }
                    }
                }
            }
            service.note_deduped(duplicates.len() as u64);
        }
    }

    let computed = par_map(
        &misses,
        exec,
        |&i| items[i].label(),
        J::work,
        |&i| items[i].run(trace_of(&items[i])),
    );
    let mut executed = ExecutedWork::default();
    for (&i, out) in misses.iter().zip(computed) {
        let (sim_cycles, instructions) = J::work(&out);
        executed.sim_cycles += sim_cycles;
        executed.instructions += instructions;
        executed.jobs += 1;
        if let Some(service) = service {
            if let Err(e) = service.record(&keys[i], &J::encode(&out)) {
                eprintln!("warning: result store write failed: {e}");
            }
        }
        slots[i] = Some((out, Provenance::Computed));
    }
    for (i, first) in duplicates {
        let out = slots[first].as_ref().map(|(o, _)| o.clone());
        slots[i] = out.map(|o| (o, Provenance::Deduped));
    }
    span.charge(executed.sim_cycles, executed.instructions, executed.jobs);
    span.finish();

    Batch {
        results: slots
            .into_iter()
            .map(|s| s.expect("every item answered by the store, the pool or its twin"))
            .collect(),
        keys,
        traces: trace_ids
            .into_iter()
            .map(|(name, budget)| (name.to_string(), budget))
            .zip(traces)
            .collect(),
        executed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{ConfigVariant, JobSpec};
    use dlvp::SchemeKind;
    use lvp_obs::PhaseRecorder;

    fn jobs() -> Vec<JobSpec> {
        let job = |workload: &str, scheme| JobSpec {
            workload: workload.to_string(),
            scheme,
            variant: ConfigVariant::Default,
            budget: 2_000,
            sample: None,
        };
        vec![
            job("aifirf", SchemeKind::Baseline),
            job("nat", SchemeKind::Baseline),
            job("aifirf", SchemeKind::Dlvp),
            job("nat", SchemeKind::Dlvp),
        ]
    }

    #[test]
    fn storeless_batch_builds_each_trace_once_and_computes_every_item() {
        let rec = PhaseRecorder::new();
        let extra = [("viterbi", 2_000)];
        let batch = run_batch(&jobs(), &extra, &Exec::new(3).with_phases(&rec));
        assert_eq!(batch.executed.jobs, 4);
        assert!(batch.keys.is_empty(), "no store, no keys");
        let built: Vec<&str> = batch.traces.iter().map(|((w, _), _)| w.as_str()).collect();
        assert_eq!(
            built,
            ["viterbi", "aifirf", "nat"],
            "extras first, then first-seen"
        );
        assert!(batch
            .results
            .iter()
            .all(|(_, p)| *p == Provenance::Computed));
        let spans = rec.spans();
        let count = |prefix: &str| spans.iter().filter(|s| s.name.starts_with(prefix)).count();
        assert_eq!(
            [
                count("build_traces"),
                count("trace:"),
                count("simulate"),
                count("job:")
            ],
            [1, 3, 1, 4]
        );
    }

    #[test]
    fn warm_batch_executes_zero_jobs_and_matches() {
        let svc = SimService::in_memory();
        let exec = Exec::new(4).with_service(&svc);
        let cold = run_batch(&jobs(), &[], &exec);
        assert_eq!(cold.executed.jobs, 4);
        let warm = run_batch(&jobs(), &[], &exec);
        assert_eq!(warm.executed, ExecutedWork::default());
        assert_eq!(warm.keys, cold.keys);
        assert_eq!(warm.results.len(), cold.results.len());
        for ((w, _), (c, _)) in warm.results.iter().zip(&cold.results) {
            assert_eq!(w, c);
        }
        assert!(warm.results.iter().all(|(_, p)| *p == Provenance::Store));
        let c = svc.counters();
        assert_eq!((c.hits, c.misses), (4, 4));
    }
}
