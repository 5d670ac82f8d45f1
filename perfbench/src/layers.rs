//! Per-layer probes of the traced run. Each probe times calls into one
//! crate's public functions from outside, over the same real instruction
//! streams the workloads simulate (every kernel's trace at the `figs_all`
//! budget), and reports work-normalised host cost.
//!
//! Which end-to-end metric each probe should move, on which workload, is
//! recorded in this package's `README.md`.

use crate::serve::{response, single, Schedule, StoreDir};
use crate::tracer::timed;
use crate::{count_allocations, median, metric, sampled, Metric, WORKERS};
use dlvp::{evaluate_standalone, Pap, SchemeKind};
use lvp_bench::experiments::SchemeOutcome;
use lvp_bench::specs::by_name;
use lvp_bench::{execute_batch, run_scheme, run_specs_with, sim_request_doc, JobSpec, Progress};
use lvp_branch::{GlobalHistory, Ittage, Tage};
use lvp_emu::Emulator;
use lvp_isa::BranchKind;
use lvp_json::Json;
use lvp_mem::MemoryHierarchy;
use lvp_obs::PhaseRecorder;
use lvp_trace::Trace;
use lvp_uarch::{Core, SimConfig};
use std::hint::black_box;

/// Repetitions of the short probes; each reports its median.
const REPS: usize = 3;
/// Constructions timed by the `*_new_us` probes.
const NEWS: usize = 20;
/// Instructions drained per kernel by the streaming-emulator probe.
const STREAM_BUDGET: u64 = 500_000;
/// The spec the `run_specs_with` probe runs: every workload under four
/// schemes, so the pool has many jobs and little fixed cost.
const POOL_SPEC: &str = "fig06_comparison";
/// Requests of the serve probe, stored and then repeated.
const SERVE_JOBS: usize = 8;

fn ns_per(ns: u64, work: u64) -> f64 {
    ns as f64 / work.max(1) as f64
}

/// Median over [`REPS`] runs of `f`, which returns `(ns, work)`.
fn median_ns_per(mut f: impl FnMut() -> (u64, u64)) -> f64 {
    let v: Vec<f64> = (0..REPS)
        .map(|_| {
            let (ns, work) = f();
            ns_per(ns, work)
        })
        .collect();
    median(&v)
}

/// Replays every fetch group, load and store of `trace` through a fresh
/// hierarchy; returns `(ns, accesses, l1d misses, l1d accesses)`.
fn mem_replay(trace: &Trace, cfg: &SimConfig, t: &PhaseRecorder) -> (u64, u64, u64, u64) {
    let mut mh = MemoryHierarchy::new(cfg.core.mem);
    let ((accesses, _), ns) = timed(Some(t), "mem/MemoryHierarchy replay", 0, || {
        let mut accesses = 0u64;
        let mut fga = u64::MAX;
        for rec in trace.records() {
            if rec.pc & !15 != fga {
                fga = rec.pc & !15;
                black_box(mh.fetch_inst(rec.pc));
                accesses += 1;
            }
            if rec.inst.is_load() || rec.inst.is_store() {
                black_box(mh.access_data(rec.pc, rec.eff_addr, rec.inst.is_load()));
                accesses += 1;
            }
        }
        (accesses, ())
    });
    let s = mh.stats();
    (ns, accesses, s.l1d.misses, s.l1d.accesses)
}

/// Conditional branches through TAGE `predict`+`update`; returns
/// `(ns, conditionals)`.
fn tage_replay(trace: &Trace, t: &PhaseRecorder) -> (u64, u64) {
    let mut tage = Tage::default_32kb();
    let (n, ns) = timed(Some(t), "branch/Tage replay", 0, || {
        let mut n = 0u64;
        for rec in trace.records() {
            if rec.inst.branch_kind() == Some(BranchKind::Conditional) {
                let p = tage.predict(rec.pc);
                tage.update(rec.pc, rec.taken(), p);
                n += 1;
            }
        }
        n
    });
    (ns, n)
}

/// Global-history upkeep alone, and with ITTAGE `predict`+`update` on every
/// indirect branch; returns `(ns with ITTAGE - ns without, indirects)`.
fn ittage_replay(trace: &Trace, t: &PhaseRecorder) -> (u64, u64) {
    let (_, base_ns) = timed(Some(t), "branch/GlobalHistory replay", 0, || {
        let mut hist = GlobalHistory::new();
        for rec in trace.records() {
            if rec.inst.branch_kind() == Some(BranchKind::Conditional) {
                hist.push(rec.taken());
            }
        }
        black_box(hist);
    });
    let mut ittage = Ittage::default_32kb();
    let (n, ns) = timed(Some(t), "branch/Ittage replay", 0, || {
        let mut hist = GlobalHistory::new();
        let mut n = 0u64;
        for rec in trace.records() {
            match rec.inst.branch_kind() {
                Some(BranchKind::Conditional) => hist.push(rec.taken()),
                Some(BranchKind::Indirect | BranchKind::IndirectCall) => {
                    black_box(ittage.predict(rec.pc, &hist));
                    ittage.update(rec.pc, &hist, rec.next_pc);
                    n += 1;
                }
                _ => {}
            }
        }
        n
    });
    (ns.saturating_sub(base_ns), n)
}

/// Runs every probe and returns the per-layer metrics.
pub fn run(seed: u64, t: &PhaseRecorder) -> Result<Vec<Metric>, String> {
    let cfg = SimConfig::paper_default();
    let workloads = lvp_workloads::all();
    let budget = crate::figs::BUDGET;
    let mut out = Vec::new();

    // ---- emulator and trace -------------------------------------------
    let mut traces: Vec<Trace> = Vec::new();
    let emu_trace = median_ns_per(|| {
        let (built, ns) = timed(Some(t), "emu/Workload::trace x all", 0, || {
            workloads
                .iter()
                .map(|w| w.trace(budget))
                .collect::<Vec<_>>()
        });
        let insts = built.iter().map(|t| t.len() as u64).sum();
        traces = built;
        (ns, insts)
    });
    out.push(metric("emu.trace_ns_per_inst", emu_trace, "ns"));
    let insts: u64 = traces.iter().map(|t| t.len() as u64).sum();

    let programs: Vec<_> = sampled::KERNELS
        .iter()
        .map(|k| lvp_workloads::by_name(k).expect("registered").program())
        .collect();
    let stream = median_ns_per(|| {
        let mut ns = 0;
        for p in &programs {
            let records = Emulator::new(p.clone()).records(STREAM_BUDGET);
            ns += timed(
                Some(t),
                "emu/Emulator::records drain",
                STREAM_BUDGET,
                || {
                    records.for_each(|r| {
                        black_box(r);
                    })
                },
            )
            .1;
        }
        (ns, STREAM_BUDGET * programs.len() as u64)
    });
    out.push(metric("emu.stream_ns_per_inst", stream, "ns"));

    let fp = median_ns_per(|| {
        let (_, ns) = timed(Some(t), "trace/Trace::fingerprint x all", insts, || {
            traces.iter().for_each(|t| {
                black_box(t.fingerprint());
            })
        });
        (ns, insts)
    });
    out.push(metric("trace.fingerprint_ns_per_inst", fp, "ns"));

    // ---- memory hierarchy ---------------------------------------------
    let (mut mem_ns, mut mem_accesses, mut l1d_misses, mut l1d_accesses) = (0, 0, 0, 0);
    for tr in &traces {
        let (ns, a, m, l) = mem_replay(tr, &cfg, t);
        mem_ns += ns;
        mem_accesses += a;
        l1d_misses += m;
        l1d_accesses += l;
    }
    out.push(metric(
        "mem.ns_per_access",
        ns_per(mem_ns, mem_accesses),
        "ns",
    ));
    out.push(metric(
        "mem.l1d_miss_ratio",
        l1d_misses as f64 / l1d_accesses.max(1) as f64,
        "ratio",
    ));
    let news: Vec<f64> = (0..NEWS)
        .map(|_| {
            let (mh, ns) = timed(Some(t), "mem/MemoryHierarchy::new", 1, || {
                MemoryHierarchy::new(cfg.core.mem)
            });
            drop(mh);
            ns as f64 / 1e3
        })
        .collect();
    out.push(metric("mem.new_us", median(&news), "us"));

    // ---- branch predictors ----------------------------------------------
    let (mut tage_ns, mut conds, mut ittage_ns, mut indirects) = (0, 0, 0, 0);
    for tr in &traces {
        let (ns, n) = tage_replay(tr, t);
        tage_ns += ns;
        conds += n;
        let (ns, n) = ittage_replay(tr, t);
        ittage_ns += ns;
        indirects += n;
    }
    out.push(metric(
        "branch.tage_ns_per_branch",
        ns_per(tage_ns, conds),
        "ns",
    ));
    out.push(metric(
        "branch.ittage_ns_per_indirect",
        ns_per(ittage_ns, indirects),
        "ns",
    ));

    // ---- DLVP ---------------------------------------------------------
    let (mut pap_ns, mut loads) = (0, 0);
    for tr in &traces {
        let mut pap = Pap::new(cfg.pap);
        let (eval, ns) = timed(Some(t), "dlvp/evaluate_standalone(Pap)", 0, || {
            evaluate_standalone(tr, &mut pap)
        });
        pap_ns += ns;
        loads += eval.loads;
    }
    out.push(metric("dlvp.pap_ns_per_load", ns_per(pap_ns, loads), "ns"));

    // ---- the core -----------------------------------------------------
    let scheme_ns = |kind: SchemeKind| -> u64 {
        traces
            .iter()
            .map(|tr| {
                timed(
                    Some(t),
                    &format!("uarch/{}", kind.name()),
                    tr.len() as u64,
                    || black_box(run_scheme(tr, kind, &cfg)),
                )
                .1
            })
            .sum()
    };
    let base_ns = scheme_ns(SchemeKind::Baseline);
    let dlvp_ns = scheme_ns(SchemeKind::Dlvp);
    let vtage_ns = scheme_ns(SchemeKind::Vtage);
    let core = ns_per(base_ns, insts);
    out.push(metric("uarch.core_ns_per_inst", core, "ns"));
    out.push(metric(
        "uarch.core_residual_ns_per_inst",
        core - ns_per(mem_ns + tage_ns + ittage_ns, insts),
        "ns",
    ));
    for (name, ns) in [("DLVP", dlvp_ns), ("VTAGE", vtage_ns)] {
        out.push(metric(
            format!("dlvp.scheme_ns_per_inst.{name}"),
            (ns as f64 - base_ns as f64) / insts as f64,
            "ns",
        ));
    }
    let news: Vec<f64> = (0..NEWS)
        .map(|_| {
            let (core, ns) = timed(Some(t), "uarch/Core::new", 1, || {
                Core::new(cfg.core.clone(), SchemeKind::Baseline.build(&cfg))
            });
            drop(core);
            ns as f64 / 1e3
        })
        .collect();
    out.push(metric("uarch.core_new_us", median(&news), "us"));

    let spec = sampled::sample_spec(seed);
    let sampled_stats = sampled::sampled_run(&programs[0], &cfg, spec, 200_000, Some(t));
    let s = sampled_stats.sampling.unwrap_or_default();
    out.push(metric(
        "uarch.sampled_detail_share",
        (s.warmup_instructions + sampled_stats.instructions) as f64
            / sampled::consumed(&sampled_stats).max(1) as f64,
        "ratio",
    ));

    let perlbmk = &traces[workloads
        .iter()
        .position(|w| w.name == "perlbmk")
        .expect("perlbmk is registered")];
    for (name, kind) in [
        ("baseline", SchemeKind::Baseline),
        ("DLVP", SchemeKind::Dlvp),
        ("VTAGE", SchemeKind::Vtage),
    ] {
        let (_, allocs) = count_allocations(|| black_box(run_scheme(perlbmk, kind, &cfg)));
        out.push(metric(
            format!("uarch.allocs_per_inst.{name}"),
            allocs as f64 / perlbmk.len() as f64,
            "count",
        ));
    }

    // ---- store, JSON and the serve path ---------------------------------
    out.extend(serve_probe(t)?);

    // ---- the figs pool ------------------------------------------------
    let rec = PhaseRecorder::new();
    let spec = by_name(POOL_SPEC).expect("the pool spec is registered");
    let (_, total_ns) = timed(Some(t), "bench/run_specs_with", 0, || {
        run_specs_with(&[spec], budget, WORKERS, &rec, &Progress::off())
    });
    let phases = rec.spans();
    let top = |name: &str| {
        phases
            .iter()
            .filter(|p| p.lane == 0 && p.name == name)
            .map(|p| p.dur_ns)
            .sum::<u64>()
    };
    let busy: u64 = phases
        .iter()
        .filter(|p| p.name.starts_with("job:"))
        .map(|p| p.dur_ns)
        .sum();
    out.push(metric(
        "bench.pool_occupancy",
        busy as f64 / (top("simulate") * WORKERS as u64).max(1) as f64,
        "ratio",
    ));
    out.push(metric(
        "bench.trace_build_share",
        top("build_traces") as f64 / total_ns.max(1) as f64,
        "ratio",
    ));
    Ok(out)
}

/// A small serve session over a fresh on-disk store: [`SERVE_JOBS`]
/// requests are simulated and stored through the store's own calls, then
/// each is sent to `execute_batch` once more (a hit) and its cost is
/// split into the public calls a hit makes. A second set of requests
/// measures misses.
fn serve_probe(t: &PhaseRecorder) -> Result<Vec<Metric>, String> {
    let schedule = Schedule::new(0);
    let stored: Vec<JobSpec> = (0..SERVE_JOBS as u64).map(|n| schedule.hit(n)).collect();
    let fresh: Vec<JobSpec> = (0..SERVE_JOBS as u64).map(|n| schedule.miss(n)).collect();
    let dir = StoreDir::fresh("probe-store")?;
    let service = dir.open()?;
    let (mut key_ns, mut record_ns) = (0, 0);
    for job in &stored {
        let trace = lvp_workloads::by_name(&job.workload)
            .expect("registered")
            .trace(job.budget);
        let cfg = job.variant.config();
        let doc = sim_request_doc(trace.fingerprint(), job.budget, job.scheme.name(), &cfg);
        let (key, ns) = timed(Some(t), "store/SimService::key", 1, || service.key(&doc));
        key_ns += ns;
        let payload = lvp_json::ToJson::to_json(&run_scheme(&trace, job.scheme, &cfg));
        record_ns += timed(Some(t), "store/SimService::record", 1, || {
            service.record(&key, &payload)
        })
        .1;
    }

    // Hits through `execute_batch`, on a reopened store (reads from disk).
    let service = dir.open()?;
    let mut failed = 0;
    let mut hit_ns = 0;
    for (i, job) in stored.iter().enumerate() {
        let (lines, ns) = timed(Some(t), "bench/execute_batch hit", 1, || {
            execute_batch(&single(i as u64, job), &service, WORKERS)
        });
        hit_ns += ns;
        if !matches!(response(&lines), Ok((ref s, _)) if s == "store") {
            failed += 1;
        }
    }
    let mut miss_ns = 0;
    for (i, job) in fresh.iter().enumerate() {
        let (lines, ns) = timed(Some(t), "bench/execute_batch miss", 1, || {
            execute_batch(&single(i as u64, job), &service, WORKERS)
        });
        miss_ns += ns;
        if !matches!(response(&lines), Ok((ref s, _)) if s == "computed") {
            failed += 1;
        }
    }
    let counters = service.counters();

    // The same hits, split into the calls `execute_batch` makes.
    let service = dir.open()?;
    let (mut parts_ns, mut lookup_ns, mut decode_ns, mut payload_bytes) = (0, 0, 0, 0);
    for job in &stored {
        let (trace, trace_ns) = timed(Some(t), "emu/Workload::trace", job.budget, || {
            lvp_workloads::by_name(&job.workload)
                .expect("registered")
                .trace(job.budget)
        });
        let (fp, fp_ns) = timed(Some(t), "trace/Trace::fingerprint", job.budget, || {
            trace.fingerprint()
        });
        let doc = sim_request_doc(fp, job.budget, job.scheme.name(), &job.variant.config());
        let (key, k_ns) = timed(Some(t), "store/SimService::key", 1, || service.key(&doc));
        let (payload, l_ns) = timed(Some(t), "store/SimService::lookup", 1, || {
            service.lookup(&key)
        });
        let payload: Json = payload.ok_or("stored request missed on lookup")?;
        payload_bytes += payload.compact().len() as u64;
        let (outcome, d_ns) = timed(Some(t), "json/SchemeOutcome::from_json", 1, || {
            SchemeOutcome::from_json(&payload)
        });
        if outcome.is_err() {
            failed += 1;
        }
        lookup_ns += l_ns;
        decode_ns += d_ns;
        parts_ns += trace_ns + fp_ns + k_ns + l_ns + d_ns;
    }
    if failed > 0 {
        return Err(format!(
            "serve probe: {failed} responses had the wrong provenance"
        ));
    }
    let n = SERVE_JOBS as f64;
    let m = fresh.len() as f64;
    Ok(vec![
        metric("store.key_us", key_ns as f64 / n / 1e3, "us"),
        metric("store.lookup_us", lookup_ns as f64 / n / 1e3, "us"),
        metric("store.record_us", record_ns as f64 / n / 1e3, "us"),
        metric(
            "store.hit_ratio",
            counters.hits as f64 / (counters.hits + counters.misses).max(1) as f64,
            "ratio",
        ),
        metric("json.decode_us", decode_ns as f64 / n / 1e3, "us"),
        metric("json.payload_bytes", payload_bytes as f64 / n, "bytes"),
        metric("bench.serve_hit_ms", hit_ns as f64 / n / 1e6, "ms"),
        metric("bench.serve_miss_ms", miss_ns as f64 / m / 1e6, "ms"),
        metric(
            "bench.serve_overhead_us",
            (hit_ns as f64 - parts_ns as f64) / n / 1e3,
            "us",
        ),
    ])
}
