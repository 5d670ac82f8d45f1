//! The repository benchmark: end-to-end and per-layer host cost of the
//! DLVP reproduction.
//!
//! ```text
//! perfbench --workload figs_all|sampled_long|serve_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it sets the workload up (several times, reporting the
//! median as `setup_s`), measures it for `S` seconds with tracing off,
//! checks every output, and prints the end-to-end metrics. With
//! `--trace 1` it alternates untraced and traced passes (their ratio is the
//! tracing overhead), runs the per-layer probes in [`layers`], and prints
//! the per-layer metrics. The last line of standard output is always one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Every layer is measured from outside, by timing calls into its crate's
//! public functions; the spans of a traced run are written to
//! `.bench_out/trace-<workload>-<seed>.json`.

mod figs;
mod host;
mod layers;
mod sampled;
mod serve;
mod tracer;

use lvp_json::{Json, ToJson};
use lvp_obs::PhaseRecorder;
use lvp_store::fnv1a_64;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Worker threads for the pools the per-layer probes and the checks after
/// timing drive (the host's `nproc`). The timed load is one thread of work.
pub const WORKERS: usize = 2;

/// Time slices of a timed pass. Every workload's load is one thread of
/// work and runs on one CPU at a time (see [`host`]); each slice runs on
/// the next CPU, so a drift in one vCPU's speed moves the pass by its share
/// only. A slice lasts at least one of the workload's rounds, so a
/// workload with long rounds gets fewer slices.
const SLICES: usize = 10;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Untraced/traced pass pairs of a traced run.
const TRACE_PAIRS: usize = 5;

/// Directory (relative to the checkout root) for stores and trace files.
pub const OUT_DIR: &str = ".bench_out";

// ---------------------------------------------------------------------------
// Allocation counting (read only by the traced run's probes)
// ---------------------------------------------------------------------------

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; counting touches
// only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations (including reallocations)
/// the process made meanwhile. Call it only while no other thread runs.
pub fn count_allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (out, ALLOCATIONS.load(Ordering::SeqCst) - before)
}

// ---------------------------------------------------------------------------
// Shared result types and helpers
// ---------------------------------------------------------------------------

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// One unit of measured work: a `figs_all` round, a round over the
/// `sampled_long` kernels, or a block of `serve_mixed` requests.
pub struct Round {
    pub ns: u64,
    /// Instructions simulated (skipped, warmed and detailed, when sampled).
    pub instructions: u64,
    /// Operations completed: simulation jobs, kernel runs or requests.
    pub ops: u64,
    /// Wall time of each operation, in milliseconds.
    pub latencies_ms: Vec<f64>,
}

/// What one timed pass over a workload measured.
#[derive(Default)]
pub struct Pass {
    pub rounds: Vec<Round>,
    pub attempted: u64,
    pub failed: u64,
    /// The p99 latency of each time slice [`Pass::extend`] added.
    slice_p99s: Vec<f64>,
}

impl Pass {
    /// Appends `slice`, one time slice of the pass, and keeps its p99.
    fn extend(&mut self, slice: Pass) {
        let latencies: Vec<f64> = slice
            .rounds
            .iter()
            .flat_map(|r| r.latencies_ms.iter().copied())
            .collect();
        if !latencies.is_empty() {
            self.slice_p99s.push(percentile(&latencies, 0.99));
        }
        self.rounds.extend(slice.rounds);
        self.attempted += slice.attempted;
        self.failed += slice.failed;
    }

    fn ns(&self) -> f64 {
        self.rounds.iter().map(|r| r.ns as f64).sum()
    }

    /// Simulated instructions per host second over the whole pass.
    fn minst_per_s(&self) -> f64 {
        let instructions: u64 = self.rounds.iter().map(|r| r.instructions).sum();
        instructions as f64 / self.ns() * 1e3
    }

    /// The timed end-to-end metrics. Rates are totals over the whole pass:
    /// the host's speed drifts over tens of seconds, and a total averages
    /// the drift within a run where a median over rounds would pick one
    /// side of it. `p50_ms` is over every operation. `p99_ms` is the median
    /// of the time slices' own p99s, so one host stall sets at most one
    /// slice's: a workload of a few hundred long operations has only a few
    /// samples above its overall p99.
    fn end_to_end(&self) -> Vec<Metric> {
        let ops: u64 = self.rounds.iter().map(|r| r.ops).sum();
        let all: Vec<f64> = self
            .rounds
            .iter()
            .flat_map(|r| r.latencies_ms.iter().copied())
            .collect();
        let n = all.len();
        println!(
            "round Minst/s: {}",
            self.rounds
                .iter()
                .map(|r| format!("{:.3}", r.instructions as f64 / r.ns as f64 * 1e3))
                .collect::<Vec<_>>()
                .join(" ")
        );
        println!(
            "{} rounds, {n} operations in {} time slices; p50 over {n} samples; p99 is the median of the slices' p99s",
            self.rounds.len(),
            self.slice_p99s.len(),
        );
        vec![
            metric("minst_per_s", self.minst_per_s(), "Minst/s"),
            metric("req_per_s", ops as f64 / self.ns() * 1e9, "1/s"),
            metric("p50_ms", percentile(&all, 0.50), "ms"),
            metric("p99_ms", median(&self.slice_p99s), "ms"),
        ]
    }
}

/// Checks made after the timed passes, outside every timed region.
pub struct Verified {
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over the digests of every `SimStats` the digest covers.
    pub digest: u64,
    /// What the digest covers, for the printed line.
    pub digest_scope: String,
}

/// One benchmark workload, after set-up.
pub trait Workload {
    /// Measures for at least `seconds`; `tracer` is set in the traced pass.
    fn pass(&mut self, seconds: f64, tracer: Option<&PhaseRecorder>) -> Pass;
    /// Post-measurement correctness checks and the simulation digest.
    fn verify(&mut self) -> Verified;
}

/// FNV-1a of one `SimStats`' canonical JSON.
pub fn stats_digest(stats: &lvp_uarch::SimStats) -> u64 {
    fnv1a_64(stats.to_json().compact().as_bytes())
}

/// FNV-1a over a sequence of digests, in order.
pub fn combine(digests: &[u64]) -> u64 {
    let bytes: Vec<u8> = digests.iter().flat_map(|d| d.to_le_bytes()).collect();
    fnv1a_64(&bytes)
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile `p` (0..=1) of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// A 64-bit mix of `seed` and a stream label, so each use of the workload
/// seed draws independent values.
pub fn seed_stream(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_ARENA_MAX`.
const M_ARENA_MAX: i32 = -8;

/// Makes every thread allocate from one glibc arena. A pool thread is
/// spawned per `par_map` call; when it started before the previous one had
/// released its arena it took a new one, so the arenas in use, and with
/// them the peak resident memory of identical runs, varied by 30% and grew
/// with run length. The timed load is one thread of work at a time, so one
/// arena costs it no lock contention.
fn one_malloc_arena() -> Result<(), String> {
    // SAFETY: `mallopt` only sets an allocator parameter, and no other
    // thread exists yet.
    match unsafe { mallopt(M_ARENA_MAX, 1) } {
        1 => Ok(()),
        rc => Err(format!("mallopt(M_ARENA_MAX, 1) returned {rc}")),
    }
}

/// Peak resident memory of this process so far, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

// ---------------------------------------------------------------------------
// Command line and run sequence
// ---------------------------------------------------------------------------

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn setup(workload: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "figs_all" => Box::new(figs::FigsAll::setup()),
        "sampled_long" => Box::new(sampled::SampledLong::setup(seed)),
        "serve_mixed" => Box::new(serve::ServeMixed::setup(seed)?),
        _ => {
            return Err(format!(
                "unknown workload '{workload}' (figs_all, sampled_long, serve_mixed)"
            ))
        }
    })
}

/// Whether a timed pass that began at `start` and has run `done` slices
/// should stop: another slice of the average length so far would end
/// further past `seconds` than stopping now falls short of it.
fn time_is_up(start: std::time::Instant, done: usize, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    elapsed + 0.5 * elapsed / done as f64 >= seconds
}

fn run(args: &Args) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    println!(
        "workload {} seed {} seconds {} trace {} workers {} host_parallelism {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        WORKERS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    let all_cpus = host::get()?;
    // The workload moves to the next CPU for each set-up and for each slice
    // of its timed passes.
    let cpus = all_cpus.singles();

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut bench = None;
    for i in 0..SETUPS {
        host::set(&cpus[i % cpus.len()])?;
        // Drop the previous set-up first, so only one holds resources.
        drop(bench.take());
        let start = std::time::Instant::now();
        bench = Some(setup(&args.workload, args.seed)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("SETUPS > 0");

    let (mut attempted, mut failed, mut metrics);
    if args.trace {
        // Alternate untraced and traced passes, so drift in host speed
        // falls on both sides of the overhead ratio. Pairs stop early once
        // the time is up, when a workload's rounds are longer than a slice.
        let slice = args.seconds / (2 * TRACE_PAIRS) as f64;
        let rec = PhaseRecorder::new();
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        (attempted, failed) = (0, 0);
        let start = std::time::Instant::now();
        for i in 0..TRACE_PAIRS {
            if i > 0 && time_is_up(start, i, args.seconds) {
                break;
            }
            host::set(&cpus[i % cpus.len()])?;
            for (traced_pass, out) in [(false, &mut untraced), (true, &mut traced)] {
                let pass = bench.pass(slice, traced_pass.then_some(&rec));
                attempted += pass.attempted;
                failed += pass.failed;
                out.push(pass.minst_per_s());
            }
        }
        let overhead = median(&untraced) / median(&traced);
        println!(
            "tracing overhead: untraced {:.4} vs traced {:.4} (medians of {}) -> ratio {overhead:.4}",
            median(&untraced),
            median(&traced),
            traced.len()
        );
        let by_layer = tracer::self_ns_by_layer(&rec.spans());
        let total: u64 = by_layer.values().sum();
        for (layer, ns) in &by_layer {
            println!(
                "layer self time {layer:<10} {:>10.3} ms {:>6.2}%",
                *ns as f64 / 1e6,
                100.0 * *ns as f64 / total.max(1) as f64
            );
        }
        // The probes run alike for every workload, on every CPU.
        host::set(&all_cpus)?;
        let probe_rec = PhaseRecorder::new();
        metrics = layers::run(args.seed, &probe_rec)?;
        metrics.push(metric("trace.overhead_ratio", overhead, "ratio"));
        let path = format!("{OUT_DIR}/trace-{}-{}.json", args.workload, args.seed);
        let doc = Json::obj([
            ("workload", args.workload.to_json()),
            ("seed", args.seed.to_json()),
            ("workload_spans", rec.spans().to_json()),
            ("probe_spans", probe_rec.spans().to_json()),
        ]);
        std::fs::write(&path, doc.compact() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("spans written to {path}");
    } else {
        let mut pass = Pass::default();
        let start = std::time::Instant::now();
        for i in 0.. {
            if i > 0 && time_is_up(start, i, args.seconds) {
                break;
            }
            host::set(&cpus[i % cpus.len()])?;
            pass.extend(bench.pass(args.seconds / SLICES as f64, None));
        }
        let rss = peak_rss_mb()?;
        attempted = pass.attempted;
        failed = pass.failed;
        metrics = pass.end_to_end();
        metrics.push(metric("setup_s", median(&setup_s), "s"));
        metrics.push(metric("peak_rss_mb", rss, "MB"));
        metrics.push(metric("ipc_err_pct", sampled::ipc_err_pct(args.seed), "%"));
    }

    // The checks may use every CPU.
    host::set(&all_cpus)?;
    let v = bench.verify();
    attempted += v.attempted;
    failed += v.failed;
    println!(
        "setup_s samples: {}",
        setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "digest {} seed {} {:016x} ({})",
        args.workload, args.seed, v.digest, v.digest_scope
    );
    for m in &metrics {
        println!("metric {:<36} {:>14.6} {}", m.name, m.value, m.unit);
    }
    Ok((failed == 0, attempted, failed, metrics))
}

fn main() {
    if let Err(e) = one_malloc_arena() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (correct, attempted, failed, metrics) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", attempted.to_json()),
        ("failed", failed.to_json()),
        (
            "metrics",
            Json::obj(metrics.iter().map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", m.value.to_json()), ("unit", m.unit.to_json())]),
                )
            })),
        ),
    ]);
    println!("{}", result.compact());
}
