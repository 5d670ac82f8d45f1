//! Span recording for the traced run, on the repository's own
//! `lvp_obs::PhaseRecorder`.
//!
//! Every span the benchmark opens wraps one call it makes into a crate's
//! public API, on lane 0, and is named `<layer>/<call>`. Spans nest by
//! depth on their lane, so a span's parent is the nearest earlier lane-0
//! span one level up, and a layer's self time is its spans' durations minus
//! the part their children cover. The program's own lane-0 phases (opened
//! by `run_specs_with` inside a benchmark span) nest the same way and are
//! charged by [`layer_of`]. Spans stay in memory until the run ends.
//! Untraced runs pass `None` and pay for one `Instant` pair per call.

use lvp_obs::{PhaseRecorder, PhaseSink, PhaseSpan};
use std::collections::BTreeMap;
use std::time::Instant;

/// The crates a span can be charged to.
const LAYERS: [&str; 9] = [
    "emu", "trace", "mem", "branch", "dlvp", "uarch", "store", "json", "bench",
];

/// The layer a lane-0 span belongs to: the `<layer>/` prefix of the
/// benchmark's own spans, or the crate doing the work of a `run_specs_with`
/// phase.
pub fn layer_of(name: &str) -> &'static str {
    if let Some((prefix, _)) = name.split_once('/') {
        if let Some(layer) = LAYERS.iter().find(|l| **l == prefix) {
            return layer;
        }
    }
    match name {
        "build_traces" => "emu",
        "simulate" => "uarch",
        _ => "bench",
    }
}

/// Runs `f` as the call `name` (`<layer>/<call>`), returning its result and
/// wall time in nanoseconds. With a recorder the call is also a lane-0 span
/// charged with `work` instructions.
pub fn timed<R>(
    rec: Option<&PhaseRecorder>,
    name: &str,
    work: u64,
    f: impl FnOnce() -> R,
) -> (R, u64) {
    let guard = rec.map(|r| r.span(0, name));
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    if let Some(mut g) = guard {
        g.charge(0, work, 0);
        g.finish();
    }
    (out, ns)
}

/// Self time per layer over the lane-0 spans, which `spans` holds in open
/// order. Worker lanes overlap the lane-0 span that waits for them, so they
/// are left out.
pub fn self_ns_by_layer(spans: &[PhaseSpan]) -> BTreeMap<&'static str, u64> {
    let lane0: Vec<&PhaseSpan> = spans.iter().filter(|s| s.lane == 0).collect();
    let mut child_ns = vec![0u64; lane0.len()];
    let mut open: Vec<usize> = Vec::new();
    for (i, s) in lane0.iter().enumerate() {
        while open.last().is_some_and(|&p| lane0[p].depth >= s.depth) {
            open.pop();
        }
        if let Some(&p) = open.last() {
            child_ns[p] += s.dur_ns;
        }
        open.push(i);
    }
    let mut by_layer = BTreeMap::new();
    for (s, c) in lane0.iter().zip(child_ns) {
        *by_layer.entry(layer_of(&s.name)).or_insert(0) += s.dur_ns.saturating_sub(c);
    }
    by_layer
}
