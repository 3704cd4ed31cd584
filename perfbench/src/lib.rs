//! End-to-end and per-layer benchmark of hetsep.
//!
//! Three workloads run in-process through hetsep's public entry points,
//! each with the configuration its surface ships with: `table3`
//! (`harness::run_mode`), `corpus-warm` (`sched::run_batch`) and
//! `serve-edit` (`Session::handle_line`); `BENCHMARK.json` gates the first
//! two. Every verdict is timed from outside the call that produces it and
//! checked against a known answer.
//! See `README.md` in this directory for the workloads, the metrics and the
//! layer each one belongs to.

mod corpus;
pub mod draw;
pub mod heap;
mod layers;
mod serve;
pub mod stats;
mod table3;

use std::time::{Duration, Instant};

use hetsep::core::CacheFile;

use crate::stats::Metrics;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["table3", "corpus-warm", "serve-edit"];

/// What a run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Input seed.
    pub seed: u64,
    /// Measured-phase size, in seconds of work on a 2-CPU host.
    pub seconds: usize,
    /// Scheduler workers (`corpus-warm` and the scheduler probes).
    pub workers: usize,
}

/// A run's metrics and its checked operations.
#[derive(Debug)]
pub struct Outcome {
    /// Metrics in print order.
    pub metrics: Metrics,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose answer was wrong, missing or failed.
    pub failed: u64,
}

/// What a request must be answered with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// `load_program` / `load_strategy`: a `Loaded` response.
    Loaded,
    /// `verify`: `errors` exactly when a bug was injected, and the exact
    /// error count when it is known.
    Verdict {
        /// Whether the program has a usage bug.
        buggy: bool,
        /// Known number of reported errors, if any.
        errors: Option<usize>,
    },
    /// `lint`: a `Lint` response.
    Lint,
    /// `status`: a `Status` response.
    Status,
}

impl Expect {
    /// Whether a verify answer meets this expectation.
    pub fn accepts(&self, verdict: &str, errors: usize) -> bool {
        match *self {
            Expect::Verdict { buggy, errors: n } => {
                verdict == if buggy { "errors" } else { "verified" }
                    && n.is_none_or(|n| n == errors)
            }
            _ => false,
        }
    }
}

/// Runs one workload, untraced (end-to-end metrics) or traced (per-layer
/// metrics); `None` for an unknown workload.
pub fn run(workload: &str, p: &Params, trace: bool) -> Option<Outcome> {
    let mut outcome = match (workload, trace) {
        ("table3", false) => table3::run(p),
        ("table3", true) => table3::run_traced(p),
        ("corpus-warm", false) => corpus::run(p),
        ("corpus-warm", true) => corpus::run_traced(p),
        ("serve-edit", false) => serve::run(p),
        ("serve-edit", true) => serve::run_traced(p),
        _ => return None,
    };
    if trace {
        // The process's resident set, for reference next to the heap peak.
        outcome
            .metrics
            .put("process.peak_rss_mb", stats::peak_rss_mb(), "MB");
    }
    Some(outcome)
}

/// Records the five end-to-end metrics; the heap peak covers the measured
/// phase, from [`heap::reset_peak`] on.
pub(crate) fn end_to_end(
    m: &mut Metrics,
    setup_s: f64,
    verdicts: usize,
    wall: Duration,
    verdict_ms: &[f64],
) {
    let (pct, tail_ms, beyond) = stats::tail(verdict_ms);
    println!(
        "verdict_tail_ms is p{pct} of {} verdicts ({beyond} beyond it)",
        verdict_ms.len()
    );
    m.put("setup_s", setup_s, "s");
    m.put(
        "verdicts_per_s",
        verdicts as f64 / wall.as_secs_f64(),
        "1/s",
    );
    m.put("verdict_geomean_ms", stats::geomean(verdict_ms), "ms");
    m.put("verdict_tail_ms", tail_ms, "ms");
    m.put("peak_heap_mb", heap::peak_mb(), "MB");
}

/// Round-trips a store through its on-disk encoding and records the
/// `store.*` figures.
pub(crate) fn record_store(store: &CacheFile, m: &mut Metrics) {
    let start = Instant::now();
    let bytes = std::hint::black_box(store.to_bytes());
    m.seconds("store.encode_s", start.elapsed());
    let start = Instant::now();
    let decoded = CacheFile::from_bytes(&bytes).expect("the store decodes what it encoded");
    m.seconds("store.decode_s", start.elapsed());
    m.put("store.bytes", bytes.len() as f64, "bytes");
    m.count(
        "store.entries",
        (decoded.transfers.entry_count() + decoded.summaries.entry_count()) as u64,
    );
}
