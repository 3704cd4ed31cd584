//! `corpus-warm`: a seeded draw of generated clients through
//! `sched::run_batch` against a store warmed by the service's first traffic.
//!
//! Set-up verifies a warm-up draw (seed *s*) cold and round-trips the store
//! through `CacheFile::to_bytes` / `from_bytes`. The measured phase verifies
//! a fresh draw (seed *s*+1) in fixed-size batches, so the store also
//! absorbs each batch's new transfers while the clock runs.

use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

use hetsep::core::{
    map_ordered, CacheFile, EngineConfig, Mode, ParallelConfig, SharedSummarySession,
    SharedTransferSession, VerificationReport, Verifier,
};
use hetsep::corpus::corpus_engine_config;
use hetsep::sched::{run_batch, BatchConfig, Job, JobOutcome};

use crate::draw::{draw, Input};
use crate::heap;
use crate::layers::{front_end, EngineTotals, FrontInput};
use crate::serve::session_probe;
use crate::stats::{median, Metrics};
use crate::{end_to_end, record_store, Expect, Outcome, Params};

/// Warm-up draw size.
pub const WARM_INPUTS: usize = 600;
/// Jobs per `run_batch` call in the measured phase.
pub const BATCH: usize = 100;
/// Measured jobs per second of `--seconds`, calibrated so the measured
/// phase runs for about that long on a 2-CPU host.
pub const JOBS_PER_SECOND: usize = 500;
/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Inputs the session-layer probe replays.
pub const SESSION_PROBE_INPUTS: usize = 100;

/// The inputs and the warmed store.
pub struct Corpus {
    /// The measured draw.
    pub measured: Vec<Input>,
    /// The store after the warm-up and its round trip.
    pub store: CacheFile,
}

/// Draws both inputs, verifies the warm-up draw cold in batches of
/// [`BATCH`] and round-trips the store; returns the warm-up's log too.
pub fn setup(p: &Params) -> (Corpus, SchedLog) {
    let warm = draw(p.seed, WARM_INPUTS);
    let measured = draw(p.seed.wrapping_add(1), JOBS_PER_SECOND * p.seconds);
    let mut store = CacheFile::new();
    let batches: Vec<&[Input]> = warm.chunks(BATCH).collect();
    let log = run_batches(&batches, p.workers, &mut store);
    // As across a restart: the encoded bytes outlive the store they came
    // from, and the store is rebuilt from them alone.
    let bytes = store.to_bytes();
    drop(store);
    let store = CacheFile::from_bytes(&bytes).expect("the store decodes what it encoded");
    (Corpus { measured, store }, log)
}

/// The outcome of a run of batches.
#[derive(Debug, Default)]
pub struct SchedLog {
    /// Summed `run_batch` wall.
    pub batch_wall: Duration,
    /// Summed per-job wall (`JobOutcome::wall`).
    pub busy: Duration,
    /// Per-job latency in ms.
    pub verdict_ms: Vec<f64>,
    /// Outcomes in job order.
    pub outcomes: Vec<JobOutcome>,
    /// Verdicts checked.
    pub attempted: u64,
    /// Verdicts that were wrong, missing or failed.
    pub failed: u64,
}

/// Runs each batch through `run_batch` in order, growing `store`, and checks
/// every verdict against the draw's known answer.
pub fn run_batches(batches: &[&[Input]], workers: usize, store: &mut CacheFile) -> SchedLog {
    let config = BatchConfig {
        workers,
        engine: corpus_engine_config(),
    };
    let mut log = SchedLog::default();
    for batch in batches {
        let jobs: Vec<_> = batch.iter().map(Input::job).collect();
        let start = Instant::now();
        let result = run_batch(&jobs, &config, &mut store.transfers, &mut store.summaries);
        log.batch_wall += start.elapsed();
        for (input, o) in batch.iter().zip(result.outcomes) {
            log.busy += o.wall;
            log.verdict_ms.push(o.wall.as_secs_f64() * 1e3);
            log.attempted += 1;
            if !input.expect().accepts(o.verdict, o.reported) {
                log.failed += 1;
                eprintln!(
                    "{}: verdict {} {:?}, expected {:?}",
                    input.name,
                    o.verdict,
                    o.failure,
                    input.expect()
                );
            }
            log.outcomes.push(o);
        }
    }
    log
}

/// The untraced run: end-to-end metrics.
pub fn run(p: &Params) -> Outcome {
    let mut setup_s = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut corpus = None;
    for _ in 0..SETUP_REPS {
        // Each set-up starts from nothing, as a fresh service does.
        drop(corpus.take());
        let start = Instant::now();
        let (c, log) = setup(p);
        setup_s.push(start.elapsed().as_secs_f64());
        attempted += log.attempted;
        failed += log.failed;
        corpus = Some(c);
    }
    let Corpus {
        measured,
        mut store,
    } = corpus.expect("at least one set-up");
    let batches: Vec<&[Input]> = measured.chunks(BATCH).collect();
    heap::reset_peak();
    let start = Instant::now();
    let log = run_batches(&batches, p.workers, &mut store);
    let wall = start.elapsed();
    let mut m = Metrics::default();
    end_to_end(
        &mut m,
        median(&setup_s),
        log.verdict_ms.len(),
        wall,
        &log.verdict_ms,
    );
    Outcome {
        metrics: m,
        attempted: attempted + log.attempted,
        failed: failed + log.failed,
    }
}

/// The traced run: per-layer metrics.
pub fn run_traced(p: &Params) -> Outcome {
    let mut m = Metrics::default();
    let (corpus, setup_log) = setup(p);
    let Corpus {
        measured,
        mut store,
    } = corpus;
    record_store(&store, &mut m);

    let snapshot = store.clone();
    let batches: Vec<&[Input]> = measured.chunks(BATCH).collect();
    let log = run_batches(&batches, p.workers, &mut store);
    record_sched(&log, p.workers, &mut m);

    // The same batches again from the same store, each job through
    // `Verifier` with phase timings on: `run_batch` returns no per-job
    // metrics. Per-job results are a pure function of (job, config,
    // snapshot), so every count must match the untraced pass.
    let mut store = snapshot;
    let mut totals = EngineTotals::default();
    let mut mismatched = 0;
    let mut traced_wall = Duration::ZERO;
    let mut at = 0;
    for batch in &batches {
        let start = Instant::now();
        let reports = traced_batch(batch, p.workers, &mut store);
        traced_wall += start.elapsed();
        for (report, took) in reports {
            let o = &log.outcomes[at];
            at += 1;
            if !same_work(o, &report) {
                mismatched += 1;
                eprintln!("{}: traced pass differs from run_batch", o.name);
            }
            totals.add(&report, took);
        }
    }
    totals.record(&mut m);
    m.put(
        "trace.overhead_s",
        traced_wall.as_secs_f64() - log.batch_wall.as_secs_f64(),
        "s",
    );

    let front: Vec<FrontInput> = measured.iter().map(front_input).collect();
    front_end(&front, &mut m);
    let probe: Vec<(FrontInput, Expect)> = measured
        .iter()
        .take(SESSION_PROBE_INPUTS)
        .map(|i| (front_input(i), i.expect()))
        .collect();
    let (probe_attempted, probe_failed) = session_probe(&probe, &mut m);
    Outcome {
        metrics: m,
        attempted: setup_log.attempted + log.attempted + probe_attempted,
        failed: setup_log.failed + log.failed + mismatched + probe_failed,
    }
}

/// Records the `sched.*` figures of a run of batches.
pub fn record_sched(log: &SchedLog, workers: usize, m: &mut Metrics) {
    let capacity = log.batch_wall.as_secs_f64() * workers as f64;
    let busy = log.busy.as_secs_f64();
    m.seconds("sched.batch_s", log.batch_wall);
    m.put("sched.busy_share", busy / capacity, "ratio");
    m.put("sched.wait_s", capacity - busy, "s");
}

/// One batch the way `run_batch` runs it (one engine thread per job, a
/// frozen snapshot, deltas absorbed in job order), with phase timings on.
fn traced_batch(
    batch: &[Input],
    workers: usize,
    store: &mut CacheFile,
) -> Vec<(VerificationReport, Duration)> {
    let engine = EngineConfig {
        phase_timings: true,
        parallel: ParallelConfig {
            threads: 1,
            intra_threads: 1,
        },
        ..corpus_engine_config()
    };
    let cancel = AtomicBool::new(false);
    let snapshot = &*store;
    let results = map_ordered(batch, workers, &cancel, |_, input, _| {
        let program = hetsep::ir::parse_program(&input.program).expect("drawn program parses");
        let spec = hetsep::easl::builtin::by_name(&program.uses).expect("built-in spec");
        let strategy = input
            .strategy
            .map(|s| hetsep::strategy::parse_strategy(s).expect("shipped strategy parses"));
        let mode =
            Mode::from_kind(input.mode, strategy).expect("separating inputs carry a strategy");
        let transfers = SharedTransferSession::new(&snapshot.transfers);
        let summaries = SharedSummarySession::new(&snapshot.summaries);
        let start = Instant::now();
        let report = Verifier::new(&program, &spec)
            .mode(mode)
            .config(engine.clone())
            .shared_cache(&transfers)
            .shared_summaries(&summaries)
            .run()
            .expect("drawn input verifies");
        let took = start.elapsed();
        (
            report,
            took,
            transfers.into_deltas(),
            summaries.into_deltas(),
        )
    });
    let mut out = Vec::with_capacity(batch.len());
    for r in results {
        let (report, took, deltas, summary_deltas) = r.expect("never cancelled");
        store.transfers.absorb(deltas);
        store.summaries.absorb(summary_deltas);
        out.push((report, took));
    }
    out
}

/// Whether a traced report did the same work as the untraced outcome.
fn same_work(o: &JobOutcome, r: &VerificationReport) -> bool {
    use hetsep::Counter as C;
    let c = |counter| r.metrics.counters.get(counter);
    o.visits == r.total_visits
        && o.reported == r.errors.len()
        && o.cache_hits == c(C::TransferCacheHits)
        && o.cache_misses == c(C::TransferCacheMisses)
        && o.shared_hits == c(C::SharedCacheHits)
        && o.shared_misses == c(C::SharedCacheMisses)
        && o.summary_hits == c(C::SummaryHits)
        && o.summary_misses == c(C::SummaryMisses)
        && o.shared_summary_hits == c(C::SharedSummaryHits)
}

/// The front-end view of a drawn input.
fn front_input(i: &Input) -> FrontInput {
    FrontInput {
        program: i.program.clone(),
        strategy: i.strategy.map(str::to_owned),
        mode: i.mode,
    }
}

/// Runs the inputs as one cold `run_batch` under `engine`, checks each
/// verdict, records the `sched.*` figures, and returns (attempted, failed,
/// the store the batch built).
pub fn sched_probe(
    inputs: &[(FrontInput, Expect)],
    workers: usize,
    engine: &EngineConfig,
    m: &mut Metrics,
) -> (u64, u64, CacheFile) {
    let jobs: Vec<Job> = inputs
        .iter()
        .enumerate()
        .map(|(ix, (f, _))| Job {
            name: format!("probe{ix}"),
            program: f.program.clone(),
            strategy: f.strategy.clone(),
            mode: f.mode,
        })
        .collect();
    let config = BatchConfig {
        workers,
        engine: engine.clone(),
    };
    let mut store = CacheFile::new();
    let start = Instant::now();
    let result = run_batch(&jobs, &config, &mut store.transfers, &mut store.summaries);
    let mut log = SchedLog {
        batch_wall: start.elapsed(),
        ..SchedLog::default()
    };
    for ((_, expect), o) in inputs.iter().zip(&result.outcomes) {
        log.busy += o.wall;
        log.attempted += 1;
        if !expect.accepts(o.verdict, o.reported) {
            log.failed += 1;
            eprintln!(
                "{}: verdict {} with {} errors, expected {expect:?}",
                o.name, o.verdict, o.reported
            );
        }
    }
    record_sched(&log, workers, m);
    (log.attempted, log.failed, store)
}
