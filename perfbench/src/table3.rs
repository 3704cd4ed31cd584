//! `table3`: the paper's Table 3 rows, each verified cold through
//! `harness::run_mode` with `harness::table3_config()` and the engine's
//! automatic thread pool, and checked against the paper's "Rep. Err."
//! column.
//!
//! SQLExecutor vanilla is left out: that one row runs for two minutes or
//! more, longer than all other rows together, and its verdict differs from
//! the paper (it completes with 0 errors where Table 3 has `-`).

use std::time::{Duration, Instant};

use hetsep::core::EngineConfig;
use hetsep::harness::{core_mode, run_mode, table3_config, ModeRow};
use hetsep::suite::{Benchmark, TableMode};
use hetsep_prng::XorShift;

use crate::corpus::sched_probe;
use crate::layers::{front_end, EngineTotals, FrontInput};
use crate::serve::session_probe;
use crate::stats::{median, Metrics};
use crate::{end_to_end, record_store, Expect, Outcome, Params};

/// The row left out of the workload (see the module docs).
pub const EXCLUDED: (&str, TableMode) = ("SQLExecutor", TableMode::Vanilla);
/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;
/// Rows faster than this on the first pass are timed again.
pub const LIGHT_S: f64 = 0.5;
/// Extra passes over the light rows, at least.
pub const MIN_LIGHT_PASSES: usize = 4;
/// Extra passes over the light rows, at most.
pub const MAX_LIGHT_PASSES: usize = 30;
/// Rows of benchmarks with at most this many source lines form the probe
/// set for the layers Table 3 never calls (scheduler, store, session).
pub const PROBE_LINES: usize = 40;

/// One Table 3 row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Index into the suite.
    pub bench: usize,
    /// Analysis mode.
    pub mode: TableMode,
    /// The paper's reported errors; `None` is `-`.
    pub expected: Option<usize>,
}

/// The suite and its rows.
pub struct Table3 {
    /// Every benchmark.
    pub suite: Vec<Benchmark>,
    /// Every row but the excluded one, in Table 3 order.
    pub rows: Vec<Row>,
}

impl Table3 {
    fn bench(&self, row: &Row) -> &Benchmark {
        &self.suite[row.bench]
    }

    /// Runs one row cold, timed from outside; `None` when the verdict
    /// differs from the paper's or the run fails.
    fn verify(&self, row: &Row, config: &EngineConfig) -> (Option<ModeRow>, Duration) {
        let bench = self.bench(row);
        let start = Instant::now();
        let result = run_mode(bench, row.mode, config);
        let took = start.elapsed();
        match result {
            Ok(r) if r.reported == row.expected => (Some(r), took),
            Ok(r) => {
                eprintln!(
                    "{} {}: reported {:?}, Table 3 has {:?}",
                    bench.name, r.mode, r.reported, row.expected
                );
                (None, took)
            }
            Err(e) => {
                eprintln!("{} {}: {e}", bench.name, row.mode.label());
                (None, took)
            }
        }
    }
}

/// Generates the suite, and parses every row's program, spec and strategy.
pub fn setup() -> Table3 {
    let suite = hetsep::suite::all();
    let mut rows = Vec::new();
    for (ix, bench) in suite.iter().enumerate() {
        std::hint::black_box(bench.spec());
        for (&mode, &expected) in bench.modes.iter().zip(&bench.expected_reported) {
            if (bench.name, mode) == EXCLUDED {
                continue;
            }
            std::hint::black_box(core_mode(bench, mode).expect("shipped strategy parses"));
            rows.push(Row {
                bench: ix,
                mode,
                expected,
            });
        }
    }
    Table3 { suite, rows }
}

fn timed_setups() -> (Table3, f64) {
    let mut times = Vec::new();
    let mut t3 = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        t3 = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (t3.expect("at least one set-up"), median(&times))
}

/// The untraced run. Every row runs once in a seeded order; rows faster
/// than [`LIGHT_S`] then run again in reshuffled passes until the phase
/// has lasted `--seconds` (at least [`MIN_LIGHT_PASSES`] passes), so their
/// reps spread over the run. A row's verdict time is the median of its
/// reps.
pub fn run(p: &Params) -> Outcome {
    let (t3, setup_s) = timed_setups();
    let config = table3_config();
    let mut rng = XorShift::new(p.seed);
    let mut order: Vec<usize> = (0..t3.rows.len()).collect();
    rng.shuffle(&mut order);
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); t3.rows.len()];
    let mut failed = 0;
    let mut attempted = 0;
    crate::heap::reset_peak();
    let phase = Instant::now();
    let mut pass = |ixs: &[usize], times: &mut Vec<Vec<f64>>| {
        for &ix in ixs {
            let (r, took) = t3.verify(&t3.rows[ix], &config);
            attempted += 1;
            failed += u64::from(r.is_none());
            times[ix].push(took.as_secs_f64());
        }
    };
    pass(&order, &mut times);
    let mut light: Vec<usize> = order
        .iter()
        .copied()
        .filter(|&ix| times[ix][0] < LIGHT_S)
        .collect();
    let mut passes = 0;
    while passes < MIN_LIGHT_PASSES
        || (passes < MAX_LIGHT_PASSES && phase.elapsed().as_secs_f64() < p.seconds as f64)
    {
        rng.shuffle(&mut light);
        pass(&light, &mut times);
        passes += 1;
    }
    let verdict_s: Vec<f64> = times.iter().map(|t| median(t)).collect();
    for ((row, t), s) in t3.rows.iter().zip(&times).zip(&verdict_s) {
        eprintln!(
            "{:<18} {:<8} {:>10.3} ms  ({} reps)",
            t3.bench(row).name,
            row.mode.label(),
            s * 1e3,
            t.len()
        );
    }
    let suite_s: f64 = verdict_s.iter().sum();
    let verdict_ms: Vec<f64> = verdict_s.iter().map(|s| s * 1e3).collect();
    let mut m = Metrics::default();
    end_to_end(
        &mut m,
        setup_s,
        verdict_ms.len(),
        Duration::from_secs_f64(suite_s),
        &verdict_ms,
    );
    Outcome {
        metrics: m,
        attempted,
        failed,
    }
}

/// The traced run: one untraced and one traced pass over the rows, then the
/// front end standalone over every row, and the layers Table 3 never calls
/// probed with the small-benchmark rows.
pub fn run_traced(p: &Params) -> Outcome {
    let t3 = setup();
    let mut m = Metrics::default();
    let mut attempted = 0;
    let mut failed = 0;
    let config = table3_config();
    let traced_config = EngineConfig {
        phase_timings: true,
        ..table3_config()
    };
    let mut untraced = Duration::ZERO;
    let mut totals = EngineTotals::default();
    for row in &t3.rows {
        let (r, took) = t3.verify(row, &config);
        untraced += took;
        let (traced, took) = t3.verify(row, &traced_config);
        attempted += 2;
        failed += u64::from(r.is_none()) + u64::from(traced.is_none());
        if let Some(r) = traced {
            totals.add_parts(&r.metrics, r.visits, r.space, r.subproblems, took);
        }
    }
    totals.record(&mut m);
    m.put(
        "trace.overhead_s",
        totals.verify.as_secs_f64() - untraced.as_secs_f64(),
        "s",
    );

    let front: Vec<FrontInput> = t3.rows.iter().map(|r| front_input(&t3, r)).collect();
    front_end(&front, &mut m);

    // Every probe row has a known count (none of them is a `-` row).
    let probe: Vec<(FrontInput, Expect)> = t3
        .rows
        .iter()
        .zip(front)
        .filter(|(r, _)| t3.bench(r).line_count() <= PROBE_LINES)
        .map(|(r, f)| {
            let errors = r.expected.expect("small rows finish");
            let expect = Expect::Verdict {
                buggy: errors > 0,
                errors: Some(errors),
            };
            (f, expect)
        })
        .collect();
    let (a, f, store) = sched_probe(&probe, p.workers, &config, &mut m);
    record_store(&store, &mut m);
    attempted += a;
    failed += f;
    let (a, f) = session_probe(&probe, &mut m);
    Outcome {
        metrics: m,
        attempted: attempted + a,
        failed: failed + f,
    }
}

/// The row as the front end sees it.
fn front_input(t3: &Table3, row: &Row) -> FrontInput {
    let bench = t3.bench(row);
    let strategy = match row.mode {
        TableMode::Vanilla => None,
        TableMode::Single | TableMode::Sim => Some(bench.single_strategy),
        TableMode::Multi => bench.multi_strategy,
        TableMode::Inc => bench.incremental_strategy,
    };
    let mode = core_mode(bench, row.mode)
        .expect("shipped strategy parses")
        .kind();
    FrontInput {
        program: bench.source.clone(),
        strategy: strategy.map(str::to_owned),
        mode,
    }
}
