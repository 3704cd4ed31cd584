//! Per-layer figures of the traced run, taken from outside the program:
//! each front-end layer's public function is timed standalone on the
//! workload's inputs, and the engine's own phase timings and counters are
//! read from the reports of a traced pass.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use hetsep::core::{Mode, ModeKind, RunMetrics, TranslateOptions};
use hetsep::ir::Cfg;
use hetsep::tvl::telemetry::Counter;
use hetsep::{Phase, VerificationReport};

use crate::stats::Metrics;

/// One verification input as the front end sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontInput {
    /// Client program source.
    pub program: String,
    /// Strategy source, if the mode separates.
    pub strategy: Option<String>,
    /// Requested mode.
    pub mode: ModeKind,
}

impl FrontInput {
    fn key(&self) -> (&str, Option<&str>, &str) {
        (&self.program, self.strategy.as_deref(), self.mode.as_str())
    }
}

impl Ord for FrontInput {
    fn cmp(&self, other: &FrontInput) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl PartialOrd for FrontInput {
    fn partial_cmp(&self, other: &FrontInput) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Times parse, CFG build, spec lookup, strategy parse, translation and both
/// preanalysis generations once per distinct input, and records the sums.
///
/// Translation uses the options of the engine's first translation for the
/// mode (`verify_inner`): no stage for vanilla, the first strategy stage
/// otherwise.
pub fn front_end(inputs: &[FrontInput], m: &mut Metrics) {
    let distinct: BTreeSet<&FrontInput> = inputs.iter().collect();
    let mut t = [Duration::ZERO; 7];
    let mut timed = |slot: usize, start: Instant| t[slot] += start.elapsed();
    for input in distinct {
        let start = Instant::now();
        let program = hetsep::ir::parse_program(&input.program).expect("drawn program parses");
        timed(0, start);
        let start = Instant::now();
        let cfg = Cfg::build(&program, "main").expect("drawn program has a CFG");
        timed(1, start);
        let start = Instant::now();
        let spec = hetsep::easl::builtin::by_name(&program.uses)
            .expect("drawn program uses a built-in spec");
        timed(2, start);
        let start = Instant::now();
        let strategy = input
            .strategy
            .as_deref()
            .map(|s| hetsep::strategy::parse_strategy(s).expect("shipped strategy parses"));
        timed(3, start);
        let mode =
            Mode::from_kind(input.mode, strategy).expect("every separating input has a strategy");
        let options = match &mode {
            Mode::Vanilla => TranslateOptions::default(),
            Mode::Separation {
                strategy,
                heterogeneous,
                ..
            }
            | Mode::Incremental {
                strategy,
                heterogeneous,
            } => TranslateOptions {
                stage: strategy.stages.first().cloned(),
                heterogeneous: *heterogeneous,
                ..TranslateOptions::default()
            },
        };
        let start = Instant::now();
        std::hint::black_box(
            hetsep::core::translate(&program, &spec, &options).expect("drawn input translates"),
        );
        timed(4, start);
        // Either generation may decline an input; the engine then prunes
        // nothing with it, and its cost is still paid.
        let start = Instant::now();
        let _ = std::hint::black_box(hetsep::baseline::verify_with_suspects(&program, &spec));
        timed(5, start);
        let start = Instant::now();
        if let Ok(v) = hetsep::analysis::points_to_flow::analyze_flow(&cfg, &spec) {
            std::hint::black_box(hetsep::analysis::heap_components::summarize(
                &cfg, &spec, &v,
            ));
        }
        timed(6, start);
    }
    for (name, d) in [
        "ir.parse_s",
        "ir.cfg_s",
        "easl.spec_s",
        "strategy.parse_s",
        "core.translate_s",
        "preanalysis.v1_s",
        "preanalysis.v2_s",
    ]
    .into_iter()
    .zip(t)
    {
        m.seconds(name, d);
    }
}

/// Engine totals of a traced pass: reports' merged metrics plus the figures
/// reports carry outside them.
#[derive(Debug, Default)]
pub struct EngineTotals {
    /// Phase timings and counters merged over every report.
    pub metrics: RunMetrics,
    /// Summed action applications.
    pub visits: u64,
    /// Largest single-run structure count.
    pub space: usize,
    /// Subproblems, pruned ones included.
    pub subproblems: u64,
    /// Time spent in the engine's verify call, timed from outside.
    pub verify: Duration,
}

impl EngineTotals {
    /// Adds one report and the time its verify call took.
    pub fn add(&mut self, report: &VerificationReport, took: Duration) {
        self.add_parts(
            &report.metrics,
            report.total_visits,
            report.max_space,
            report.subproblems.len(),
            took,
        );
    }

    /// Adds one verification given as its parts.
    pub fn add_parts(
        &mut self,
        metrics: &RunMetrics,
        visits: u64,
        space: usize,
        subproblems: usize,
        took: Duration,
    ) {
        self.metrics.merge(metrics);
        self.visits += visits;
        self.space = self.space.max(space);
        self.subproblems += subproblems as u64;
        self.verify += took;
    }

    /// Records the `engine.*`, `tvl.*` and in-run cache figures.
    pub fn record(&self, m: &mut Metrics) {
        let c = |counter| self.metrics.counters.get(counter);
        m.seconds("engine.verify_s", self.verify);
        m.count("engine.visits", self.visits);
        m.count("engine.posts", c(Counter::PostStructures));
        m.count("engine.focus_variants", c(Counter::FocusVariants));
        m.count("engine.worklist_pushes", c(Counter::WorklistPushes));
        m.count("engine.space", self.space as u64);
        m.count("engine.subproblems", self.subproblems);
        m.count("engine.pruned", c(Counter::SubproblemsPruned));
        for phase in Phase::ALL {
            let nanos = self.metrics.phases.get(phase).nanos;
            m.put(&format!("tvl.{}_s", phase.label()), nanos as f64 / 1e9, "s");
        }
        m.count("tvl.intern_hits", c(Counter::InternHits));
        m.count("tvl.intern_misses", c(Counter::InternMisses));
        let hits = c(Counter::TransferCacheHits);
        let misses = c(Counter::TransferCacheMisses);
        m.count("cache.transfer_hits", hits);
        m.count("cache.transfer_misses", misses);
        m.put(
            "cache.transfer_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        );
        let shared_hits = c(Counter::SharedCacheHits);
        let shared_misses = c(Counter::SharedCacheMisses);
        m.count("cache.shared_hits", shared_hits);
        m.count("cache.shared_misses", shared_misses);
        m.put(
            "cache.shared_hit_ratio",
            ratio(shared_hits, shared_hits + shared_misses),
            "ratio",
        );
        m.count("cache.summary_hits", c(Counter::SummaryHits));
        m.count("cache.summary_misses", c(Counter::SummaryMisses));
        m.count("cache.shared_summary_hits", c(Counter::SharedSummaryHits));
    }
}

/// `num / den`, or 0 when nothing was attempted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
