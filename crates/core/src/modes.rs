//! Verification modes: the drivers of Table 3.
//!
//! * `vanilla` — homogeneous TVLA-style verification, no separation;
//! * `single`/`multi` (simultaneous) — separation instrumentation active,
//!   all subproblems explored in one run;
//! * non-simultaneous separation — one engine run per allocation site of the
//!   first `choose some` class, reducing the peak memory footprint (the
//!   paper's default measurement mode);
//! * `inc` — incremental strategies: stages tried in order, later stages
//!   restricted to the allocation sites that failed earlier ones.
//!
//! Non-simultaneous separation subproblems are independent engine runs, so
//! they are fanned out across a scoped worker pool (see
//! [`crate::engine::ParallelConfig`]). Each worker owns its engine state and
//! interner; results are merged in allocation-site order, so reports are
//! identical to a serial run whenever every subproblem stays within budget.
//! Incremental stages stay sequential by design: each stage's site set
//! depends on the previous stage's failing sites.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hetsep_easl::ast::Spec;
use hetsep_ir::Program;
use hetsep_strategy::ast::{ChoiceMode, Strategy};
use hetsep_tvl::telemetry::{Counter, Event, EventSink, NullSink, Phase, RunMetrics};

use crate::engine::{run_shared, AnalysisOutcome, EngineConfig, RunResult, RunStats};
use crate::jobcache::SharedTransferSession;
use crate::summary::SharedSummarySession;
use crate::report::{dedup_reports, ErrorReport, VerifyError};
use crate::translate::{translate, TranslateOptions};
use crate::vocab::SiteId;

/// The mode *family* of a verification, detached from any strategy value.
///
/// This is the one naming scheme for modes across the workspace: Table 3
/// row labels, `BENCH_table3.json`, corpus job rows, CLI `--mode` values,
/// and the `hetsep serve` protocol all go through [`ModeKind`]'s
/// [`fmt::Display`]/[`FromStr`] impls. [`Mode::kind`] projects a full
/// [`Mode`] (which carries its strategy) onto its kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModeKind {
    /// No separation (Table 3's `vanilla` rows).
    Vanilla,
    /// Non-simultaneous separation, one `choose some` clause (`single`).
    Single,
    /// Non-simultaneous separation, several `choose some` clauses
    /// (`multi`).
    Multi,
    /// Simultaneous separation (`sim`).
    Sim,
    /// Incremental multi-stage strategy (`inc`).
    Inc,
}

impl ModeKind {
    /// Every kind, in Table 3 row order.
    pub const ALL: [ModeKind; 5] = [
        ModeKind::Vanilla,
        ModeKind::Single,
        ModeKind::Multi,
        ModeKind::Sim,
        ModeKind::Inc,
    ];

    /// The stable lower-case label (`vanilla`, `single`, `multi`, `sim`,
    /// `inc`) — exactly the strings Table 3 and every JSON row use.
    pub fn as_str(self) -> &'static str {
        match self {
            ModeKind::Vanilla => "vanilla",
            ModeKind::Single => "single",
            ModeKind::Multi => "multi",
            ModeKind::Sim => "sim",
            ModeKind::Inc => "inc",
        }
    }

    /// Whether this kind needs a separation strategy to run.
    pub fn needs_strategy(self) -> bool {
        self != ModeKind::Vanilla
    }
}

impl fmt::Display for ModeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for ModeKind {
    type Err = String;

    /// Parses a mode label. Accepts the canonical labels plus `sep` as an
    /// alias for `single` (the CLI's historical name for non-simultaneous
    /// separation; single vs. multi is decided by the strategy's `choose`
    /// clauses anyway — see [`Mode::kind`]).
    fn from_str(s: &str) -> Result<ModeKind, String> {
        match s {
            "vanilla" => Ok(ModeKind::Vanilla),
            "single" | "sep" => Ok(ModeKind::Single),
            "multi" => Ok(ModeKind::Multi),
            "sim" => Ok(ModeKind::Sim),
            "inc" => Ok(ModeKind::Inc),
            other => Err(format!(
                "unknown mode `{other}` (expected vanilla, single/sep, multi, sim, or inc)"
            )),
        }
    }
}

/// How to verify.
#[derive(Debug, Clone)]
pub enum Mode {
    /// No separation: the homogeneous baseline of Table 3's `vanilla` rows.
    Vanilla,
    /// One strategy stage.
    Separation {
        /// The strategy (only its first stage is used).
        strategy: Strategy,
        /// `true` = one engine run exploring all subproblems at once
        /// (Table 3's `sim` rows); `false` = one run per allocation site of
        /// the first `choose some` class (the non-simultaneous default).
        simultaneous: bool,
        /// Use heterogeneous abstraction (the paper's default; `false` only
        /// for ablation).
        heterogeneous: bool,
    },
    /// Incremental strategy: try stages until one verifies.
    Incremental {
        /// The multi-stage strategy.
        strategy: Strategy,
        /// Use heterogeneous abstraction.
        heterogeneous: bool,
    },
}

impl Mode {
    /// Separation with the paper's defaults (non-simultaneous,
    /// heterogeneous).
    pub fn separation(strategy: Strategy) -> Mode {
        Mode::Separation {
            strategy,
            simultaneous: false,
            heterogeneous: true,
        }
    }

    /// Simultaneous separation (`sim` rows).
    pub fn simultaneous(strategy: Strategy) -> Mode {
        Mode::Separation {
            strategy,
            simultaneous: true,
            heterogeneous: true,
        }
    }

    /// Incremental verification with heterogeneous abstraction.
    pub fn incremental(strategy: Strategy) -> Mode {
        Mode::Incremental {
            strategy,
            heterogeneous: true,
        }
    }

    /// Builds a mode from its kind and an optional strategy, with the
    /// paper's defaults (heterogeneous abstraction on). [`ModeKind::Single`]
    /// and [`ModeKind::Multi`] both map to non-simultaneous separation —
    /// which of the two a run *reports* as is recomputed from the strategy's
    /// `choose` clauses by [`Mode::kind`], so a mislabeled request cannot
    /// smuggle a wrong row label into output.
    ///
    /// # Errors
    ///
    /// Every kind except [`ModeKind::Vanilla`] requires a strategy.
    pub fn from_kind(kind: ModeKind, strategy: Option<Strategy>) -> Result<Mode, VerifyError> {
        match (kind, strategy) {
            (ModeKind::Vanilla, _) => Ok(Mode::Vanilla),
            (ModeKind::Single | ModeKind::Multi, Some(s)) => Ok(Mode::separation(s)),
            (ModeKind::Sim, Some(s)) => Ok(Mode::simultaneous(s)),
            (ModeKind::Inc, Some(s)) => Ok(Mode::incremental(s)),
            (kind, None) => Err(VerifyError::Strategy(format!(
                "mode `{kind}` requires a strategy"
            ))),
        }
    }

    /// The kind of this mode, as reported in Table 3 output: `vanilla`,
    /// `sim`, `single` (non-simultaneous separation with one `choose`),
    /// `multi` (more than one `choose`), or `inc`.
    pub fn kind(&self) -> ModeKind {
        match self {
            Mode::Vanilla => ModeKind::Vanilla,
            Mode::Separation {
                simultaneous: true, ..
            } => ModeKind::Sim,
            Mode::Separation { strategy, .. } => {
                // Single vs. multiple choice is about how many `choose some`
                // clauses the stage has (`choose all` clauses ride along with
                // the chosen object and do not multiply subproblem families).
                let somes = strategy.stages.first().map(|s| {
                    s.choices
                        .iter()
                        .filter(|c| c.mode == ChoiceMode::Some)
                        .count()
                });
                match somes {
                    Some(n) if n > 1 => ModeKind::Multi,
                    _ => ModeKind::Single,
                }
            }
            Mode::Incremental { .. } => ModeKind::Inc,
        }
    }

}

impl fmt::Display for Mode {
    /// Writes the Table 3 row label of this mode (see [`Mode::kind`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.kind().as_str())
    }
}

/// What the pruning pre-pass concluded about one non-simultaneous
/// separation family (see [`EngineConfig::preanalysis`]): how many
/// subproblems each preanalysis generation proved safe, the may-share
/// partition size, and the predicted structure cost — the static
/// cost-model surface ROADMAP item 5's auto-strategy planner builds on.
///
/// Per-site figures are carried by the `Preanalysis*` counters in each
/// subproblem's [`RunStats::metrics`]; this summary is their
/// verification-wide aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreanalysisSummary {
    /// May-share heap components found by the flow-sensitive analysis.
    pub components: u64,
    /// Sites pruned that the v1 baseline (flow-insensitive points-to)
    /// proved safe.
    pub pruned_baseline: u64,
    /// Sites pruned that the v2 flow-sensitive product analysis proved
    /// safe. Always ≥ `pruned_baseline`-exclusive wins by construction:
    /// the pass prunes the union of both safe sets.
    pub pruned_flow: u64,
    /// Sum over the family's sites of the structure-count upper bound of
    /// each site's may-share component (saturating).
    pub estimated_structures: u64,
}

/// Statistics of one subproblem run.
#[derive(Debug, Clone)]
pub struct SubproblemStats {
    /// The allocation site this subproblem was restricted to, if any.
    pub site: Option<SiteId>,
    /// Engine statistics.
    pub stats: RunStats,
    /// Number of (per-line) errors this subproblem reported.
    pub errors: usize,
    /// Completion status.
    pub outcome: AnalysisOutcome,
}

/// The result of a verification.
#[derive(Debug, Clone)]
pub struct VerificationReport {
    /// Deduplicated error reports.
    pub errors: Vec<ErrorReport>,
    /// Whether every run completed within budget.
    pub complete: bool,
    /// Max structures stored by any single run (the paper's "space" — the
    /// maximal footprint of analyzing one set of subproblems).
    pub max_space: usize,
    /// Total action applications across all runs (deterministic time proxy).
    pub total_visits: u64,
    /// Accumulated wall-clock time across all runs (the paper's "time").
    /// With parallel scheduling this is CPU-like time; see
    /// [`VerificationReport::elapsed_wall`] for real elapsed time.
    pub total_wall: Duration,
    /// Real elapsed wall-clock time of the whole verification, including
    /// translation and scheduling. Under parallel scheduling this is smaller
    /// than [`VerificationReport::total_wall`].
    pub elapsed_wall: Duration,
    /// Largest universe encountered.
    pub peak_nodes: usize,
    /// Per-subproblem statistics.
    pub subproblems: Vec<SubproblemStats>,
    /// Number of incremental stages executed (1 for other modes).
    pub stages_run: usize,
    /// Verification-wide metrics: per-phase timings/counts and counters
    /// merged across subproblems in deterministic site order (per-run
    /// metrics stay available under each subproblem's
    /// [`RunStats::metrics`]).
    pub metrics: RunMetrics,
    /// What the pruning pre-pass proved and predicted. `Some` only when
    /// [`EngineConfig::preanalysis`] ran, i.e. on a non-simultaneous
    /// separation family with pruning enabled.
    pub preanalysis: Option<PreanalysisSummary>,
}

impl VerificationReport {
    /// Whether the program was proven correct.
    pub fn verified(&self) -> bool {
        self.errors.is_empty() && self.complete
    }

    /// Average visits per subproblem (the paper's on-demand argument: this
    /// is much smaller than a vanilla run even when the total is not).
    pub fn avg_visits_per_subproblem(&self) -> f64 {
        if self.subproblems.is_empty() {
            0.0
        } else {
            self.total_visits as f64 / self.subproblems.len() as f64
        }
    }

    fn empty() -> VerificationReport {
        VerificationReport {
            errors: Vec::new(),
            complete: true,
            max_space: 0,
            total_visits: 0,
            total_wall: Duration::ZERO,
            elapsed_wall: Duration::ZERO,
            peak_nodes: 0,
            subproblems: Vec::new(),
            stages_run: 0,
            metrics: RunMetrics::default(),
            preanalysis: None,
        }
    }

    /// Records a subproblem the pre-analysis proved safe without running
    /// it: zero work, zero errors, and — crucially — no effect on
    /// `complete`, since the pre-pass proof stands in for the fixpoint.
    /// Which generation(s) proved it, plus the family-wide component count
    /// and the site's cost estimate, land in the row's own counters so
    /// sinks and reports agree.
    fn absorb_pruned(&mut self, site: SiteId, pre: &Preanalysis) {
        let mut stats = RunStats::default();
        stats.metrics.counters.add(Counter::SubproblemsPruned, 1);
        if pre.safe_v1.contains(&site) {
            stats
                .metrics
                .counters
                .add(Counter::PreanalysisPrunedBaseline, 1);
        }
        if pre.safe_v2.contains(&site) {
            stats.metrics.counters.add(Counter::PreanalysisPrunedFlow, 1);
        }
        pre.stamp_row(site, &mut stats.metrics);
        self.metrics.merge(&stats.metrics);
        self.subproblems.push(SubproblemStats {
            site: Some(site),
            stats,
            errors: 0,
            outcome: AnalysisOutcome::Pruned,
        });
    }

    fn absorb(&mut self, site: Option<SiteId>, result: crate::engine::RunResult) {
        self.complete &= result.outcome == AnalysisOutcome::Complete;
        self.max_space = self.max_space.max(result.stats.structures);
        self.total_visits += result.stats.visits;
        self.total_wall += result.stats.wall;
        self.peak_nodes = self.peak_nodes.max(result.stats.peak_nodes);
        self.metrics.merge(&result.stats.metrics);
        self.subproblems.push(SubproblemStats {
            site,
            stats: result.stats.clone(),
            errors: result.errors.len(),
            outcome: result.outcome,
        });
        self.errors.extend(result.errors);
    }

    fn finish(mut self) -> VerificationReport {
        self.errors = dedup_reports(std::mem::take(&mut self.errors));
        self
    }
}

/// Combined result of the two-generation pruning pre-pass over one site
/// family. Each generation is sound on its own (a site in its safe set
/// provably cannot fail), so pruning the union is sound, and the set of
/// pruned sites under v2 is a superset of v1's by construction.
struct Preanalysis {
    /// Sites the v1 baseline (flow-insensitive points-to × typestate)
    /// proved safe.
    safe_v1: HashSet<SiteId>,
    /// Sites the v2 flow-sensitive product analysis proved safe: outside
    /// every may-share component that contains a suspect.
    safe_v2: HashSet<SiteId>,
    /// May-share components over the whole program (0 when v2 declined).
    components: u64,
    /// Structure-count upper bound of each site's may-share component.
    estimates: HashMap<SiteId, u64>,
}

impl Preanalysis {
    /// Runs both generations. Either may decline (`Err` internally — e.g.
    /// an unmodelled library member) and then contributes an empty safe
    /// set; the run loop covers whatever is left.
    fn run(program: &Program, spec: &Spec, sites: &[SiteId]) -> Preanalysis {
        let safe_v1: HashSet<SiteId> = match hetsep_baseline::verify_with_suspects(program, spec) {
            Ok(v) => sites.iter().copied().filter(|&s| v.proved_safe(s)).collect(),
            Err(_) => HashSet::new(),
        };
        let mut safe_v2 = HashSet::new();
        let mut components = 0;
        let mut estimates = HashMap::new();
        let verdicts = hetsep_ir::Cfg::build(program, "main")
            .ok()
            .and_then(|cfg| {
                let v = hetsep_analysis::points_to_flow::analyze_flow(&cfg, spec).ok()?;
                Some(hetsep_analysis::heap_components::summarize(&cfg, spec, &v))
            });
        if let Some(summary) = verdicts {
            components = summary.component_count() as u64;
            for &s in sites {
                estimates.insert(s, summary.estimate(s));
                // Guard on component membership: a site the flow analysis
                // never discovered must not be presumed safe.
                if summary.component_of(s).is_some() && !summary.suspects_closed().contains(&s) {
                    safe_v2.insert(s);
                }
            }
        }
        Preanalysis {
            safe_v1,
            safe_v2,
            components,
            estimates,
        }
    }

    /// Sites safe to prune: the union of both generations' proofs.
    fn safe(&self) -> HashSet<SiteId> {
        self.safe_v1.union(&self.safe_v2).copied().collect()
    }

    /// Stamps the family-wide component count and the site's structure
    /// estimate onto one subproblem row's metrics (pruned or run alike),
    /// keeping the per-row counters the single source of truth.
    fn stamp_row(&self, site: SiteId, metrics: &mut RunMetrics) {
        metrics
            .counters
            .raise(Counter::PreanalysisComponents, self.components);
        metrics.counters.add(
            Counter::PreanalysisEstimatedStructures,
            self.estimates.get(&site).copied().unwrap_or(0),
        );
    }

    /// Verification-wide aggregate for the report surface.
    fn summary(&self) -> PreanalysisSummary {
        PreanalysisSummary {
            components: self.components,
            pruned_baseline: self.safe_v1.len() as u64,
            pruned_flow: self.safe_v2.len() as u64,
            estimated_structures: self
                .estimates
                .values()
                .fold(0u64, |a, &b| a.saturating_add(b)),
        }
    }
}

/// Translate options restricting `choice_ix` to the single site `site`.
fn site_options(base: &TranslateOptions, choice_ix: usize, site: SiteId) -> TranslateOptions {
    let mut options = base.clone();
    options.site_constraints = HashMap::from([(choice_ix, HashSet::from([site]))]);
    options
}

/// Runs one subproblem per allocation site, on a scoped worker pool when
/// more than one thread is configured.
///
/// Results come back in `sites` order regardless of completion order, so
/// downstream merging is deterministic. A subproblem that exhausts its
/// budget (or fails to translate) *stops* the sites after it: no new
/// subproblems are started (on any path, including single-threaded), runs
/// of later sites abort at their next poll, and every later site's result
/// is discarded — the verification is inconclusive at that point either
/// way. Earlier sites are never interrupted, so with any thread count the
/// report is exactly the serial one: every site up to and including the
/// first stopping one, in site order.
#[allow(clippy::too_many_arguments)]
fn run_sites(
    program: &Program,
    spec: &Spec,
    base: &TranslateOptions,
    choice_ix: usize,
    sites: &[SiteId],
    config: &EngineConfig,
    shared: Option<&SharedTransferSession<'_>>,
    summaries: Option<&SharedSummarySession<'_>>,
) -> Result<Vec<(SiteId, RunResult)>, VerifyError> {
    let threads = config.parallel.effective_threads().clamp(1, sites.len().max(1));
    let cancel = AtomicBool::new(false);
    // One cancellation flag per site, raised only by an earlier site.
    let site_cancel: Vec<AtomicBool> = sites.iter().map(|_| AtomicBool::new(false)).collect();
    let stops = |result: &Result<RunResult, VerifyError>| {
        result
            .as_ref()
            .map_or(true, |r| r.outcome == AnalysisOutcome::BudgetExceeded)
    };
    let slots = crate::parallel::map_ordered(sites, threads, &cancel, |ix, &site, flag| {
        let result = translate(program, spec, &site_options(base, choice_ix, site))
            .map(|inst| run_shared(&inst, config, Some(&site_cancel[ix]), shared, summaries));
        if stops(&result) {
            flag.store(true, Ordering::Relaxed);
            for later in &site_cancel[ix + 1..] {
                later.store(true, Ordering::Relaxed);
            }
        }
        result
    });
    let mut out = Vec::with_capacity(sites.len());
    // Never-started slots (`None`) only follow a stopping site.
    for (ix, result) in slots.into_iter().enumerate() {
        let Some(result) = result else { break };
        let stop = stops(&result);
        out.push((sites[ix], result?));
        if stop {
            break;
        }
    }
    Ok(out)
}

/// Builder-style front door of the verification engine.
///
/// Collects the program, specification, [`Mode`], [`EngineConfig`], and an
/// optional observability [`EventSink`], then [`Verifier::run`]s:
///
/// ```
/// use hetsep_core::{Verifier, Mode, EngineConfig};
/// use hetsep_tvl::telemetry::MetricsSink;
///
/// let program = hetsep_ir::parse_program(
///     "program P uses IOStreams; void main() {\n\
///        InputStream f = new InputStream();\n\
///        f.read();\n\
///        f.close();\n\
///      }",
/// )
/// .unwrap();
/// let spec = hetsep_easl::builtin::iostreams();
/// let mut sink = MetricsSink::new();
/// let report = Verifier::new(&program, &spec)
///     .mode(Mode::Vanilla)
///     .config(EngineConfig::default())
///     .sink(&mut sink)
///     .run()
///     .unwrap();
/// assert!(report.verified());
/// assert_eq!(sink.subproblems(), 1);
/// ```
///
/// Defaults: [`Mode::Vanilla`], `EngineConfig::default()`, no sink.
#[must_use = "a Verifier does nothing until .run()"]
pub struct Verifier<'a> {
    program: &'a Program,
    spec: &'a Spec,
    mode: Mode,
    config: EngineConfig,
    sink: Option<&'a mut dyn EventSink>,
    shared: Option<&'a SharedTransferSession<'a>>,
    summaries: Option<&'a SharedSummarySession<'a>>,
}

impl<'a> Verifier<'a> {
    /// Starts a verification of `program` against `spec` (vanilla mode,
    /// default engine configuration, no sink).
    pub fn new(program: &'a Program, spec: &'a Spec) -> Verifier<'a> {
        Verifier {
            program,
            spec,
            mode: Mode::Vanilla,
            config: EngineConfig::default(),
            sink: None,
            shared: None,
            summaries: None,
        }
    }

    /// Sets the verification [`Mode`].
    pub fn mode(mut self, mode: Mode) -> Verifier<'a> {
        self.mode = mode;
        self
    }

    /// Sets the [`EngineConfig`].
    pub fn config(mut self, config: EngineConfig) -> Verifier<'a> {
        self.config = config;
        self
    }

    /// Attaches an observability sink. Events are delivered after the
    /// verification completes, in deterministic subproblem (site) order;
    /// a sink whose `enabled()` is `false` receives nothing.
    pub fn sink(mut self, sink: &'a mut dyn EventSink) -> Verifier<'a> {
        self.sink = Some(sink);
        self
    }

    /// Enables wall-clock sampling of per-phase durations (see
    /// [`EngineConfig::phase_timings`]); counts are collected regardless.
    pub fn phase_timings(mut self, on: bool) -> Verifier<'a> {
        self.config.phase_timings = on;
        self
    }

    /// Enables the static pruning pre-pass (see
    /// [`EngineConfig::preanalysis`]): before fanning out non-simultaneous
    /// separation subproblems, two preanalysis generations each run once —
    /// the coarse flow-insensitive baseline (v1) and the flow-sensitive
    /// points-to × typestate product analysis with may-share closure (v2)
    /// — and allocation sites either proves safe are skipped, recorded as
    /// [`AnalysisOutcome::Pruned`] with `subproblems_pruned` /
    /// `preanalysis_pruned_*` counters; the aggregate lands in
    /// [`VerificationReport::preanalysis`]. Each generation's proof is
    /// sound on its own, so pruning the union is sound — verdicts and
    /// reported errors are identical with pruning on or off. Off by
    /// default.
    pub fn with_preanalysis(mut self, on: bool) -> Verifier<'a> {
        self.config.preanalysis = on;
        self
    }

    /// Enables or disables the exact transfer-function cache (see
    /// [`EngineConfig::transfer_cache`]). Hits replay the memoized interned
    /// post-structures of the focus → coerce → update → canon pipeline, so
    /// verdicts, error sets and `visits`/`space` statistics are byte-identical
    /// with the cache on or off — only wall-clock time changes. On by
    /// default.
    pub fn with_transfer_cache(mut self, on: bool) -> Verifier<'a> {
        self.config.transfer_cache = on;
        self
    }

    /// Attaches a cross-job shared transfer session (see
    /// [`crate::jobcache`]): per-run-cache misses probe the session's store
    /// snapshot by content key, and computed transfers are recorded into the
    /// session's delta for future jobs. Observation-equivalent — verdicts,
    /// reported errors and visit/space statistics are identical with or
    /// without a session; only the shared-cache counters and wall-clock
    /// change. Requires the transfer cache (on by default) to have any
    /// effect.
    pub fn shared_cache(mut self, session: &'a SharedTransferSession<'a>) -> Verifier<'a> {
        self.shared = Some(session);
        self
    }

    /// Enables or disables per-procedure summary memoization (see
    /// [`EngineConfig::summaries`]). The nested region drain is a pure
    /// function of its `(region content, input structure)` key, so verdicts,
    /// error sets and `visits`/`space` statistics are byte-identical with
    /// summaries on or off — only the summary counters and wall-clock time
    /// change. On by default.
    pub fn with_summaries(mut self, on: bool) -> Verifier<'a> {
        self.config.summaries = on;
        self
    }

    /// Attaches a cross-job shared summary session (see [`crate::summary`]):
    /// in-run summary-memo misses probe the session's store snapshot by
    /// region content, and computed region summaries are recorded into the
    /// session's delta for future jobs. Observation-equivalent, like
    /// [`Verifier::shared_cache`] one level up. Requires summaries (on by
    /// default) to have any effect.
    pub fn shared_summaries(mut self, session: &'a SharedSummarySession<'a>) -> Verifier<'a> {
        self.summaries = Some(session);
        self
    }

    /// Runs the verification.
    ///
    /// # Errors
    ///
    /// Propagates translation failures; property violations are *results*
    /// (see [`VerificationReport::errors`]), not errors.
    pub fn run(self) -> Result<VerificationReport, VerifyError> {
        let Verifier {
            program,
            spec,
            mode,
            config,
            sink,
            shared,
            summaries,
        } = self;
        let mut null = NullSink;
        let sink: &mut dyn EventSink = match sink {
            Some(s) => s,
            None => &mut null,
        };
        let start = Instant::now();
        let mut report = verify_inner(program, spec, &mode, &config, shared, summaries)?;
        report.elapsed_wall = start.elapsed();
        if sink.enabled() {
            emit_report(&report, sink);
        }
        Ok(report)
    }
}

/// Verifies `program` against `spec` under `mode`.
///
/// A thin wrapper over [`Verifier`] kept for backward compatibility; new
/// code should prefer the builder, which also carries the observability
/// sink:
///
/// ```ignore
/// Verifier::new(&program, &spec).mode(mode).config(cfg).sink(&mut sink).run()
/// ```
///
/// # Errors
///
/// Propagates translation failures; property violations are *results*
/// (see [`VerificationReport::errors`]), not errors.
pub fn verify(
    program: &Program,
    spec: &Spec,
    mode: &Mode,
    config: &EngineConfig,
) -> Result<VerificationReport, VerifyError> {
    Verifier::new(program, spec)
        .mode(mode.clone())
        .config(config.clone())
        .run()
}

/// [`verify`] with an observability sink: after the subproblems complete,
/// the merged per-subproblem metrics are replayed into `sink` as typed
/// [`Event`]s in deterministic site order (see
/// [`hetsep_tvl::telemetry`]). Skipped entirely when `sink.enabled()` is
/// `false`, so a [`NullSink`] costs nothing.
///
/// # Errors
///
/// See [`verify`].
pub fn verify_with_sink(
    program: &Program,
    spec: &Spec,
    mode: &Mode,
    config: &EngineConfig,
    sink: &mut dyn EventSink,
) -> Result<VerificationReport, VerifyError> {
    let start = Instant::now();
    let mut report = verify_inner(program, spec, mode, config, None, None)?;
    report.elapsed_wall = start.elapsed();
    if sink.enabled() {
        emit_report(&report, sink);
    }
    Ok(report)
}

/// Replays a finished report's per-subproblem metrics as events, in the
/// deterministic order the subproblems were merged.
fn emit_report(report: &VerificationReport, sink: &mut dyn EventSink) {
    for (index, sub) in report.subproblems.iter().enumerate() {
        let m = &sub.stats.metrics;
        sink.record(&Event::SubproblemStart {
            index,
            site: sub.site,
        });
        for phase in Phase::ALL {
            let s = m.phases.get(phase);
            if s.count > 0 || s.nanos > 0 {
                sink.record(&Event::PhaseSample {
                    index,
                    phase,
                    count: s.count,
                    nanos: s.nanos,
                });
            }
        }
        for counter in Counter::ALL {
            let value = m.counters.get(counter);
            if value > 0 {
                sink.record(&Event::CounterSample {
                    index,
                    counter,
                    value,
                });
            }
        }
        for (location, &structures) in m.per_location.iter().enumerate() {
            if structures > 0 {
                sink.record(&Event::LocationStructures {
                    index,
                    location,
                    structures: structures as usize,
                });
            }
        }
        if m.counters.get(Counter::BudgetExhausted) > 0 {
            sink.record(&Event::BudgetExhausted {
                index,
                visits: sub.stats.visits,
            });
        }
        if m.counters.get(Counter::Cancelled) > 0 {
            sink.record(&Event::Cancelled {
                index,
                visits: sub.stats.visits,
            });
        }
        sink.record(&Event::SubproblemFinish {
            index,
            site: sub.site,
            visits: sub.stats.visits,
            structures: sub.stats.structures,
            errors: sub.errors,
            complete: sub.outcome != AnalysisOutcome::BudgetExceeded,
        });
    }
}

/// The one engine entry point behind every public verification surface:
/// [`Verifier::run`], the [`verify`]/[`verify_with_sink`] wrappers, and the
/// owned [`crate::workspace::Workspace`] API all funnel through this
/// function, which is what makes the one-shot and daemon paths
/// byte-identical by construction.
pub(crate) fn verify_inner(
    program: &Program,
    spec: &Spec,
    mode: &Mode,
    config: &EngineConfig,
    shared: Option<&SharedTransferSession<'_>>,
    summaries: Option<&SharedSummarySession<'_>>,
) -> Result<VerificationReport, VerifyError> {
    match mode {
        Mode::Vanilla => {
            let inst = translate(program, spec, &TranslateOptions::default())?;
            let mut report = VerificationReport::empty();
            report.stages_run = 1;
            report.absorb(None, run_shared(&inst, config, None, shared, summaries));
            Ok(report.finish())
        }
        Mode::Separation {
            strategy,
            simultaneous,
            heterogeneous,
        } => {
            let stage = strategy
                .stages
                .first()
                .ok_or_else(|| VerifyError::Strategy("strategy has no stages".into()))?;
            let base = TranslateOptions {
                stage: Some(stage.clone()),
                heterogeneous: *heterogeneous,
                ..TranslateOptions::default()
            };
            let mut report = VerificationReport::empty();
            report.stages_run = 1;
            if *simultaneous {
                let inst = translate(program, spec, &base)?;
                report.absorb(None, run_shared(&inst, config, None, shared, summaries));
                return Ok(report.finish());
            }
            // Non-simultaneous: one run per allocation site of the first
            // `choose some` class.
            let probe = translate(program, spec, &base)?;
            let first_some = stage
                .choices
                .iter()
                .position(|c| c.mode == ChoiceMode::Some);
            match first_some {
                None => {
                    report.absorb(None, run_shared(&probe, config, None, shared, summaries));
                }
                Some(choice_ix) => {
                    let class = &stage.choices[choice_ix].class;
                    let sites: Vec<SiteId> = probe.sites_of(class).to_vec();
                    if sites.is_empty() {
                        // Nothing of the chosen class is ever allocated: a
                        // single (cheap) run covers the empty family.
                        report.absorb(None, run_shared(&probe, config, None, shared, summaries));
                    }
                    // Pruning pre-pass: both preanalysis generations run
                    // once and every site either proves safe is skipped
                    // (the union of two sound proofs is sound). A failed
                    // generation contributes nothing and the run loop
                    // covers the rest.
                    let pre = if config.preanalysis {
                        Some(Preanalysis::run(program, spec, &sites))
                    } else {
                        None
                    };
                    let safe: HashSet<SiteId> =
                        pre.as_ref().map(Preanalysis::safe).unwrap_or_default();
                    let to_run: Vec<SiteId> = sites
                        .iter()
                        .copied()
                        .filter(|s| !safe.contains(s))
                        .collect();
                    let mut results =
                        run_sites(program, spec, &base, choice_ix, &to_run, config, shared, summaries)?
                            .into_iter()
                            .peekable();
                    // Merge in original site order so reports are identical
                    // to an unpruned run (pruned entries interleave).
                    for &site in &sites {
                        if safe.contains(&site) {
                            report.absorb_pruned(site, pre.as_ref().expect("safe implies pre"));
                        } else if results.peek().is_some_and(|&(s, _)| s == site) {
                            let (_, mut result) = results.next().expect("peeked");
                            if let Some(pre) = &pre {
                                pre.stamp_row(site, &mut result.stats.metrics);
                            }
                            report.absorb(Some(site), result);
                        }
                        // else: dropped — an earlier site exhausted its
                        // budget; the report is already incomplete.
                    }
                    if let Some(pre) = pre {
                        report.preanalysis = Some(pre.summary());
                    }
                }
            }
            Ok(report.finish())
        }
        Mode::Incremental {
            strategy,
            heterogeneous,
        } => {
            let mut report = VerificationReport::empty();
            let mut failing: HashSet<SiteId> = HashSet::new();
            let mut last_errors: Vec<ErrorReport> = Vec::new();
            let mut last_stage_complete = false;
            for (ix, stage) in strategy.stages.iter().enumerate() {
                let options = TranslateOptions {
                    stage: Some(stage.clone()),
                    heterogeneous: *heterogeneous,
                    failing_sites: failing.clone(),
                    ..TranslateOptions::default()
                };
                let inst = translate(program, spec, &options)?;
                let result = run_shared(&inst, config, None, shared, summaries);
                report.stages_run = ix + 1;
                let stage_errors = result.errors.clone();
                last_stage_complete = result.outcome == AnalysisOutcome::Complete;
                failing = result.failing_sites.clone();
                report.absorb(None, result);
                last_errors = stage_errors;
                if last_errors.is_empty() && last_stage_complete {
                    break;
                }
            }
            // The deciding stage's verdict stands: earlier stages' failures
            // may have been refuted with more context, and an earlier
            // incomplete stage does not taint a later complete one.
            report.errors = last_errors;
            report.complete = last_stage_complete;
            Ok(report.finish())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsep_strategy::builtin::{parse_builtin, IOSTREAM_SINGLE, JDBC_INCREMENTAL, JDBC_MULTI, JDBC_SINGLE};

    const JDBC_BUGGY: &str = r#"
program P uses JDBC;
void main() {
    ConnectionManager cm = new ConnectionManager();
    Connection con = cm.getConnection();
    Statement st = cm.createStatement(con);
    ResultSet rs1 = st.executeQuery("a");
    ResultSet rs2 = st.executeQuery("b");
    while (rs1.next()) {
    }
}
"#;

    const JDBC_OK: &str = r#"
program P uses JDBC;
void main() {
    ConnectionManager cm = new ConnectionManager();
    Connection con = cm.getConnection();
    Statement st = cm.createStatement(con);
    ResultSet rs1 = st.executeQuery("a");
    while (rs1.next()) {
    }
    ResultSet rs2 = st.executeQuery("b");
    while (rs2.next()) {
    }
    con.close();
}
"#;

    fn program(src: &str) -> Program {
        hetsep_ir::parse_program(src).unwrap()
    }

    #[test]
    fn vanilla_finds_the_bug() {
        let r = verify(
            &program(JDBC_BUGGY),
            &hetsep_easl::builtin::jdbc(),
            &Mode::Vanilla,
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(r.errors.len(), 1);
        assert!(!r.verified());
    }

    #[test]
    fn single_choice_sim_finds_the_bug() {
        let strategy = parse_builtin(JDBC_SINGLE);
        let r = verify(
            &program(JDBC_BUGGY),
            &hetsep_easl::builtin::jdbc(),
            &Mode::simultaneous(strategy),
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(r.errors.len(), 1, "{:?}", r.errors);
    }

    #[test]
    fn single_choice_nonsim_finds_the_bug() {
        let strategy = parse_builtin(JDBC_SINGLE);
        let r = verify(
            &program(JDBC_BUGGY),
            &hetsep_easl::builtin::jdbc(),
            &Mode::separation(strategy),
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(r.errors.len(), 1, "{:?}", r.errors);
        // One subproblem per Connection allocation site.
        assert_eq!(r.subproblems.len(), 1);
    }

    #[test]
    fn multi_choice_finds_the_bug() {
        let strategy = parse_builtin(JDBC_MULTI);
        let r = verify(
            &program(JDBC_BUGGY),
            &hetsep_easl::builtin::jdbc(),
            &Mode::simultaneous(strategy),
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(r.errors.len(), 1, "{:?}", r.errors);
    }

    #[test]
    fn correct_program_verifies_in_all_modes() {
        let spec = hetsep_easl::builtin::jdbc();
        let p = program(JDBC_OK);
        for mode in [
            Mode::Vanilla,
            Mode::simultaneous(parse_builtin(JDBC_SINGLE)),
            Mode::separation(parse_builtin(JDBC_SINGLE)),
            Mode::simultaneous(parse_builtin(JDBC_MULTI)),
            Mode::incremental(parse_builtin(JDBC_INCREMENTAL)),
        ] {
            let r = verify(&p, &spec, &mode, &EngineConfig::default()).unwrap();
            assert!(r.verified(), "mode {mode} reported {:?}", r.errors);
        }
    }

    #[test]
    fn incremental_finds_real_bug_in_later_stage() {
        let strategy = parse_builtin(JDBC_INCREMENTAL);
        let r = verify(
            &program(JDBC_BUGGY),
            &hetsep_easl::builtin::jdbc(),
            &Mode::incremental(strategy),
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(r.errors.len(), 1, "{:?}", r.errors);
        assert!(r.stages_run >= 1);
    }

    #[test]
    fn one_naming_scheme_from_mode_to_table3() {
        assert_eq!(Mode::Vanilla.kind(), ModeKind::Vanilla);
        assert_eq!(Mode::Vanilla.to_string(), "vanilla");
        assert_eq!(
            Mode::separation(parse_builtin(JDBC_SINGLE)).to_string(),
            "single"
        );
        assert_eq!(
            Mode::separation(parse_builtin(JDBC_MULTI)).to_string(),
            "multi"
        );
        assert_eq!(
            Mode::simultaneous(parse_builtin(JDBC_SINGLE)).to_string(),
            "sim"
        );
        assert_eq!(
            Mode::incremental(parse_builtin(JDBC_INCREMENTAL)).to_string(),
            "inc"
        );
    }

    #[test]
    fn mode_kind_round_trips_through_strings() {
        for kind in ModeKind::ALL {
            assert_eq!(kind.as_str().parse::<ModeKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.as_str());
        }
        assert_eq!("sep".parse::<ModeKind>().unwrap(), ModeKind::Single);
        assert!("bogus".parse::<ModeKind>().is_err());
    }

    #[test]
    fn from_kind_requires_a_strategy_for_separation() {
        assert!(matches!(
            Mode::from_kind(ModeKind::Vanilla, None),
            Ok(Mode::Vanilla)
        ));
        assert!(Mode::from_kind(ModeKind::Sim, None).is_err());
        // A `multi` request with a single-choice strategy reports as
        // `single`: the strategy decides, not the request label.
        let m = Mode::from_kind(ModeKind::Multi, Some(parse_builtin(JDBC_SINGLE))).unwrap();
        assert_eq!(m.kind(), ModeKind::Single);
    }

    #[test]
    fn sink_receives_per_subproblem_events_in_site_order() {
        use hetsep_tvl::telemetry::MetricsSink;

        struct Recorder(Vec<Event>);
        impl EventSink for Recorder {
            fn record(&mut self, event: &Event) {
                self.0.push(event.clone());
            }
        }

        let src = "program P uses IOStreams; void main() {\n\
                   InputStream a = new InputStream();\n\
                   InputStream b = new InputStream();\n\
                   a.close();\n\
                   a.read();\n\
                   b.close();\n}";
        let program = program(src);
        let spec = hetsep_easl::builtin::iostreams();
        let mode = Mode::separation(parse_builtin(
            hetsep_strategy::builtin::IOSTREAM_SINGLE,
        ));
        let mut rec = Recorder(Vec::new());
        let report = Verifier::new(&program, &spec)
            .mode(mode.clone())
            .sink(&mut rec)
            .run()
            .unwrap();
        assert_eq!(report.subproblems.len(), 2);

        // Starts and finishes pair up per subproblem, sites in merge order.
        let starts: Vec<(usize, Option<usize>)> = rec
            .0
            .iter()
            .filter_map(|e| match e {
                Event::SubproblemStart { index, site } => Some((*index, *site)),
                _ => None,
            })
            .collect();
        let expected: Vec<(usize, Option<usize>)> = report
            .subproblems
            .iter()
            .enumerate()
            .map(|(ix, s)| (ix, s.site))
            .collect();
        assert_eq!(starts, expected);
        assert!(rec.0.iter().any(|e| matches!(e, Event::PhaseSample { .. })));
        assert!(rec
            .0
            .iter()
            .any(|e| matches!(e, Event::CounterSample { .. })));
        assert!(rec
            .0
            .iter()
            .any(|e| matches!(e, Event::LocationStructures { .. })));

        // A MetricsSink replaying the same report reproduces the report's
        // merged totals.
        let mut sink = MetricsSink::new();
        let report2 = verify_with_sink(
            &program,
            &spec,
            &mode,
            &EngineConfig::default(),
            &mut sink,
        )
        .unwrap();
        assert_eq!(sink.subproblems(), report2.subproblems.len());
        assert_eq!(sink.total_visits(), report2.total_visits);
        assert_eq!(sink.phases(), &report2.metrics.phases);
        assert_eq!(sink.counters(), &report2.metrics.counters);
    }

    #[test]
    fn report_metrics_aggregate_subproblem_metrics() {
        let strategy = parse_builtin(JDBC_SINGLE);
        let r = verify(
            &program(JDBC_OK),
            &hetsep_easl::builtin::jdbc(),
            &Mode::separation(strategy),
            &EngineConfig::default(),
        )
        .unwrap();
        let summed: u64 = r
            .subproblems
            .iter()
            .map(|s| s.stats.metrics.phases.get(Phase::Focus).count)
            .sum();
        assert_eq!(r.metrics.phases.get(Phase::Focus).count, summed);
        assert!(r.metrics.counters.get(Counter::InternMisses) > 0);
        assert!(
            r.metrics.per_location.is_empty(),
            "location counts are per-run, not aggregated"
        );
    }

    #[test]
    fn iostream_separation_verifies_two_streams() {
        let src = "program P uses IOStreams; void main() {\n\
                   InputStream a = new InputStream();\n\
                   InputStream b = new InputStream();\n\
                   a.read();\n\
                   b.read();\n\
                   a.close();\n\
                   b.read();\n\
                   b.close();\n}";
        let strategy = parse_builtin(IOSTREAM_SINGLE);
        let r = verify(
            &program(src),
            &hetsep_easl::builtin::iostreams(),
            &Mode::separation(strategy),
            &EngineConfig::default(),
        )
        .unwrap();
        assert!(r.verified(), "{:?}", r.errors);
        assert_eq!(r.subproblems.len(), 2, "one per stream allocation site");
    }

    #[test]
    fn separation_still_catches_stream_error() {
        let src = "program P uses IOStreams; void main() {\n\
                   InputStream a = new InputStream();\n\
                   InputStream b = new InputStream();\n\
                   a.close();\n\
                   a.read();\n\
                   b.close();\n}";
        let strategy = parse_builtin(IOSTREAM_SINGLE);
        let r = verify(
            &program(src),
            &hetsep_easl::builtin::iostreams(),
            &Mode::separation(strategy),
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(r.errors.len(), 1);
        assert_eq!(r.errors[0].line, 5);
    }
}
