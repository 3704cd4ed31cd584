//! The abstract-interpretation engine.
//!
//! A chaotic-iteration worklist over the CFG: each program location holds a
//! set of canonically-abstracted 3-valued structures; applying an edge's
//! action (focus → coerce → assume → checks → update) to a structure yields
//! post-structures that are blurred and joined into the successor location.
//! `requires` violations are collected as error reports; for incremental
//! strategies, the allocation sites of the chosen objects in violating
//! states are recorded as *failing sites*.
//!
//! Structures are hash-consed through a per-run [`StructureInterner`]:
//! location sets, merge maps and the worklist store compact [`StructureId`]s
//! instead of cloned [`Structure`]s, and map probes hash a 4-byte id rather
//! than a full predicate interpretation. The worklist is prioritized by
//! reverse postorder of the CFG so loop bodies stabilize before their exits
//! are re-examined, which cuts revisits on nested-loop benchmarks.
//!
//! Structures use the bit-packed two-plane layout of [`hetsep_tvl`]: the hot
//! per-visit kernels (blur's bulk node materialization via
//! `Structure::add_nodes`, equality/fingerprint probes in the interner, and
//! the failing-site scan below) all run on whole `u64` words, 64 truth
//! values at a time.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hetsep_ir::cfg::Cfg;
use hetsep_tvl::action::apply_planned;
use hetsep_tvl::canon::{blur, canonical_key};
use hetsep_tvl::coerce::CoercePlan;
use hetsep_tvl::focus::DEFAULT_FOCUS_LIMIT;
use hetsep_tvl::intern::{StructureId, StructureInterner};
use hetsep_tvl::kleene::Kleene;
use hetsep_tvl::pred::{Arity, PredTable};
use hetsep_tvl::structure::Structure;
use hetsep_tvl::telemetry::{Counter, Phase, RunMetrics};

use crate::jobcache::{action_content, SharedTransferSession, TransferPayload};
use crate::parallel::map_ordered;
use crate::report::{dedup_reports, ErrorReport};
use crate::store::{saturating_u32, RunScope};
use crate::summary::{region_content, SharedSummarySession, SummaryPayload};
use crate::translate::AnalysisInstance;
use crate::vocab::SiteId;

/// How often (in action applications) a run polls its cancellation flag.
const CANCEL_CHECK_INTERVAL: u64 = 64;

/// How structures arriving at one program location are merged (paper §5,
/// "Structure Merging").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StructureMerge {
    /// Keep every isomorphism class (TVLA's default powerset).
    #[default]
    Powerset,
    /// Merge structures agreeing on all nullary predicates.
    NullaryJoin,
    /// Heterogeneous merging `≈_relevant`: merge structures whose relevant
    /// substructures are isomorphic (falls back to powerset in vanilla mode,
    /// where no relevance predicate exists).
    RelevantIso,
}

/// Parallel-scheduling knobs. `threads` controls how many independent
/// subproblems the mode-level drivers (see [`crate::modes::verify`]) run
/// concurrently; `intra_threads` controls the worker pool *inside* one
/// engine run, which fans the transfer pipeline out over same-priority
/// worklist batches (results are byte-identical whatever the count — see
/// [`run_shared`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParallelConfig {
    /// Worker threads for per-site subproblem scheduling. `0` means auto:
    /// the `HETSEP_THREADS` environment variable if set to a positive
    /// integer, else the machine's available parallelism, else 1.
    pub threads: usize,
    /// Worker threads for intra-subproblem transfer fan-out. `0` means
    /// auto: the `HETSEP_INTRA_THREADS` environment variable if set to a
    /// positive integer, else 1 (off — the engine stays single-threaded by
    /// default, since the mode drivers already saturate cores with
    /// subproblem-level parallelism).
    pub intra_threads: usize,
}

impl ParallelConfig {
    /// Resolves the configured thread count to a concrete positive number.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        if let Some(n) = env_threads("HETSEP_THREADS") {
            return n;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Resolves the intra-subproblem worker count. Unlike
    /// [`ParallelConfig::effective_threads`] the auto default is 1, not the
    /// machine width: intra-run fan-out only pays off when subproblem-level
    /// parallelism leaves cores idle, so it is strictly opt-in (explicit
    /// config or `HETSEP_INTRA_THREADS`).
    pub fn effective_intra_threads(&self) -> usize {
        if self.intra_threads > 0 {
            return self.intra_threads;
        }
        env_threads("HETSEP_INTRA_THREADS").unwrap_or(1)
    }
}

/// Parses a positive thread count from an environment variable.
fn env_threads(var: &str) -> Option<usize> {
    std::env::var(var)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Focus expansion budget per action application.
    pub focus_limit: usize,
    /// Abort with [`AnalysisOutcome::BudgetExceeded`] after this many action
    /// applications (the paper's `-` rows: vanilla runs that do not finish).
    pub max_visits: u64,
    /// Abort when this many structures are stored across all locations.
    pub max_structures: usize,
    /// Structure-merging policy at program locations.
    pub merge: StructureMerge,
    /// Subproblem scheduling (used by mode drivers, not by `run` itself).
    pub parallel: ParallelConfig,
    /// Sample wall-clock durations per engine phase (focus, coerce, update,
    /// canonical abstraction, merge) into [`RunStats::metrics`]. Off by
    /// default: phase *counts* and counters are always collected (integer
    /// increments), but duration sampling reads the clock twice per phase
    /// application. Observation-only either way — exploration order and
    /// results never depend on this flag.
    pub phase_timings: bool,
    /// Run the coarse baseline (points-to + typestate) analysis before
    /// fanning out non-simultaneous separation subproblems, and skip the
    /// allocation sites it proves safe (recorded as
    /// [`AnalysisOutcome::Pruned`]). Sound: pruning never changes the
    /// verdict or the reported errors, only which subproblems run. Off by
    /// default; enable via [`crate::Verifier::with_preanalysis`].
    pub preanalysis: bool,
    /// Memoize the transfer function: per run, a map from `(action,
    /// input structure id)` to the interned canonical post-structure ids and
    /// check violations of the full focus → coerce → update → canon
    /// pipeline. Because structures are hash-consed (id equality ⇔ structure
    /// equality) and the pipeline is deterministic, cache hits are exact:
    /// verdicts, error sets and `visits`/`structures` statistics are
    /// byte-identical with the cache on or off — only wall-clock time and
    /// the per-phase work counters change. The cache is per-run (each
    /// separation subproblem owns its interner, so ids are not shared across
    /// threads). On by default; disable via
    /// [`crate::Verifier::with_transfer_cache`] or `--no-transfer-cache`.
    pub transfer_cache: bool,
    /// Entry budget for the transfer cache. The cache holds two generations
    /// of at most `capacity / 2` entries each; when the young generation
    /// fills, the old generation is discarded (counted in
    /// [`Counter::TransferCacheEvictions`]) and the young one ages into its
    /// place. Probes that hit the old generation promote the entry back into
    /// the young one, so the warm working set survives rotation instead of
    /// being dumped exactly when the cache is most valuable. Eviction is
    /// sound (the cache is exact, so losing entries only costs time).
    pub transfer_cache_capacity: usize,
    /// Memoize per-procedure summaries: the engine always evaluates a
    /// spliced call region as a nested subproblem of its entry structure
    /// (see the region drain in [`run_shared`]); with this flag on, the
    /// result — exit structures, violations, failing sites, and exact
    /// visit/peak accounting — is memoized per `(region content, interned
    /// input structure)` and replayed on repeat evaluations, so a library
    /// procedure called from N sites (or re-entered each loop iteration with
    /// a stable abstraction) is drained once per calling context instead of
    /// once per arrival. The nested drain is a pure function of its key, so
    /// verdicts, errors, `visits`, and `structures` are byte-identical with
    /// summaries on or off — only the `summary_*`/`call_evaluations`
    /// counters and wall-clock differ. Applies under the powerset merge
    /// policy (every mode driver's policy); other policies drain flat. On by
    /// default; disable via `--no-summaries`.
    pub summaries: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            focus_limit: DEFAULT_FOCUS_LIMIT,
            max_visits: 2_000_000,
            max_structures: 400_000,
            merge: StructureMerge::Powerset,
            parallel: ParallelConfig::default(),
            phase_timings: false,
            preanalysis: false,
            transfer_cache: true,
            transfer_cache_capacity: 1 << 20,
            summaries: true,
        }
    }
}

/// Whether a run explored the full state space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisOutcome {
    /// Fixpoint reached.
    Complete,
    /// The visit or structure budget was exhausted; results are partial
    /// (sound for errors found, inconclusive for verification).
    BudgetExceeded,
    /// The subproblem never ran: the static pre-analysis proved its site's
    /// checks safe under the coarse baseline abstraction (see
    /// [`EngineConfig::preanalysis`]). Equivalent to `Complete` with zero
    /// errors for verdict purposes.
    Pruned,
}

/// Statistics of one engine run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Action applications performed.
    pub visits: u64,
    /// Peak number of structures stored across all locations at any point
    /// during the run. Tracked explicitly at every insertion: merging
    /// policies replace stored representatives rather than only adding, so
    /// "location sets only grow" does not hold in general and the final
    /// count is not a reliable peak.
    pub structures: usize,
    /// Distinct structures materialized by the run's interner (canonical
    /// forms plus merge-key substructures) — a proxy for arena memory.
    pub distinct_structures: usize,
    /// Largest universe size among visited structures.
    pub peak_nodes: usize,
    /// Wall-clock duration.
    pub wall: Duration,
    /// CFG locations.
    pub locations: usize,
    /// Per-phase timings/counts, scalar counters, and per-location structure
    /// counts collected by this run (see [`hetsep_tvl::telemetry`]).
    pub metrics: RunMetrics,
}

/// The result of one engine run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Deduplicated (per line) violation reports.
    pub errors: Vec<ErrorReport>,
    /// Allocation sites of chosen objects in violating states.
    pub failing_sites: HashSet<SiteId>,
    /// Run statistics.
    pub stats: RunStats,
    /// Completion status.
    pub outcome: AnalysisOutcome,
}

impl RunResult {
    /// Whether the run proves the program correct: complete and error-free.
    pub fn verified(&self) -> bool {
        self.errors.is_empty() && self.outcome == AnalysisOutcome::Complete
    }
}

/// The key under which a structure is merged at a location.
///
/// Structure-valued variants hold interned ids, not structures: interning
/// guarantees id equality ⇔ structure equality (fingerprint collisions are
/// resolved inside the interner with full comparisons), so keying on the id
/// is exact while hashing only 4 bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum MergeKey {
    Whole(StructureId),
    Nullary(Vec<Kleene>),
    Relevant(StructureId),
}

/// One memoized transfer-function application (see
/// [`EngineConfig::transfer_cache`]): everything the worklist loop needs to
/// replay an action application without recomputing the
/// focus → coerce → update → canon pipeline.
struct TransferEntry {
    /// Interned canonical (blurred, keyed) post-structure ids, in pipeline
    /// emission order.
    posts: Vec<StructureId>,
    /// Check violations of the application as `(label, definite?)` pairs;
    /// the error map is keyed on the edge's line, which the call site knows.
    violations: Vec<(String, bool)>,
    /// Largest universe size among the (unblurred) post-structures, so
    /// `peak_nodes` accounting stays exact on hits.
    peak_post_nodes: usize,
}

/// Key of one memoized transfer application: (content-deduped action id,
/// interned pre-structure id).
type TransferKey = (u32, StructureId);

/// The per-run transfer cache with generational eviction.
///
/// Entries live in a *young* and an *old* generation of at most `cap`
/// entries each (`cap` = half the configured capacity). Inserts go into the
/// young generation; when it fills, the old generation is discarded — its
/// entry count feeds [`Counter::TransferCacheEvictions`] — and young becomes
/// old. A probe that hits the old generation promotes the entry back into
/// the young one, so anything re-referenced within one generation's worth of
/// inserts is never evicted: the warm working set survives rotation instead
/// of being dumped wholesale.
struct TransferCache {
    /// Entry budget per generation.
    cap: usize,
    /// The young generation: receives inserts and promotions.
    young: HashMap<TransferKey, TransferEntry>,
    /// The old generation: read-only until discarded by the next rotation.
    old: HashMap<TransferKey, TransferEntry>,
}

impl TransferCache {
    fn new(capacity: usize) -> TransferCache {
        TransferCache {
            cap: (capacity / 2).max(1),
            young: HashMap::new(),
            old: HashMap::new(),
        }
    }

    /// Read-only membership probe (no promotion) — used by the speculative
    /// classification pass, which must not perturb eviction order.
    fn contains(&self, key: &TransferKey) -> bool {
        self.young.contains_key(key) || self.old.contains_key(key)
    }

    /// Probes the cache; an old-generation hit is promoted into the young
    /// generation (rotating first if it is full).
    fn get(&mut self, key: &TransferKey, metrics: &mut RunMetrics) -> Option<&TransferEntry> {
        if self.young.contains_key(key) {
            return self.young.get(key);
        }
        let entry = self.old.remove(key)?;
        self.rotate_if_full(metrics);
        Some(self.young.entry(*key).or_insert(entry))
    }

    /// Inserts a freshly computed entry, evicting first if the receiving
    /// generation is full.
    fn insert(&mut self, key: TransferKey, entry: TransferEntry, metrics: &mut RunMetrics) {
        self.rotate_if_full(metrics);
        self.young.insert(key, entry);
    }

    /// Evicts when the young generation is at capacity: discards the old
    /// generation and ages the young one. [`Counter::TransferCacheEvictions`]
    /// counts the entries actually discarded.
    fn rotate_if_full(&mut self, metrics: &mut RunMetrics) {
        if self.young.len() < self.cap {
            return;
        }
        metrics
            .counters
            .add(Counter::TransferCacheEvictions, self.old.len() as u64);
        self.old = std::mem::take(&mut self.young);
    }
}

/// One precomputed transfer application, produced by the intra-subproblem
/// fan-out (phase 2 of the batched worklist loop): blurred canonical posts —
/// *not* yet interned, id assignment stays serial — converted violations,
/// the peak unblurred post universe, and the metrics of exactly the work
/// done, merged into the run's metrics only if the result is consumed.
struct ComputedTransfer {
    posts: Vec<Structure>,
    violations: Vec<(String, bool)>,
    peak_post_nodes: usize,
    metrics: RunMetrics,
}

/// Minimum predicted-miss count for which a batch fans its transfers out
/// over the intra-subproblem worker pool: below this, thread-scope setup
/// costs more than the pipeline work it would parallelize.
const INTRA_FANOUT_MIN: usize = 4;

/// The transfer pipeline of one action application: focus → coerce → update
/// (inside [`apply_planned`]) plus canonical abstraction of every
/// post-structure. Pure in `(action, s)` given the fixed table/plan/limit —
/// the worklist loop and the speculative fan-out both funnel through this
/// function, so a precomputed result is bit-for-bit what the inline path
/// would have produced. Returns blurred posts in emission order, `(label,
/// definite?)` violation pairs, and the largest unblurred post universe.
fn compute_transfer(
    action: &hetsep_tvl::action::Action,
    s: &Structure,
    table: &PredTable,
    plan: &CoercePlan,
    focus_limit: usize,
    metrics: &mut RunMetrics,
) -> (Vec<Structure>, Vec<(String, bool)>, usize) {
    let out = apply_planned(action, s, table, plan, focus_limit, metrics);
    let violations = out
        .violations
        .iter()
        .map(|v| (v.label.clone(), v.value == Kleene::False))
        .collect();
    let mut peak_post_nodes = 0usize;
    let mut posts = Vec::with_capacity(out.results.len());
    for post in out.results {
        peak_post_nodes = peak_post_nodes.max(post.node_count());
        posts.push(metrics.time(Phase::Canon, || blur(&post, table)));
    }
    (posts, violations, peak_post_nodes)
}

/// Computes the merge key of the (already interned) structure `id`.
fn merge_key(
    interner: &mut StructureInterner,
    id: StructureId,
    instance: &AnalysisInstance,
    policy: StructureMerge,
) -> MergeKey {
    let table = &instance.vocab.table;
    match (policy, instance.vocab.relevant) {
        (StructureMerge::Powerset, _) | (StructureMerge::RelevantIso, None) => MergeKey::Whole(id),
        (StructureMerge::NullaryJoin, _) => {
            let s = interner.resolve(id);
            MergeKey::Nullary(
                table
                    .iter_arity(Arity::Nullary)
                    .map(|p| s.nullary(table, p))
                    .collect(),
            )
        }
        (StructureMerge::RelevantIso, Some(rel)) => {
            let s = interner.resolve(id);
            let (sub, _) = s.retain_nodes(table, |u| s.unary(table, rel, u) == Kleene::True);
            let sub = canonical_key(&sub, table).into_structure();
            MergeKey::Relevant(interner.intern(sub))
        }
    }
}

/// Reverse-postorder rank of every CFG node (entry = 0). Nodes unreachable
/// from the entry get the largest rank; ties in the worklist are broken by
/// insertion order, so their relative processing order is still
/// deterministic.
fn rpo_ranks(cfg: &Cfg) -> Vec<u32> {
    let n = cfg.node_count();
    let mut visited = vec![false; n];
    let mut post_ix = vec![0usize; n];
    let mut counter = 0usize;
    let mut stack: Vec<(usize, usize)> = vec![(cfg.entry(), 0)];
    visited[cfg.entry()] = true;
    while let Some((node, child)) = stack.pop() {
        let succs = cfg.out_edges(node);
        if child < succs.len() {
            stack.push((node, child + 1));
            let next = cfg.edges()[succs[child]].to;
            if !visited[next] {
                visited[next] = true;
                stack.push((next, 0));
            }
        } else {
            post_ix[node] = counter;
            counter += 1;
        }
    }
    let mut ranks = vec![n as u32; n];
    for v in 0..n {
        if visited[v] {
            ranks[v] = (counter - 1 - post_ix[v]) as u32;
        }
    }
    ranks
}

/// Runs the worklist analysis on a translated instance.
pub fn run(instance: &AnalysisInstance, config: &EngineConfig) -> RunResult {
    run_cancellable(instance, config, None)
}

/// Runs the worklist analysis with an optional cross-run cancellation flag.
///
/// Used by the parallel subproblem scheduler: a run that exhausts its own
/// budget *sets* the flag (once one subproblem is inconclusive the whole
/// verification is, so sibling runs can stop early), and every run polls the
/// flag periodically and aborts with [`AnalysisOutcome::BudgetExceeded`]
/// when it is raised.
pub fn run_cancellable(
    instance: &AnalysisInstance,
    config: &EngineConfig,
    cancel: Option<&AtomicBool>,
) -> RunResult {
    run_shared(instance, config, cancel, None, None)
}

/// A structural stop signal: the visit/structure budget was exhausted or the
/// cross-run cancellation flag was raised. Unwinds every nested region drain
/// back to [`run_shared`]; the outcome and counter were already recorded on
/// [`EngineSt`] at the raise site.
struct Stop;

/// One evaluated call region: everything needed to replay the nested drain
/// of a spliced callee body for one boundary structure (see
/// [`EngineConfig::summaries`]).
struct RegionSummary {
    /// Interned canonical structures that reached the region exit, in
    /// first-arrival order of the nested drain.
    exits: Vec<StructureId>,
    /// Violations raised inside the region as `(line, label, definite?)`,
    /// sorted; lines are callee declaration lines, identical across splices
    /// of one procedure, so replayed reports attribute like computed ones.
    violations: Vec<(u32, String, bool)>,
    /// Failing allocation sites recorded inside the region, sorted.
    failing: Vec<SiteId>,
    /// Action applications the nested drain performed.
    visits: u64,
    /// Peak region-local live structures above the caller's count at entry.
    peak_extra: usize,
    /// Largest universe size among structures visited inside the region.
    peak_nodes: usize,
}

/// Mirror of one in-flight region evaluation: while its nested drain runs,
/// every violation, failing site, live-count high-water mark and peak
/// universe raised anywhere below it — including replayed inner summaries —
/// is recorded here as well as on the run totals, so the finished summary
/// replays nested effects exactly. Recorders stack: an inner region's
/// contribution flows into every enclosing recorder.
struct Recorder {
    /// The run's live structure count when the region was entered;
    /// `peak_extra` is measured above this base.
    live_base: usize,
    peak_extra: usize,
    peak_nodes: usize,
    /// `(line, label)` → definite?, OR-joined like the run's error map.
    violations: HashMap<(u32, String), bool>,
    failing: HashSet<SiteId>,
}

/// Exit collector of one nested region drain: arrivals at the region's exit
/// node are gathered (deduplicated, in arrival order) instead of merged into
/// a location set, so the caller commits them — once, against the caller's
/// own state for the exit node — whether the summary was computed or
/// replayed.
struct RegionSink<'a> {
    /// Global node index of the region's exit.
    exit: usize,
    exits: &'a mut Vec<StructureId>,
    seen: HashSet<StructureId>,
}

/// The immutable context of one engine run, shared by the global drain and
/// every nested region drain.
struct EngineCtx<'a> {
    instance: &'a AnalysisInstance,
    config: &'a EngineConfig,
    cancel: Option<&'a AtomicBool>,
    /// Reverse-postorder worklist rank per CFG node.
    rpo: Vec<u32>,
    plan: CoercePlan,
    /// Content-deduped action id per `(edge, action index)` (transfer-cache
    /// keys; see the dedup scan in [`run_shared`]).
    action_ids: Vec<Vec<u32>>,
    intra_workers: usize,
    /// Fallback cancellation flag for the intra-batch fan-out when the
    /// caller supplied none (`map_ordered` always polls a flag).
    local_cancel: AtomicBool,
    /// Region index by global entry-node index; empty when the run drains
    /// flat (non-powerset merge policy or a region-free CFG).
    region_by_entry: HashMap<usize, usize>,
    /// Content id per region — an index into the run's distinct-content
    /// list, so splices of one procedure with identical instrumentation
    /// share summaries.
    region_contents: Vec<u32>,
    /// Whether region evaluations are memoized (see
    /// [`EngineConfig::summaries`]).
    summaries_active: bool,
    /// Table predicate id → allocation site, for decoding persisted failing
    /// sites.
    site_of_pred: HashMap<u32, SiteId>,
    /// Allocation site → table predicate id, for encoding them.
    pred_of_site: HashMap<SiteId, u32>,
}

/// The mutable state of one engine run, threaded through the global drain
/// and every nested region drain (which share the interner, both transfer
/// cache layers and all counters with their caller).
struct EngineSt<'s> {
    metrics: RunMetrics,
    interner: StructureInterner,
    cache: TransferCache,
    shared_scope: Option<RunScope<'s, TransferPayload>>,
    summary_scope: Option<RunScope<'s, SummaryPayload>>,
    /// Precomputed speculative transfers (phase 2 of the global drain).
    speculative: HashMap<TransferKey, ComputedTransfer>,
    /// In-run summary memo: `(region content id, input id)` → summary.
    memo: HashMap<(u32, StructureId), Rc<RegionSummary>>,
    visits: u64,
    /// Structures currently stored across all live location sets (the
    /// global ones plus any in-flight nested drains').
    live: usize,
    peak_structures: usize,
    peak_nodes: usize,
    /// `(line, label)` → definite?
    errors: HashMap<(u32, String), bool>,
    failing_sites: HashSet<SiteId>,
    /// One recorder per in-flight region evaluation, innermost last.
    recorders: Vec<Recorder>,
    outcome: AnalysisOutcome,
}

impl EngineSt<'_> {
    /// Counts a newly stored structure against the live total and every
    /// enclosing region recorder.
    fn bump_live(&mut self) {
        self.live += 1;
        self.peak_structures = self.peak_structures.max(self.live);
        for r in &mut self.recorders {
            r.peak_extra = r.peak_extra.max(self.live - r.live_base);
        }
    }

    fn raise_peak_nodes(&mut self, n: usize) {
        self.peak_nodes = self.peak_nodes.max(n);
        for r in &mut self.recorders {
            r.peak_nodes = r.peak_nodes.max(n);
        }
    }

    fn note_violation(&mut self, line: u32, label: &str, definite: bool) {
        self.errors
            .entry((line, label.to_string()))
            .and_modify(|d| *d |= definite)
            .or_insert(definite);
        for r in &mut self.recorders {
            r.violations
                .entry((line, label.to_string()))
                .and_modify(|d| *d |= definite)
                .or_insert(definite);
        }
    }

    fn note_failing_site(&mut self, site: SiteId) {
        self.failing_sites.insert(site);
        for r in &mut self.recorders {
            r.failing.insert(site);
        }
    }

    /// Records the allocation sites of the chosen objects of a violating
    /// pre-state (paper §4.2: allocation-site based identification of failed
    /// individuals).
    ///
    /// A site fails iff some individual is possibly `chosen` *and* possibly
    /// carries the site's predicate; with bit-packed structures that is one
    /// word-parallel maybe-mask intersection per site
    /// ([`Structure::maybe_overlap`]) instead of a node × site probe loop.
    fn note_failing_structure(&mut self, instance: &AnalysisInstance, s: &Structure) {
        let table = &instance.vocab.table;
        let Some(chosen) = instance.vocab.chosen else {
            return;
        };
        for (&site, &pred) in &instance.vocab.site_preds {
            if s.maybe_overlap(table, chosen, pred) {
                self.note_failing_site(site);
            }
        }
    }

    /// Whether replaying `summary` is guaranteed not to mask a budget abort:
    /// replay is all-or-nothing, so it is only taken when even the summary's
    /// full visit count and peak live footprint stay within budget. On a
    /// refusal the region is recomputed inline, which aborts at exactly the
    /// application where the recorded drain would have.
    fn replay_fits(&self, summary: &RegionSummary, config: &EngineConfig) -> bool {
        self.visits + summary.visits <= config.max_visits
            && self.live + summary.peak_extra <= config.max_structures
    }

    /// Replays a memoized region evaluation: visits, peaks, violations and
    /// failing sites advance exactly as the recorded nested drain advanced
    /// them. Replayed applications count as transfer-cache hits — re-draining
    /// the region would find every one of its transfers in the per-run cache
    /// — keeping `hits + misses == visits` intact.
    fn replay(&mut self, ctx: &EngineCtx<'_>, summary: &RegionSummary) {
        self.visits += summary.visits;
        if ctx.config.transfer_cache {
            self.metrics
                .counters
                .add(Counter::TransferCacheHits, summary.visits);
        }
        self.peak_structures = self.peak_structures.max(self.live + summary.peak_extra);
        for r in &mut self.recorders {
            r.peak_extra = r.peak_extra.max(self.live + summary.peak_extra - r.live_base);
        }
        self.raise_peak_nodes(summary.peak_nodes);
        for (line, label, definite) in &summary.violations {
            self.note_violation(*line, label, *definite);
        }
        for &site in &summary.failing {
            self.note_failing_site(site);
        }
    }
}

/// Runs the worklist analysis with optional cross-job shared transfer and
/// summary sessions (see [`crate::store`]).
///
/// When a transfer session is given (and `config.transfer_cache` is on — the
/// shared layer sits strictly behind the per-run cache), a per-run-cache
/// miss first probes the session's store snapshot by *content* key; a shared
/// hit replays the memoized posts/violations/peak exactly and counts
/// [`Counter::SharedCacheHits`] instead of a transfer-cache miss, while a
/// shared miss computes the pipeline as usual and records the result into
/// the session's delta for future jobs. A summary session does the same one
/// level up, for whole call-region evaluations (see
/// [`EngineConfig::summaries`]): a shared summary hit seeds the in-run memo
/// and counts [`Counter::SharedSummaryHits`]. Results are
/// observation-equivalent with and without sessions; only cache counters and
/// wall-clock differ.
pub fn run_shared<'s>(
    instance: &AnalysisInstance,
    config: &EngineConfig,
    cancel: Option<&AtomicBool>,
    shared: Option<&'s SharedTransferSession<'s>>,
    summaries: Option<&'s SharedSummarySession<'s>>,
) -> RunResult {
    let start = Instant::now();
    let table = &instance.vocab.table;
    let cfg = &instance.cfg;
    let n_nodes = cfg.node_count();

    let mut metrics = RunMetrics::new(config.phase_timings);
    let mut interner = StructureInterner::new();

    // Content-keyed action ids for transfer-cache keys: `action_ids[e][i]`
    // identifies action `i` of edge `e` by *content*, so structurally equal
    // actions on different edges (skip edges, `assume(?)` branch pairs,
    // repeated statements) share cache entries. The worklist itself never
    // re-applies one edge's action to the same structure — location sets
    // dedup on interned ids — so all cache hits come from this cross-edge
    // sharing. Deduplication is a linear scan per action: action counts are
    // CFG-sized (tens), and it runs once per analysis.
    let mut action_ids: Vec<Vec<u32>> = Vec::with_capacity(instance.actions.len());
    let mut uniq_actions: Vec<&hetsep_tvl::action::Action> = Vec::new();
    for edge_actions in &instance.actions {
        let ids = edge_actions
            .iter()
            .map(|a| match uniq_actions.iter().position(|u| *u == a) {
                Some(ix) => ix as u32,
                None => {
                    uniq_actions.push(a);
                    (uniq_actions.len() - 1) as u32
                }
            })
            .collect();
        action_ids.push(ids);
    }

    // Region-structured evaluation applies under the powerset policy only:
    // the joining merge policies fold arrivals at every location, so a
    // region's behavior is not a function of single entry structures there
    // and the CFG drains flat, exactly as a region-free graph does.
    let use_regions = config.merge == StructureMerge::Powerset && !cfg.regions().is_empty();
    let mut region_by_entry: HashMap<usize, usize> = HashMap::new();
    let mut region_contents: Vec<u32> = Vec::new();
    let mut distinct_contents: Vec<String> = Vec::new();
    if use_regions {
        let mut content_ix: HashMap<String, u32> = HashMap::new();
        for (ix, region) in cfg.regions().iter().enumerate() {
            region_by_entry.insert(region.entry.index(), ix);
            let content = region_content(region, cfg, &instance.actions);
            let id = *content_ix.entry(content.clone()).or_insert_with(|| {
                distinct_contents.push(content);
                (distinct_contents.len() - 1) as u32
            });
            region_contents.push(id);
        }
    }
    let summaries_active = use_regions && config.summaries;
    // Site ↔ table-predicate maps, for persisting failing sites by content.
    let mut site_of_pred: HashMap<u32, SiteId> = HashMap::new();
    let mut pred_of_site: HashMap<SiteId, u32> = HashMap::new();
    for (&site, &pred) in &instance.vocab.site_preds {
        site_of_pred.insert(pred.index() as u32, site);
        pred_of_site.insert(site, pred.index() as u32);
    }

    let cache = TransferCache::new(config.transfer_cache_capacity);
    // The shared layers sit strictly behind the per-run memos: they are only
    // consulted (and populated) when those miss, so the added cost is
    // bounded by one content probe per distinct key per run.
    let shared_scope = shared.filter(|_| config.transfer_cache).map(|s| {
        let contents = uniq_actions.iter().map(|a| action_content(a)).collect();
        s.run_scope(table, config.focus_limit, contents)
    });
    let summary_scope = summaries
        .filter(|_| summaries_active)
        .map(|s| s.run_scope(table, config.focus_limit, distinct_contents));

    let ctx = EngineCtx {
        instance,
        config,
        cancel,
        rpo: rpo_ranks(cfg),
        // The coerce constraint set depends only on the vocabulary: compile
        // it once instead of re-deriving it inside every action application.
        plan: CoercePlan::new(table),
        action_ids,
        intra_workers: config.parallel.effective_intra_threads(),
        local_cancel: AtomicBool::new(false),
        region_by_entry,
        region_contents,
        summaries_active,
        site_of_pred,
        pred_of_site,
    };

    // `blur` output is already canonical — nodes are emitted in ascending
    // canonical-name order and names are unique per node (verified by the
    // `canonical_key_is_identity_on_blurred` property test) — so blurred
    // structures are interned directly without a re-keying pass.
    let init = metrics.time(Phase::Canon, || blur(&Structure::new(table), table));
    let init_id = interner.intern(init);
    let init_key = metrics.time(Phase::Merge, || {
        merge_key(&mut interner, init_id, instance, config.merge)
    });
    let mut states: Vec<HashMap<MergeKey, StructureId>> = vec![HashMap::new(); n_nodes];
    // Min-heap on (rpo rank, insertion sequence): lower-ranked locations
    // first, FIFO among equal ranks — a deterministic priority worklist.
    let mut worklist: BinaryHeap<Reverse<(u32, u64, usize, StructureId)>> = BinaryHeap::new();
    let mut seq: u64 = 0;
    states[cfg.entry()].insert(init_key, init_id);
    worklist.push(Reverse((ctx.rpo[cfg.entry()], seq, cfg.entry(), init_id)));
    seq += 1;
    metrics.counters.add(Counter::WorklistPushes, 1);
    metrics
        .counters
        .raise(Counter::WorklistPeakDepth, worklist.len() as u64);

    let mut st = EngineSt {
        metrics,
        interner,
        cache,
        shared_scope,
        summary_scope,
        speculative: HashMap::new(),
        memo: HashMap::new(),
        visits: 0,
        live: 1,
        peak_structures: 1,
        peak_nodes: 0,
        errors: HashMap::new(),
        failing_sites: HashSet::new(),
        recorders: Vec::new(),
        outcome: AnalysisOutcome::Complete,
    };

    // A `Stop` already recorded its outcome and counter on `st`.
    let _ = drain(
        &ctx,
        &mut st,
        &mut states,
        &mut worklist,
        &mut seq,
        0,
        None,
        None,
        true,
    );

    if let Some(scope) = st.shared_scope.take() {
        scope.finish();
    }
    if let Some(scope) = st.summary_scope.take() {
        scope.finish();
    }

    let reports: Vec<ErrorReport> = st
        .errors
        .into_iter()
        .map(|((line, label), definite)| ErrorReport {
            line,
            label,
            definite,
        })
        .collect();

    st.metrics.counters.add(Counter::InternHits, st.interner.hits());
    st.metrics
        .counters
        .add(Counter::InternMisses, st.interner.misses());
    st.metrics.per_location = states
        .iter()
        .map(|m| u32::try_from(m.len()).unwrap_or(u32::MAX))
        .collect();

    RunResult {
        errors: dedup_reports(reports),
        failing_sites: st.failing_sites,
        stats: RunStats {
            visits: st.visits,
            structures: st.peak_structures,
            distinct_structures: st.interner.len(),
            peak_nodes: st.peak_nodes,
            wall: start.elapsed(),
            locations: n_nodes,
            metrics: st.metrics,
        },
        outcome: st.outcome,
    }
}

/// Drains one worklist to fixpoint — the batched core loop shared by the
/// global run and every nested region evaluation.
///
/// `states` and `worklist` belong to the caller: the global run passes the
/// full per-node vector (`base` 0), a region evaluation a region-local
/// slice indexed by `node - base`. When `sink` is given, arrivals at its
/// exit node are collected instead of committed. When `own_entry` is
/// `Some`, batches at that node are processed normally (it is the region
/// being drained); any *other* node with a region entry is intercepted and
/// evaluated as a nested subproblem via [`eval_region`]. `speculate`
/// enables the intra-subproblem fan-out (phases 1–2) in the global drain
/// only — nested drains are short and stay serial.
#[allow(clippy::too_many_arguments)]
fn drain(
    ctx: &EngineCtx<'_>,
    st: &mut EngineSt<'_>,
    states: &mut [HashMap<MergeKey, StructureId>],
    worklist: &mut BinaryHeap<Reverse<(u32, u64, usize, StructureId)>>,
    seq: &mut u64,
    base: usize,
    own_entry: Option<usize>,
    mut sink: Option<RegionSink<'_>>,
    speculate: bool,
) -> Result<(), Stop> {
    let instance = ctx.instance;
    let config = ctx.config;
    let cfg = &instance.cfg;
    let table = &instance.vocab.table;
    // Each iteration drains one *batch*: every queued entry of the
    // highest-priority (rank, node) pair. Entries of one node sit
    // contiguously at the top of the heap — reachable nodes have unique
    // ranks, and among unreachable nodes (which share the sentinel rank)
    // draining stops at the first entry for a different node. Entries keep
    // their insertion sequence: a back-edge push from an earlier batch
    // member can outrank the remaining members, in which case phase 3
    // requeues them (original sequence and all) so the commit order replays
    // the serial pop order exactly.
    'outer: while let Some(&Reverse((rank, _, node, _))) = worklist.peek() {
        let mut batch: Vec<(u64, StructureId)> = Vec::new();
        while let Some(&Reverse((r, s, n, sid))) = worklist.peek() {
            if r != rank || n != node {
                break;
            }
            worklist.pop();
            batch.push((s, sid));
        }
        // Poll the cross-run flag at the top of every batch (the batched
        // equivalent of the former per-visit top poll): a single expensive
        // focus/coerce expansion must not delay a budget-triggered cancel by
        // a whole batch. Further polls run every `CANCEL_CHECK_INTERVAL`
        // applications below.
        if let Some(flag) = ctx.cancel {
            if flag.load(Ordering::Relaxed) {
                st.outcome = AnalysisOutcome::BudgetExceeded;
                st.metrics.counters.add(Counter::Cancelled, 1);
                return Err(Stop);
            }
        }
        // A batch at another region's entry is not applied edge by edge:
        // each arrival is evaluated as a nested subproblem of that region
        // (computed or replayed — see `eval_region`) and its exit structures
        // are committed at the region's exit node. The exit's rank exceeds
        // the entry's (the exit is a DFS descendant of the entry), so these
        // commits never outrank the batch being drained.
        if own_entry != Some(node) {
            if let Some(&region_ix) = ctx.region_by_entry.get(&node) {
                let exit = cfg.regions()[region_ix].exit.index();
                for &(_, sid) in &batch {
                    let summary = eval_region(ctx, st, region_ix, sid)?;
                    for &xid in &summary.exits {
                        commit_post(ctx, st, states, worklist, seq, base, exit, xid, &mut sink);
                    }
                }
                continue 'outer;
            }
        }
        // Exploitable-width telemetry, counted from the drained batch size
        // *before* any worker configuration is consulted: the values — and
        // with them every emitted trace — are identical whatever
        // `intra_threads` is set to.
        if batch.len() >= 2 {
            st.metrics.counters.add(Counter::IntraBatches, 1);
            st.metrics
                .counters
                .add(Counter::IntraBatchItems, batch.len() as u64);
        }

        // Phase 1 (speculative, strictly read-only): predict which
        // applications of this batch miss every cache and will therefore
        // compute the transfer pipeline. Probes must not perturb observable
        // state — `TransferCache::contains` skips promotion, the shared
        // scope is a snapshot — and keys already claimed by an earlier
        // application of this batch are tracked in `pending` (the first
        // application inserts the entry the later ones will hit).
        // Enumeration stops at the visit budget: the loop below breaks
        // there, so later applications must not be precomputed.
        //
        // Phase 2: fan the predicted misses over the worker pool
        // (`map_ordered`, input-order results) and stash the results in the
        // `speculative` memo. The transfer is a pure function of the
        // (action, interned pre-structure) key, so memoized results stay
        // valid across batch requeues — a member pushed back by a
        // higher-priority back-edge entry reclaims its precompute when it is
        // drained again instead of recomputing. Mispredictions and
        // cancelled-before-start slots fall back to inline computation in
        // phase 3 — speculation can only waste work, never change a result,
        // because both sides run `compute_transfer` on identical inputs and
        // the metrics of unconsumed results are discarded.
        // Cheap width precheck: a batch that cannot reach the fan-out
        // threshold even if every application misses skips classification
        // outright — small batches must not pay probe or clone overhead.
        let apps_per_structure: usize = cfg
            .out_edges(node)
            .iter()
            .map(|&e| instance.actions[e].len())
            .sum();
        if speculate
            && ctx.intra_workers > 1
            && st.live <= config.max_structures
            && batch.len() * apps_per_structure >= INTRA_FANOUT_MIN
        {
            // (action, action id, pre-structure id) of every predicted miss.
            // Structures are cloned only after the threshold check below —
            // classification itself never allocates per application.
            let mut job_metas: Vec<(&hetsep_tvl::action::Action, TransferKey)> = Vec::new();
            let mut pending: HashSet<TransferKey> = HashSet::new();
            let mut spec_visits = st.visits;
            {
                let EngineSt {
                    interner,
                    cache,
                    shared_scope,
                    speculative,
                    ..
                } = &*st;
                'classify: for &(_, sid) in &batch {
                    let mut words: Option<Vec<u64>> = None;
                    for &edge_ix in cfg.out_edges(node) {
                        for (action_ix, action) in instance.actions[edge_ix].iter().enumerate() {
                            spec_visits += 1;
                            if spec_visits > config.max_visits {
                                break 'classify;
                            }
                            let key = (ctx.action_ids[edge_ix][action_ix], sid);
                            let predicted_hit = speculative.contains_key(&key)
                                || pending.contains(&key)
                                || (config.transfer_cache
                                    && (cache.contains(&key)
                                        || shared_scope.as_ref().is_some_and(|scope| {
                                            let w = words.get_or_insert_with(|| {
                                                interner.resolve(sid).to_words()
                                            });
                                            scope.contains(key.0, w)
                                        })));
                            if !predicted_hit {
                                pending.insert(key);
                                job_metas.push((action, key));
                            }
                        }
                    }
                }
            }
            if job_metas.len() >= INTRA_FANOUT_MIN {
                let jobs: Vec<(&hetsep_tvl::action::Action, Structure)> = job_metas
                    .iter()
                    .map(|&(action, (_, sid))| (action, st.interner.resolve(sid).clone()))
                    .collect();
                let flag = ctx.cancel.unwrap_or(&ctx.local_cancel);
                let timed = config.phase_timings;
                let plan = &ctx.plan;
                let computed = map_ordered(&jobs, ctx.intra_workers, flag, |_, job, _| {
                    let mut local = RunMetrics::new(timed);
                    let (posts, violations, peak_post_nodes) =
                        compute_transfer(job.0, &job.1, table, plan, config.focus_limit, &mut local);
                    ComputedTransfer {
                        posts,
                        violations,
                        peak_post_nodes,
                        metrics: local,
                    }
                });
                for ((_, key), result) in job_metas.into_iter().zip(computed) {
                    if let Some(c) = result {
                        st.speculative.insert(key, c);
                    }
                }
            }
        }

        // Phase 3: the serial worklist body, application by application in
        // the exact pre-batching order — every counter bump, budget check,
        // cache probe and downstream merge/push runs here, on one thread.
        for (batch_ix, &(entry_seq, sid)) in batch.iter().enumerate() {
            // A back-edge push from an earlier member of this batch can
            // carry a higher priority than the remaining members; serial
            // processing would pop it first. Requeue the rest of the batch
            // with their original sequence numbers — restoring the exact
            // heap state — and drain again. Precomputed transfers for
            // requeued members stay in the `speculative` memo and are
            // reclaimed on the next drain.
            if batch_ix > 0 {
                if let Some(&Reverse((r, sq, _, _))) = worklist.peek() {
                    if (r, sq) < (rank, entry_seq) {
                        for &(q, d) in &batch[batch_ix..] {
                            worklist.push(Reverse((rank, q, node, d)));
                        }
                        continue 'outer;
                    }
                }
            }
            let s = st.interner.resolve(sid).clone();
            for &edge_ix in cfg.out_edges(node) {
                let edge = &cfg.edges()[edge_ix];
                for (action_ix, action) in instance.actions[edge_ix].iter().enumerate() {
                    st.visits += 1;
                    if st.visits > config.max_visits || st.live > config.max_structures {
                        st.outcome = AnalysisOutcome::BudgetExceeded;
                        st.metrics.counters.add(Counter::BudgetExhausted, 1);
                        if let Some(flag) = ctx.cancel {
                            flag.store(true, Ordering::Relaxed);
                        }
                        return Err(Stop);
                    }
                    if st.visits.is_multiple_of(CANCEL_CHECK_INTERVAL) {
                        if let Some(flag) = ctx.cancel {
                            if flag.load(Ordering::Relaxed) {
                                st.outcome = AnalysisOutcome::BudgetExceeded;
                                st.metrics.counters.add(Counter::Cancelled, 1);
                                return Err(Stop);
                            }
                        }
                    }
                    // The transfer function is a pure function of the
                    // (interned) pre-structure and the action, so its output
                    // — canonical post ids, violations, peak universe size —
                    // can be replayed exactly from the cache. Everything
                    // downstream (merge keys, state-set insertion, worklist
                    // pushes, structure counting) runs through `commit_post`
                    // either way.
                    let cache_key = (ctx.action_ids[edge_ix][action_ix], sid);
                    // Claim any precomputed transfer for this application up
                    // front: if the caches hit after all (a misprediction),
                    // the speculative result is simply dropped, exactly like
                    // the inline computation it replaced would never have
                    // run.
                    let precomp = st.speculative.remove(&cache_key);
                    let mut replay: Option<Vec<StructureId>> = None;
                    // Encoded pre-structure of a shared-store probe that
                    // missed, kept so the compute path records the result
                    // without re-encoding.
                    let mut shared_input: Option<Vec<u64>> = None;
                    if config.transfer_cache {
                        let local_hit = {
                            let EngineSt { cache, metrics, .. } = &mut *st;
                            cache.get(&cache_key, metrics).map(|entry| {
                                (
                                    entry.posts.clone(),
                                    entry.violations.clone(),
                                    entry.peak_post_nodes,
                                )
                            })
                        };
                        if let Some((posts, violations, peak_post_nodes)) = local_hit {
                            st.metrics.counters.add(Counter::TransferCacheHits, 1);
                            if !violations.is_empty() {
                                for (label, definite) in &violations {
                                    st.note_violation(edge.line, label, *definite);
                                }
                                st.note_failing_structure(instance, &s);
                            }
                            st.raise_peak_nodes(peak_post_nodes);
                            replay = Some(posts);
                        } else {
                            let probe = match st.shared_scope.as_ref() {
                                Some(scope) => {
                                    let words = s.to_words();
                                    match scope.probe(cache_key.0, &words, table) {
                                        Some(hit) => Some(Ok(hit)),
                                        None => Some(Err(words)),
                                    }
                                }
                                None => None,
                            };
                            match probe {
                                Some(Ok(hit)) => {
                                    // A shared hit replaces — not joins — the
                                    // local miss: the pipeline is skipped, so
                                    // only `SharedCacheHits` advances and a
                                    // warm corpus run reports strictly fewer
                                    // transfer-cache misses than a cold one.
                                    st.metrics.counters.add(Counter::SharedCacheHits, 1);
                                    let TransferPayload {
                                        violations,
                                        peak_post_nodes,
                                    } = hit.payload;
                                    let peak_post_nodes = peak_post_nodes as usize;
                                    if !violations.is_empty() {
                                        for (label, definite) in &violations {
                                            st.note_violation(edge.line, label, *definite);
                                        }
                                        st.note_failing_structure(instance, &s);
                                    }
                                    st.raise_peak_nodes(peak_post_nodes);
                                    // Stored posts are the exact canonical
                                    // blur outputs of the original compute,
                                    // so interning them replays the cold
                                    // run's id assignment.
                                    let posts: Vec<StructureId> = hit
                                        .structures
                                        .into_iter()
                                        .map(|p| st.interner.intern(p))
                                        .collect();
                                    {
                                        let EngineSt { cache, metrics, .. } = &mut *st;
                                        cache.insert(
                                            cache_key,
                                            TransferEntry {
                                                posts: posts.clone(),
                                                violations,
                                                peak_post_nodes,
                                            },
                                            metrics,
                                        );
                                    }
                                    replay = Some(posts);
                                }
                                Some(Err(words)) => {
                                    st.metrics.counters.add(Counter::SharedCacheMisses, 1);
                                    shared_input = Some(words);
                                }
                                None => {}
                            }
                        }
                    }
                    let post_ids = match replay {
                        Some(posts) => posts,
                        None => {
                            if config.transfer_cache {
                                st.metrics.counters.add(Counter::TransferCacheMisses, 1);
                            }
                            // Consume the precomputed transfer if phase 2
                            // produced one for this application; otherwise
                            // (speculation off, below the fan-out threshold,
                            // cancelled before start) compute inline. Both
                            // sides are `compute_transfer` on identical
                            // inputs, so the merged-in metrics and the
                            // results are byte-identical either way.
                            let (blurred, violations, peak_post_nodes) = match precomp {
                                Some(c) => {
                                    st.metrics.merge(&c.metrics);
                                    (c.posts, c.violations, c.peak_post_nodes)
                                }
                                None => {
                                    let EngineSt { metrics, .. } = &mut *st;
                                    compute_transfer(
                                        action,
                                        &s,
                                        table,
                                        &ctx.plan,
                                        config.focus_limit,
                                        metrics,
                                    )
                                }
                            };
                            if !violations.is_empty() {
                                for (label, definite) in &violations {
                                    st.note_violation(edge.line, label, *definite);
                                }
                                st.note_failing_structure(instance, &s);
                            }
                            let mut posts = Vec::with_capacity(blurred.len());
                            for keyed in blurred {
                                posts.push(st.interner.intern(keyed));
                            }
                            st.raise_peak_nodes(peak_post_nodes);
                            if shared_input.is_some() {
                                let EngineSt {
                                    interner,
                                    shared_scope,
                                    ..
                                } = &mut *st;
                                if let (Some(scope), Some(input)) =
                                    (shared_scope.as_mut(), shared_input.take())
                                {
                                    let post_words = posts
                                        .iter()
                                        .map(|&id| interner.resolve(id).to_words())
                                        .collect();
                                    scope.record(
                                        cache_key.0,
                                        input,
                                        post_words,
                                        TransferPayload {
                                            violations: violations.clone(),
                                            peak_post_nodes: saturating_u32(peak_post_nodes),
                                        },
                                    );
                                }
                            }
                            if config.transfer_cache {
                                let EngineSt { cache, metrics, .. } = &mut *st;
                                cache.insert(
                                    cache_key,
                                    TransferEntry {
                                        posts: posts.clone(),
                                        violations,
                                        peak_post_nodes,
                                    },
                                    metrics,
                                );
                            }
                            posts
                        }
                    };
                    for keyed_id in post_ids {
                        commit_post(
                            ctx, st, states, worklist, seq, base, edge.to, keyed_id, &mut sink,
                        );
                    }
                }
            }
        }
    }
    Ok(())
}

/// Commits one post-structure at node `to` of the caller's state slice:
/// merge-keys it, joins or inserts per the merge policy, and pushes changed
/// representatives onto the caller's worklist. Arrivals at a region sink's
/// exit node are collected instead (deduplicated, arrival order) — the
/// region's caller commits them against its own states.
#[allow(clippy::too_many_arguments)]
fn commit_post(
    ctx: &EngineCtx<'_>,
    st: &mut EngineSt<'_>,
    states: &mut [HashMap<MergeKey, StructureId>],
    worklist: &mut BinaryHeap<Reverse<(u32, u64, usize, StructureId)>>,
    seq: &mut u64,
    base: usize,
    to: usize,
    keyed_id: StructureId,
    sink: &mut Option<RegionSink<'_>>,
) {
    if let Some(sink) = sink.as_mut() {
        if to == sink.exit {
            if sink.seen.insert(keyed_id) {
                sink.exits.push(keyed_id);
            }
            return;
        }
    }
    let key = {
        let EngineSt {
            metrics, interner, ..
        } = &mut *st;
        metrics.time(Phase::Merge, || {
            merge_key(interner, keyed_id, ctx.instance, ctx.config.merge)
        })
    };
    match states[to - base].get(&key) {
        None => {
            st.bump_live();
            states[to - base].insert(key, keyed_id);
            worklist.push(Reverse((ctx.rpo[to], *seq, to, keyed_id)));
            *seq += 1;
            st.metrics.counters.add(Counter::WorklistPushes, 1);
            st.metrics
                .counters
                .raise(Counter::WorklistPeakDepth, worklist.len() as u64);
        }
        Some(&existing) if existing == keyed_id => {}
        Some(&existing) => {
            // Join into the existing representative. The raw union may
            // violate uniqueness/functionality constraints across the merged
            // states; weaken those conflicts to 1/2 so coerce does not
            // discard the join.
            st.metrics.counters.add(Counter::MergeJoins, 1);
            let table = &ctx.instance.vocab.table;
            let merged = {
                let EngineSt {
                    metrics, interner, ..
                } = &mut *st;
                metrics.time(Phase::Merge, || {
                    let ex = interner.resolve(existing);
                    let ky = interner.resolve(keyed_id);
                    blur(
                        &hetsep_tvl::merge::weaken_union_conflicts(&ex.union(ky), table),
                        table,
                    )
                })
            };
            let merged_id = st.interner.intern(merged);
            if merged_id != existing {
                states[to - base].insert(key, merged_id);
                worklist.push(Reverse((ctx.rpo[to], *seq, to, merged_id)));
                *seq += 1;
                st.metrics.counters.add(Counter::WorklistPushes, 1);
                st.metrics
                    .counters
                    .raise(Counter::WorklistPeakDepth, worklist.len() as u64);
            }
        }
    }
}

/// Evaluates a call region for one entry structure: the memoized layer over
/// [`compute_region`]. With summaries off the region is recomputed every
/// time — same nested drain, no memo — so results cannot depend on the flag.
///
/// Counter discipline: every evaluation counts [`Counter::CallEvaluations`]
/// and exactly one of [`Counter::SummaryHits`] (replayed) or
/// [`Counter::SummaryMisses`] (computed, or a memo/shared hit refused by the
/// budget guard). A shared-store hit additionally counts
/// [`Counter::SharedSummaryHits`], whether or not it is replayable.
fn eval_region(
    ctx: &EngineCtx<'_>,
    st: &mut EngineSt<'_>,
    region_ix: usize,
    input: StructureId,
) -> Result<Rc<RegionSummary>, Stop> {
    if !ctx.summaries_active {
        return compute_region(ctx, st, region_ix, input, false);
    }
    st.metrics.counters.add(Counter::CallEvaluations, 1);
    let key = (ctx.region_contents[region_ix], input);
    let mut memoized = st.memo.get(&key).cloned();
    if memoized.is_none() {
        let hit = match st.summary_scope.as_ref() {
            Some(scope) => {
                let words = st.interner.resolve(input).to_words();
                scope.probe(key.0, &words, &ctx.instance.vocab.table)
            }
            None => None,
        };
        if let Some(hit) = hit {
            st.metrics.counters.add(Counter::SharedSummaryHits, 1);
            // Stored exits are the exact canonical structures of the
            // original nested drain, so interning them replays the cold
            // run's id assignment.
            let mut exits = Vec::with_capacity(hit.structures.len());
            for x in hit.structures {
                exits.push(st.interner.intern(x));
            }
            let payload = hit.payload;
            let mut failing: Vec<SiteId> = payload
                .failing_preds
                .iter()
                .filter_map(|p| ctx.site_of_pred.get(p).copied())
                .collect();
            failing.sort_unstable();
            let summary = Rc::new(RegionSummary {
                exits,
                violations: payload.violations,
                failing,
                visits: payload.visits,
                peak_extra: payload.peak_extra as usize,
                peak_nodes: payload.peak_nodes as usize,
            });
            st.memo.insert(key, summary.clone());
            memoized = Some(summary);
        }
    }
    if let Some(summary) = memoized {
        if st.replay_fits(&summary, ctx.config) {
            st.metrics.counters.add(Counter::SummaryHits, 1);
            st.replay(ctx, &summary);
            return Ok(summary);
        }
        st.metrics.counters.add(Counter::SummaryMisses, 1);
        return compute_region(ctx, st, region_ix, input, false);
    }
    st.metrics.counters.add(Counter::SummaryMisses, 1);
    compute_region(ctx, st, region_ix, input, true)
}

/// Runs a call region as a nested subproblem of one entry structure:
/// region-local states and worklist, drained by the same batched loop as
/// the global run (sharing the interner, caches and counters through `st`).
/// Region-local structures are discarded when the drain finishes — only the
/// exit structures escape, committed by the caller — so `N` spliced copies
/// of a procedure cost one body's peak footprint at a time, not `N`.
fn compute_region(
    ctx: &EngineCtx<'_>,
    st: &mut EngineSt<'_>,
    region_ix: usize,
    input: StructureId,
    record: bool,
) -> Result<Rc<RegionSummary>, Stop> {
    let region = &ctx.instance.cfg.regions()[region_ix];
    let entry = region.entry.index();
    let base = region.nodes().start;
    let live_base = st.live;
    let visits_base = st.visits;
    st.recorders.push(Recorder {
        live_base,
        peak_extra: 0,
        peak_nodes: 0,
        violations: HashMap::new(),
        failing: HashSet::new(),
    });
    let mut states: Vec<HashMap<MergeKey, StructureId>> =
        vec![HashMap::new(); region.nodes().len()];
    let mut worklist: BinaryHeap<Reverse<(u32, u64, usize, StructureId)>> = BinaryHeap::new();
    let mut exits: Vec<StructureId> = Vec::new();
    // Region drains only run under the powerset policy, so the entry seed's
    // merge key is its own id — no timed merge-key pass, and the input is
    // not re-counted against the live total (it is already stored at the
    // caller's entry-node state).
    states[entry - base].insert(MergeKey::Whole(input), input);
    let mut seq: u64 = 0;
    worklist.push(Reverse((ctx.rpo[entry], seq, entry, input)));
    seq += 1;
    let sink = RegionSink {
        exit: region.exit.index(),
        exits: &mut exits,
        seen: HashSet::new(),
    };
    drain(
        ctx,
        st,
        &mut states,
        &mut worklist,
        &mut seq,
        base,
        Some(entry),
        Some(sink),
        false,
    )?;
    let rec = st.recorders.pop().expect("recorder pushed above");
    st.live = live_base;
    let mut violations: Vec<(u32, String, bool)> = rec
        .violations
        .into_iter()
        .map(|((line, label), definite)| (line, label, definite))
        .collect();
    violations.sort();
    let mut failing: Vec<SiteId> = rec.failing.into_iter().collect();
    failing.sort_unstable();
    let summary = Rc::new(RegionSummary {
        exits,
        violations,
        failing,
        visits: st.visits - visits_base,
        peak_extra: rec.peak_extra,
        peak_nodes: rec.peak_nodes,
    });
    if record {
        st.memo
            .insert((ctx.region_contents[region_ix], input), summary.clone());
        if let Some(mut scope) = st.summary_scope.take() {
            let input_words = st.interner.resolve(input).to_words();
            let exit_words: Vec<Vec<u64>> = summary
                .exits
                .iter()
                .map(|&x| st.interner.resolve(x).to_words())
                .collect();
            let mut failing_preds: Vec<u32> = summary
                .failing
                .iter()
                .filter_map(|s| ctx.pred_of_site.get(s).copied())
                .collect();
            failing_preds.sort_unstable();
            scope.record(
                ctx.region_contents[region_ix],
                input_words,
                exit_words,
                SummaryPayload {
                    violations: summary.violations.clone(),
                    failing_preds,
                    visits: summary.visits,
                    peak_extra: saturating_u32(summary.peak_extra),
                    peak_nodes: saturating_u32(summary.peak_nodes),
                },
            );
            st.summary_scope = Some(scope);
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::{translate, TranslateOptions};

    fn run_src(src: &str) -> RunResult {
        let program = hetsep_ir::parse_program(src).unwrap();
        let spec = hetsep_easl::builtin::by_name(&program.uses).unwrap();
        let inst = translate(&program, &spec, &TranslateOptions::default()).unwrap();
        run(&inst, &EngineConfig::default())
    }

    #[test]
    fn straightline_correct_program_verifies() {
        let r = run_src(
            "program P uses IOStreams; void main() {\n\
             InputStream f = new InputStream();\n\
             f.read();\n\
             f.close();\n}",
        );
        assert!(r.verified(), "{:?}", r.errors);
        assert!(r.stats.visits > 0);
    }

    #[test]
    fn read_after_close_detected() {
        let r = run_src(
            "program P uses IOStreams; void main() {\n\
             InputStream f = new InputStream();\n\
             f.close();\n\
             f.read();\n}",
        );
        assert_eq!(r.errors.len(), 1);
        assert_eq!(r.errors[0].line, 4);
        assert!(r.errors[0].definite);
    }

    #[test]
    fn branch_sensitive_close() {
        // close() in one branch only: the read after the join is a possible
        // error.
        let r = run_src(
            "program P uses IOStreams; void main() {\n\
             InputStream f = new InputStream();\n\
             if (?) {\n\
             f.close();\n\
             }\n\
             f.read();\n}",
        );
        assert_eq!(r.errors.len(), 1);
        assert_eq!(r.errors[0].line, 6);
    }

    #[test]
    fn loop_with_fresh_streams_verifies() {
        // The Fig. 3 pattern (with InputStream): our integrated analysis
        // verifies it even without separation, thanks to materialization.
        let r = run_src(
            "program P uses IOStreams; void main() {\n\
             while (?) {\n\
             InputStream f = new InputStream();\n\
             f.read();\n\
             f.close();\n\
             }\n}",
        );
        assert!(r.verified(), "{:?}", r.errors);
    }

    #[test]
    fn aliasing_through_assignment_tracked() {
        let r = run_src(
            "program P uses IOStreams; void main() {\n\
             InputStream a = new InputStream();\n\
             InputStream b = a;\n\
             b.close();\n\
             a.read();\n}",
        );
        assert_eq!(r.errors.len(), 1, "close through alias must be seen");
        assert_eq!(r.errors[0].line, 5);
    }

    #[test]
    fn heap_roundtrip_through_holder() {
        let r = run_src(
            "program P uses IOStreams;\n\
             class Holder { InputStream s; }\n\
             void main() {\n\
             Holder h = new Holder();\n\
             InputStream f = new InputStream();\n\
             h.s = f;\n\
             f = null;\n\
             InputStream g = h.s;\n\
             g.read();\n\
             g.close();\n}",
        );
        assert!(r.verified(), "{:?}", r.errors);
    }

    #[test]
    fn jdbc_implicit_close_error_found() {
        // The essence of Fig. 1: two executeQuery calls on one Statement,
        // then next() on the first ResultSet.
        let r = run_src(
            "program P uses JDBC; void main() {\n\
             ConnectionManager cm = new ConnectionManager();\n\
             Connection con = cm.getConnection();\n\
             Statement st = cm.createStatement(con);\n\
             ResultSet rs1 = st.executeQuery(\"a\");\n\
             ResultSet rs2 = st.executeQuery(\"b\");\n\
             while (rs1.next()) {\n\
             }\n}",
        );
        assert_eq!(r.errors.len(), 1, "{:?}", r.errors);
        assert_eq!(r.errors[0].line, 7);
    }

    #[test]
    fn jdbc_correct_usage_verifies() {
        let r = run_src(
            "program P uses JDBC; void main() {\n\
             ConnectionManager cm = new ConnectionManager();\n\
             Connection con = cm.getConnection();\n\
             Statement st = cm.createStatement(con);\n\
             ResultSet rs1 = st.executeQuery(\"a\");\n\
             while (rs1.next()) {\n\
             }\n\
             ResultSet rs2 = st.executeQuery(\"b\");\n\
             while (rs2.next()) {\n\
             }\n\
             con.close();\n}",
        );
        assert!(r.verified(), "{:?}", r.errors);
    }

    #[test]
    fn metrics_collection_is_observation_only() {
        let src = "program P uses IOStreams; void main() {\n\
                   InputStream f = new InputStream();\n\
                   if (?) {\n\
                   f.close();\n\
                   }\n\
                   f.read();\n}";
        let program = hetsep_ir::parse_program(src).unwrap();
        let spec = hetsep_easl::builtin::iostreams();
        let inst = translate(&program, &spec, &TranslateOptions::default()).unwrap();
        let plain = run(&inst, &EngineConfig::default());
        let timed = run(
            &inst,
            &EngineConfig {
                phase_timings: true,
                ..EngineConfig::default()
            },
        );
        // Identical results and identical *counts* either way; only the
        // sampled durations may differ.
        assert_eq!(plain.errors, timed.errors);
        assert_eq!(plain.stats.visits, timed.stats.visits);
        assert_eq!(plain.stats.structures, timed.stats.structures);
        assert_eq!(
            plain.stats.metrics.counters, timed.stats.metrics.counters,
            "counters must not depend on the timing flag"
        );
        for phase in hetsep_tvl::telemetry::Phase::ALL {
            assert_eq!(
                plain.stats.metrics.phases.get(phase).count,
                timed.stats.metrics.phases.get(phase).count,
                "phase {phase} count must not depend on the timing flag"
            );
            assert_eq!(plain.stats.metrics.phases.get(phase).nanos, 0);
        }

        let m = &plain.stats.metrics;
        use hetsep_tvl::telemetry::{Counter, Phase};
        // The transfer cache (on by default) skips the focus phase on hits:
        // focus runs exactly once per cache miss, and every application is
        // either a hit or a miss.
        assert_eq!(
            m.phases.get(Phase::Focus).count,
            m.counters.get(Counter::TransferCacheMisses)
        );
        assert_eq!(
            m.counters.get(Counter::TransferCacheHits)
                + m.counters.get(Counter::TransferCacheMisses),
            plain.stats.visits,
            "every application is answered by the cache or computed"
        );
        assert!(m.phases.get(Phase::Canon).count > 0);
        assert!(m.counters.get(Counter::PostStructures) > 0);
        assert!(m.counters.get(Counter::WorklistPushes) > 0);
        assert!(m.counters.get(Counter::WorklistPeakDepth) > 0);
        assert_eq!(
            m.counters.get(Counter::InternMisses),
            plain.stats.distinct_structures as u64,
            "every interner miss materializes one distinct structure"
        );
        assert_eq!(m.per_location.len(), plain.stats.locations);
        assert_eq!(
            m.counters.get(Counter::BudgetExhausted) + m.counters.get(Counter::Cancelled),
            0
        );
    }

    #[test]
    fn preset_cancel_flag_stops_run_before_any_structure() {
        // The flag is polled at the top of every worklist visit: a flag that
        // is already raised when the run starts must stop it before a single
        // action is applied or a post-structure produced.
        let program = hetsep_ir::parse_program(
            "program P uses IOStreams; void main() {\n\
             InputStream f = new InputStream();\n\
             f.read();\n\
             f.close();\n}",
        )
        .unwrap();
        let spec = hetsep_easl::builtin::iostreams();
        let inst = translate(&program, &spec, &TranslateOptions::default()).unwrap();
        let flag = AtomicBool::new(true);
        let r = run_cancellable(&inst, &EngineConfig::default(), Some(&flag));
        assert_eq!(r.outcome, AnalysisOutcome::BudgetExceeded);
        assert_eq!(r.stats.visits, 0, "no action may be applied");
        use hetsep_tvl::telemetry::Counter;
        assert_eq!(
            r.stats
                .metrics
                .counters
                .get(Counter::PostStructures),
            0,
            "no structure may be produced"
        );
        assert_eq!(r.stats.metrics.counters.get(Counter::Cancelled), 1);
        assert!(r.errors.is_empty());
    }

    #[test]
    fn budget_exhaustion_reported() {
        let program = hetsep_ir::parse_program(
            "program P uses IOStreams; void main() {\n\
             while (?) {\n\
             InputStream f = new InputStream();\n\
             f.read();\n\
             f.close();\n\
             }\n}",
        )
        .unwrap();
        let spec = hetsep_easl::builtin::iostreams();
        let inst = translate(&program, &spec, &TranslateOptions::default()).unwrap();
        let r = run(
            &inst,
            &EngineConfig {
                max_visits: 3,
                ..EngineConfig::default()
            },
        );
        assert_eq!(r.outcome, AnalysisOutcome::BudgetExceeded);
        assert!(!r.verified());
        assert_eq!(
            r.stats
                .metrics
                .counters
                .get(hetsep_tvl::telemetry::Counter::BudgetExhausted),
            1
        );
    }
}
