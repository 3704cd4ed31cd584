//! # hetsep-core
//!
//! The separation-based verification engine of the paper: translation of a
//! (client program, Easl specification, separation strategy) triple into a
//! first-order transition system, and a forward abstract interpretation over
//! canonically-abstracted 3-valued structures with *heterogeneous
//! abstraction* — relevant objects abstracted precisely, irrelevant objects
//! collapsed.
//!
//! Two entry points, one engine:
//!
//! * **One-shot**: the [`Verifier`] builder (the [`verify`] free function is
//!   a backward-compatible thin wrapper over it) borrows a parsed program
//!   and spec for a single run.
//! * **Owned sessions**: a [`Workspace`] owns artifacts registered from
//!   source text — content-fingerprinted, parsed and stored once per
//!   distinct content — plus a mounted cross-request transfer store, so
//!   repeat [`Workspace::verify`] calls replay memoized transfers instead
//!   of recomputing them. [`Session`] layers the `hetsep serve` wire
//!   protocol's name bindings on top. Both surfaces funnel into the same
//!   engine entry point, so their verdicts are byte-identical by
//!   construction.
//!
//! Verification runs under a [`Mode`] (its strategy-free family is
//! [`ModeKind`]):
//!
//! * [`Mode::Vanilla`] — TVLA-style verification without separation,
//! * [`Mode::Separation`] — one strategy stage; either *simultaneous* (all
//!   subproblems explored in one run via the non-deterministic `choose some`)
//!   or per-allocation-site subproblem scheduling (the paper's
//!   non-simultaneous mode, which reduces the peak memory footprint),
//! * [`Mode::Incremental`] — a sequence of stages, each restricted to the
//!   allocation sites that failed the previous one.
//!
//! # Example
//!
//! ```
//! use hetsep_core::{Verifier, Mode};
//!
//! let program = hetsep_ir::parse_program(
//!     "program P uses IOStreams; void main() {\n\
//!        InputStream f = new InputStream();\n\
//!        f.read();\n\
//!        f.close();\n\
//!      }",
//! )
//! .unwrap();
//! let spec = hetsep_easl::builtin::iostreams();
//! let report = Verifier::new(&program, &spec).mode(Mode::Vanilla).run().unwrap();
//! assert!(report.errors.is_empty());
//! ```

pub mod concrete;
pub mod engine;
pub mod jobcache;
pub mod liveness;
pub mod modes;
pub mod parallel;
pub mod refine;
pub mod relevance;
pub mod report;
pub mod semantics;
pub mod session;
pub mod store;
pub mod summary;
pub mod translate;
pub mod vocab;
pub mod workspace;

pub use engine::{AnalysisOutcome, EngineConfig, ParallelConfig, RunStats};
pub use jobcache::{SharedTransferSession, TransferStore};
pub use store::CacheFile;
pub use summary::{SharedSummarySession, SummaryStore};
pub use parallel::map_ordered;
pub use hetsep_tvl::telemetry::{
    Counter, Counters, Event, EventSink, MetricsSink, NullSink, Phase, PhaseStats, PhaseTimings,
    RunMetrics, TraceWriter,
};
pub use modes::{
    verify, verify_with_sink, Mode, ModeKind, PreanalysisSummary, SubproblemStats,
    VerificationReport, Verifier,
};
pub use report::{ErrorReport, VerifyError};
pub use session::Session;
pub use translate::{translate, AnalysisInstance, TranslateOptions};
pub use vocab::Vocabulary;
pub use workspace::{
    ProgramId, Registered, SpecId, StrategyId, VerifyOutput, VerifyRequest, Workspace,
};
