//! `serve-edit`: one client in a closed loop driving `Session::handle_line`
//! through a seeded editing session, and the session-layer probe the other
//! workloads use.
//!
//! The client keeps eight programs open, one per generator family and mode
//! of the corpus draw: JDBC clients and collection kernels under `single`
//! and `sim`, the `db` analog under `single`, and SQLExecutor-style
//! frameworks under `single`, `sim` and `inc`. Each step picks one and edits
//! it: a bug added or fixed, a connection, collection, table or executor
//! added or removed, lifetimes interleaved or not, or the query count
//! changed. It then rebinds the name to the edited source, re-verifies and
//! lints; every eighth step it also asks for status. The daemon answers one
//! request at a time, so the next request waits for the previous answer: a
//! closed loop with one client. The session starts from an empty
//! workspace, as `hetsep serve` does without `--cache`.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use hetsep::core::workspace::VerifyRequest;
use hetsep::core::{CacheFile, EngineConfig, ModeKind, Session, Workspace};
use hetsep::ir::{Request, Response};
use hetsep::strategy::builtin as strategies;
use hetsep::suite::generators::{
    db_program, jdbc_client, kernel, sql_executor, JdbcWorkload, KernelWorkload,
    SqlExecutorWorkload,
};
use hetsep_prng::XorShift;

use crate::corpus::sched_probe;
use crate::draw::{jdbc_workload, kernel_workload};
use crate::layers::{front_end, EngineTotals, FrontInput};
use crate::stats::{median, ms, Metrics};
use crate::{end_to_end, record_store, Expect, Outcome, Params};

/// Editing steps per second of `--seconds`, calibrated so the measured
/// phase runs for about that long on a 2-CPU host.
pub const STEPS_PER_SECOND: usize = 150;

/// Edits between two saves of a file. With one edit per save the shapes
/// form a slow random walk, and how long a seed dwells on the costly
/// shapes moved the session's throughput by 15% from seed to seed; three
/// mix fast enough that seeds agree to within the host's own noise.
pub const EDITS_PER_SAVE: usize = 3;

/// One request of a scripted session.
#[derive(Debug, Clone)]
pub struct Step {
    /// The request.
    pub request: Request,
    /// Its wire line, as the client sends it.
    pub line: String,
    /// The known answer.
    pub expect: Expect,
}

impl Step {
    fn new(request: Request, expect: Expect) -> Step {
        Step {
            line: request.to_json(),
            request,
            expect,
        }
    }
}

/// A session script: set-up requests, then the measured requests.
#[derive(Debug, Clone, Default)]
pub struct Script {
    /// Strategy and initial program loads.
    pub setup: Vec<Step>,
    /// The edit / verify / lint loop.
    pub steps: Vec<Step>,
}

/// Per-op time inside `handle_line`, encode time, and verdict latencies.
#[derive(Debug, Default)]
pub struct OpLog {
    /// `load_program` / `load_strategy`.
    pub load: Duration,
    /// `verify`.
    pub verify: Duration,
    /// `lint`.
    pub lint: Duration,
    /// `Response::to_json` over every response.
    pub encode: Duration,
    /// Per verify: `handle_line` plus encoding, in ms.
    pub verdict_ms: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered other than expected.
    pub failed: u64,
}

/// Sends each step's line and checks the answer.
pub fn drive(session: &mut Session, steps: &[Step], log: &mut OpLog) {
    for step in steps {
        let start = Instant::now();
        let response = session.handle_line(&step.line);
        let handled = start.elapsed();
        let start = Instant::now();
        std::hint::black_box(response.to_json());
        let encoded = start.elapsed();
        log.encode += encoded;
        log.attempted += 1;
        let ok = match (step.expect, &response) {
            (Expect::Loaded, Response::Loaded { .. }) => {
                log.load += handled;
                true
            }
            (Expect::Verdict { .. }, Response::Verify(o)) => {
                log.verify += handled;
                log.verdict_ms.push(ms(handled + encoded));
                step.expect.accepts(&o.verdict, o.errors.len())
            }
            (Expect::Lint, Response::Lint { .. }) => {
                log.lint += handled;
                true
            }
            (Expect::Status, Response::Status(_)) => true,
            _ => false,
        };
        if !ok {
            log.failed += 1;
            eprintln!("unexpected answer to {}: {}", step.line, response.to_json());
        }
    }
}

impl OpLog {
    /// Records the `session.*` and `protocol.*` figures.
    pub fn record(&self, session: &Session, m: &mut Metrics) {
        m.seconds("session.load_s", self.load);
        m.seconds("session.verify_s", self.verify);
        m.seconds("session.lint_s", self.lint);
        m.seconds("protocol.encode_s", self.encode);
        m.count(
            "session.lint_cache_hits",
            session.workspace().lint_cache_hits(),
        );
    }
}

/// A program under edit.
#[derive(Debug, Clone)]
enum Shape {
    Jdbc(JdbcWorkload),
    Kernel(KernelWorkload),
    Db(usize),
    Sql(SqlExecutorWorkload),
}

impl Shape {
    /// A starting shape of `family`, from the draw's ranges.
    fn draw(family: &str, file: u64, rng: &mut XorShift) -> Shape {
        match family {
            // The interleaving shuffle is fixed per file: edits change
            // everything else, and each seed should reach the same shapes.
            "jdbc" => Shape::Jdbc(JdbcWorkload {
                seed: file,
                ..jdbc_workload(rng)
            }),
            "kernel" => Shape::Kernel(kernel_workload(rng)),
            "db" => Shape::Db(1 + rng.gen_range(3)),
            _ => Shape::Sql(SqlExecutorWorkload {
                executors: 1 + rng.gen_range(2),
                queries: 1 + rng.gen_range(2),
            }),
        }
    }

    fn source(&self) -> String {
        match self {
            Shape::Jdbc(w) => jdbc_client("Client", w),
            Shape::Kernel(w) => kernel("Kernel", w),
            Shape::Db(tables) => db_program(*tables),
            Shape::Sql(w) => sql_executor(w),
        }
    }

    fn buggy(&self) -> bool {
        match self {
            Shape::Jdbc(w) => w.buggy_connection.is_some(),
            Shape::Kernel(w) => w.buggy_collection.is_some(),
            Shape::Db(_) | Shape::Sql(_) => false,
        }
    }

    /// One edit, keeping every parameter in the draw's ranges.
    fn edit(&mut self, rng: &mut XorShift) {
        match self {
            Shape::Jdbc(w) => {
                if rng.gen_ratio(1, 4) {
                    w.queries_per_connection = grow_or_shrink(w.queries_per_connection, 2, rng);
                } else {
                    edit_components(
                        &mut w.connections,
                        &mut w.buggy_connection,
                        &mut w.interleaved,
                        rng,
                    );
                }
            }
            Shape::Kernel(w) => edit_components(
                &mut w.collections,
                &mut w.buggy_collection,
                &mut w.interleaved,
                rng,
            ),
            Shape::Db(tables) => *tables = grow_or_shrink(*tables, 3, rng),
            Shape::Sql(w) => {
                if rng.gen_bool() {
                    w.executors = grow_or_shrink(w.executors, 2, rng);
                } else {
                    w.queries = grow_or_shrink(w.queries, 2, rng);
                }
            }
        }
    }
}

/// Adds or fixes the bug, adds or removes a component (1..=3), or
/// interleaves or un-interleaves the components' lifetimes.
fn edit_components(
    count: &mut usize,
    bug: &mut Option<usize>,
    interleaved: &mut bool,
    rng: &mut XorShift,
) {
    match rng.gen_range(3) {
        0 => {
            *bug = match bug {
                Some(_) => None,
                None => Some(rng.gen_range(*count)),
            }
        }
        1 => {
            *count = grow_or_shrink(*count, 3, rng);
            *bug = bug.map(|b| b.min(*count - 1));
        }
        _ => *interleaved = !*interleaved,
    }
}

fn grow_or_shrink(n: usize, max: usize, rng: &mut XorShift) -> usize {
    match n {
        1 => 2,
        n if n == max => n - 1,
        n if rng.gen_bool() => n + 1,
        n => n - 1,
    }
}

/// A file the client keeps open.
struct File {
    name: String,
    shape: Shape,
    strategy: &'static str,
    mode: ModeKind,
}

/// The editing session for `seed` with `steps` edit steps.
pub fn edit_script(seed: u64, steps: usize) -> Script {
    let mut rng = XorShift::new(seed);
    let strategy_names = [
        ("jdbc", strategies::JDBC_SINGLE),
        ("jdbc_inc", strategies::JDBC_INCREMENTAL),
        ("cmp", strategies::CMP_SINGLE),
        ("io", strategies::IOSTREAM_SINGLE),
    ];
    // One file per (family, mode) the draw uses, so every seed verifies
    // the same mode mix; the seed picks the shapes and the edits.
    let mut files: Vec<File> = [
        ("jdbc", "jdbc", ModeKind::Single),
        ("jdbc", "jdbc", ModeKind::Sim),
        ("kernel", "cmp", ModeKind::Single),
        ("kernel", "cmp", ModeKind::Sim),
        ("db", "io", ModeKind::Single),
        ("sqlexec", "jdbc", ModeKind::Single),
        ("sqlexec", "jdbc", ModeKind::Sim),
        ("sqlexec", "jdbc_inc", ModeKind::Inc),
    ]
    .into_iter()
    .enumerate()
    .map(|(ix, (family, strategy, mode))| File {
        name: format!("f{ix}"),
        shape: Shape::draw(family, ix as u64, &mut rng),
        strategy,
        mode,
    })
    .collect();

    let mut script = Script::default();
    for (name, source) in strategy_names {
        script.setup.push(Step::new(
            Request::LoadStrategy {
                name: name.into(),
                source: source.into(),
            },
            Expect::Loaded,
        ));
    }
    for f in &files {
        script.setup.push(load(f));
    }
    // The first verify of each file is part of the measured loop.
    for f in &files {
        script.steps.push(verify(f));
    }
    for step in 0..steps {
        let ix = rng.gen_range(files.len());
        let f = &mut files[ix];
        for _ in 0..EDITS_PER_SAVE {
            f.shape.edit(&mut rng);
        }
        script.steps.push(load(f));
        script.steps.push(verify(f));
        script.steps.push(Step::new(
            Request::Lint {
                program: f.name.clone(),
                spec: None,
                strategy: Some(f.strategy.into()),
            },
            Expect::Lint,
        ));
        if step % 8 == 7 {
            script
                .steps
                .push(Step::new(Request::Status, Expect::Status));
        }
    }
    script
}

fn load(f: &File) -> Step {
    Step::new(
        Request::LoadProgram {
            name: f.name.clone(),
            source: f.shape.source(),
        },
        Expect::Loaded,
    )
}

fn verify(f: &File) -> Step {
    Step::new(
        Request::Verify {
            program: f.name.clone(),
            spec: None,
            strategy: Some(f.strategy.into()),
            mode: Some(f.mode.as_str().into()),
        },
        Expect::Verdict {
            buggy: f.shape.buggy(),
            errors: None,
        },
    )
}

/// A script that loads, verifies and lints each input once, in order.
pub fn probe_script(inputs: &[(FrontInput, Expect)]) -> Script {
    let mut script = Script::default();
    let mut strategy_names: HashMap<&str, String> = HashMap::new();
    for (input, _) in inputs {
        if let Some(src) = input.strategy.as_deref() {
            if !strategy_names.contains_key(src) {
                let name = format!("s{}", strategy_names.len());
                script.setup.push(Step::new(
                    Request::LoadStrategy {
                        name: name.clone(),
                        source: src.into(),
                    },
                    Expect::Loaded,
                ));
                strategy_names.insert(src, name);
            }
        }
    }
    for (ix, (input, expect)) in inputs.iter().enumerate() {
        let name = format!("p{ix}");
        let strategy = input.strategy.as_deref().map(|s| strategy_names[s].clone());
        script.steps.push(Step::new(
            Request::LoadProgram {
                name: name.clone(),
                source: input.program.clone(),
            },
            Expect::Loaded,
        ));
        script.steps.push(Step::new(
            Request::Verify {
                program: name.clone(),
                spec: None,
                strategy: strategy.clone(),
                mode: Some(input.mode.as_str().into()),
            },
            *expect,
        ));
        script.steps.push(Step::new(
            Request::Lint {
                program: name,
                spec: None,
                strategy,
            },
            Expect::Lint,
        ));
    }
    script
}

/// Runs a probe script on a fresh daemon session and records the
/// `session.*` and `protocol.*` figures; returns (attempted, failed).
pub fn session_probe(inputs: &[(FrontInput, Expect)], m: &mut Metrics) -> (u64, u64) {
    let script = probe_script(inputs);
    let mut session = Session::new();
    let mut log = OpLog::default();
    drive(&mut session, &script.setup, &mut log);
    drive(&mut session, &script.steps, &mut log);
    log.record(&session, m);
    (log.attempted, log.failed)
}

/// Each verify request of a script, resolved to the sources it names,
/// with its expected answer.
fn verifies(script: &Script) -> Vec<(FrontInput, Expect)> {
    let mut programs: HashMap<&str, &str> = HashMap::new();
    let mut strategies: HashMap<&str, &str> = HashMap::new();
    let mut out = Vec::new();
    for step in script.setup.iter().chain(&script.steps) {
        match &step.request {
            Request::LoadStrategy { name, source } => {
                strategies.insert(name, source);
            }
            Request::LoadProgram { name, source } => {
                programs.insert(name, source);
            }
            Request::Verify {
                program,
                strategy,
                mode,
                ..
            } => {
                let input = FrontInput {
                    program: programs[program.as_str()].to_owned(),
                    strategy: strategy.as_deref().map(|s| strategies[s].to_owned()),
                    mode: mode
                        .as_deref()
                        .map_or(Ok(ModeKind::Vanilla), str::parse)
                        .expect("mode label"),
                };
                out.push((input, step.expect));
            }
            _ => {}
        }
    }
    out
}

/// Replays verifies in order on a bare `Workspace` (the layer under
/// `Session`) with phase timings on, since daemon responses carry none.
fn traced_replay(verifies: &[(FrontInput, Expect)]) -> EngineTotals {
    let mut ws = Workspace::with_config(EngineConfig {
        phase_timings: true,
        ..EngineConfig::default()
    });
    let mut totals = EngineTotals::default();
    for (input, _) in verifies {
        let program = ws
            .add_program(&input.program)
            .expect("drawn program parses")
            .id;
        let uses = ws.program(program).uses.clone();
        let spec = ws.add_builtin_spec(&uses).expect("built-in spec").id;
        let strategy = input
            .strategy
            .as_deref()
            .map(|s| ws.add_strategy(s).expect("shipped strategy parses").id);
        let request = VerifyRequest {
            program,
            spec,
            strategy,
            kind: input.mode,
        };
        let start = Instant::now();
        let out = ws.verify(&request).expect("scripted verify runs");
        totals.add(&out.report, start.elapsed());
    }
    totals
}

/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// Generates the script and opens a session with the set-up requests
/// answered.
fn setup(p: &Params, log: &mut OpLog) -> (Script, Session) {
    let script = edit_script(p.seed, STEPS_PER_SECOND * p.seconds);
    let mut session = Session::new();
    drive(&mut session, &script.setup, log);
    (script, session)
}

fn timed_setups(p: &Params, log: &mut OpLog) -> (Script, Session, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        last = Some(setup(p, log));
        times.push(start.elapsed().as_secs_f64());
    }
    let (script, session) = last.expect("at least one set-up");
    (script, session, median(&times))
}

/// The untraced run: end-to-end metrics.
pub fn run(p: &Params) -> Outcome {
    let mut setup_log = OpLog::default();
    let (script, mut session, setup_s) = timed_setups(p, &mut setup_log);
    let mut log = OpLog::default();
    crate::heap::reset_peak();
    let start = Instant::now();
    drive(&mut session, &script.steps, &mut log);
    let wall = start.elapsed();
    let mut m = Metrics::default();
    end_to_end(&mut m, setup_s, log.verdict_ms.len(), wall, &log.verdict_ms);
    Outcome {
        metrics: m,
        attempted: setup_log.attempted + log.attempted,
        failed: setup_log.failed + log.failed,
    }
}

/// The traced run: the session's own per-op figures, its store round
/// trip, the verifies replayed with phase timings, the front end
/// standalone, and the scheduler probed with every distinct program the
/// session verified.
pub fn run_traced(p: &Params) -> Outcome {
    let mut m = Metrics::default();
    let mut log = OpLog::default();
    let (script, mut session) = setup(p, &mut log);
    drive(&mut session, &script.steps, &mut log);
    log.record(&session, &mut m);
    let store = CacheFile {
        transfers: session.workspace().store().clone(),
        summaries: session.workspace().summary_store().clone(),
    };
    record_store(&store, &mut m);

    let verifies = verifies(&script);
    let totals = traced_replay(&verifies);
    totals.record(&mut m);
    m.put(
        "trace.overhead_s",
        totals.verify.as_secs_f64() - log.verify.as_secs_f64(),
        "s",
    );

    // Every distinct verified input, with its known answer.
    let seen: std::collections::BTreeMap<FrontInput, Expect> = verifies.into_iter().collect();
    let seen: Vec<(FrontInput, Expect)> = seen.into_iter().collect();
    let front: Vec<FrontInput> = seen.iter().map(|(f, _)| f.clone()).collect();
    front_end(&front, &mut m);
    let (a, f, _) = sched_probe(&seen, p.workers, &EngineConfig::default(), &mut m);
    Outcome {
        metrics: m,
        attempted: log.attempted + a,
        failed: log.failed + f,
    }
}
