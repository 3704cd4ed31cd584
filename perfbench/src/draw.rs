//! The benchmark's own seeded draw of generated client programs.
//!
//! Every input is minted from `hetsep_suite::generators` with the family and
//! mode mix of `hetsep_suite::corpus`, but here the draw also records what it
//! injected: an input is `buggy` exactly when its generator was asked for a
//! defect (`buggy_connection` / `buggy_collection`). That record is the known
//! answer every generated verdict is checked against.

use hetsep::core::ModeKind;
use hetsep::strategy::builtin as strategies;
use hetsep::suite::generators::{
    db_program, jdbc_client, kernel, sql_executor, JdbcWorkload, KernelWorkload,
    SqlExecutorWorkload,
};
use hetsep_prng::XorShift;

use crate::Expect;

/// One generated verification input and its known answer.
#[derive(Debug, Clone)]
pub struct Input {
    /// Unique name within the draw (`<family><index>`).
    pub name: String,
    /// Generator family: `jdbc`, `kernel`, `db` or `sqlexec`.
    pub family: &'static str,
    /// Client program source.
    pub program: String,
    /// Strategy source; `None` for vanilla.
    pub strategy: Option<&'static str>,
    /// Analysis mode.
    pub mode: ModeKind,
    /// Whether the generator injected a usage bug.
    pub buggy: bool,
}

impl Input {
    /// The answer a correct verifier gives this input.
    pub fn expect(&self) -> Expect {
        Expect::Verdict {
            buggy: self.buggy,
            errors: None,
        }
    }

    /// The scheduler job for this input.
    pub fn job(&self) -> hetsep::sched::Job {
        hetsep::sched::Job {
            name: self.name.clone(),
            program: self.program.clone(),
            strategy: self.strategy.map(str::to_owned),
            mode: self.mode,
        }
    }
}

/// Draws `n` inputs from `seed`; the same seed gives the same inputs.
pub fn draw(seed: u64, n: usize) -> Vec<Input> {
    let mut rng = XorShift::new(seed);
    (0..n).map(|ix| mint(ix, &mut rng)).collect()
}

fn mint(ix: usize, rng: &mut XorShift) -> Input {
    let family = match rng.gen_range(10) {
        0..=3 => "jdbc",
        4..=6 => "kernel",
        7..=8 => "db",
        _ => "sqlexec",
    };
    let (program, strategy, mode, buggy) = match family {
        "jdbc" => {
            let w = jdbc_workload(rng);
            let mode = match rng.gen_range(4) {
                0 if w.connections <= 2 && !w.interleaved => ModeKind::Vanilla,
                2 => ModeKind::Sim,
                _ => ModeKind::Single,
            };
            let buggy = w.buggy_connection.is_some();
            (
                jdbc_client("Client", &w),
                strategies::JDBC_SINGLE,
                mode,
                buggy,
            )
        }
        "kernel" => {
            let w = kernel_workload(rng);
            let mode = match rng.gen_range(4) {
                0 if w.collections <= 2 => ModeKind::Vanilla,
                2 => ModeKind::Sim,
                _ => ModeKind::Single,
            };
            let buggy = w.buggy_collection.is_some();
            (kernel("Kernel", &w), strategies::CMP_SINGLE, mode, buggy)
        }
        "db" => {
            let tables = 1 + rng.gen_range(3);
            let mode = if rng.gen_bool() && tables <= 2 {
                ModeKind::Vanilla
            } else {
                ModeKind::Single
            };
            (db_program(tables), strategies::IOSTREAM_SINGLE, mode, false)
        }
        _ => {
            let w = SqlExecutorWorkload {
                executors: 1 + rng.gen_range(2),
                queries: 1 + rng.gen_range(2),
            };
            let (strategy, mode) = match rng.gen_range(3) {
                0 => (strategies::JDBC_INCREMENTAL, ModeKind::Inc),
                1 => (strategies::JDBC_SINGLE, ModeKind::Sim),
                _ => (strategies::JDBC_SINGLE, ModeKind::Single),
            };
            (sql_executor(&w), strategy, mode, false)
        }
    };
    Input {
        name: format!("{family}{ix:05}"),
        family,
        program,
        strategy: (mode != ModeKind::Vanilla).then_some(strategy),
        mode,
        buggy,
    }
}

/// A JDBC client shape: 1–3 connections, 1–2 queries each, a Fig. 1 bug
/// in one connection a quarter of the time.
pub fn jdbc_workload(rng: &mut XorShift) -> JdbcWorkload {
    let connections = 1 + rng.gen_range(3);
    JdbcWorkload {
        connections,
        queries_per_connection: 1 + rng.gen_range(2),
        buggy_connection: rng.gen_ratio(1, 4).then(|| rng.gen_range(connections)),
        interleaved: rng.gen_ratio(1, 3),
        seed: rng.next_u64(),
    }
}

/// A collections/iterators kernel shape: 1–3 collections, a
/// concurrent-modification bug in one a quarter of the time.
pub fn kernel_workload(rng: &mut XorShift) -> KernelWorkload {
    let collections = 1 + rng.gen_range(3);
    KernelWorkload {
        collections,
        buggy_collection: rng.gen_ratio(1, 4).then(|| rng.gen_range(collections)),
        interleaved: rng.gen_ratio(1, 3),
    }
}
