//! `hetsep-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints each metric on its own line, then, as the last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.

use std::process::ExitCode;

use hetsep_perfbench::{run, Params, WORKLOADS};

#[global_allocator]
static ALLOCATOR: hetsep_perfbench::heap::Counting = hetsep_perfbench::heap::Counting;

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<usize>().ok().filter(|&s| s > 0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds (> 0) and --trace (0 or 1) are required");
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let params = Params {
        seed,
        seconds,
        workers,
    };
    let Some(outcome) = run(&workload, &params, trace) else {
        return usage(&format!("unknown workload {workload}"));
    };
    print!("{}", outcome.metrics.lines());
    println!("attempted {} failed {}", outcome.attempted, outcome.failed);
    println!(
        "{}",
        outcome
            .metrics
            .result_json(outcome.attempted, outcome.failed)
    );
    ExitCode::SUCCESS
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}");
    eprintln!(
        "usage: hetsep-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}
