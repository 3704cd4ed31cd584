//! The counts a later change may claim on must repeat exactly: across two
//! runs with the same seed, and (for the corpus) across worker counts.

use std::collections::BTreeMap;

use hetsep_perfbench::{draw, run, Params};

/// The exact (count and byte) metrics of a traced run.
fn counts(workload: &str, seed: u64, workers: usize) -> BTreeMap<String, f64> {
    let p = Params {
        seed,
        seconds: 1,
        workers,
    };
    let outcome = run(workload, &p, true).expect("known workload");
    assert_eq!(outcome.failed, 0, "{workload}: every answer is right");
    assert!(outcome.attempted > 0);
    outcome
        .metrics
        .entries()
        .filter(|(_, _, unit)| matches!(*unit, "count" | "bytes"))
        .map(|(name, value, _)| (name.to_owned(), value))
        .collect()
}

#[test]
fn corpus_counts_repeat_and_ignore_the_worker_count() {
    let first = counts("corpus-warm", 7, 2);
    assert!(first["engine.visits"] > 0.0 && first["store.bytes"] > 0.0);
    assert_eq!(first, counts("corpus-warm", 7, 2));
    assert_eq!(first, counts("corpus-warm", 7, 1));
}

#[test]
fn serve_counts_repeat() {
    let first = counts("serve-edit", 7, 2);
    assert!(first["cache.shared_hits"] > 0.0 && first["session.lint_cache_hits"] > 0.0);
    assert_eq!(first, counts("serve-edit", 7, 2));
}

/// Two traced Table 3 runs take several minutes; run with `--ignored`.
#[test]
#[ignore]
fn table3_counts_repeat() {
    let first = counts("table3", 7, 2);
    assert!(first["engine.pruned"] > 0.0);
    assert_eq!(first, counts("table3", 7, 2));
}

#[test]
fn draw_has_the_corpus_mix() {
    use hetsep::suite::corpus::{generate, CorpusConfig};
    let seed = 42;
    let mine = draw::draw(seed, 300);
    let corpus = generate(&CorpusConfig { jobs: 300, seed });
    for (a, b) in mine.iter().zip(&corpus) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.family, b.family);
        assert_eq!(a.program, b.program);
        assert_eq!(a.mode, hetsep::corpus::job_mode(b.mode));
    }
    assert!(mine.iter().any(|i| i.buggy) && mine.iter().any(|i| !i.buggy));
}
