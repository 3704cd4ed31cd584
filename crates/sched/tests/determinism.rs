//! Content-key determinism: the cross-job cache is only sound to share when
//! the key derivation — vocabulary construction, lowering, and the `Debug`
//! renderings `hetsep_core::store` keys on — is a pure function of the
//! program text. Translating the same program twice must produce identical
//! context and action contents; a regression here (e.g. a `HashMap`
//! iteration order leaking into predicate registration or update emission)
//! silently degrades every warm run to a cold one.

use hetsep_core::jobcache::action_content;
use hetsep_core::store::context_content;
use hetsep_core::translate::{translate, TranslateOptions};
use hetsep_suite::corpus::{generate, CorpusConfig};

fn assert_stable(name: &str, src: &str, strategy_src: Option<&str>) {
    let program = hetsep_ir::parse_program(src).unwrap();
    let spec = hetsep_easl::builtin::by_name(&program.uses).unwrap();
    let mut options = TranslateOptions::default();
    if let Some(s) = strategy_src {
        let strategy = hetsep_strategy::parse_strategy(s).unwrap();
        options.stage = Some(strategy.stages[0].clone());
    }
    let a = translate(&program, &spec, &options).unwrap();
    let b = translate(&program, &spec, &options).unwrap();
    assert_eq!(
        context_content(&a.vocab.table, 32),
        context_content(&b.vocab.table, 32),
        "{name}: context content differs between translations"
    );
    for (edge_a, edge_b) in a.actions.iter().zip(&b.actions) {
        for (act_a, act_b) in edge_a.iter().zip(edge_b) {
            assert_eq!(
                action_content(act_a),
                action_content(act_b),
                "{name}: action content differs at `{}`",
                act_a.name
            );
        }
    }
}

#[test]
fn corpus_programs_translate_to_identical_content_keys() {
    for job in generate(&CorpusConfig { jobs: 40, seed: 42 }) {
        assert_stable(&job.name, &job.program, job.strategy);
    }
}
