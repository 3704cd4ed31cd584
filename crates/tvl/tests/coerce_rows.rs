//! Differential test of coerce's whole-row instrumentation sweep.
//!
//! `coerce_with` reconciles each instrumentation rule a 64-node word at a
//! time. That equals the sequential node-by-node sweep only because no
//! defining formula reads its own predicate; this test pins the equality on
//! seeded random 3-valued structures at word-boundary universe sizes,
//! against the per-node reference coerce of `reference/mod.rs`, and checks
//! that feasible-unchanged, sharpened and infeasible outcomes all occur at
//! every size.

use hetsep_prng::XorShift;

use hetsep_tvl::coerce::{coerce_with, CoerceOutcome, CoercePlan};
use hetsep_tvl::formula::{Formula, Var};
use hetsep_tvl::pred::{PredFlags, PredId, PredTable};
use hetsep_tvl::structure::{NodeId, Structure};
use hetsep_tvl::Kleene;

mod reference;

struct Vocab {
    table: PredTable,
    x: PredId,
    b: [PredId; 2],
    f: PredId,
    g: PredId,
}

/// A unique variable `x`, boolean fields `b0`/`b1`, a functional field `f`,
/// a plain relation `g`, and instrumentation predicates covering the row
/// kernel's shapes: a per-lane fold, atoms, a column fold, `sm` equality
/// over another instrumentation predicate, a closure, a binary rule and a
/// nullary one.
fn vocab() -> Vocab {
    let mut t = PredTable::new();
    let x = t.add_unary("x", PredFlags::reference_variable());
    let b = [
        t.add_unary("b0", PredFlags::boolean_field()),
        t.add_unary("b1", PredFlags::boolean_field()),
    ];
    let f = t.add_binary("f", PredFlags::reference_field());
    let g = t.add_binary("g", PredFlags::default());
    let (v, w, a, c) = (Var(0), Var(1), Var(2), Var(3));
    let inst = |t: &mut PredTable, name: &str, binary: bool, defining: Formula| {
        let nullary = defining.free_vars().is_empty();
        let flags = PredFlags { defining: Some(defining), ..PredFlags::default() };
        if binary {
            t.add_binary(name, flags)
        } else if nullary {
            t.add_nullary(name, flags)
        } else {
            t.add_unary(name, flags)
        }
    };
    inst(
        &mut t,
        "i0",
        false,
        Formula::unary(b[0], v)
            .and(Formula::exists(w, Formula::binary(f, v, w).and(Formula::unary(b[1], w)))),
    );
    let i1 = inst(
        &mut t,
        "i1",
        false,
        Formula::unary(x, v).or(Formula::unary(b[0], v).and(Formula::unary(b[1], v).not())),
    );
    inst(
        &mut t,
        "i2",
        false,
        Formula::forall(w, Formula::binary(g, w, v).implies(Formula::unary(b[1], w))),
    );
    inst(&mut t, "i3", false, Formula::eq(v, v).and(Formula::unary(i1, v)));
    inst(&mut t, "i4", false, Formula::tc(v, v, a, c, Formula::binary(g, a, c)));
    inst(&mut t, "r", true, Formula::binary(f, v, w).and(Formula::unary(b[0], w).not()));
    inst(&mut t, "n", false, Formula::exists(v, Formula::unary(x, v)));
    Vocab { table: t, x, b, f, g }
}

fn kleene(rng: &mut XorShift) -> Kleene {
    [Kleene::False, Kleene::Unknown, Kleene::True][rng.gen_range(3)]
}

/// How the instrumentation values of a generated structure are set.
#[derive(Clone, Copy)]
enum Stored {
    /// Equal to their definitions.
    Consistent,
    /// Some replaced by `1/2`, which coerce may sharpen.
    Blurred,
    /// Blurred, and one definite value flipped, which may be infeasible.
    Contradicted,
}

fn gen_structure(rng: &mut XorShift, v: &Vocab, n: usize, stored: Stored) -> Structure {
    let t = &v.table;
    let mut s = Structure::new(t);
    s.add_nodes(t, n);
    let ids: Vec<NodeId> = s.nodes().collect();
    for &u in &ids {
        s.set_summary(t, u, rng.gen_ratio(1, 4));
    }
    // A consistent structure is also a fixpoint of the unique and function
    // rules: no `1/2` beside a definite holder or target, and no definite
    // holder or target on a summary node.
    let consistent = matches!(stored, Stored::Consistent);
    let definite_ok = |s: &Structure, u: NodeId| !consistent || !s.is_summary(t, u);
    for &u in &ids {
        for p in v.b {
            s.set_unary(t, p, u, kleene(rng));
        }
        let target = ids[rng.gen_range(n)];
        let has_target = rng.gen_bool() && definite_ok(&s, target);
        if has_target {
            s.set_binary(t, v.f, u, target, Kleene::True);
        }
        for _ in 0..rng.gen_range(3) {
            if !(consistent && has_target) {
                s.set_binary(t, v.f, u, ids[rng.gen_range(n)], Kleene::Unknown);
            }
            s.set_binary(t, v.g, u, ids[rng.gen_range(n)], kleene(rng));
        }
    }
    let holder = ids[rng.gen_range(n)];
    let has_holder = rng.gen_bool() && definite_ok(&s, holder);
    if has_holder {
        s.set_unary(t, v.x, holder, Kleene::True);
    }
    if rng.gen_bool() && !(consistent && has_holder) {
        s.set_unary(t, v.x, ids[rng.gen_range(n)], Kleene::Unknown);
    }
    // Instrumentation values from their definitions, in registration order
    // (i3 reads i1).
    for p in t.instrumentation_preds() {
        let defining = t.flags(p).defining.clone().expect("instrumentation predicate");
        let args = defining.free_vars();
        for &u in &ids {
            let targets: Vec<Option<NodeId>> =
                if args.len() == 2 { ids.iter().copied().map(Some).collect() } else { vec![None] };
            for d in targets {
                let mut env: Vec<(Var, NodeId)> = args.iter().copied().zip([u]).collect();
                env.extend(d.map(|d| (args[1], d)));
                let mut val = reference::reference_eval(&s, t, &defining, &mut env);
                if !matches!(stored, Stored::Consistent) && rng.gen_ratio(1, 3) {
                    val = Kleene::Unknown;
                }
                match (d, args.len()) {
                    (Some(d), _) => s.set_binary(t, p, u, d, val),
                    (None, 0) => s.set_nullary(t, p, val),
                    (None, _) => s.set_unary(t, p, u, val),
                }
            }
        }
    }
    if let Stored::Contradicted = stored {
        let p = *rng.choose(&t.instrumentation_preds()[..5]);
        let u = ids[rng.gen_range(n)];
        let flipped = match s.unary(t, p, u) {
            Kleene::True => Kleene::False,
            _ => Kleene::True,
        };
        s.set_unary(t, p, u, flipped);
    }
    s
}

#[test]
fn coerce_rows_match_per_node_reference() {
    let v = vocab();
    let t = &v.table;
    let plan = CoercePlan::new(t);
    for n in [1usize, 2, 63, 64, 65, 129] {
        let (mut unchanged, mut sharpened, mut infeasible) = (0, 0, 0);
        let cases = if n > 65 { 6 } else { 12 };
        for seed in 0..cases {
            let mut rng = XorShift::new(0xc0e ^ (n as u64) << 8 ^ seed);
            let stored = [Stored::Consistent, Stored::Blurred, Stored::Contradicted][seed as usize % 3];
            let s = gen_structure(&mut rng, &v, n, stored);
            let want = reference::reference_coerce(&s, t);
            let got = coerce_with(&s, t, &plan);
            match (&got, &want) {
                (CoerceOutcome::Infeasible, None) => infeasible += 1,
                (CoerceOutcome::Feasible(a), Some(b)) if a == b => {
                    if *a == s {
                        unchanged += 1;
                    } else {
                        sharpened += 1;
                    }
                }
                _ => panic!("n={n} seed={seed}: coerce_with gave {got:?}, reference {want:?}"),
            }
        }
        assert!(
            unchanged > 0 && sharpened > 0 && infeasible > 0,
            "n={n}: outcomes not all covered \
             (unchanged {unchanged}, sharpened {sharpened}, infeasible {infeasible})"
        );
    }
}
