//! Naive per-node reference semantics, shared by the property tests, the
//! coerce differential test, the `eval` unit tests and the `kernels`
//! microbenchmark.
//!
//! Everything here is written directly from the definitions — one
//! `Kleene` value per node or node pair, read through the public accessors
//! and combined only with the `kleene.rs` operations — so that it shares no
//! code with the word-parallel evaluator it checks. Nothing short-circuits,
//! and transitive closure is a plain path-relaxation fixpoint.
//!
//! The including module must have `Formula`, `Kleene`, `NodeId`,
//! `PredTable`, `Structure` and `Var` in scope; this file imports them from
//! its parent so that it compiles both inside and outside the crate.

#![allow(dead_code)]

use super::{Formula, Kleene, NodeId, PredTable, Structure, Var};

/// Variable bindings, innermost last.
pub type Env = Vec<(Var, NodeId)>;

fn lookup(env: &Env, v: Var) -> NodeId {
    env.iter()
        .rev()
        .find(|(x, _)| *x == v)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("reference: unbound variable {v}"))
}

/// The Kleene value of `f` under `env`, evaluated node by node.
pub fn reference_eval(s: &Structure, table: &PredTable, f: &Formula, env: &mut Env) -> Kleene {
    match f {
        Formula::Const(k) => *k,
        Formula::Nullary(p) => s.nullary(table, *p),
        Formula::Unary(p, v) => s.unary(table, *p, lookup(env, *v)),
        Formula::Binary(p, a, b) => s.binary(table, *p, lookup(env, *a), lookup(env, *b)),
        Formula::Eq(a, b) => {
            let (u, v) = (lookup(env, *a), lookup(env, *b));
            if u != v {
                Kleene::False
            } else if s.is_summary(table, u) {
                Kleene::Unknown
            } else {
                Kleene::True
            }
        }
        Formula::Not(g) => reference_eval(s, table, g, env).negate(),
        Formula::And(l, r) => {
            let lv = reference_eval(s, table, l, env);
            lv.and(reference_eval(s, table, r, env))
        }
        Formula::Or(l, r) => {
            let lv = reference_eval(s, table, l, env);
            lv.or(reference_eval(s, table, r, env))
        }
        Formula::Exists(v, g) | Formula::Forall(v, g) => {
            let exists = matches!(f, Formula::Exists(..));
            let mut acc = if exists { Kleene::False } else { Kleene::True };
            for u in s.nodes() {
                env.push((*v, u));
                let x = reference_eval(s, table, g, env);
                env.pop();
                acc = if exists { acc.or(x) } else { acc.and(x) };
            }
            acc
        }
        Formula::Tc { lhs, rhs, a, b, body } => {
            let (from, to) = (lookup(env, *lhs), lookup(env, *rhs));
            let n = s.node_count();
            // step(x, ·), evaluated the first time x is reached.
            let mut steps: Vec<Option<Vec<Kleene>>> = vec![None; n];
            let reach = |x: usize, env: &mut Env, steps: &mut Vec<Option<Vec<Kleene>>>| {
                if steps[x].is_none() {
                    env.push((*a, NodeId::from_index(x)));
                    steps[x] = Some(reference_row(s, table, body, *b, env));
                    env.pop();
                }
            };
            // best[y]: the best (max over paths of min over steps) value of
            // a path of one or more steps from `from` to y, relaxed from a
            // worklist of nodes whose value rose.
            reach(from.index(), env, &mut steps);
            let mut best = steps[from.index()].clone().expect("just evaluated");
            let mut work: Vec<usize> = (0..n).filter(|&y| best[y] != Kleene::False).collect();
            while let Some(x) = work.pop() {
                reach(x, env, &mut steps);
                let row = steps[x].as_ref().expect("just evaluated");
                for y in 0..n {
                    let via = best[y].or(best[x].and(row[y]));
                    if via != best[y] {
                        best[y] = via;
                        work.push(y);
                    }
                }
            }
            best[to.index()]
        }
    }
}

/// `f` at every node for the free variable `lane`, with `env` binding the
/// formula's other free variables.
pub fn reference_row(
    s: &Structure,
    table: &PredTable,
    f: &Formula,
    lane: Var,
    env: &mut Env,
) -> Vec<Kleene> {
    s.nodes()
        .map(|u| {
            env.push((lane, u));
            let v = reference_eval(s, table, f, env);
            env.pop();
            v
        })
        .collect()
}

/// Binds a rule's or update's formal parameters: `[]`, `[v]` or `[v, w]`.
fn bind_args(env: &mut Env, args: &[Var], nodes: &[NodeId]) {
    for (v, u) in args.iter().zip(nodes) {
        env.push((*v, *u));
    }
}

/// The reference coerce: the unique, function and instrumentation rules of
/// the vocabulary applied node by node until nothing changes. `None` means
/// infeasible.
///
/// Instrumentation rules (a rule's formal parameters are its defining
/// formula's free variables in ascending order) sweep the nodes or node
/// pairs in index order and write each sharpened value before
/// evaluating the next, as a sequential per-node sweep does.
pub fn reference_coerce(s: &Structure, table: &PredTable) -> Option<Structure> {
    let mut s = s.clone();
    let nodes: Vec<NodeId> = s.nodes().collect();
    loop {
        let mut changed = false;
        for p in table.unique_preds() {
            let holders: Vec<NodeId> =
                nodes.iter().copied().filter(|&u| s.unary(table, p, u) == Kleene::True).collect();
            if holders.len() >= 2 {
                return None;
            }
            if let [holder] = holders[..] {
                for &u in &nodes {
                    if s.unary(table, p, u) == Kleene::Unknown {
                        s.set_unary(table, p, u, Kleene::False);
                        changed = true;
                    }
                }
                if s.is_summary(table, holder) {
                    s.set_summary(table, holder, false);
                    changed = true;
                }
            }
        }
        for f in table.function_preds() {
            for &src in &nodes {
                if s.is_summary(table, src) {
                    continue;
                }
                let targets: Vec<NodeId> = nodes
                    .iter()
                    .copied()
                    .filter(|&d| s.binary(table, f, src, d) == Kleene::True)
                    .collect();
                if targets.len() >= 2 {
                    return None;
                }
                if let [target] = targets[..] {
                    for &d in &nodes {
                        if s.binary(table, f, src, d) == Kleene::Unknown {
                            s.set_binary(table, f, src, d, Kleene::False);
                            changed = true;
                        }
                    }
                    if s.is_summary(table, target) {
                        s.set_summary(table, target, false);
                        changed = true;
                    }
                }
            }
        }
        for p in table.instrumentation_preds() {
            let defining = table.flags(p).defining.clone().expect("instrumentation predicate");
            let args = defining.free_vars();
            let tuples: Vec<Vec<NodeId>> = match args.len() {
                0 => vec![vec![]],
                1 => nodes.iter().map(|&u| vec![u]).collect(),
                _ => nodes.iter().flat_map(|&u| nodes.iter().map(move |&v| vec![u, v])).collect(),
            };
            for tuple in tuples {
                let stored = match tuple[..] {
                    [] => s.nullary(table, p),
                    [u] => s.unary(table, p, u),
                    [u, v] => s.binary(table, p, u, v),
                    _ => unreachable!(),
                };
                let mut env = Env::new();
                bind_args(&mut env, &args, &tuple);
                let evaled = reference_eval(&s, table, &defining, &mut env);
                if stored == evaled || evaled == Kleene::Unknown {
                    continue;
                }
                if stored != Kleene::Unknown {
                    return None;
                }
                match tuple[..] {
                    [] => s.set_nullary(table, p, evaled),
                    [u] => s.set_unary(table, p, u, evaled),
                    [u, v] => s.set_binary(table, p, u, v, evaled),
                    _ => unreachable!(),
                }
                changed = true;
            }
        }
        if !changed {
            return Some(s);
        }
    }
}
