//! Property-based tests of the three-valued-logic engine's soundness
//! obligations (the embedding theorem instances the analysis relies on):
//!
//! * canonical abstraction embeds the original structure;
//! * the canonical key is invariant under node permutation;
//! * focus outputs cover the input (some output embeds each represented
//!   concrete state);
//! * coerce never discards a consistent concrete structure and never
//!   changes one;
//! * formula evaluation is monotone along blurring: the value on the
//!   blurred structure conservatively approximates the concrete value.
//!
//! * row evaluation (`eval_row`) equals the naive per-node reference
//!   semantics of `reference/mod.rs` lane for lane.
//!
//! Inputs are generated by a seeded in-repo PRNG (`hetsep-prng`) so the
//! suite runs with no network access; each property replays a fixed number
//! of deterministic cases, reporting the offending seed on failure.

use hetsep_prng::XorShift;

use hetsep_tvl::canon::{blur, canonical_key};
use hetsep_tvl::coerce::{coerce, CoerceOutcome};
use hetsep_tvl::embed::embeds;
use hetsep_tvl::eval::eval_closed;
use hetsep_tvl::focus::{focus, FocusSpec, DEFAULT_FOCUS_LIMIT};
use hetsep_tvl::formula::{Formula, Var};
use hetsep_tvl::pred::{PredFlags, PredId, PredTable};
use hetsep_tvl::structure::{NodeId, Structure};
use hetsep_tvl::Kleene;

mod reference;

const CASES: u64 = 128;
const N_VARS: usize = 2;
const N_BOOLS: usize = 2;
const N_FIELDS: usize = 2;

struct Vocab {
    table: PredTable,
    vars: Vec<PredId>,
    bools: Vec<PredId>,
    fields: Vec<PredId>,
}

fn vocab() -> Vocab {
    let mut table = PredTable::new();
    let vars = (0..N_VARS)
        .map(|i| table.add_unary(&format!("x{i}"), PredFlags::reference_variable()))
        .collect();
    let bools = (0..N_BOOLS)
        .map(|i| table.add_unary(&format!("b{i}"), PredFlags::boolean_field()))
        .collect();
    let fields = (0..N_FIELDS)
        .map(|i| table.add_binary(&format!("f{i}"), PredFlags::reference_field()))
        .collect();
    Vocab {
        table,
        vars,
        bools,
        fields,
    }
}

/// A concrete heap description: per variable an optional target, per node a
/// bool-field bitmap, per (field, node) an optional target.
#[derive(Debug, Clone)]
struct ConcreteHeap {
    nodes: usize,
    var_targets: Vec<Option<usize>>,
    bools: Vec<Vec<bool>>,
    field_targets: Vec<Vec<Option<usize>>>,
}

fn gen_heap(rng: &mut XorShift) -> ConcreteHeap {
    let nodes = 1 + rng.gen_range(4);
    let opt_target = |rng: &mut XorShift| {
        if rng.gen_bool() {
            Some(rng.gen_range(nodes))
        } else {
            None
        }
    };
    let var_targets = (0..N_VARS).map(|_| opt_target(rng)).collect();
    let field_targets = (0..N_FIELDS)
        .map(|_| (0..nodes).map(|_| opt_target(rng)).collect())
        .collect();
    let bools = (0..N_BOOLS)
        .map(|_| (0..nodes).map(|_| rng.gen_bool()).collect())
        .collect();
    ConcreteHeap {
        nodes,
        var_targets,
        bools,
        field_targets,
    }
}

fn build(v: &Vocab, h: &ConcreteHeap) -> Structure {
    let mut s = Structure::new(&v.table);
    let ids: Vec<NodeId> = (0..h.nodes).map(|_| s.add_node(&v.table)).collect();
    for (p, t) in v.vars.iter().zip(&h.var_targets) {
        if let Some(t) = t {
            s.set_unary(&v.table, *p, ids[*t], Kleene::True);
        }
    }
    for (p, col) in v.bools.iter().zip(&h.bools) {
        for (n, &b) in col.iter().enumerate() {
            s.set_unary(&v.table, *p, ids[n], Kleene::from_bool(b));
        }
    }
    for (p, col) in v.fields.iter().zip(&h.field_targets) {
        for (src, t) in col.iter().enumerate() {
            if let Some(t) = t {
                s.set_binary(&v.table, *p, ids[src], ids[*t], Kleene::True);
            }
        }
    }
    s
}

/// Random closed formulas over the vocabulary: a small and/or/not tree over
/// atoms, closed by existentials over both variables.
fn gen_formula(rng: &mut XorShift, v: &Vocab, depth: u32) -> Formula {
    if depth > 0 && rng.gen_range(2) == 0 {
        let a = gen_formula(rng, v, depth - 1);
        match rng.gen_range(3) {
            0 => return Formula::not(a),
            1 => return a.and(gen_formula(rng, v, depth - 1)),
            _ => return a.or(gen_formula(rng, v, depth - 1)),
        }
    }
    match rng.gen_range(4) {
        0 => Formula::unary(*rng.choose(&v.vars), Var(0)),
        1 => Formula::unary(*rng.choose(&v.bools), Var(0)),
        2 => Formula::binary(*rng.choose(&v.fields), Var(0), Var(1)),
        _ => Formula::eq(Var(0), Var(1)),
    }
}

fn gen_closed_formula(rng: &mut XorShift, v: &Vocab) -> Formula {
    let body = gen_formula(rng, v, 3);
    Formula::exists(Var(0), Formula::exists(Var(1), body))
}

/// blur(s) embeds s for every concrete structure.
#[test]
fn blur_embeds_concrete() {
    let v = vocab();
    for seed in 0..CASES {
        let h = gen_heap(&mut XorShift::new(seed));
        let s = build(&v, &h);
        let b = blur(&s, &v.table);
        assert!(embeds(&s, &b, &v.table), "seed {seed}");
    }
}

/// Blur is idempotent up to canonical ordering.
#[test]
fn blur_idempotent() {
    let v = vocab();
    for seed in 0..CASES {
        let h = gen_heap(&mut XorShift::new(seed));
        let s = build(&v, &h);
        let once = blur(&s, &v.table);
        let twice = blur(&once, &v.table);
        assert_eq!(
            canonical_key(&once, &v.table),
            canonical_key(&twice, &v.table),
            "seed {seed}"
        );
    }
}

/// The canonical key is invariant under permutations of the universe.
#[test]
fn canonical_key_permutation_invariant() {
    let v = vocab();
    for seed in 0..CASES {
        let mut rng = XorShift::new(seed);
        let h = gen_heap(&mut rng);
        let s = blur(&build(&v, &h), &v.table);
        let n = s.node_count();
        let mut perm: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
        rng.shuffle(&mut perm);
        let p = s.permute(&perm);
        assert_eq!(
            canonical_key(&s, &v.table),
            canonical_key(&p, &v.table),
            "seed {seed}"
        );
    }
}

/// Focus on a variable covers the blurred structure: for the concrete
/// state, some focused output still embeds it.
#[test]
fn focus_covers() {
    let v = vocab();
    for seed in 0..CASES {
        let mut rng = XorShift::new(seed);
        let h = gen_heap(&mut rng);
        let var_ix = rng.gen_range(N_VARS);
        let s = build(&v, &h);
        let b = blur(&s, &v.table);
        let out = focus(
            &b,
            &v.table,
            &FocusSpec::Unary(v.vars[var_ix]),
            DEFAULT_FOCUS_LIMIT,
        );
        assert!(
            out.iter().any(|o| embeds(&s, o, &v.table)),
            "seed {seed}: no focused output embeds the concrete state"
        );
    }
}

/// Focus + coerce still covers: coercion may sharpen or discard focused
/// variants, but some surviving variant embeds the concrete state.
#[test]
fn focus_then_coerce_covers() {
    let v = vocab();
    for seed in 0..CASES {
        let mut rng = XorShift::new(seed);
        let h = gen_heap(&mut rng);
        let var_ix = rng.gen_range(N_VARS);
        let s = build(&v, &h);
        let b = blur(&s, &v.table);
        let out = focus(
            &b,
            &v.table,
            &FocusSpec::Unary(v.vars[var_ix]),
            DEFAULT_FOCUS_LIMIT,
        );
        let survivors: Vec<_> = out
            .iter()
            .filter_map(|o| coerce(o, &v.table).feasible())
            .collect();
        assert!(
            survivors.iter().any(|o| embeds(&s, o, &v.table)),
            "seed {seed}: no coerced output embeds the concrete state"
        );
    }
}

/// Coerce is the identity on consistent concrete structures.
#[test]
fn coerce_fixes_concrete() {
    let v = vocab();
    for seed in 0..CASES {
        let h = gen_heap(&mut XorShift::new(seed));
        let s = build(&v, &h);
        match coerce(&s, &v.table) {
            CoerceOutcome::Feasible(out) => assert_eq!(out, s, "seed {seed}"),
            CoerceOutcome::Infeasible => panic!("seed {seed}: concrete structure discarded"),
        }
    }
}

/// Evaluation is conservative along blurring: the blurred value
/// information-approximates the concrete value.
#[test]
fn eval_monotone_under_blur() {
    let v = vocab();
    for seed in 0..CASES {
        let mut rng = XorShift::new(seed);
        let h = gen_heap(&mut rng);
        let f = gen_closed_formula(&mut rng, &v);
        let s = build(&v, &h);
        let b = blur(&s, &v.table);
        let cv = eval_closed(&s, &v.table, &f);
        let av = eval_closed(&b, &v.table, &f);
        assert!(
            cv.le_info(av),
            "seed {seed}: concrete {cv} not approximated by abstract {av} for {f}"
        );
    }
}

/// Structure equality after canonicalization coincides with isomorphism
/// on blurred structures.
#[test]
fn canonical_equality_is_isomorphism() {
    let v = vocab();
    for seed in 0..CASES {
        let h = gen_heap(&mut XorShift::new(seed));
        let s = blur(&build(&v, &h), &v.table);
        let reversed: Vec<NodeId> = (0..s.node_count()).rev().map(NodeId::from_index).collect();
        let p = s.permute(&reversed);
        assert!(
            hetsep_tvl::embed::is_isomorphic(&s, &p, &v.table),
            "seed {seed}"
        );
        assert_eq!(
            canonical_key(&s, &v.table),
            canonical_key(&p, &v.table),
            "seed {seed}"
        );
    }
}

/// The sort-based grouping inside `blur_by` is output-identical to the
/// original map-based grouping (fresh canonical-name `Vec` per node in a
/// `HashMap`, then sorted). `reference_blur_by` below *is* that original
/// implementation; both the blurred structure and the old→new node map must
/// agree on every input, including structures that already contain summary
/// nodes and indefinite values.
#[test]
fn blur_by_matches_reference_grouping() {
    use hetsep_tvl::canon::{blur_by, canonical_name};
    use hetsep_tvl::pred::Arity;
    use std::collections::HashMap;

    fn reference_blur_by(
        s: &Structure,
        table: &PredTable,
        abs: &[PredId],
    ) -> (Structure, Vec<NodeId>) {
        let mut groups: HashMap<Vec<Kleene>, Vec<NodeId>> = HashMap::new();
        for u in s.nodes() {
            groups
                .entry(canonical_name(s, table, abs, u))
                .or_default()
                .push(u);
        }
        let mut named: Vec<(Vec<Kleene>, Vec<NodeId>)> = groups.into_iter().collect();
        named.sort();

        let n_new = named.len();
        let n_old = s.node_count();
        let mut map = vec![NodeId::from_index(0); n_old];
        for (new_ix, (_, members)) in named.iter().enumerate() {
            for &m in members {
                map[m.index()] = NodeId::from_index(new_ix);
            }
        }

        let mut out = Structure::new(table);
        for _ in 0..n_new {
            out.add_node(table);
        }
        for p in table.iter_arity(Arity::Nullary) {
            out.set_nullary(table, p, s.nullary(table, p));
        }
        let sm = table.sm();
        for p in table.iter_arity(Arity::Unary) {
            for (new_ix, (_, members)) in named.iter().enumerate() {
                let mut acc: Option<Kleene> = None;
                for &m in members {
                    let v = s.unary(table, p, m);
                    acc = Some(match acc {
                        None => v,
                        Some(a) => a.join(v),
                    });
                }
                let mut v = acc.expect("group is nonempty");
                if p == sm && members.len() > 1 {
                    v = Kleene::Unknown;
                }
                out.set_unary(table, p, NodeId::from_index(new_ix), v);
            }
        }
        for p in table.iter_arity(Arity::Binary) {
            for (si, (_, src_members)) in named.iter().enumerate() {
                for (di, (_, dst_members)) in named.iter().enumerate() {
                    let mut acc: Option<Kleene> = None;
                    for &sm_ in src_members {
                        for &dm in dst_members {
                            let v = s.binary(table, p, sm_, dm);
                            acc = Some(match acc {
                                None => v,
                                Some(a) => a.join(v),
                            });
                        }
                    }
                    out.set_binary(
                        table,
                        p,
                        NodeId::from_index(si),
                        NodeId::from_index(di),
                        acc.expect("groups are nonempty"),
                    );
                }
            }
        }
        (out, map)
    }

    let v = vocab();
    let abs = v.table.abstraction_preds();
    for seed in 0..CASES {
        let mut rng = XorShift::new(seed);
        let h = gen_heap(&mut rng);
        let mut s = build(&v, &h);
        // Sprinkle indefinite values so canonical names also carry 1/2.
        let nodes: Vec<NodeId> = s.nodes().collect();
        for &u in &nodes {
            if rng.gen_bool() {
                let p = *rng.choose(&v.bools);
                s.set_unary(&v.table, p, u, Kleene::Unknown);
            }
        }
        assert_eq!(
            blur_by(&s, &v.table, &abs),
            reference_blur_by(&s, &v.table, &abs),
            "seed {seed}: sort-based grouping diverged on a concrete structure"
        );
        // Re-blur the blurred structure: exercises summary nodes and
        // duplicate-free grouping.
        let b = blur(&s, &v.table);
        assert_eq!(
            blur_by(&b, &v.table, &abs),
            reference_blur_by(&b, &v.table, &abs),
            "seed {seed}: sort-based grouping diverged on a blurred structure"
        );
    }
}

/// Exhaustive truth table for every word-parallel Kleene kernel: each of the
/// 3×3 operand pairs is planted in each of the 64 lanes of a word (with all
/// other lanes cycling through the full pair space so neighbouring lanes are
/// never neutral), and the word-level result must agree with the scalar
/// `kleene.rs` operation lane by lane — for and/or/join, valid-masked
/// negation, and the `⊑` violation mask.
#[test]
fn word_kernels_match_scalar_truth_tables_in_every_lane() {
    use hetsep_tvl::bits;

    const ALL: [Kleene; 3] = [Kleene::False, Kleene::Unknown, Kleene::True];
    let pair = |ix: usize| (ALL[ix % 3], ALL[(ix / 3) % 3]);

    for planted in 0..9 {
        for lane in 0..64 {
            // Build one word pair: `lane` carries `planted`, lane j ≠ lane
            // carries pair (planted + j) % 9.
            let (mut ta, mut ha, mut tb, mut hb) = (0u64, 0u64, 0u64, 0u64);
            let mut scalar = [(Kleene::False, Kleene::False); 64];
            for j in 0..64 {
                let ix = if j == lane { planted } else { (planted + j) % 9 };
                let (a, b) = pair(ix);
                scalar[j] = (a, b);
                let (at, ah) = a.to_bits();
                let (bt, bh) = b.to_bits();
                ta |= (at as u64) << j;
                ha |= (ah as u64) << j;
                tb |= (bt as u64) << j;
                hb |= (bh as u64) << j;
            }
            let and = bits::and_word(ta, ha, tb, hb);
            let or = bits::or_word(ta, ha, tb, hb);
            let join = bits::join_word(ta, ha, tb, hb);
            let not = bits::not_word(ta, ha, !0);
            let viol = bits::le_info_violations(ta, ha, tb, hb, !0);
            for (j, &(a, b)) in scalar.iter().enumerate() {
                let get = |(t, h): (u64, u64)| Kleene::from_bits(t >> j & 1 == 1, h >> j & 1 == 1);
                assert_eq!(get(and), a.and(b), "and lane {j} ({a},{b})");
                assert_eq!(get(or), a.or(b), "or lane {j} ({a},{b})");
                assert_eq!(get(join), a.join(b), "join lane {j} ({a},{b})");
                assert_eq!(get(not), !a, "not lane {j} ({a})");
                assert_eq!(viol >> j & 1 == 1, !a.le_info(b), "le lane {j} ({a},{b})");
            }
        }
    }
}

/// The wide-lane block kernels are lane-for-lane the word kernels: every
/// operand pair planted in every lane of a row spanning one full unrolled
/// block plus a scalar remainder, and each row result must equal mapping the
/// word kernel over the row.
#[test]
fn block_kernels_match_word_kernels_in_every_lane() {
    use hetsep_tvl::bits;

    const ALL: [Kleene; 3] = [Kleene::False, Kleene::Unknown, Kleene::True];
    let pair = |ix: usize| (ALL[ix % 3], ALL[(ix / 3) % 3]);
    // One full 4-word block plus a remainder word: the unrolled body, the
    // block boundary, and the tail loop are all on the path.
    const WORDS: usize = 5;

    for planted in 0..9 {
        for lane in 0..WORDS * 64 {
            let (mut ta, mut ha, mut tb, mut hb) =
                ([0u64; WORDS], [0u64; WORDS], [0u64; WORDS], [0u64; WORDS]);
            for j in 0..WORDS * 64 {
                let ix = if j == lane { planted } else { (planted + j) % 9 };
                let (a, b) = pair(ix);
                let (w, bit) = bits::lane(j);
                let (at, ah) = a.to_bits();
                let (bt, bh) = b.to_bits();
                ta[w] |= (at as u64) << bit;
                ha[w] |= (ah as u64) << bit;
                tb[w] |= (bt as u64) << bit;
                hb[w] |= (bh as u64) << bit;
            }
            let (mut to, mut ho) = ([0u64; WORDS], [0u64; WORDS]);

            bits::and_rows(&ta, &ha, &tb, &hb, &mut to, &mut ho);
            for w in 0..WORDS {
                let r = bits::and_word(ta[w], ha[w], tb[w], hb[w]);
                assert_eq!((to[w], ho[w]), r, "and_rows word {w} (planted {planted}@{lane})");
            }
            bits::or_rows(&ta, &ha, &tb, &hb, &mut to, &mut ho);
            for w in 0..WORDS {
                let r = bits::or_word(ta[w], ha[w], tb[w], hb[w]);
                assert_eq!((to[w], ho[w]), r, "or_rows word {w} (planted {planted}@{lane})");
            }
            bits::join_rows(&ta, &ha, &tb, &hb, &mut to, &mut ho);
            for w in 0..WORDS {
                let r = bits::join_word(ta[w], ha[w], tb[w], hb[w]);
                assert_eq!((to[w], ho[w]), r, "join_rows word {w} (planted {planted}@{lane})");
            }
            bits::not_rows(&ta, &ha, WORDS * 64, &mut to, &mut ho);
            for w in 0..WORDS {
                let r = bits::not_word(ta[w], ha[w], !0);
                assert_eq!((to[w], ho[w]), r, "not_rows word {w} (planted {planted}@{lane})");
            }

            let mut dst = ta;
            bits::or_into(&mut dst, &tb);
            for w in 0..WORDS {
                assert_eq!(dst[w], ta[w] | tb[w], "or_into word {w}");
            }

            let (mut wt, mut wh) = (ta, ha);
            bits::weaken_rows(&mut wt, &mut wh);
            for w in 0..WORDS {
                assert_eq!(wt[w], 0, "weaken_rows must clear t (word {w})");
                assert_eq!(wh[w], ta[w] | ha[w], "weaken_rows h word {w}");
            }
        }
    }
}

/// The block *scan* kernels honour lane validity and slab strides: padding
/// lanes (zero by the plane invariant, so they read as `False`) must never
/// count as a ∀-counterexample, a `⊑` violation planted only in a padding
/// lane must be masked out, and violations or overlaps in any valid lane of
/// any row — first word, block interior, tail — must be found.
#[test]
fn block_scan_kernels_respect_stride_padding() {
    use hetsep_tvl::bits;

    // any_false: all-True valid lanes with inherently-False padding.
    for n in [1usize, 63, 64, 65, 127, 128, 130, 257, 320] {
        let words = bits::words_for(n);
        let mut t = vec![0u64; words];
        let h = vec![0u64; words];
        for (w, tw) in t.iter_mut().enumerate() {
            *tw = bits::word_mask(n, w);
        }
        assert!(!bits::any_false(&t, &h, n), "n={n}: padding must not read as False");
        for probe in [0, n / 2, n - 1] {
            let (w, b) = bits::lane(probe);
            let saved = t[w];
            t[w] &= !(1u64 << b);
            assert!(bits::any_false(&t, &h, n), "n={n}: missed False at lane {probe}");
            t[w] = saved;
        }
    }

    // le_info_any over a 3-row slab (binary-plane geometry).
    for n in [5usize, 63, 65, 130, 300] {
        let stride = bits::words_for(n);
        let rows = 3;
        let len = rows * stride;
        // a == b == all-Unknown on valid lanes: ordered, no violation.
        let mut ta = vec![0u64; len];
        let mut ha = vec![0u64; len];
        let tb = vec![0u64; len];
        let mut hb = vec![0u64; len];
        for r in 0..rows {
            for w in 0..stride {
                ha[r * stride + w] = bits::word_mask(n, w);
                hb[r * stride + w] = bits::word_mask(n, w);
            }
        }
        assert!(!bits::le_info_any(&ta, &ha, &tb, &hb, n, stride), "n={n}: ⊑ holds");
        if n % 64 != 0 {
            // a=True vs b=False planted in a *padding* lane of the middle
            // row's tail word: a violation bit-wise, but invalid — masked.
            let w = stride + stride - 1;
            ta[w] |= 1u64 << 63;
            assert!(
                !bits::le_info_any(&ta, &ha, &tb, &hb, n, stride),
                "n={n}: padding-lane violation must be masked out"
            );
            ta[w] &= !(1u64 << 63);
        }
        for (row, probe) in [(0, 0), (1, n / 2), (rows - 1, n - 1)] {
            // a=True vs b=False at a valid lane: a real violation.
            let (w, b) = bits::lane(probe);
            let ix = row * stride + w;
            let (sta, sha, shb) = (ta[ix], ha[ix], hb[ix]);
            ta[ix] |= 1u64 << b;
            ha[ix] &= !(1u64 << b);
            hb[ix] &= !(1u64 << b);
            assert!(
                bits::le_info_any(&ta, &ha, &tb, &hb, n, stride),
                "n={n}: missed violation at row {row} lane {probe}"
            );
            ta[ix] = sta;
            ha[ix] = sha;
            hb[ix] = shb;
        }
    }

    // overlap_any: split the universe, no overlap; then share one lane.
    for n in [1usize, 64, 65, 200, 260] {
        let words = bits::words_for(n);
        let (mut t1, h1) = (vec![0u64; words], vec![0u64; words]);
        let (mut t2, mut h2) = (vec![0u64; words], vec![0u64; words]);
        let split = n / 2;
        for j in 0..n {
            let (w, b) = bits::lane(j);
            if j < split {
                t1[w] |= 1u64 << b;
            } else if j % 2 == 0 {
                t2[w] |= 1u64 << b;
            } else {
                h2[w] |= 1u64 << b;
            }
        }
        assert!(
            !bits::overlap_any(&t1, &h1, &t2, &h2),
            "n={n}: disjoint supports must not overlap"
        );
        if split > 0 {
            let (w, b) = bits::lane(split - 1);
            h2[w] |= 1u64 << b;
            assert!(
                bits::overlap_any(&t1, &h1, &t2, &h2),
                "n={n}: shared lane {j} must overlap",
                j = split - 1
            );
        }
    }
}

/// Stride padding never leaks: running a structure through the full mutating
/// pipeline (bulk grow, duplicate, retain, permute, union, blur, coerce) at
/// universe sizes straddling the 64-bit word boundary always leaves it
/// byte-identical — `==`, hash, and fingerprint — to a clean rebuild from
/// its accessor-visible values. Any stray bit past `n` in a plane word would
/// break at least one of the three.
#[test]
fn stride_padding_bits_never_leak() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn rebuild(s: &Structure, table: &PredTable) -> Structure {
        use hetsep_tvl::pred::Arity;
        let mut out = Structure::new(table);
        out.add_nodes(table, s.node_count());
        for p in table.iter_arity(Arity::Nullary) {
            out.set_nullary(table, p, s.nullary(table, p));
        }
        for p in table.iter_arity(Arity::Unary) {
            for u in s.nodes() {
                out.set_unary(table, p, u, s.unary(table, p, u));
            }
        }
        for p in table.iter_arity(Arity::Binary) {
            for a in s.nodes() {
                for b in s.nodes() {
                    out.set_binary(table, p, a, b, s.binary(table, p, a, b));
                }
            }
        }
        out
    }

    fn hash_of(s: &Structure) -> u64 {
        let mut h = DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    }

    let v = vocab();
    for n in [1usize, 62, 63, 64, 65, 127, 128, 130] {
        let mut rng = XorShift::new(n as u64);
        let mut s = Structure::new(&v.table);
        s.add_nodes(&v.table, n);
        let ids: Vec<NodeId> = s.nodes().collect();
        for &u in &ids {
            let p = *rng.choose(&v.bools);
            s.set_unary(&v.table, p, u, [Kleene::True, Kleene::Unknown][rng.gen_range(2)]);
            let f = *rng.choose(&v.fields);
            let t = ids[rng.gen_range(n)];
            s.set_binary(&v.table, f, u, t, Kleene::True);
        }
        s.set_unary(&v.table, v.vars[0], ids[n - 1], Kleene::True);

        // Mutating pipeline across the word boundary.
        let dup = s.duplicate_node(&v.table, ids[0]);
        let (mut s, _) = s.retain_nodes(&v.table, |u| u != dup);
        let mut perm: Vec<NodeId> = s.nodes().collect();
        rng.shuffle(&mut perm);
        s = s.permute(&perm);
        s = s.union(&s.clone());
        let s = blur(&s, &v.table);
        let s = coerce(&s, &v.table)
            .feasible()
            .expect("pipeline output stays feasible");

        let clean = rebuild(&s, &v.table);
        assert_eq!(s, clean, "n={n}: equality must ignore nothing but values");
        assert_eq!(
            s.fingerprint(),
            clean.fingerprint(),
            "n={n}: fingerprint must be a pure function of the values"
        );
        assert_eq!(hash_of(&s), hash_of(&clean), "n={n}: hashes must agree");
        // Count folds see exactly the universe, never padding lanes.
        let all = s.nodes_where(&v.table, v.table.sm());
        assert!(all.len() <= s.node_count(), "n={n}");
        assert!(
            s.nodes_where(&v.table, v.vars[1]).is_empty(),
            "n={n}: unset predicate scans empty"
        );
    }
}

/// `blur` output is already canonical: nodes come out ordered by ascending
/// canonical name and names are unique per node (that is what merging
/// guarantees), so `canonical_key` on a blurred structure is the identity —
/// the keyed structure is byte-equal to the blurred one. The engine relies
/// on this to skip the re-keying pass on every post-structure.
#[test]
fn canonical_key_is_identity_on_blurred() {
    let v = vocab();
    for seed in 0..CASES {
        let mut rng = XorShift::new(seed);
        let h = gen_heap(&mut rng);
        let mut s = build(&v, &h);
        let nodes: Vec<NodeId> = s.nodes().collect();
        for &u in &nodes {
            if rng.gen_bool() {
                let p = *rng.choose(&v.bools);
                s.set_unary(&v.table, p, u, Kleene::Unknown);
            }
        }
        let b = blur(&s, &v.table);
        assert_eq!(
            canonical_key(&b, &v.table).into_structure(),
            b,
            "seed {seed}: canonical_key must be the identity on blur output"
        );
    }
}

/// The row-evaluation vocabulary: two unary, two binary and one nullary
/// predicate besides the built-in `sm`/`isnew`.
struct RowVocab {
    table: PredTable,
    unary: [PredId; 2],
    binary: [PredId; 2],
    nullary: PredId,
}

fn row_vocab() -> RowVocab {
    let mut table = PredTable::new();
    let unary = [
        table.add_unary("u0", PredFlags::boolean_field()),
        table.add_unary("u1", PredFlags::default()),
    ];
    let binary = [
        table.add_binary("f0", PredFlags::reference_field()),
        table.add_binary("f1", PredFlags::default()),
    ];
    let nullary = table.add_nullary("g", PredFlags::default());
    RowVocab { table, unary, binary, nullary }
}

/// The lane variable and the two other free variables of the row formulas.
const LANE: Var = Var(0);
const FREE: [Var; 2] = [Var(1), Var(2)];

fn gen_kleene(rng: &mut XorShift) -> Kleene {
    [Kleene::False, Kleene::Unknown, Kleene::True][rng.gen_range(3)]
}

/// A random 3-valued structure of `n` nodes: every unary value random, about
/// a quarter of the nodes summaries, a few random edges per source plus
/// some self-loops.
fn gen_row_structure(rng: &mut XorShift, v: &RowVocab, n: usize) -> Structure {
    let t = &v.table;
    let mut s = Structure::new(t);
    s.add_nodes(t, n);
    s.set_nullary(t, v.nullary, gen_kleene(rng));
    let ids: Vec<NodeId> = s.nodes().collect();
    for &u in &ids {
        for p in v.unary {
            s.set_unary(t, p, u, gen_kleene(rng));
        }
        s.set_summary(t, u, rng.gen_ratio(1, 4));
        for p in v.binary {
            for _ in 0..1 + rng.gen_range(3) {
                let d = ids[rng.gen_range(n)];
                s.set_binary(t, p, u, d, gen_kleene(rng));
            }
            if rng.gen_ratio(1, 3) {
                s.set_binary(t, p, u, u, gen_kleene(rng));
            }
        }
    }
    s
}

/// A random formula whose free variables are among `scope`; the lane
/// variable is picked for about half of all atom positions. Quantifiers
/// nest at most `quants` deep, and `Tc` (with a quantifier-free body)
/// appears only where `tc` allows it.
fn gen_row_formula(
    rng: &mut XorShift,
    v: &RowVocab,
    depth: u32,
    scope: &mut Vec<Var>,
    quants: u32,
    tc: bool,
) -> Formula {
    let pick = |rng: &mut XorShift, scope: &[Var]| {
        if rng.gen_bool() {
            LANE
        } else {
            *rng.choose(scope)
        }
    };
    if depth > 0 && rng.gen_range(3) != 0 {
        match rng.gen_range(6) {
            0 => return gen_row_formula(rng, v, depth - 1, scope, quants, tc).not(),
            1 => {
                let l = gen_row_formula(rng, v, depth - 1, scope, quants, tc);
                return l.and(gen_row_formula(rng, v, depth - 1, scope, quants, tc));
            }
            2 => {
                let l = gen_row_formula(rng, v, depth - 1, scope, quants, tc);
                return l.or(gen_row_formula(rng, v, depth - 1, scope, quants, tc));
            }
            3 | 4 if quants > 0 => {
                // Usually a fresh variable; sometimes one already in scope,
                // the lane included, to exercise shadowing.
                let bound = if rng.gen_ratio(1, 4) { pick(rng, scope) } else { Var(10 + depth as u16) };
                scope.push(bound);
                let body = gen_row_formula(rng, v, depth - 1, scope, quants - 1, false);
                scope.pop();
                return if rng.gen_bool() {
                    Formula::exists(bound, body)
                } else {
                    Formula::forall(bound, body)
                };
            }
            5 if tc => {
                let (a, b) = (Var(20), Var(21));
                scope.extend([a, b]);
                let body = gen_row_formula(rng, v, depth.min(2) - 1, scope, 0, false);
                scope.truncate(scope.len() - 2);
                let (lhs, rhs) = (pick(rng, scope), pick(rng, scope));
                return Formula::tc(lhs, rhs, a, b, body);
            }
            _ => {}
        }
    }
    match rng.gen_range(6) {
        0 => Formula::Const(gen_kleene(rng)),
        1 => Formula::nullary(v.nullary),
        2 => Formula::unary(*rng.choose(&v.unary), pick(rng, scope)),
        3 | 4 => {
            let (a, b) = (pick(rng, scope), pick(rng, scope));
            Formula::binary(*rng.choose(&v.binary), a, b)
        }
        _ => Formula::eq(pick(rng, scope), pick(rng, scope)),
    }
}

/// Hand-written shapes putting the lane in every position the row kernel
/// distinguishes.
fn row_shapes(v: &RowVocab) -> Vec<Formula> {
    let [u0, u1] = v.unary;
    let [f0, f1] = v.binary;
    let (l, x, y, w, z) = (LANE, FREE[0], FREE[1], Var(10), Var(11));
    let (a, b) = (Var(20), Var(21));
    vec![
        Formula::unary(u0, l),
        Formula::binary(f0, l, x),
        Formula::binary(f0, x, l),
        Formula::binary(f1, l, l),
        Formula::eq(l, l),
        Formula::eq(l, x),
        Formula::eq(y, l),
        Formula::eq(x, y),
        Formula::nullary(v.nullary),
        Formula::Const(Kleene::Unknown),
        Formula::Const(Kleene::True).not(),
        Formula::nullary(v.nullary).and(Formula::unary(u1, l)),
        Formula::unary(u0, l).or(Formula::binary(f0, l, x).not()),
        Formula::exists(w, Formula::binary(f0, l, w).and(Formula::unary(u1, w))),
        Formula::forall(w, Formula::binary(f1, w, l).or(Formula::unary(u0, w).not())),
        Formula::exists(w, Formula::forall(z, Formula::binary(f0, w, z).or(Formula::binary(f1, l, z)))),
        Formula::forall(w, Formula::exists(z, Formula::binary(f0, l, z).and(Formula::eq(z, w)))),
        Formula::exists(l, Formula::unary(u0, l)),
        Formula::forall(w, Formula::unary(u0, w)).and(Formula::unary(u1, l)),
        Formula::tc(l, x, a, b, Formula::binary(f0, a, b)),
        Formula::tc(x, l, a, b, Formula::binary(f0, a, b).or(Formula::binary(f1, b, a))),
        Formula::tc(l, l, a, b, Formula::binary(f1, a, b)),
        Formula::tc(x, y, a, b, Formula::binary(f0, a, b)),
        Formula::tc(l, x, a, b, Formula::binary(f0, a, b).and(Formula::unary(u0, l))),
        Formula::unary(u0, l).not().and(Formula::tc(l, y, a, b, Formula::binary(f0, b, a))),
    ]
}

/// A closure under a quantifier: the reference recomputes it per lane and
/// per bound node, O(n⁴) steps, so it is checked on small universes only.
fn tc_under_quantifier(v: &RowVocab) -> Formula {
    let (l, w, a, b) = (LANE, Var(10), Var(20), Var(21));
    let reach = Formula::tc(l, w, a, b, Formula::binary(v.binary[0], a, b));
    Formula::exists(w, reach.and(Formula::unary(v.unary[1], w)))
}

/// Checks `eval_row` (with the lane also bound, to garbage, in the
/// assignment) against the reference row, plus the plane invariants:
/// `t & h == 0` and zero padding past `n`.
fn check_row(s: &Structure, table: &PredTable, f: &Formula, free: [NodeId; 2], ctx: &str) {
    use hetsep_tvl::bits;
    use hetsep_tvl::eval::{eval_row, Assignment, TcMemo};

    let n = s.node_count();
    let mut env = vec![(FREE[0], free[0]), (FREE[1], free[1])];
    let want = reference::reference_row(s, table, f, LANE, &mut env);
    let mut asg = Assignment::of([(FREE[0], free[0]), (FREE[1], free[1]), (LANE, free[1])]);
    let stride = bits::words_for(n);
    let (mut t, mut h) = (vec![!0u64; stride], vec![!0u64; stride]);
    eval_row(s, table, f, LANE, &mut asg, &mut TcMemo::new(), &mut t, &mut h);
    for (u, want) in want.iter().enumerate() {
        assert_eq!(bits::get_lane(&t, &h, u), *want, "{ctx}: lane {u} of {f}");
    }
    for w in 0..stride {
        assert_eq!(t[w] & h[w], 0, "{ctx}: t & h in word {w} of {f}");
        let pad = !bits::word_mask(n, w);
        assert_eq!((t[w] | h[w]) & pad, 0, "{ctx}: padding bits in word {w} of {f}");
    }
    assert_eq!(asg.get(LANE), Some(free[1]), "{ctx}: lane binding restored");
    assert_eq!(asg.get(FREE[0]), Some(free[0]), "{ctx}: free binding kept");
}

/// `eval_row` equals the per-node reference semantics lane for lane, on
/// seeded random 3-valued structures at word-boundary sizes, for the
/// hand-written shapes and for random formulas; closed quantifications of
/// the same formulas pin the scalar row folds, including the empty
/// universe.
#[test]
fn eval_row_matches_reference_evaluator() {
    use hetsep_tvl::eval::eval_closed;

    let v = row_vocab();
    let t = &v.table;
    for n in [0usize, 1, 2, 63, 64, 65, 129] {
        let mut rng = XorShift::new(0x7017 ^ n as u64);
        let s = gen_row_structure(&mut rng, &v, n);
        let mut formulas = row_shapes(&v);
        if n <= 2 {
            formulas.push(tc_under_quantifier(&v));
        }
        let (quants, tc) = if n <= 65 { (2, true) } else { (1, false) };
        for _ in 0..24 {
            let mut scope = vec![LANE, FREE[0], FREE[1]];
            formulas.push(gen_row_formula(&mut rng, &v, 4, &mut scope, quants, tc));
        }
        for (ix, f) in formulas.iter().enumerate() {
            let ctx = format!("n={n} formula #{ix}");
            if n > 0 {
                let free = [NodeId::from_index(rng.gen_range(n)), NodeId::from_index(n - 1)];
                check_row(&s, t, f, free, &ctx);
            }
            if n <= 2 {
                // Closed: every free variable quantified, so the scalar
                // quantifiers fold rows of rows.
                let closed = Formula::exists(
                    FREE[0],
                    Formula::forall(FREE[1], Formula::exists(LANE, f.clone())),
                );
                let want = reference::reference_eval(&s, t, &closed, &mut Vec::new());
                assert_eq!(eval_closed(&s, t, &closed), want, "{ctx}: {closed}");
            }
        }
    }
}
