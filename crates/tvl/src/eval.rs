//! Three-valued evaluation of formulas over structures.
//!
//! Evaluation follows the standard 3-valued Kleene semantics of the
//! parametric framework: quantifiers fold their connective over the universe,
//! equality on a summary node yields `1/2`, and transitive closure is computed
//! as a relational fixpoint. The result is a *conservative* approximation: if
//! the structure embeds a concrete state, the concrete truth value is always
//! `⊑`-below the abstract one (soundness — see the embedding tests in
//! [`crate::embed`]).
//!
//! # Row evaluation
//!
//! Most evaluation runs on the two-plane bit representation of
//! [`Structure`] (see [`crate::bits`]), one *row* at a time: [`eval_row`]
//! evaluates a formula at every node for one free *lane* variable, 64 nodes
//! per `(t, h)` word pair.
//!
//! * An atom over the lane is a plane or row copy (`p(v)`, `f(u, v)`), a
//!   column gather (`f(v, u)`) or a diagonal gather (`f(v, v)`); `v == v`
//!   reads the `sm` plane; an atom without the lane is broadcast.
//! * `¬`, `∧`, `∨` are the word kernels; a left operand that already decides
//!   every lane that matters short-circuits the right one.
//! * `∃w`/`∀w` over another variable fold the body's rows over `w` — or,
//!   when the body reads an edge from the lane to `w` (whose lane row would
//!   be built from column gathers), fold per lane over rows of `w`.
//! * `Tc` over the lane evaluates per lane, sharing the closure through the
//!   [`TcMemo`].
//!
//! Scalar quantifiers ([`eval_memo`] on `∃v. φ`) fold the row of `φ` in `v`
//! instead of looping over nodes, and transitive closure builds its step
//! relation one row per source. Rows longer than 64 lanes are evaluated one
//! word at a time by the same kernel, so no path allocates.
//!
//! Transitive closure decomposes into two *boolean* closures: a path is
//! `True` iff some path uses only `True` edges, and `≠ False` iff some path
//! uses only `≠ False` edges. Each boolean closure is a bit-matrix Warshall
//! pass whose inner step or-s whole 64-lane words, dropping the fixpoint
//! from O(n³) element steps to O(n³/64) word steps.

use crate::bits;
use crate::formula::{Formula, Var};
use crate::kleene::Kleene;
use crate::pred::{Arity, PredTable};
use crate::structure::{NodeId, Structure};

/// A partial assignment of individuals to logical variables.
#[derive(Debug, Default, Clone)]
pub struct Assignment {
    slots: Vec<Option<NodeId>>,
}

impl Assignment {
    /// Creates an empty assignment.
    pub fn new() -> Assignment {
        Assignment::default()
    }

    /// Creates an assignment binding each `(var, node)` pair.
    pub fn of(bindings: impl IntoIterator<Item = (Var, NodeId)>) -> Assignment {
        let mut a = Assignment::new();
        for (v, n) in bindings {
            a.bind(v, n);
        }
        a
    }

    /// Binds `v` to `node`, growing the assignment as needed.
    pub fn bind(&mut self, v: Var, node: NodeId) {
        let ix = v.0 as usize;
        if self.slots.len() <= ix {
            self.slots.resize(ix + 1, None);
        }
        self.slots[ix] = Some(node);
    }

    /// Removes the binding of `v`, if any.
    pub fn unbind(&mut self, v: Var) {
        if let Some(slot) = self.slots.get_mut(v.0 as usize) {
            *slot = None;
        }
    }

    /// Current binding of `v`.
    pub fn get(&self, v: Var) -> Option<NodeId> {
        self.slots.get(v.0 as usize).copied().flatten()
    }

    /// Resolves a variable that the evaluator requires to be bound.
    ///
    /// Every caller either binds the variable itself (quantifiers, `Tc`) or
    /// documents that free variables of the formula must be bound, so a miss
    /// here is a caller contract violation, not a recoverable state — hence
    /// `unreachable!`, with the offending subformula for context.
    fn lookup(&self, v: Var, ctx: &Formula) -> NodeId {
        self.get(v).unwrap_or_else(|| {
            unreachable!(
                "unbound variable {v} while evaluating {ctx} — \
                 callers must bind every free variable before evaluation"
            )
        })
    }
}

/// A transitive-closure matrix in two-plane form: `t` holds the lanes whose
/// closure value is `True`, `m` the lanes whose value is `≠ False` (so
/// `t ⊆ m`, and a lane in `m \ t` is `Unknown`). Rows are `stride` words.
#[derive(Debug, Clone)]
struct TcBits {
    stride: usize,
    t: Vec<u64>,
    m: Vec<u64>,
}

impl TcBits {
    #[inline]
    fn get(&self, i: usize, j: usize) -> Kleene {
        let w = i * self.stride + (j >> 6);
        let b = (j & 63) as u32;
        let t = (self.t[w] >> b) & 1 != 0;
        let m = (self.m[w] >> b) & 1 != 0;
        Kleene::from_bits(t, m && !t)
    }
}

/// Memoizes transitive-closure matrices across many [`eval_memo`] calls
/// over the *same* structure.
///
/// Evaluating a `Tc` subformula costs a full relational fixpoint, and the
/// sweeps that dominate the analysis (predicate-update transformers, coerce
/// instrumentation rules) re-evaluate the same formula once per node or node
/// pair — recomputing an identical closure every time. A `TcMemo` carried
/// across one sweep caches the matrix per `Tc` body.
///
/// Entries are keyed by the body subformula's address, which identifies it
/// for as long as the formula borrow lives; a matrix is only cached when the
/// body's free variables are all bound by the `Tc` itself, making the
/// closure independent of the outer assignment. Callers must [`clear`] the
/// memo whenever the structure under evaluation changes — the cache is
/// exact, never heuristic, so a stale entry would be a soundness bug. Debug
/// builds enforce this: the memo remembers the fingerprint of the structure
/// it cached for and asserts on every cached read that the structure still
/// matches, so a mutation (e.g. a coerce sharpening step) that forgets to
/// `clear()` trips an assertion instead of silently reusing stale closures.
///
/// [`clear`]: TcMemo::clear
#[derive(Debug, Default)]
pub struct TcMemo {
    /// `(body address, closure)`; `None` marks a body whose closure depends
    /// on outer bindings and must be recomputed per call.
    entries: Vec<(usize, Option<TcBits>)>,
    /// Fingerprint of the structure the cached closures were computed over
    /// (debug builds only; see the stale-entry guard above).
    #[cfg(debug_assertions)]
    stamp: Option<u64>,
}

impl TcMemo {
    /// Creates an empty memo.
    pub fn new() -> TcMemo {
        TcMemo::default()
    }

    /// Drops all cached closures. Must be called when the structure being
    /// evaluated over is mutated.
    pub fn clear(&mut self) {
        self.entries.clear();
        #[cfg(debug_assertions)]
        {
            self.stamp = None;
        }
    }

    /// Stale-entry soundness guard (debug builds): records the structure's
    /// fingerprint on first use and asserts it is unchanged on every
    /// subsequent use, catching mutations that skipped [`TcMemo::clear`].
    #[cfg(debug_assertions)]
    fn check_stamp(&mut self, s: &Structure) {
        let fp = s.fingerprint();
        match self.stamp {
            None => self.stamp = Some(fp),
            Some(stamp) => debug_assert_eq!(
                stamp, fp,
                "TcMemo reused across a structure mutation without clear() — \
                 stale closure entries are a soundness bug"
            ),
        }
    }
}

/// Evaluates `formula` over `s` under `asg`.
///
/// # Panics
///
/// Panics if a free variable of `formula` is unbound in `asg`, or if a
/// predicate is applied at the wrong arity.
pub fn eval(s: &Structure, table: &PredTable, formula: &Formula, asg: &mut Assignment) -> Kleene {
    eval_memo(s, table, formula, asg, &mut TcMemo::new())
}

/// Like [`eval`], but reuses transitive-closure matrices cached in `memo`.
///
/// Sweeps that evaluate one formula at every node (pair) of a fixed
/// structure should share a single memo across the sweep; see [`TcMemo`]
/// for the invalidation contract.
pub fn eval_memo(
    s: &Structure,
    table: &PredTable,
    formula: &Formula,
    asg: &mut Assignment,
    memo: &mut TcMemo,
) -> Kleene {
    match formula {
        Formula::Const(k) => *k,
        Formula::Nullary(p) => s.nullary(table, *p),
        Formula::Unary(p, v) => s.unary(table, *p, asg.lookup(*v, formula)),
        Formula::Binary(p, a, b) => {
            s.binary(table, *p, asg.lookup(*a, formula), asg.lookup(*b, formula))
        }
        Formula::Eq(a, b) => {
            let (u, v) = (asg.lookup(*a, formula), asg.lookup(*b, formula));
            if u != v {
                Kleene::False
            } else if s.is_summary(table, u) {
                // A summary node may represent several distinct individuals.
                Kleene::Unknown
            } else {
                Kleene::True
            }
        }
        Formula::Not(f) => !eval_memo(s, table, f, asg, memo),
        Formula::And(l, r) => {
            let lv = eval_memo(s, table, l, asg, memo);
            if lv == Kleene::False {
                return Kleene::False;
            }
            lv & eval_memo(s, table, r, asg, memo)
        }
        Formula::Or(l, r) => {
            let lv = eval_memo(s, table, l, asg, memo);
            if lv == Kleene::True {
                return Kleene::True;
            }
            lv | eval_memo(s, table, r, asg, memo)
        }
        Formula::Exists(v, f) => fold_row(s, table, *v, f, asg, memo, Quant::Exists),
        Formula::Forall(v, f) => fold_row(s, table, *v, f, asg, memo, Quant::Forall),
        Formula::Tc { lhs, rhs, a, b, body } => {
            let (u, v) = (asg.lookup(*lhs, formula), asg.lookup(*rhs, formula));
            #[cfg(debug_assertions)]
            memo.check_stamp(s);
            let key = &**body as *const Formula as usize;
            let cached = memo.entries.iter().position(|(k, _)| *k == key);
            if let Some(Some(m)) = cached.map(|ix| &memo.entries[ix].1) {
                return m.get(u.index(), v.index());
            }
            // Not cached yet, or the closure depends on outer bindings.
            let m = tc_closure(s, table, *a, *b, body, asg, memo);
            let val = m.get(u.index(), v.index());
            if cached.is_none() {
                let cacheable = body.free_vars().iter().all(|fv| fv == a || fv == b);
                memo.entries.push((key, cacheable.then_some(m)));
            }
            val
        }
    }
}

fn restore(asg: &mut Assignment, v: Var, saved: Option<NodeId>) {
    match saved {
        Some(node) => asg.bind(v, node),
        None => asg.unbind(v),
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Quant {
    Exists,
    Forall,
}

/// Folds `∃v. body` / `∀v. body` over the rows of `body` in `v`.
///
/// Reproduces the per-node loop's Kleene algebra exactly: for `∃` the result
/// is `True` if any lane is `True`, else `Unknown` if any lane is `Unknown`,
/// else `False`; `∀` dually. An empty universe folds to the connective's
/// unit (`False` for `∃`, `True` for `∀`).
fn fold_row(
    s: &Structure,
    table: &PredTable,
    v: Var,
    body: &Formula,
    asg: &mut Assignment,
    memo: &mut TcMemo,
    q: Quant,
) -> Kleene {
    let n = s.node_count();
    let (mut has_t, mut has_h, mut has_f) = (false, false, false);
    for word in 0..s.stride_words() {
        let (t, h) = row_word(s, table, body, Lanes::new(v, word, n), asg, memo);
        has_t |= t != 0;
        has_h |= h != 0;
        has_f |= bits::word_mask(n, word) & !(t | h) != 0;
        // The decisive lane for this quantifier (True for ∃, False for ∀)
        // fixes the result.
        if (q == Quant::Exists && has_t) || (q == Quant::Forall && has_f) {
            break;
        }
    }
    match q {
        Quant::Exists if has_t => Kleene::True,
        Quant::Forall if has_f => Kleene::False,
        _ if has_h => Kleene::Unknown,
        Quant::Exists => Kleene::False,
        Quant::Forall => Kleene::True,
    }
}

/// One 64-lane word of a row: lanes `64 * word ..` of the lane variable
/// `var`. `valid` masks the lanes that exist; `need` (a subset) the lanes
/// whose value the enclosing formula still depends on. Lanes outside `need`
/// may carry any value that keeps the `t & h == 0` and padding invariants.
#[derive(Clone, Copy)]
struct Lanes {
    var: Var,
    word: usize,
    valid: u64,
    need: u64,
}

impl Lanes {
    fn new(var: Var, word: usize, n: usize) -> Lanes {
        let valid = bits::word_mask(n, word);
        Lanes { var, word, valid, need: valid }
    }

    fn needing(self, need: u64) -> Lanes {
        Lanes { need, ..self }
    }

    /// Node index of lane 0.
    fn base(self) -> usize {
        self.word * bits::WORD_BITS
    }

    /// The same value in every valid lane.
    fn splat(self, k: Kleene) -> (u64, u64) {
        match k {
            Kleene::True => (self.valid, 0),
            Kleene::Unknown => (0, self.valid),
            Kleene::False => (0, 0),
        }
    }

    /// The lane bit of `node`, or 0 when the node lies in another word.
    fn bit(self, node: usize) -> u64 {
        if node / bits::WORD_BITS == self.word {
            1 << (node % bits::WORD_BITS)
        } else {
            0
        }
    }
}

/// Evaluates `formula` at every node for the free variable `lane`, writing
/// the row's planes into `t` and `h` (`words_for(n)` words each; padding
/// bits stay zero). Every other free variable must be bound in `asg`; a
/// binding of `lane` itself is ignored. `memo` follows the [`TcMemo`]
/// contract.
///
/// Equal, lane for lane, to [`eval_memo`] with `lane` bound to each node.
///
/// # Panics
///
/// Panics if the slices are not one row long, if another free variable is
/// unbound, or if a predicate is applied at the wrong arity.
#[allow(clippy::too_many_arguments)]
pub fn eval_row(
    s: &Structure,
    table: &PredTable,
    formula: &Formula,
    lane: Var,
    asg: &mut Assignment,
    memo: &mut TcMemo,
    t: &mut [u64],
    h: &mut [u64],
) {
    let stride = s.stride_words();
    assert!(t.len() == stride && h.len() == stride, "eval_row needs one row of planes");
    for word in 0..stride {
        (t[word], h[word]) = eval_row_word(s, table, formula, lane, word, asg, memo);
    }
}

/// Word `word` of [`eval_row`]: the values at nodes `64 * word ..` as one
/// `(t, h)` word pair. Rows of at most 64 nodes are exactly word 0, so
/// sweeps over them run on plain `u64` values.
pub(crate) fn eval_row_word(
    s: &Structure,
    table: &PredTable,
    formula: &Formula,
    lane: Var,
    word: usize,
    asg: &mut Assignment,
    memo: &mut TcMemo,
) -> (u64, u64) {
    row_word(s, table, formula, Lanes::new(lane, word, s.node_count()), asg, memo)
}

fn row_word(
    s: &Structure,
    table: &PredTable,
    formula: &Formula,
    lanes: Lanes,
    asg: &mut Assignment,
    memo: &mut TcMemo,
) -> (u64, u64) {
    let w = lanes.word;
    match formula {
        Formula::Const(k) => lanes.splat(*k),
        Formula::Nullary(p) => lanes.splat(s.nullary(table, *p)),
        Formula::Unary(p, v) if *v == lanes.var => {
            assert_eq!(table.arity(*p), Arity::Unary);
            let (t, h) = s.unary_planes(table.slot(*p));
            (t[w], h[w])
        }
        Formula::Unary(p, v) => lanes.splat(s.unary(table, *p, asg.lookup(*v, formula))),
        Formula::Binary(p, a, b) if *a == lanes.var || *b == lanes.var => {
            assert_eq!(table.arity(*p), Arity::Binary);
            let slot = table.slot(*p);
            if *a != lanes.var {
                // Row copy: p(src, ·).
                let src = asg.lookup(*a, formula).index();
                assert!(src < s.node_count(), "node u{src} out of range");
                let (t, h) = s.binary_row(slot, src);
                return (t[w], h[w]);
            }
            // Column gather p(·, dst), or the diagonal p(v, v).
            let dst = if *b == lanes.var { None } else { Some(asg.lookup(*b, formula).index()) };
            let (pt, ph) = s.binary_slot_planes(slot);
            let stride = s.stride_words();
            let (mut t, mut h) = (0, 0);
            let mut m = lanes.valid;
            while m != 0 {
                let i = m.trailing_zeros() as usize;
                let src = lanes.base() + i;
                let (dw, db) = bits::lane(dst.unwrap_or(src));
                let at = src * stride + dw;
                t |= ((pt[at] >> db) & 1) << i;
                h |= ((ph[at] >> db) & 1) << i;
                m &= m - 1;
            }
            (t, h)
        }
        Formula::Binary(p, a, b) => {
            let (u, v) = (asg.lookup(*a, formula), asg.lookup(*b, formula));
            lanes.splat(s.binary(table, *p, u, v))
        }
        Formula::Eq(a, b) if *a == lanes.var && *b == lanes.var => {
            // u == u: True, or 1/2 on a summary node.
            let (_, sm) = s.unary_planes(table.slot(table.sm()));
            (lanes.valid & !sm[w], sm[w])
        }
        Formula::Eq(a, b) if *a == lanes.var || *b == lanes.var => {
            let other = if *a == lanes.var { *b } else { *a };
            let u = asg.lookup(other, formula);
            let bit = lanes.bit(u.index());
            if s.is_summary(table, u) {
                (0, bit)
            } else {
                (bit, 0)
            }
        }
        Formula::Eq(..) => lanes.splat(eval_memo(s, table, formula, asg, memo)),
        Formula::Not(f) => {
            let (t, h) = row_word(s, table, f, lanes, asg, memo);
            bits::not_word(t, h, lanes.valid)
        }
        Formula::And(l, r) => {
            let (lt, lh) = row_word(s, table, l, lanes, asg, memo);
            // Lanes where the left operand is False are decided.
            let need = lanes.need & (lt | lh);
            if need == 0 {
                return (lt, lh);
            }
            let (rt, rh) = row_word(s, table, r, lanes.needing(need), asg, memo);
            bits::and_word(lt, lh, rt, rh)
        }
        Formula::Or(l, r) => {
            let (lt, lh) = row_word(s, table, l, lanes, asg, memo);
            // Lanes where the left operand is True are decided.
            let need = lanes.need & !lt;
            if need == 0 {
                return (lt, lh);
            }
            let (rt, rh) = row_word(s, table, r, lanes.needing(need), asg, memo);
            bits::or_word(lt, lh, rt, rh)
        }
        Formula::Exists(v, body) | Formula::Forall(v, body) => {
            if *v == lanes.var || !body.mentions_free(lanes.var) {
                return lanes.splat(eval_memo(s, table, formula, asg, memo));
            }
            if reads_edge(body, lanes.var, *v) {
                // The body's lane row would be built from column gathers of
                // edges lane → v; folding rows of v per lane reads the same
                // edges as row copies instead.
                return per_lane(s, table, formula, lanes, asg, memo);
            }
            let exists = matches!(formula, Formula::Exists(..));
            let saved = asg.get(*v);
            let (mut acc_t, mut acc_h) = if exists { (0, 0) } else { (lanes.valid, 0) };
            for u in s.nodes() {
                asg.bind(*v, u);
                // Lanes already True (∃) or False (∀) are decided.
                let open = if exists { !acc_t } else { acc_t | acc_h };
                let need = lanes.need & open;
                if need == 0 {
                    break;
                }
                let (t, h) = row_word(s, table, body, lanes.needing(need), asg, memo);
                (acc_t, acc_h) = if exists {
                    bits::or_word(acc_t, acc_h, t, h)
                } else {
                    bits::and_word(acc_t, acc_h, t, h)
                };
            }
            restore(asg, *v, saved);
            (acc_t, acc_h)
        }
        Formula::Tc { .. } => {
            if formula.mentions_free(lanes.var) {
                per_lane(s, table, formula, lanes, asg, memo)
            } else {
                lanes.splat(eval_memo(s, table, formula, asg, memo))
            }
        }
    }
}

/// The fallback for shapes without a row form: [`eval_memo`] at each needed
/// lane, with the lane variable bound to the lane's node.
fn per_lane(
    s: &Structure,
    table: &PredTable,
    formula: &Formula,
    lanes: Lanes,
    asg: &mut Assignment,
    memo: &mut TcMemo,
) -> (u64, u64) {
    let saved = asg.get(lanes.var);
    let (mut t, mut h) = (0, 0);
    let mut m = lanes.need;
    while m != 0 {
        let i = m.trailing_zeros();
        asg.bind(lanes.var, NodeId::from_index(lanes.base() + i as usize));
        match eval_memo(s, table, formula, asg, memo) {
            Kleene::True => t |= 1 << i,
            Kleene::Unknown => h |= 1 << i,
            Kleene::False => {}
        }
        m &= m - 1;
    }
    restore(asg, lanes.var, saved);
    (t, h)
}

/// Whether `f` reads a binary atom `p(src, dst)` with both variables free.
fn reads_edge(f: &Formula, src: Var, dst: Var) -> bool {
    match f {
        Formula::Binary(_, a, b) => *a == src && *b == dst,
        Formula::Not(g) => reads_edge(g, src, dst),
        Formula::And(l, r) | Formula::Or(l, r) => reads_edge(l, src, dst) || reads_edge(r, src, dst),
        Formula::Exists(x, g) | Formula::Forall(x, g) => {
            *x != src && *x != dst && reads_edge(g, src, dst)
        }
        _ => false,
    }
}

/// Computes the 3-valued transitive closure matrix of the step relation
/// `body(a, b)` under the current outer assignment.
///
/// Paths of length ≥ 1 are considered; traversal *through* a summary node is
/// handled implicitly (a step into and out of the same summary node composes
/// its possibly-many members).
///
/// The Kleene closure (max-min path semiring over `0 < 1/2 < 1`) decomposes
/// into two boolean closures: a pair is `True` iff connected through `True`
/// edges only, and `≠ False` iff connected through `≠ False` edges. Both run
/// as bit-matrix Warshall passes over whole words.
fn tc_closure(
    s: &Structure,
    table: &PredTable,
    a: Var,
    b: Var,
    body: &Formula,
    asg: &mut Assignment,
    memo: &mut TcMemo,
) -> TcBits {
    let n = s.node_count();
    let stride = bits::words_for(n);
    let mut step_t = vec![0u64; n * stride];
    let mut step_m = vec![0u64; n * stride];

    // Fast path: the step relation is exactly a binary predicate — its
    // planes *are* the adjacency matrices, word for word.
    let direct = match body {
        Formula::Binary(p, fa, fb)
            if *fa == a && *fb == b && table.arity(*p) == Arity::Binary =>
        {
            Some(table.slot(*p))
        }
        _ => None,
    };
    if let Some(slot) = direct {
        for src in 0..n {
            let (t, h) = s.binary_row(slot, src);
            let row = src * stride;
            step_t[row..row + stride].copy_from_slice(t);
            for w in 0..stride {
                step_m[row + w] = t[w] | h[w];
            }
        }
    } else {
        // One step row per source: body(u, ·) as a row in `b`.
        let saved = asg.get(a);
        for u in s.nodes() {
            asg.bind(a, u);
            for w in 0..stride {
                let (t, h) = eval_row_word(s, table, body, b, w, asg, memo);
                step_t[u.index() * stride + w] = t;
                step_m[u.index() * stride + w] = t | h;
            }
        }
        restore(asg, a, saved);
    }

    bool_closure(&mut step_t, n, stride);
    bool_closure(&mut step_m, n, stride);
    TcBits { stride, t: step_t, m: step_m }
}

/// In-place boolean transitive closure (paths of length ≥ 1) of an `n × n`
/// bit adjacency matrix with `stride`-word rows: Warshall's algorithm with
/// the inner union taken a wide-lane block at a time ([`bits::or_into`]).
fn bool_closure(adj: &mut [u64], n: usize, stride: usize) {
    let mut krow = vec![0u64; stride];
    for k in 0..n {
        let (kw, kb) = (k >> 6, (k & 63) as u32);
        krow.copy_from_slice(&adj[k * stride..(k + 1) * stride]);
        for row in adj.chunks_exact_mut(stride).take(n) {
            if (row[kw] >> kb) & 1 != 0 {
                bits::or_into(row, &krow);
            }
        }
    }
}

/// Evaluates a closed formula (no free variables).
///
/// # Panics
///
/// Panics if the formula has free variables.
pub fn eval_closed(s: &Structure, table: &PredTable, formula: &Formula) -> Kleene {
    debug_assert!(
        formula.free_vars().is_empty(),
        "eval_closed on open formula {formula}"
    );
    eval(s, table, formula, &mut Assignment::new())
}

/// Evaluates a formula with exactly one free variable at each node, returning
/// the vector of values indexed by node (an unpacked [`eval_row`]).
pub fn eval_unary_at_all(
    s: &Structure,
    table: &PredTable,
    formula: &Formula,
    var: Var,
) -> Vec<Kleene> {
    let stride = s.stride_words();
    let (mut t, mut h) = (vec![0; stride], vec![0; stride]);
    let (mut asg, mut memo) = (Assignment::new(), TcMemo::new());
    eval_row(s, table, formula, var, &mut asg, &mut memo, &mut t, &mut h);
    (0..s.node_count()).map(|u| bits::get_lane(&t, &h, u)).collect()
}

/// The naive per-node reference semantics the tests below pin against,
/// shared with the integration tests.
#[cfg(test)]
#[path = "../tests/reference/mod.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::{PredFlags, PredId};

    fn setup() -> (PredTable, PredId, PredId, PredId) {
        let mut t = PredTable::new();
        let x = t.add_unary("x", PredFlags::reference_variable());
        let f = t.add_binary("f", PredFlags::reference_field());
        let g = t.add_nullary("g", PredFlags::default());
        (t, x, f, g)
    }

    /// x → u0 → u1 → u2 (chain via f), x(u0)=1.
    fn chain(t: &PredTable, x: PredId, f: PredId) -> Structure {
        let mut s = Structure::new(t);
        let nodes: Vec<NodeId> = (0..3).map(|_| s.add_node(t)).collect();
        s.set_unary(t, x, nodes[0], Kleene::True);
        s.set_binary(t, f, nodes[0], nodes[1], Kleene::True);
        s.set_binary(t, f, nodes[1], nodes[2], Kleene::True);
        s
    }

    #[test]
    fn atoms_and_connectives() {
        let (t, x, f, g) = setup();
        let s = chain(&t, x, f);
        let (v0, v1) = (Var(0), Var(1));
        let mut asg = Assignment::of([(v0, NodeId(0)), (v1, NodeId(1))]);
        assert_eq!(eval(&s, &t, &Formula::unary(x, v0), &mut asg), Kleene::True);
        assert_eq!(eval(&s, &t, &Formula::unary(x, v1), &mut asg), Kleene::False);
        assert_eq!(eval(&s, &t, &Formula::binary(f, v0, v1), &mut asg), Kleene::True);
        assert_eq!(eval(&s, &t, &Formula::nullary(g), &mut asg), Kleene::False);
        assert_eq!(
            eval(&s, &t, &Formula::unary(x, v0).and(Formula::unary(x, v1).not()), &mut asg),
            Kleene::True
        );
    }

    #[test]
    fn equality_on_summary_is_unknown() {
        let (t, x, f, _g) = setup();
        let mut s = chain(&t, x, f);
        let v0 = Var(0);
        let mut asg = Assignment::of([(v0, NodeId(1)), (Var(1), NodeId(1))]);
        assert_eq!(eval(&s, &t, &Formula::eq(v0, Var(1)), &mut asg), Kleene::True);
        s.set_summary(&t, NodeId(1), true);
        assert_eq!(eval(&s, &t, &Formula::eq(v0, Var(1)), &mut asg), Kleene::Unknown);
        let mut asg2 = Assignment::of([(v0, NodeId(0)), (Var(1), NodeId(1))]);
        assert_eq!(eval(&s, &t, &Formula::eq(v0, Var(1)), &mut asg2), Kleene::False);
    }

    #[test]
    fn quantifiers() {
        let (t, x, f, _g) = setup();
        let s = chain(&t, x, f);
        let v = Var(0);
        // ∃v. x(v) = 1; ∀v. x(v) = 0
        assert_eq!(
            eval_closed(&s, &t, &Formula::exists(v, Formula::unary(x, v))),
            Kleene::True
        );
        assert_eq!(
            eval_closed(&s, &t, &Formula::forall(v, Formula::unary(x, v))),
            Kleene::False
        );
    }

    #[test]
    fn quantifier_over_unknown_value() {
        let (t, x, _f, _g) = setup();
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        s.set_unary(&t, x, u, Kleene::Unknown);
        let v = Var(0);
        assert_eq!(
            eval_closed(&s, &t, &Formula::exists(v, Formula::unary(x, v))),
            Kleene::Unknown
        );
        assert_eq!(
            eval_closed(&s, &t, &Formula::forall(v, Formula::unary(x, v))),
            Kleene::Unknown
        );
    }

    #[test]
    fn quantifier_fold_matches_loop_on_all_shapes() {
        // Pin the row folds of ∃/∀ over p(v), ¬p(v), f(u,v), f(v,u) and
        // their negations against the per-node reference evaluator on a
        // mixed structure.
        let (t, x, f, _g) = setup();
        let mut s = Structure::new(&t);
        let nodes: Vec<NodeId> = (0..5).map(|_| s.add_node(&t)).collect();
        s.set_unary(&t, x, nodes[1], Kleene::Unknown);
        s.set_unary(&t, x, nodes[3], Kleene::True);
        s.set_binary(&t, f, nodes[0], nodes[2], Kleene::Unknown);
        s.set_binary(&t, f, nodes[2], nodes[4], Kleene::True);
        s.set_binary(&t, f, nodes[4], nodes[0], Kleene::Unknown);
        let v = Var(0);
        let u = Var(1);
        let bodies = [
            Formula::unary(x, v),
            Formula::unary(x, v).not(),
            Formula::binary(f, u, v),
            Formula::binary(f, v, u),
            Formula::binary(f, u, v).not(),
            Formula::binary(f, v, u).not(),
        ];
        for src in &nodes {
            for body in &bodies {
                for phi in [Formula::exists(v, body.clone()), Formula::forall(v, body.clone())] {
                    let got = eval(&s, &t, &phi, &mut Assignment::of([(u, *src)]));
                    let want = reference::reference_eval(&s, &t, &phi, &mut vec![(u, *src)]);
                    assert_eq!(got, want, "src={src} formula={phi}");
                }
            }
        }
    }

    #[test]
    fn transitive_closure_on_chain() {
        let (t, x, f, _g) = setup();
        let s = chain(&t, x, f);
        let (l, r, a, b) = (Var(0), Var(1), Var(2), Var(3));
        let tc = Formula::tc(l, r, a, b, Formula::binary(f, a, b));
        let mut asg = Assignment::of([(l, NodeId(0)), (r, NodeId(2))]);
        assert_eq!(eval(&s, &t, &tc, &mut asg), Kleene::True);
        // No backward path.
        let mut asg_back = Assignment::of([(l, NodeId(2)), (r, NodeId(0))]);
        assert_eq!(eval(&s, &t, &tc, &mut asg_back), Kleene::False);
        // Non-reflexive: u0 to u0 has no cycle.
        let mut asg_self = Assignment::of([(l, NodeId(0)), (r, NodeId(0))]);
        assert_eq!(eval(&s, &t, &tc, &mut asg_self), Kleene::False);
    }

    #[test]
    fn transitive_closure_through_unknown_edge() {
        let (t, _x, f, _g) = setup();
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        let v = s.add_node(&t);
        let w = s.add_node(&t);
        s.set_binary(&t, f, u, v, Kleene::True);
        s.set_binary(&t, f, v, w, Kleene::Unknown);
        let (l, r, a, b) = (Var(0), Var(1), Var(2), Var(3));
        let tc = Formula::tc(l, r, a, b, Formula::binary(f, a, b));
        let mut asg = Assignment::of([(l, u), (r, w)]);
        assert_eq!(eval(&s, &t, &tc, &mut asg), Kleene::Unknown);
    }

    #[test]
    fn tc_cycle_terminates() {
        let (t, _x, f, _g) = setup();
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        let v = s.add_node(&t);
        s.set_binary(&t, f, u, v, Kleene::True);
        s.set_binary(&t, f, v, u, Kleene::True);
        let (l, r, a, b) = (Var(0), Var(1), Var(2), Var(3));
        let tc = Formula::tc(l, r, a, b, Formula::binary(f, a, b));
        let mut asg = Assignment::of([(l, u), (r, u)]);
        assert_eq!(eval(&s, &t, &tc, &mut asg), Kleene::True);
    }

    #[test]
    fn tc_direct_and_general_bodies_agree() {
        // The direct plane-copy path (body ≡ f(a,b)) and the row-built step
        // relation of a general body must both produce the reference closure.
        let (t, x, f, _g) = setup();
        let mut s = Structure::new(&t);
        let nodes: Vec<NodeId> = (0..4).map(|_| s.add_node(&t)).collect();
        s.set_binary(&t, f, nodes[0], nodes[1], Kleene::True);
        s.set_binary(&t, f, nodes[1], nodes[2], Kleene::Unknown);
        s.set_binary(&t, f, nodes[2], nodes[0], Kleene::True);
        s.set_binary(&t, f, nodes[3], nodes[3], Kleene::Unknown);
        s.set_unary(&t, x, nodes[2], Kleene::Unknown);
        let (l, r, a, b) = (Var(0), Var(1), Var(2), Var(3));
        let direct = Formula::tc(l, r, a, b, Formula::binary(f, a, b));
        let general = Formula::tc(l, r, a, b, Formula::binary(f, a, b).and(Formula::unary(x, b).not()));
        for phi in [&direct, &general] {
            for &u in &nodes {
                for &v in &nodes {
                    let got = eval(&s, &t, phi, &mut Assignment::of([(l, u), (r, v)]));
                    let want = reference::reference_eval(&s, &t, phi, &mut vec![(l, u), (r, v)]);
                    assert_eq!(got, want, "{phi} at ({u}, {v})");
                }
            }
        }
    }

    #[test]
    fn ite_desugaring_behaves() {
        let (t, x, _f, g) = setup();
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        s.set_unary(&t, x, u, Kleene::True);
        s.set_nullary(&t, g, Kleene::True);
        let phi = Formula::ite(Formula::nullary(g), Formula::unary(x, Var(0)), Formula::ff());
        let mut asg = Assignment::of([(Var(0), u)]);
        assert_eq!(eval(&s, &t, &phi, &mut asg), Kleene::True);
    }

    #[test]
    fn eval_unary_at_all_nodes() {
        let (t, x, f, _g) = setup();
        let s = chain(&t, x, f);
        let vals = eval_unary_at_all(&s, &t, &Formula::unary(x, Var(0)), Var(0));
        assert_eq!(vals, vec![Kleene::True, Kleene::False, Kleene::False]);
    }

    #[test]
    #[should_panic(expected = "unbound variable")]
    fn unbound_variable_panics() {
        let (t, x, _f, _g) = setup();
        let mut s = Structure::new(&t);
        s.add_node(&t);
        let _ = eval(&s, &t, &Formula::unary(x, Var(0)), &mut Assignment::new());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "TcMemo reused across a structure mutation")]
    fn tc_memo_stale_entry_guard_fires() {
        let (t, _x, f, _g) = setup();
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        let v = s.add_node(&t);
        s.set_binary(&t, f, u, v, Kleene::True);
        let (l, r, a, b) = (Var(0), Var(1), Var(2), Var(3));
        let tc = Formula::tc(l, r, a, b, Formula::binary(f, a, b));
        let mut memo = TcMemo::new();
        let mut asg = Assignment::of([(l, u), (r, v)]);
        assert_eq!(eval_memo(&s, &t, &tc, &mut asg, &mut memo), Kleene::True);
        // Mutate without memo.clear(): the debug guard must trip.
        s.set_binary(&t, f, u, v, Kleene::False);
        let _ = eval_memo(&s, &t, &tc, &mut asg, &mut memo);
    }
}
