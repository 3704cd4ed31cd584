//! The cross-run, content-keyed memo store: persistent and exact.
//!
//! The engine memoizes two pure functions within one run: single transfers
//! (focus → coerce → update → canon of one action on one structure) and
//! whole call-region evaluations (the nested drain of a spliced procedure
//! from one entry structure). Both are keyed by run-local ids, so every job
//! of a corpus would re-pay them from scratch. This module re-keys them by
//! **content** so entries outlive a run, a job, and (serialized to disk) a
//! process. One [`Store`] type serves both, parameterised by the entry's
//! [`Payload`] ([`crate::jobcache`] for transfers, [`crate::summary`] for
//! call regions):
//!
//! * the *context* of an entry is the full predicate-table content (name,
//!   arity, and flags — including defining formulas — of every predicate, in
//!   registration order) plus the focus limit ([`context_content`]). Both
//!   memoized functions are pure in `(table, focus_limit, key, input)`:
//!   coerce constraints are compiled from the table, canonicalization reads
//!   only abstraction flags, and focus is bounded by the limit;
//! * the *content key* is a string identifying the action or the call
//!   region within its context (predicate ids in renderings are
//!   table-relative, which is exactly what scoping by context makes
//!   unambiguous);
//! * *input and output structures* are keyed by their
//!   [`Structure::to_words`] encoding, hash-consed in a sharded
//!   [`WordPool`] so structures shared between entries are stored once.
//!
//! Every layer follows the interner discipline: fingerprint-style indexing
//! for speed, full content comparison before reuse — a collision costs one
//! comparison, never a wrong answer. Entries replay the exact canonical
//! structures and the payload's accounting, so warm and cold runs are
//! observation-equivalent (verdicts, reported errors, visit counts); only
//! the cache counters and wall-clock differ.
//!
//! # Concurrency model (snapshot + delta)
//!
//! The job scheduler freezes a store snapshot before a batch: engine runs
//! *probe* the snapshot read-only through a [`SharedSession`] and *record*
//! their misses into per-run [`Delta`]s, which the scheduler merges back in
//! job order after the batch ([`Store::absorb`], first write wins). Per-job
//! results and counters therefore depend only on the snapshot — not on the
//! worker count or on which jobs happened to finish first — which is what
//! keeps corpus output byte-identical across schedules.
//!
//! # Format
//!
//! A serialized store is its kind's magic, then the contexts, the
//! `(context, content)` keys, the structure pool (recorded ids plus words)
//! and the entries in sorted `(key, input)` order, each entry being its
//! structure ids followed by the payload bytes. [`CacheFile`] bundles the
//! transfer and summary stores as two length-prefixed sections under one
//! magic (`HSEPWS02`). Decoding validates structurally and rejects corrupt
//! input with an error, never a panic or an unbounded allocation.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::path::Path;
use std::sync::Mutex;

use hetsep_tvl::intern::{PoolId, WordPool};
use hetsep_tvl::{PredTable, Structure};

use crate::jobcache::{TransferPayload, TransferStore};
use crate::summary::SummaryStore;

/// The per-kind part of a store entry: everything an entry replays besides
/// its structures, plus the kind's byte encoding and section magic.
pub trait Payload: Clone + fmt::Debug + PartialEq + Eq {
    /// Magic prefix of a serialized store of this kind.
    const MAGIC: &'static [u8];
    /// Kind name used in decode errors (`"transfer"`, `"summary"`).
    const NAME: &'static str;
    /// What the content keys identify, used in decode errors.
    const KEY: &'static str;
    /// Appends the payload's encoding.
    fn write(&self, out: &mut Vec<u8>);
    /// Decodes a payload written by [`Payload::write`].
    fn read(r: &mut Reader<'_>) -> Result<Self, String>;
}

/// The content string identifying a memo context: the full predicate table
/// plus the focus limit. Runs with equal context strings compute identical
/// transfer functions and region evaluations.
pub fn context_content(table: &PredTable, focus_limit: usize) -> String {
    let mut s = String::new();
    let _ = write!(s, "focus_limit={focus_limit};");
    for p in table.iter() {
        let _ = write!(
            s,
            "{}:{:?}:{:?};",
            table.name(p),
            table.arity(p),
            table.flags(p)
        );
    }
    s
}

/// Clamps an accounting figure to its stored `u32` width.
pub(crate) fn saturating_u32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// One memoized entry, with structures stored as pool ids.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Stored<P> {
    structures: Vec<PoolId>,
    payload: P,
}

/// A persistent cross-run memo store: context and content-key pools, a
/// sharded structure [`WordPool`], and the entry map.
#[derive(Debug, Clone)]
pub struct Store<P> {
    contexts: Vec<String>,
    context_ix: HashMap<String, u32>,
    /// `(context id, content)` per key id, in registration order.
    keys: Vec<(u32, String)>,
    key_ix: HashMap<(u32, String), u32>,
    pool: WordPool,
    /// `(key id, input pool id)` → memoized entry.
    entries: HashMap<(u32, PoolId), Stored<P>>,
}

impl<P> Default for Store<P> {
    fn default() -> Store<P> {
        Store {
            contexts: Vec::new(),
            context_ix: HashMap::new(),
            keys: Vec::new(),
            key_ix: HashMap::new(),
            pool: WordPool::default(),
            entries: HashMap::new(),
        }
    }
}

impl<P: Payload> Store<P> {
    /// Creates an empty store.
    pub fn new() -> Store<P> {
        Store::default()
    }

    /// Number of memoized entries.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Number of distinct structures in the pool.
    pub fn structure_count(&self) -> usize {
        self.pool.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn context_id(&self, content: &str) -> Option<u32> {
        self.context_ix.get(content).copied()
    }

    fn key_id(&self, context: u32, content: &str) -> Option<u32> {
        self.key_ix.get(&(context, content.to_string())).copied()
    }

    fn ensure_context(&mut self, content: &str) -> u32 {
        if let Some(id) = self.context_ix.get(content) {
            return *id;
        }
        let id = u32::try_from(self.contexts.len()).expect("context overflow");
        self.contexts.push(content.to_string());
        self.context_ix.insert(content.to_string(), id);
        id
    }

    fn ensure_key(&mut self, context: u32, content: &str) -> u32 {
        let key = (context, content.to_string());
        if let Some(id) = self.key_ix.get(&key) {
            return *id;
        }
        let id = u32::try_from(self.keys.len()).expect("key overflow");
        self.keys.push(key.clone());
        self.key_ix.insert(key, id);
        id
    }

    fn lookup(&self, key: u32, input_words: &[u64]) -> Option<&Stored<P>> {
        let input = self.pool.get(input_words)?;
        self.entries.get(&(key, input))
    }

    /// Merges per-run session deltas into the store, in the order given.
    /// The scheduler calls this in job order after a batch; first write wins
    /// for duplicate keys (all writers computed the same pure function, so
    /// the choice is cosmetic).
    pub fn absorb(&mut self, deltas: Vec<Delta<P>>) {
        for delta in deltas {
            let ctx = self.ensure_context(&delta.context);
            // Resolve key contents lazily: only keys that actually produced
            // records enter the store.
            let mut key_ids: Vec<Option<u32>> = vec![None; delta.keys.len()];
            for rec in delta.records {
                let local = rec.key as usize;
                let key = match key_ids[local] {
                    Some(id) => id,
                    None => {
                        let id = self.ensure_key(ctx, &delta.keys[local]);
                        key_ids[local] = Some(id);
                        id
                    }
                };
                let input = self.pool.intern(&rec.input);
                let structures = rec.structures.iter().map(|w| self.pool.intern(w)).collect();
                self.entries.entry((key, input)).or_insert(Stored {
                    structures,
                    payload: rec.payload,
                });
            }
        }
    }

    /// Serializes the store to a deterministic byte vector (given the same
    /// insertion history, the bytes are identical; entries are emitted in
    /// sorted key order).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(P::MAGIC);
        push_u32(&mut out, self.contexts.len() as u32);
        for c in &self.contexts {
            push_str(&mut out, c);
        }
        push_u32(&mut out, self.keys.len() as u32);
        for (ctx, content) in &self.keys {
            push_u32(&mut out, *ctx);
            push_str(&mut out, content);
        }
        push_u32(&mut out, self.pool.len() as u32);
        for (id, words) in self.pool.iter() {
            push_u32(&mut out, id.raw());
            push_u32(&mut out, words.len() as u32);
            for &w in words {
                push_u64(&mut out, w);
            }
        }
        let mut keys: Vec<&(u32, PoolId)> = self.entries.keys().collect();
        keys.sort();
        push_u32(&mut out, keys.len() as u32);
        for key in keys {
            let entry = &self.entries[key];
            push_u32(&mut out, key.0);
            push_u32(&mut out, key.1.raw());
            push_u32(&mut out, entry.structures.len() as u32);
            for s in &entry.structures {
                push_u32(&mut out, s.raw());
            }
            entry.payload.write(&mut out);
        }
        out
    }

    /// Deserializes a store written by [`Store::to_bytes`].
    ///
    /// Validates structurally: magic, counts against the remaining bytes, id
    /// ranges, and that re-pooling the structure words reproduces the
    /// recorded pool ids. A corrupt or foreign file yields an error, never a
    /// store that would replay wrong results (structure words are
    /// additionally invariant-checked at decode time by
    /// [`Structure::from_words`] on every probe).
    pub fn from_bytes(bytes: &[u8]) -> Result<Store<P>, String> {
        let mut r = Reader::new(bytes);
        if r.take(P::MAGIC.len())? != P::MAGIC {
            return Err(format!("not a hetsep {} store (bad magic)", P::NAME));
        }
        let mut store = Store::new();
        for _ in 0..r.count(4)? {
            let c = r.string()?;
            store.ensure_context(&c);
        }
        for _ in 0..r.count(8)? {
            let ctx = r.u32()?;
            if ctx as usize >= store.contexts.len() {
                return Err(format!("{} references unknown context {ctx}", P::KEY));
            }
            let content = r.string()?;
            store.ensure_key(ctx, &content);
        }
        for _ in 0..r.count(8)? {
            let raw = r.u32()?;
            let words = r.list(8, Reader::u64)?;
            let id = store.pool.intern(&words);
            if id.raw() != raw {
                return Err(format!(
                    "pool id mismatch (recorded {raw}, re-pooled {})",
                    id.raw()
                ));
            }
        }
        for _ in 0..r.count(12)? {
            let key = r.u32()?;
            if key as usize >= store.keys.len() {
                return Err(format!("entry references unknown {} {key}", P::KEY));
            }
            let input = r.pool_id(&store.pool)?;
            let structures = r.list(4, |r| r.pool_id(&store.pool))?;
            let payload = P::read(&mut r)?;
            store.entries.insert(
                (key, input),
                Stored {
                    structures,
                    payload,
                },
            );
        }
        if r.at != bytes.len() {
            return Err(format!("trailing bytes after {} store", P::NAME));
        }
        Ok(store)
    }
}

/// Bounds-checked little-endian reader over untrusted store bytes. Every
/// read fails with `"truncated store"` instead of running past the end.
pub struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, at: 0 }
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], String> {
        let end = self
            .at
            .checked_add(len)
            .filter(|&end| end <= self.bytes.len())
            .ok_or("truncated store")?;
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn byte(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("take(4) yields 4 bytes"),
        ))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("take(8) yields 8 bytes"),
        ))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|e| format!("bad utf8: {e}"))
    }

    /// Reads a `u32` element count, rejecting counts whose elements (each at
    /// least `min_bytes` long) cannot fit in the remaining bytes — so a
    /// crafted count never drives a reservation larger than the file.
    fn count(&mut self, min_bytes: usize) -> Result<usize, String> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_bytes) > self.bytes.len() - self.at {
            return Err("truncated store".into());
        }
        Ok(n)
    }

    /// Reads a `u32`-counted list of elements, each at least `min_bytes`
    /// long when encoded.
    pub fn list<T>(
        &mut self,
        min_bytes: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let n = self.count(min_bytes)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    fn pool_id(&mut self, pool: &WordPool) -> Result<PoolId, String> {
        let id = PoolId::from_raw(self.u32()?);
        if !pool.contains(id) {
            return Err("entry structure id out of range".into());
        }
        Ok(id)
    }
}

pub(crate) fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// The cross-run side of one verification job for one store kind: a
/// read-only store snapshot to probe plus the deltas accumulating the job's
/// computed entries.
///
/// The deltas sit behind a mutex only because one job may fan its
/// subproblems across threads; each engine run batches its additions in a
/// private [`RunScope`] and pushes them once at the end. For deterministic
/// *store files* the scheduler runs jobs with one engine thread each, making
/// the delta's run order (and hence [`Store::absorb`]'s insertion order)
/// schedule-independent; per-run results are exact either way.
#[derive(Debug)]
pub struct SharedSession<'a, P> {
    snapshot: &'a Store<P>,
    deltas: Mutex<Vec<Delta<P>>>,
}

/// The entries one engine run computed, in content form (self-contained:
/// context and key strings plus word-encoded structures).
#[derive(Debug)]
pub struct Delta<P> {
    context: String,
    keys: Vec<String>,
    records: Vec<Record<P>>,
}

#[derive(Debug)]
struct Record<P> {
    /// Index into [`Delta::keys`].
    key: u32,
    input: Vec<u64>,
    structures: Vec<Vec<u64>>,
    payload: P,
}

/// A replayed shared-store hit: the exact stored structures, decoded, plus
/// the payload.
pub struct Hit<P> {
    /// Decoded structures (transfer posts or region exits), ready to intern
    /// locally.
    pub structures: Vec<Structure>,
    /// The entry's payload.
    pub payload: P,
}

impl<'a, P: Payload> SharedSession<'a, P> {
    /// Creates a session probing `snapshot` (pass an empty store for a cold
    /// run that should still record its entries).
    pub fn new(snapshot: &'a Store<P>) -> SharedSession<'a, P> {
        SharedSession {
            snapshot,
            deltas: Mutex::new(Vec::new()),
        }
    }

    /// Consumes the session, returning the per-run deltas for
    /// [`Store::absorb`].
    pub fn into_deltas(self) -> Vec<Delta<P>> {
        self.deltas
            .into_inner()
            .expect("an engine run panicked while pushing its delta")
    }

    /// Opens the per-engine-run scope: resolves the run's context and the
    /// content of every distinct key against the snapshot once, so probes
    /// are id lookups. `contents` is the engine's content-deduplicated key
    /// list; run-local key ids index into it.
    pub fn run_scope(
        &'a self,
        table: &PredTable,
        focus_limit: usize,
        contents: Vec<String>,
    ) -> RunScope<'a, P> {
        let context = context_content(table, focus_limit);
        let snapshot_ctx = self.snapshot.context_id(&context);
        let slots = contents
            .iter()
            .map(|content| snapshot_ctx.and_then(|ctx| self.snapshot.key_id(ctx, content)))
            .collect();
        RunScope {
            session: self,
            slots,
            delta: Delta {
                context,
                keys: contents,
                records: Vec::new(),
            },
        }
    }
}

/// Per-engine-run view of a [`SharedSession`]: probe before computing,
/// record after, finish once.
pub struct RunScope<'a, P> {
    session: &'a SharedSession<'a, P>,
    /// Store key id per run-local key, when the snapshot knows the content
    /// (a `None` key misses on every probe).
    slots: Vec<Option<u32>>,
    delta: Delta<P>,
}

impl<P: Payload> RunScope<'_, P> {
    /// Probes the snapshot for `(key, input)`; `key` is the run-local
    /// content id, `input_words` the encoded input structure. A decode
    /// failure (corrupt pool entry) degrades to a miss, never to a wrong
    /// replay.
    pub fn probe(&self, key: u32, input_words: &[u64], table: &PredTable) -> Option<Hit<P>> {
        let snapshot = self.session.snapshot;
        let entry = snapshot.lookup(self.slots[key as usize]?, input_words)?;
        let mut structures = Vec::with_capacity(entry.structures.len());
        for &s in &entry.structures {
            structures.push(Structure::from_words(table, snapshot.pool.resolve(s))?);
        }
        Some(Hit {
            structures,
            payload: entry.payload.clone(),
        })
    }

    /// Membership-only probe: whether [`RunScope::probe`] would find an
    /// entry for `(key, input)`, without decoding the structures. Used by
    /// the engine's speculative batch classification, where a cheap
    /// prediction is enough (a decode failure downgrades the later full
    /// probe to a miss, which the engine handles by computing inline).
    pub fn contains(&self, key: u32, input_words: &[u64]) -> bool {
        self.slots[key as usize]
            .is_some_and(|id| self.session.snapshot.lookup(id, input_words).is_some())
    }

    /// Records a computed entry for future jobs. `key` is the run-local
    /// content id (also its index in the delta's key list).
    pub fn record(
        &mut self,
        key: u32,
        input_words: Vec<u64>,
        structures: Vec<Vec<u64>>,
        payload: P,
    ) {
        self.delta.records.push(Record {
            key,
            input: input_words,
            structures,
            payload,
        });
    }

    /// Pushes this run's delta into the session. Call once, at run end.
    pub fn finish(self) {
        if self.delta.records.is_empty() {
            return;
        }
        self.session
            .deltas
            .lock()
            .expect("an engine run panicked while pushing its delta")
            .push(self.delta);
    }
}

/// The combined on-disk cache container: the transfer store and the summary
/// store as two length-prefixed sections under one magic (`HSEPWS02`).
///
/// [`CacheFile::from_bytes`] also accepts a bare `HSEPTC01` transfer-store
/// file — the format every pre-summary cache on disk has — and treats it as
/// a container with an empty summary section, so existing caches warm the
/// transfer layer and simply start the summary layer cold.
#[derive(Debug, Default, Clone)]
pub struct CacheFile {
    /// Cross-job transfer memoization (see [`crate::jobcache`]).
    pub transfers: TransferStore,
    /// Cross-job per-procedure summaries (see [`crate::summary`]).
    pub summaries: SummaryStore,
}

const WS_MAGIC: &[u8] = b"HSEPWS02";

impl CacheFile {
    /// Creates an empty container.
    pub fn new() -> CacheFile {
        CacheFile::default()
    }

    /// Serializes both sections deterministically.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(WS_MAGIC);
        for section in [self.transfers.to_bytes(), self.summaries.to_bytes()] {
            push_u64(&mut out, section.len() as u64);
            out.extend_from_slice(&section);
        }
        out
    }

    /// Deserializes a container, or a legacy bare transfer store.
    pub fn from_bytes(bytes: &[u8]) -> Result<CacheFile, String> {
        if bytes.starts_with(TransferPayload::MAGIC) {
            return Ok(CacheFile {
                transfers: TransferStore::from_bytes(bytes)?,
                summaries: SummaryStore::new(),
            });
        }
        let mut r = Reader::new(bytes);
        if r.take(WS_MAGIC.len())? != WS_MAGIC {
            return Err("not a hetsep cache file (bad magic)".into());
        }
        let mut section = || {
            let len = usize::try_from(r.u64()?).map_err(|_| "oversized section")?;
            r.take(len)
        };
        let transfers = TransferStore::from_bytes(section()?)?;
        let summaries = SummaryStore::from_bytes(section()?)?;
        if r.at != bytes.len() {
            return Err("trailing bytes after cache file".into());
        }
        Ok(CacheFile {
            transfers,
            summaries,
        })
    }

    /// Writes the container to a file.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads a container (or legacy transfer store) from a file.
    pub fn load(path: &Path) -> Result<CacheFile, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        CacheFile::from_bytes(&bytes)
    }
}
