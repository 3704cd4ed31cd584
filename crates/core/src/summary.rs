//! Cross-job per-procedure summaries: the call-region kind of the
//! content-keyed [`crate::store`].
//!
//! The engine evaluates every spliced call region as a nested subproblem
//! (see [`crate::engine`]) and memoizes the result per run, keyed by
//! `(region content, interned input structure at the call boundary)`. A
//! [`SummaryStore`] re-keys that memoization by content — the same
//! one-level-up move [`crate::jobcache`] makes for single transfers — so
//! procedure summaries outlive a run, a job, and a process:
//!
//! * a *region* is keyed by its content string ([`region_content`]): every
//!   interior edge's splice-relative endpoints, source line, and the full
//!   `Debug` rendering of its translated actions. Two splices of one
//!   procedure produce byte-identical content (splice-stable `{proc}::`
//!   naming), so call sites share summaries; site-instrumented splices
//!   differ in their action renderings and correctly do not;
//! * an entry replays the exact exit structures plus a [`SummaryPayload`]:
//!   `(line, label, definite)` violations, failing-site predicate ids, and
//!   the visit/peak accounting of the nested drain it replaces, so warm and
//!   cold runs are observation-equivalent — verdicts, errors, `visits`,
//!   `structures` — and only the summary counters and wall-clock differ.
//!
//! Failing sites are stored as *predicate ids* (`SiteId`s are edge indices,
//! private to one instance; the site predicate's table id is what the
//! context scopes), mapped back through the instance's `site_preds` on
//! replay.

use std::fmt::Write as _;

use hetsep_ir::cfg::{CallRegion, Cfg};

use crate::store::{push_str, push_u32, push_u64, Delta, Payload, Reader, SharedSession, Store};

/// What a memoized call-region evaluation replays besides its exit
/// structures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SummaryPayload {
    /// Violations raised inside the region: `(line, label, definite?)`,
    /// sorted by `(line, label)`.
    pub violations: Vec<(u32, String, bool)>,
    /// Table predicate ids of allocation sites flagged as failing inside
    /// the region, sorted.
    pub failing_preds: Vec<u32>,
    /// Action applications the nested drain performed (replayed into
    /// `visits` so budget accounting is exact).
    pub visits: u64,
    /// Peak number of region-local structures live during the drain, above
    /// the caller's live count at entry.
    pub peak_extra: u32,
    /// Largest universe size among structures visited inside the region.
    pub peak_nodes: u32,
}

impl Payload for SummaryPayload {
    const MAGIC: &'static [u8] = b"HSEPSM01";
    const NAME: &'static str = "summary";
    const KEY: &'static str = "region";

    fn write(&self, out: &mut Vec<u8>) {
        push_u32(out, self.violations.len() as u32);
        for (line, label, definite) in &self.violations {
            push_u32(out, *line);
            push_str(out, label);
            out.push(*definite as u8);
        }
        push_u32(out, self.failing_preds.len() as u32);
        for &p in &self.failing_preds {
            push_u32(out, p);
        }
        push_u64(out, self.visits);
        push_u32(out, self.peak_extra);
        push_u32(out, self.peak_nodes);
    }

    fn read(r: &mut Reader<'_>) -> Result<SummaryPayload, String> {
        Ok(SummaryPayload {
            violations: r.list(9, |r| Ok((r.u32()?, r.string()?, r.byte()? != 0)))?,
            failing_preds: r.list(4, Reader::u32)?,
            visits: r.u64()?,
            peak_extra: r.u32()?,
            peak_nodes: r.u32()?,
        })
    }
}

/// A persistent cross-job summary store (section format `HSEPSM01`).
pub type SummaryStore = Store<SummaryPayload>;

/// The cross-job summary side of one verification job.
pub type SharedSummarySession<'a> = SharedSession<'a, SummaryPayload>;

/// The summaries one engine run computed, in content form.
pub type SummaryDelta = Delta<SummaryPayload>;

/// The content string identifying a call region within a context: each
/// interior edge's splice-relative endpoints and line, plus the full
/// `Debug` rendering of its translated actions (predicate ids are
/// table-relative, which scoping by context makes unambiguous).
pub fn region_content(
    region: &CallRegion,
    cfg: &Cfg,
    actions: &[Vec<hetsep_tvl::action::Action>],
) -> String {
    let base = region.nodes().start;
    let mut s = String::new();
    for e in region.edges() {
        let edge = &cfg.edges()[e];
        let _ = write!(s, "{}>{}@{}:", edge.from - base, edge.to - base, edge.line);
        for a in &actions[e] {
            let _ = write!(s, "{a:?}|");
        }
        s.push(';');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheFile, TransferStore};
    use hetsep_tvl::{PredTable, Structure};

    const REGIONS: [&str; 2] = ["0>1@3:Action|;", "0>2@4:Other|;"];

    fn payload(visits: u64) -> SummaryPayload {
        SummaryPayload {
            violations: vec![(3, "read".into(), true)],
            failing_preds: vec![7, 9],
            visits,
            peak_extra: 5,
            peak_nodes: 4,
        }
    }

    /// One recorded summary: region id, input words, exit words, payload.
    type Record = (u32, Vec<u64>, Vec<Vec<u64>>, SummaryPayload);

    /// Records `records` through a session over an empty snapshot and
    /// absorbs the run's delta into `store`.
    fn absorb(store: &mut SummaryStore, records: Vec<Record>) {
        let empty = SummaryStore::new();
        let session = SharedSummarySession::new(&empty);
        let regions = REGIONS.iter().map(|r| r.to_string()).collect();
        let mut scope = session.run_scope(&PredTable::new(), 8, regions);
        for (region, input, exits, payload) in records {
            scope.record(region, input, exits, payload);
        }
        scope.finish();
        store.absorb(session.into_deltas());
    }

    fn sample_store() -> SummaryStore {
        let mut store = SummaryStore::new();
        let empty = SummaryPayload {
            violations: vec![],
            failing_preds: vec![],
            visits: 2,
            peak_extra: 0,
            peak_nodes: 1,
        };
        absorb(
            &mut store,
            vec![
                (0, vec![1, 2, 3], vec![vec![4, 5], vec![6]], payload(12)),
                (1, vec![9], vec![], empty),
            ],
        );
        store
    }

    #[test]
    fn absorb_is_first_write_wins_and_dedups_structures() {
        let mut store = sample_store();
        assert_eq!(store.entry_count(), 2);
        assert_eq!(
            store.structure_count(),
            4,
            "input and exit words pooled once each"
        );
        let before = store.to_bytes();
        absorb(&mut store, vec![(0, vec![1, 2, 3], vec![], payload(99))]);
        assert_eq!(
            store.to_bytes(),
            before,
            "duplicate keys keep the first write"
        );
    }

    #[test]
    fn summary_store_roundtrips_through_bytes() {
        let store = sample_store();
        let bytes = store.to_bytes();
        let back = SummaryStore::from_bytes(&bytes).unwrap();
        assert_eq!(back.entry_count(), store.entry_count());
        assert_eq!(back.structure_count(), store.structure_count());
        assert_eq!(back.to_bytes(), bytes, "serialization is canonical");
    }

    #[test]
    fn corrupt_summary_bytes_are_rejected() {
        let store = sample_store();
        let mut bytes = store.to_bytes();
        assert!(SummaryStore::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        bytes[0] ^= 0xff;
        assert!(SummaryStore::from_bytes(&bytes).is_err());
        assert!(SummaryStore::from_bytes(b"HSEPSM01").is_err());
    }

    #[test]
    fn cache_file_roundtrips_and_reads_legacy_transfer_stores() {
        let file = CacheFile {
            transfers: TransferStore::new(),
            summaries: sample_store(),
        };
        let bytes = file.to_bytes();
        let back = CacheFile::from_bytes(&bytes).unwrap();
        assert_eq!(back.summaries.entry_count(), 2);
        assert!(back.transfers.is_empty());

        // A bare transfer store loads as a container with cold summaries.
        let legacy = TransferStore::new().to_bytes();
        let back = CacheFile::from_bytes(&legacy).unwrap();
        assert!(back.transfers.is_empty());
        assert!(back.summaries.is_empty());

        assert!(CacheFile::from_bytes(b"garbage").is_err());
    }

    #[test]
    fn session_probe_hits_only_matching_context_and_region() {
        let table = PredTable::new();
        let input = Structure::new(&table).to_words();
        let mut store = SummaryStore::new();
        absorb(
            &mut store,
            vec![(0, input.clone(), vec![input.clone()], payload(12))],
        );
        let session = SharedSummarySession::new(&store);
        let regions = || REGIONS.iter().map(|r| r.to_string()).collect();

        let scope = session.run_scope(&table, 8, regions());
        let hit = scope
            .probe(0, &input, &table)
            .expect("same context and region hit");
        assert_eq!(hit.structures.len(), 1);
        assert_eq!(hit.payload, payload(12));
        assert!(
            scope.probe(1, &input, &table).is_none(),
            "other region misses"
        );
        // A different focus limit is a different context: every probe misses.
        let scope = session.run_scope(&table, 9, regions());
        assert!(scope.probe(0, &input, &table).is_none());
    }
}
