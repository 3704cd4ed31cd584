//! Round-trip of the persistent transfer store: serialized and reloaded,
//! the store must behave exactly like the in-memory original — a warm batch
//! replays transfers instead of recomputing them and adds no entries.

use hetsep_core::{CacheFile, SummaryStore, TransferStore};
use hetsep_sched::{run_batch, BatchConfig, Job};
use hetsep_core::ModeKind;

fn jobs() -> Vec<Job> {
    vec![
        Job {
            name: "ok".into(),
            program: "program P uses IOStreams; void main() {\n\
                InputStream f = new InputStream();\n\
                f.read();\n\
                f.close();\n\
            }"
            .into(),
            strategy: None,
            mode: ModeKind::Vanilla,
        },
        Job {
            name: "buggy".into(),
            program: "program P uses IOStreams; void main() {\n\
                InputStream f = new InputStream();\n\
                f.close();\n\
                f.read();\n\
            }"
            .into(),
            strategy: None,
            mode: ModeKind::Vanilla,
        },
    ]
}

#[test]
fn persisted_store_round_trips() {
    let mut store = TransferStore::new();
    let mut summaries = SummaryStore::new();
    let cold = run_batch(&jobs(), &BatchConfig::default(), &mut store, &mut summaries);
    let bytes = store.to_bytes();

    let mut reloaded = TransferStore::from_bytes(&bytes).expect("load");
    let mut warm_summaries = SummaryStore::new();
    assert_eq!(reloaded.entry_count(), store.entry_count());
    assert_eq!(reloaded.structure_count(), store.structure_count());

    let warm = run_batch(&jobs(), &BatchConfig::default(), &mut reloaded, &mut warm_summaries);
    assert_eq!(
        reloaded.entry_count(),
        store.entry_count(),
        "warm batch adds no entries"
    );
    assert!(warm.total(|o| o.shared_hits) > 0, "warm batch replays");
    assert!(warm.total(|o| o.cache_misses) < cold.total(|o| o.cache_misses));
    // Observation equivalence: only the cache counters may differ.
    for (c, w) in cold.outcomes.iter().zip(&warm.outcomes) {
        assert_eq!(c.verdict, w.verdict, "{}", c.name);
        assert_eq!(c.reported, w.reported, "{}", c.name);
        assert_eq!(c.visits, w.visits, "{}", c.name);
        assert_eq!(c.space, w.space, "{}", c.name);
    }
    // Serialization is canonical: reloading and re-serializing an unchanged
    // store reproduces the bytes.
    assert_eq!(reloaded.to_bytes(), bytes);
}

#[test]
fn corrupt_bytes_are_rejected() {
    let mut store = TransferStore::new();
    let mut summaries = SummaryStore::new();
    run_batch(&jobs(), &BatchConfig::default(), &mut store, &mut summaries);
    let bytes = store.to_bytes();
    assert!(TransferStore::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    let mut truncated = bytes.clone();
    truncated.truncate(4);
    assert!(TransferStore::from_bytes(&truncated).is_err());
    let mut magic = bytes;
    magic[0] ^= 0xff;
    assert!(TransferStore::from_bytes(&magic).is_err());
}

/// Crafted and truncated cache files decode to an error — never a panic on
/// an overflowing length or an abort on an untrusted allocation size.
#[test]
fn corrupt_cache_files_are_rejected_without_panicking() {
    // A container whose transfer-section length overflows the read cursor.
    let mut overflow = b"HSEPWS02".to_vec();
    overflow.extend_from_slice(&0xFFFF_FFFF_FFFF_FFF0u64.to_le_bytes());
    overflow.extend_from_slice(&[0; 4]);
    // A bare transfer store whose one structure claims 2^32 - 1 words.
    let mut huge = b"HSEPTC01".to_vec();
    for v in [0u32, 0, 1, 0, u32::MAX] {
        huge.extend_from_slice(&v.to_le_bytes());
    }
    for crafted in [&overflow, &huge] {
        assert_eq!(
            CacheFile::from_bytes(crafted).unwrap_err(),
            "truncated store"
        );
    }

    let mut cache = CacheFile::new();
    run_batch(
        &jobs(),
        &BatchConfig::default(),
        &mut cache.transfers,
        &mut cache.summaries,
    );
    let bytes = cache.to_bytes();
    assert!(CacheFile::from_bytes(&bytes).is_ok());
    for len in 0..bytes.len() {
        assert!(
            CacheFile::from_bytes(&bytes[..len]).is_err(),
            "a {len}-byte prefix of a {}-byte container decoded",
            bytes.len()
        );
    }
}
