//! Cross-job transfer cache: the transfer kind of the content-keyed
//! [`crate::store`].
//!
//! The per-run transfer cache (`EngineConfig::transfer_cache`) memoizes the
//! focus → coerce → update → canon pipeline within *one* engine run, keyed
//! by `(action content id, interned pre-structure id)`. Both halves of that
//! key are run-local, so every job of a corpus would re-pay every transfer
//! from scratch. A [`TransferStore`] re-keys the same memoization by
//! content: an action is keyed by its full `Debug` rendering
//! ([`action_content`]) within its context, and an entry stores the exact
//! canonical posts plus a [`TransferPayload`] — the check violations and
//! peak universe size the pipeline would have produced.

use crate::store::{push_str, push_u32, Delta, Payload, Reader, SharedSession, Store};

/// What a memoized transfer replays besides its canonical posts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferPayload {
    /// Check violations to replay: `(label, definite?)`.
    pub violations: Vec<(String, bool)>,
    /// Largest post universe before canonicalization (exact `peak_nodes`
    /// accounting on replay).
    pub peak_post_nodes: u32,
}

impl Payload for TransferPayload {
    const MAGIC: &'static [u8] = b"HSEPTC01";
    const NAME: &'static str = "transfer";
    const KEY: &'static str = "action";

    fn write(&self, out: &mut Vec<u8>) {
        push_u32(out, self.violations.len() as u32);
        for (label, definite) in &self.violations {
            push_str(out, label);
            out.push(*definite as u8);
        }
        push_u32(out, self.peak_post_nodes);
    }

    fn read(r: &mut Reader<'_>) -> Result<TransferPayload, String> {
        Ok(TransferPayload {
            violations: r.list(5, |r| Ok((r.string()?, r.byte()? != 0)))?,
            peak_post_nodes: r.u32()?,
        })
    }
}

/// A persistent cross-job transfer store (the standalone file format is
/// `HSEPTC01`).
pub type TransferStore = Store<TransferPayload>;

/// The cross-job transfer side of one verification job.
pub type SharedTransferSession<'a> = SharedSession<'a, TransferPayload>;

/// The transfers one engine run computed, in content form.
pub type RunDelta = Delta<TransferPayload>;

/// The content string identifying an action within a context (its full
/// `Debug` rendering; predicate ids are table-relative, hence the scoping).
pub fn action_content(action: &hetsep_tvl::action::Action) -> String {
    format!("{action:?}")
}
