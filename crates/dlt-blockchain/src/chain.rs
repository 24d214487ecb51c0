//! The block store: fork tracking, most-work tip selection and reorgs
//! (paper §IV-A, Fig. 4).
//!
//! A [`ChainStore`] holds *every* valid block it has seen — the active
//! chain plus all side branches — exactly because a blockchain must
//! tolerate temporary soft forks: "two blocks claim the same
//! predecessor … the longer chain is adopted, while the shorter one is
//! discarded or orphaned". Tip selection is by accumulated work (the
//! sum of block difficulties), with first-seen winning ties, which is
//! Bitcoin's actual rule and degenerates to "longest chain" at constant
//! difficulty. The `e04` ablation compares this with naive
//! longest-chain selection.
//!
//! Blocks that arrive before their parent wait in a bounded orphan
//! pool and are connected when the parent shows up (out-of-order
//! gossip delivery is routine in the simulations).
//!
//! Every ledger that follows fork choice — a UTXO set, a state-root
//! index, or just a miner's mempool — moves with the tip through one
//! routine, `ChainStore::follow_tip`.
//!
//! The store holds [`SealedBlock`]s, so it reads block and transaction
//! ids instead of hashing again, and it indexes the active chain's
//! transactions by the height that first includes them, so a
//! transaction's confirmation count is a lookup.

use std::collections::BTreeMap;

use dlt_crypto::Digest;

use crate::block::{BlockHeader, LedgerTx, SealedBlock};
use crate::mempool::Mempool;
use crate::pow::id_meets_difficulty;

/// Why a block was rejected outright.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockError {
    /// The header hash does not meet its difficulty target.
    BadPow,
    /// The header's Merkle root does not match the transactions.
    BadMerkleRoot,
    /// The height is not parent height + 1.
    BadHeight,
    /// A second genesis (parentless) block was offered.
    UnexpectedGenesis,
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockError::BadPow => f.write_str("proof of work does not meet target"),
            BlockError::BadMerkleRoot => f.write_str("merkle root does not match transactions"),
            BlockError::BadHeight => f.write_str("height is not parent height + 1"),
            BlockError::UnexpectedGenesis => f.write_str("unexpected second genesis block"),
        }
    }
}

impl std::error::Error for BlockError {}

/// Why a full node refused a block: its structure, or the semantics
/// its ledger checks (a UTXO double spend, a wrong state root, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError<E> {
    /// Chain-structure rejection.
    Structure(BlockError),
    /// Ledger-semantics rejection (names the offending block).
    Semantics {
        /// The invalid block.
        block: Digest,
        /// The underlying ledger error.
        error: E,
    },
}

impl<E: std::fmt::Display> std::fmt::Display for ChainError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::Structure(e) => write!(f, "structural rejection: {e}"),
            ChainError::Semantics { block, error } => {
                write!(f, "block {} invalid: {error}", block.short())
            }
        }
    }
}

impl<E: std::fmt::Debug + std::fmt::Display> std::error::Error for ChainError<E> {}

/// The effect of inserting one block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The active tip advanced; `applied` lists newly active block ids
    /// in chain order (usually just the inserted block, more when the
    /// insertion connected waiting orphans).
    Extended {
        /// The new tip id.
        new_tip: Digest,
        /// Newly active blocks, oldest first.
        applied: Vec<Digest>,
    },
    /// The active chain switched branches: `reverted` blocks (newest
    /// first) were abandoned — the paper's "orphaned" blocks whose
    /// transactions must be re-included — and `applied` blocks (oldest
    /// first) became active.
    Reorged {
        /// The abandoned tip.
        old_tip: Digest,
        /// The new tip id.
        new_tip: Digest,
        /// Blocks leaving the active chain, newest first.
        reverted: Vec<Digest>,
        /// Blocks entering the active chain, oldest first.
        applied: Vec<Digest>,
    },
    /// Valid block on a side branch; the tip did not move.
    SideChain,
    /// Parent unknown; the block waits in the orphan pool.
    AwaitingParent,
    /// Already known (including already waiting as an orphan).
    Duplicate,
    /// Structurally invalid; not stored.
    Rejected(BlockError),
}

/// Ledger state that follows a [`ChainStore`]'s active chain block by
/// block. `()` is the state of structure-only nodes: every block
/// applies and there is nothing to undo.
pub(crate) trait ChainState<T> {
    /// Why a block failed semantic validation.
    type Error;

    /// Moves the state from `block`'s parent onto `block`. On error
    /// the state must be left unchanged.
    ///
    /// # Errors
    ///
    /// The block is semantically invalid on top of its parent.
    fn apply(&mut self, block: &SealedBlock<T>) -> Result<(), Self::Error>;

    /// Moves the state from `block` back onto its parent.
    fn revert(&mut self, block: &SealedBlock<T>);
}

impl<T> ChainState<T> for () {
    type Error = std::convert::Infallible;

    fn apply(&mut self, _: &SealedBlock<T>) -> Result<(), Self::Error> {
        Ok(())
    }

    fn revert(&mut self, _: &SealedBlock<T>) {}
}

/// What [`ChainStore::follow_tip`] did besides moving the state.
#[derive(Debug)]
pub(crate) struct Followed<E> {
    /// The first block that failed [`ChainState::apply`], with its
    /// error.
    pub(crate) rejected: Option<(Digest, E)>,
    /// Every block the call removed from the store.
    pub(crate) removed: Vec<Digest>,
}

struct StoredBlock<T> {
    block: SealedBlock<T>,
    chainwork: u128,
    arrival: u64,
}

/// Maximum blocks the orphan pool holds before evicting the oldest.
const MAX_ORPHANS: usize = 1024;

/// A store of all observed blocks with most-work fork choice.
pub struct ChainStore<T> {
    /// Boxed: a map leaf reserves room for 11 values, so with blocks
    /// stored inline each empty slot of a part-filled leaf would cost
    /// a whole ~300-byte block.
    blocks: BTreeMap<Digest, Box<StoredBlock<T>>>,
    children: BTreeMap<Digest, Vec<Digest>>,
    /// Orphans keyed by the missing parent id.
    orphans: BTreeMap<Digest, Vec<SealedBlock<T>>>,
    orphan_arrivals: Vec<Digest>,
    /// Active chain by height: `active[h]` is the active block at
    /// height `h`.
    active: Vec<Digest>,
    /// Every transaction on the active chain, mapped to the height of
    /// the first active block that holds it. Moves with `active`.
    tx_heights: BTreeMap<Digest, u64>,
    genesis: Digest,
    arrival_seq: u64,
    validate_pow: bool,
}

impl<T: LedgerTx> ChainStore<T> {
    /// Creates a store rooted at `genesis`.
    ///
    /// # Panics
    ///
    /// Panics if `genesis` is not a genesis block (non-zero parent or
    /// non-zero height).
    pub fn new(genesis: SealedBlock<T>, validate_pow: bool) -> Self {
        assert!(genesis.header.is_genesis(), "genesis block required");
        let id = genesis.id();
        let tx_heights = genesis.tx_ids().iter().map(|tx_id| (*tx_id, 0)).collect();
        let mut blocks = BTreeMap::new();
        blocks.insert(
            id,
            Box::new(StoredBlock {
                chainwork: u128::from(genesis.header.difficulty),
                block: genesis,
                arrival: 0,
            }),
        );
        ChainStore {
            blocks,
            children: BTreeMap::new(),
            orphans: BTreeMap::new(),
            orphan_arrivals: Vec::new(),
            active: vec![id],
            tx_heights,
            genesis: id,
            arrival_seq: 1,
            validate_pow,
        }
    }

    /// The genesis block id.
    pub fn genesis(&self) -> Digest {
        self.genesis
    }

    /// The current active tip id.
    pub fn tip(&self) -> Digest {
        *self.active.last().expect("active chain is never empty")
    }

    /// Height of the active tip.
    pub fn tip_height(&self) -> u64 {
        (self.active.len() - 1) as u64
    }

    /// The stored block for an id, if known.
    pub fn block(&self, id: &Digest) -> Option<&SealedBlock<T>> {
        self.blocks.get(id).map(|s| &s.block)
    }

    /// The header for an id, if known.
    pub fn header(&self, id: &Digest) -> Option<&BlockHeader> {
        self.block(id).map(|b| &b.header)
    }

    /// Accumulated work of a stored block's branch.
    pub fn chainwork(&self, id: &Digest) -> Option<u128> {
        self.blocks.get(id).map(|s| s.chainwork)
    }

    /// Whether the block id is known (connected; orphans don't count).
    pub fn contains(&self, id: &Digest) -> bool {
        self.blocks.contains_key(id)
    }

    /// Total connected blocks (active + side branches).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Blocks currently waiting for a parent.
    pub fn orphan_count(&self) -> usize {
        self.orphans.values().map(Vec::len).sum()
    }

    /// The active chain ids, genesis first.
    pub fn active_chain(&self) -> &[Digest] {
        &self.active
    }

    /// The active block id at `height`, if the chain is that tall.
    pub fn active_at(&self, height: u64) -> Option<Digest> {
        self.active.get(height as usize).copied()
    }

    /// Whether `id` is on the active chain.
    pub fn is_active(&self, id: &Digest) -> bool {
        let Some(stored) = self.blocks.get(id) else {
            return false;
        };
        self.active_at(stored.block.header.height) == Some(*id)
    }

    /// Confirmation count of a block: how many active blocks sit at or
    /// above it (1 = it is the tip). `None` for unknown or inactive
    /// blocks — the paper's point that inclusion in *a* block is not
    /// inclusion in *the* chain.
    pub fn confirmations(&self, id: &Digest) -> Option<u64> {
        if !self.is_active(id) {
            return None;
        }
        let height = self.blocks[id].block.header.height;
        Some(self.tip_height() - height + 1)
    }

    /// Confirmation count of a transaction: [`confirmations`] of the
    /// first active block that includes it. `None` while no active
    /// block does.
    ///
    /// [`confirmations`]: ChainStore::confirmations
    pub fn tx_confirmations(&self, tx_id: &Digest) -> Option<u64> {
        self.tx_heights
            .get(tx_id)
            .map(|height| self.tip_height() - height + 1)
    }

    /// Number of stored blocks *not* on the active chain — the
    /// orphaned/"stale" blocks of Fig. 4.
    pub fn stale_block_count(&self) -> usize {
        self.blocks.len() - self.active.len()
    }

    /// Inserts a block, updating the tip if the block's branch now has
    /// the most accumulated work. Connects any waiting orphans.
    pub fn insert(&mut self, block: SealedBlock<T>) -> InsertOutcome {
        let id = block.id();
        if self.blocks.contains_key(&id) || self.is_pooled_orphan(&id) {
            return InsertOutcome::Duplicate;
        }
        if block.header.is_genesis() {
            return InsertOutcome::Rejected(BlockError::UnexpectedGenesis);
        }
        if !block.merkle_root_valid() {
            return InsertOutcome::Rejected(BlockError::BadMerkleRoot);
        }
        if self.validate_pow && !id_meets_difficulty(&id, block.header.difficulty) {
            return InsertOutcome::Rejected(BlockError::BadPow);
        }
        if !self.blocks.contains_key(&block.header.parent) {
            self.pool_orphan(block);
            return InsertOutcome::AwaitingParent;
        }

        let old_tip = self.tip();
        if let Err(err) = self.connect(block) {
            return InsertOutcome::Rejected(err);
        }
        // Connecting one block may unlock a cascade of orphans.
        self.flush_orphans(id);
        self.outcome_since(old_tip)
    }

    fn is_pooled_orphan(&self, id: &Digest) -> bool {
        self.orphans
            .values()
            .any(|list| list.iter().any(|b| b.id() == *id))
    }

    fn pool_orphan(&mut self, block: SealedBlock<T>) {
        let parent = block.header.parent;
        self.orphans.entry(parent).or_default().push(block);
        self.orphan_arrivals.push(parent);
        if self.orphan_arrivals.len() > MAX_ORPHANS {
            let victim_parent = self.orphan_arrivals.remove(0);
            if let Some(list) = self.orphans.get_mut(&victim_parent) {
                if !list.is_empty() {
                    list.remove(0);
                }
                if list.is_empty() {
                    self.orphans.remove(&victim_parent);
                }
            }
        }
    }

    /// Connects a block whose parent is present; updates indexes and
    /// possibly the active chain.
    fn connect(&mut self, block: SealedBlock<T>) -> Result<(), BlockError> {
        let parent = &self.blocks[&block.header.parent];
        if block.header.height != parent.block.header.height + 1 {
            return Err(BlockError::BadHeight);
        }
        let chainwork = parent.chainwork + u128::from(block.header.difficulty);
        let id = block.id();
        let parent_id = block.header.parent;
        let arrival = self.arrival_seq;
        self.arrival_seq += 1;
        self.blocks.insert(
            id,
            Box::new(StoredBlock {
                block,
                chainwork,
                arrival,
            }),
        );
        self.children.entry(parent_id).or_default().push(id);

        // Most-work fork choice; first-seen wins ties.
        let tip = self.tip();
        let tip_work = self.blocks[&tip].chainwork;
        if chainwork > tip_work {
            self.switch_active_to(id);
        }
        Ok(())
    }

    fn flush_orphans(&mut self, connected: Digest) {
        let mut ready = vec![connected];
        while let Some(parent) = ready.pop() {
            let Some(waiting) = self.orphans.remove(&parent) else {
                continue;
            };
            self.orphan_arrivals.retain(|p| *p != parent);
            for block in waiting {
                let id = block.id();
                if self.connect(block).is_ok() {
                    ready.push(id);
                }
            }
        }
    }

    /// Rewrites the active chain so it ends at `new_tip`.
    fn switch_active_to(&mut self, new_tip: Digest) {
        // Walk back from new_tip to the first block already active at
        // its height (genesis always is).
        let mut path = Vec::new();
        let mut cursor = new_tip;
        loop {
            let header = &self.blocks[&cursor].block.header;
            let (height, parent) = (header.height, header.parent);
            if self.active_at(height) == Some(cursor) {
                self.truncate_active(height);
                break;
            }
            path.push(cursor);
            cursor = parent;
        }
        for id in path.into_iter().rev() {
            let height = self.active.len() as u64;
            for tx_id in self.blocks[&id].block.tx_ids() {
                // A transaction already active lower down keeps its
                // first height.
                self.tx_heights.entry(*tx_id).or_insert(height);
            }
            self.active.push(id);
        }
    }

    /// Cuts the active chain back to end at `height`, forgetting the
    /// transactions first included above it. The cut blocks must still
    /// be stored.
    fn truncate_active(&mut self, height: u64) {
        for id in self.active.drain(height as usize + 1..) {
            for tx_id in self.blocks[&id].block.tx_ids() {
                if self.tx_heights.get(tx_id).is_some_and(|&h| h > height) {
                    self.tx_heights.remove(tx_id);
                }
            }
        }
    }

    /// Describes how the tip moved relative to `old_tip`.
    fn outcome_since(&self, old_tip: Digest) -> InsertOutcome {
        let new_tip = self.tip();
        if new_tip == old_tip {
            return InsertOutcome::SideChain;
        }
        // Old tip still active => pure extension.
        if self.is_active(&old_tip) {
            let from = self.blocks[&old_tip].block.header.height as usize + 1;
            return InsertOutcome::Extended {
                new_tip,
                applied: self.active[from..].to_vec(),
            };
        }
        // Otherwise: reorg. Walk old branch back to the fork point.
        let mut reverted = Vec::new();
        let mut cursor = old_tip;
        while !self.is_active(&cursor) {
            reverted.push(cursor);
            cursor = self.blocks[&cursor].block.header.parent;
        }
        let fork_height = self.blocks[&cursor].block.header.height as usize;
        let applied = self.active[fork_height + 1..].to_vec();
        InsertOutcome::Reorged {
            old_tip,
            new_tip,
            reverted,
            applied,
        }
    }

    /// Removes a block and all its descendants from the store (the
    /// analogue of Bitcoin's `invalidateblock`), returning the removed
    /// ids. Used when a branch that won fork choice turns out to be
    /// semantically invalid (e.g. hides a double spend): the chain
    /// falls back to the best remaining branch.
    ///
    /// The genesis block cannot be invalidated.
    pub fn invalidate(&mut self, id: &Digest) -> Vec<Digest> {
        if *id == self.genesis || !self.blocks.contains_key(id) {
            return Vec::new();
        }
        // Leave the active chain before the subtree's blocks go.
        if self.is_active(id) {
            self.truncate_active(self.blocks[id].block.header.height - 1);
        }
        // Collect the subtree rooted at `id`.
        let mut removed = Vec::new();
        let mut queue = vec![*id];
        while let Some(current) = queue.pop() {
            if let Some(children) = self.children.remove(&current) {
                queue.extend(children);
            }
            if self.blocks.remove(&current).is_some() {
                removed.push(current);
            }
        }
        // Unlink the removed subtree from surviving child lists.
        for children in self.children.values_mut() {
            children.retain(|c| !removed.contains(c));
        }
        // Re-point the active chain at the best surviving block.
        let best = self
            .blocks
            .iter()
            .max_by_key(|(_, s)| (s.chainwork, std::cmp::Reverse(s.arrival)))
            .map(|(id, _)| *id)
            .expect("genesis always survives");
        self.switch_active_to(best);
        removed
    }

    /// [Inserts](ChainStore::insert) a block and moves `state` and
    /// `mempool`, which reflect the current tip, to the resulting tip
    /// with [`ChainStore::follow_tip`].
    ///
    /// # Errors
    ///
    /// Structurally invalid blocks are not stored. A branch hiding a
    /// semantically invalid block loses that block and its descendants,
    /// and the state follows the best remaining branch.
    pub(crate) fn receive<S: ChainState<T>>(
        &mut self,
        block: SealedBlock<T>,
        state: &mut S,
        mempool: &mut Mempool<T>,
    ) -> Result<InsertOutcome, ChainError<S::Error>> {
        let from = self.tip();
        let outcome = self.insert(block);
        if let InsertOutcome::Rejected(err) = outcome {
            return Err(ChainError::Structure(err));
        }
        match self.follow_tip(from, None, state, mempool).rejected {
            Some((block, error)) => Err(ChainError::Semantics { block, error }),
            None => Ok(outcome),
        }
    }

    /// Moves `state` and `mempool` from `from` — the block they reflect
    /// — to the active tip. Blocks leaving the active chain are reverted
    /// newest first and their transactions, coinbases excepted, return
    /// to the mempool (the paper's orphaned transactions); blocks
    /// joining it are applied oldest first and their transactions leave
    /// the mempool.
    ///
    /// A block that fails [`ChainState::apply`] is
    /// [invalidated](ChainStore::invalidate) with its descendants, and
    /// the state re-routes to whatever tip fork choice picks next.
    /// `invalidate` names a block to expunge the same way before
    /// routing (a finality violation, say); if the state reflects it or
    /// a descendant, the state first steps back onto its parent.
    ///
    /// Afterwards `state` and `mempool` reflect [`ChainStore::tip`].
    ///
    /// # Panics
    ///
    /// Panics if `from` is not a stored block.
    pub(crate) fn follow_tip<S: ChainState<T>>(
        &mut self,
        from: Digest,
        invalidate: Option<Digest>,
        state: &mut S,
        mempool: &mut Mempool<T>,
    ) -> Followed<S::Error> {
        let mut at = from;
        let mut doomed = invalidate.filter(|id| *id != self.genesis);
        let mut followed = Followed {
            rejected: None,
            removed: Vec::new(),
        };
        loop {
            if let Some(bad) = doomed.take() {
                if let Some(parent) = self.header(&bad).map(|h| h.parent) {
                    if self.common_ancestor(&at, &bad) == Some(bad) {
                        self.rewind(&mut at, parent, state, mempool);
                    }
                    followed.removed.extend(self.invalidate(&bad));
                }
            }
            let tip = self.tip();
            if at == tip {
                return followed;
            }
            let fork = self
                .common_ancestor(&at, &tip)
                .expect("the followed block is stored");
            self.rewind(&mut at, fork, state, mempool);
            let fork_height = self.blocks[&fork].block.header.height as usize;
            for &id in &self.active[fork_height + 1..] {
                let block = &self.blocks[&id].block;
                if let Err(error) = state.apply(block) {
                    followed.rejected.get_or_insert((id, error));
                    doomed = Some(id);
                    break;
                }
                mempool.remove_confirmed(block.tx_ids().iter().copied());
                at = id;
            }
        }
    }

    /// Reverts `state` from `*at` down to its ancestor `to`, returning
    /// the reverted transactions to `mempool`.
    fn rewind<S: ChainState<T>>(
        &self,
        at: &mut Digest,
        to: Digest,
        state: &mut S,
        mempool: &mut Mempool<T>,
    ) {
        while *at != to {
            let block = &self.blocks[at].block;
            state.revert(block);
            mempool.reinstate(block.txs.iter().filter(|tx| !tx.is_coinbase()).cloned());
            *at = block.header.parent;
        }
    }

    /// The lowest common ancestor of two known blocks.
    pub fn common_ancestor(&self, a: &Digest, b: &Digest) -> Option<Digest> {
        let mut x = *a;
        let mut y = *b;
        let mut hx = self.blocks.get(&x)?.block.header.height;
        let mut hy = self.blocks.get(&y)?.block.header.height;
        while hx > hy {
            x = self.blocks[&x].block.header.parent;
            hx -= 1;
        }
        while hy > hx {
            y = self.blocks[&y].block.header.parent;
            hy -= 1;
        }
        while x != y {
            x = self.blocks[&x].block.header.parent;
            y = self.blocks[&y].block.header.parent;
        }
        Some(x)
    }

    /// Iterates the active chain's blocks, genesis first.
    pub fn iter_active(&self) -> impl Iterator<Item = &SealedBlock<T>> {
        self.active.iter().map(|id| &self.blocks[id].block)
    }

    /// Total encoded bytes of all stored blocks (ledger size, §V).
    pub fn total_bytes(&self) -> usize {
        self.blocks.values().map(|s| s.block.size_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::testutil::{header, TestTx};

    type TestChain = ChainStore<TestTx>;

    fn genesis() -> SealedBlock<TestTx> {
        SealedBlock::new(header(Digest::ZERO, 0), vec![])
    }

    /// Builds a child of `parent` with a distinguishing tag tx.
    fn child_of(parent: &SealedBlock<TestTx>, tag: u64) -> SealedBlock<TestTx> {
        let mut h = header(parent.id(), parent.header.height + 1);
        h.timestamp_micros = tag;
        SealedBlock::new(h, vec![TestTx::new(tag)])
    }

    /// Builds a child of the block with `parent_id`, which must already
    /// be in the store.
    fn child(store: &TestChain, parent_id: Digest, tag: u64) -> SealedBlock<TestTx> {
        child_of(store.block(&parent_id).expect("parent exists"), tag)
    }

    fn store() -> (TestChain, Digest) {
        let g = genesis();
        let gid = g.id();
        (ChainStore::new(g, false), gid)
    }

    #[test]
    fn fresh_store_is_at_genesis() {
        let (s, gid) = store();
        assert_eq!(s.tip(), gid);
        assert_eq!(s.tip_height(), 0);
        assert_eq!(s.block_count(), 1);
        assert!(s.is_active(&gid));
        assert_eq!(s.confirmations(&gid), Some(1));
    }

    #[test]
    fn linear_extension() {
        let (mut s, gid) = store();
        let b1 = child(&s, gid, 1);
        let b1_id = b1.id();
        match s.insert(b1) {
            InsertOutcome::Extended { new_tip, applied } => {
                assert_eq!(new_tip, b1_id);
                assert_eq!(applied, vec![b1_id]);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        let b2 = child(&s, b1_id, 2);
        let b2_id = b2.id();
        s.insert(b2);
        assert_eq!(s.tip(), b2_id);
        assert_eq!(s.tip_height(), 2);
        assert_eq!(s.confirmations(&b1_id), Some(2));
        assert_eq!(s.confirmations(&b2_id), Some(1));
    }

    #[test]
    fn duplicate_detected() {
        let (mut s, gid) = store();
        let b1 = child(&s, gid, 1);
        s.insert(b1.clone());
        assert_eq!(s.insert(b1), InsertOutcome::Duplicate);
    }

    #[test]
    fn competing_block_is_side_chain_and_first_seen_wins_tie() {
        let (mut s, gid) = store();
        let a = child(&s, gid, 1);
        let b = child(&s, gid, 2);
        let a_id = a.id();
        s.insert(a);
        assert_eq!(s.insert(b), InsertOutcome::SideChain);
        assert_eq!(s.tip(), a_id, "first seen keeps the tip on a tie");
        assert_eq!(s.stale_block_count(), 1);
    }

    #[test]
    fn longer_side_branch_triggers_reorg() {
        let (mut s, gid) = store();
        let a1 = child(&s, gid, 1);
        let a1_id = a1.id();
        s.insert(a1);
        // Competing branch b1, b2.
        let b1 = child(&s, gid, 10);
        let b1_id = b1.id();
        s.insert(b1);
        assert_eq!(s.tip(), a1_id);
        let b2 = child(&s, b1_id, 11);
        let b2_id = b2.id();
        match s.insert(b2) {
            InsertOutcome::Reorged {
                old_tip,
                new_tip,
                reverted,
                applied,
            } => {
                assert_eq!(old_tip, a1_id);
                assert_eq!(new_tip, b2_id);
                assert_eq!(reverted, vec![a1_id]);
                assert_eq!(applied, vec![b1_id, b2_id]);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert!(!s.is_active(&a1_id));
        assert_eq!(s.confirmations(&a1_id), None);
        assert_eq!(s.tip_height(), 2);
    }

    #[test]
    fn orphan_waits_for_parent_then_connects() {
        let (mut s, gid) = store();
        let b1 = child(&s, gid, 1);
        let b1_id = b1.id();
        let b2 = child_of(&b1, 2);
        let b2_id = b2.id();
        // Deliver child first.
        assert_eq!(s.insert(b2), InsertOutcome::AwaitingParent);
        assert_eq!(s.orphan_count(), 1);
        assert_eq!(s.tip(), gid);
        // Parent arrives; both connect, tip jumps two heights.
        match s.insert(b1) {
            InsertOutcome::Extended { new_tip, applied } => {
                assert_eq!(new_tip, b2_id);
                assert_eq!(applied, vec![b1_id, b2_id]);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(s.orphan_count(), 0);
        assert_eq!(s.tip_height(), 2);
    }

    #[test]
    fn orphan_duplicate_detected() {
        let (mut s, gid) = store();
        let b1 = child(&s, gid, 1);
        let b2 = child_of(&b1, 2);
        assert_eq!(s.insert(b2.clone()), InsertOutcome::AwaitingParent);
        assert_eq!(s.insert(b2), InsertOutcome::Duplicate);
    }

    #[test]
    fn orphan_cascade_connects_deep_chain() {
        let (mut s, gid) = store();
        let b1 = child(&s, gid, 1);
        let b2 = child_of(&b1, 2);
        let b3 = child_of(&b2, 3);
        let b3_id = b3.id();
        s.insert(b3);
        s.insert(b2);
        assert_eq!(s.tip(), gid);
        assert_eq!(s.orphan_count(), 2);
        s.insert(b1);
        assert_eq!(s.tip(), b3_id);
        assert_eq!(s.orphan_count(), 0);
    }

    #[test]
    fn bad_height_rejected() {
        let (mut s, gid) = store();
        let mut h = header(gid, 5); // parent is at height 0
        h.timestamp_micros = 1;
        let bad = SealedBlock::new(h, vec![]);
        assert_eq!(
            s.insert(bad),
            InsertOutcome::Rejected(BlockError::BadHeight)
        );
    }

    #[test]
    fn bad_merkle_root_rejected() {
        let (mut s, gid) = store();
        let mut b = child(&s, gid, 1).into_inner();
        b.header.merkle_root = dlt_crypto::sha256::sha256(b"wrong");
        assert_eq!(
            s.insert(b.seal()),
            InsertOutcome::Rejected(BlockError::BadMerkleRoot)
        );
    }

    #[test]
    fn second_genesis_rejected() {
        let (mut s, _gid) = store();
        let mut h = header(Digest::ZERO, 0);
        h.timestamp_micros = 42;
        let g2 = SealedBlock::new(h, vec![TestTx::new(1)]);
        assert_eq!(
            s.insert(g2),
            InsertOutcome::Rejected(BlockError::UnexpectedGenesis)
        );
    }

    #[test]
    fn pow_validation_enforced_when_enabled() {
        let g = genesis();
        let gid = g.id();
        let mut s = ChainStore::new(g, true);
        let mut h = header(gid, 1);
        h.difficulty = u64::MAX; // unminable
        let b = SealedBlock::new(h, vec![]);
        assert_eq!(s.insert(b), InsertOutcome::Rejected(BlockError::BadPow));

        // A genuinely mined block passes.
        let mut h2 = header(gid, 1);
        h2.difficulty = 16;
        let mut b2 = SealedBlock::new(h2, vec![]).into_inner();
        crate::pow::mine_real(&mut b2.header, 1_000_000).unwrap();
        assert!(matches!(
            s.insert(b2.seal()),
            InsertOutcome::Extended { .. }
        ));
    }

    #[test]
    fn most_work_beats_longest_chain() {
        // A short heavy branch must beat a long light one: fork choice
        // is by accumulated work, not raw length.
        let (mut s, gid) = store();
        // Light branch: three blocks of difficulty 1.
        let l1 = child(&s, gid, 1);
        let l2 = child_of(&l1, 2);
        let l3 = child_of(&l2, 3);
        let l3_id = l3.id();
        s.insert(l1);
        s.insert(l2);
        s.insert(l3);
        assert_eq!(s.tip(), l3_id);
        // Heavy branch: one block of difficulty 100.
        let mut hh = header(gid, 1);
        hh.timestamp_micros = 99;
        hh.difficulty = 100;
        let heavy = SealedBlock::new(hh, vec![]);
        let heavy_id = heavy.id();
        assert!(matches!(s.insert(heavy), InsertOutcome::Reorged { .. }));
        assert_eq!(s.tip(), heavy_id);
        assert_eq!(s.tip_height(), 1);
    }

    #[test]
    fn common_ancestor_of_forked_branches() {
        let (mut s, gid) = store();
        let a1 = child(&s, gid, 1);
        let a2 = child_of(&a1, 2);
        let b1 = child(&s, gid, 10);
        let (a1_id, a2_id, b1_id) = (a1.id(), a2.id(), b1.id());
        s.insert(a1);
        s.insert(a2);
        s.insert(b1);
        assert_eq!(s.common_ancestor(&a2_id, &b1_id), Some(gid));
        assert_eq!(s.common_ancestor(&a2_id, &a1_id), Some(a1_id));
        assert_eq!(s.common_ancestor(&a2_id, &a2_id), Some(a2_id));
    }

    #[test]
    fn iter_active_is_genesis_first() {
        let (mut s, gid) = store();
        let b1 = child(&s, gid, 1);
        let b2 = child_of(&b1, 2);
        let ids = [gid, b1.id(), b2.id()];
        s.insert(b1);
        s.insert(b2);
        let walked: Vec<Digest> = s.iter_active().map(SealedBlock::id).collect();
        assert_eq!(walked, ids);
    }

    #[test]
    fn tx_confirmations_follow_reorg_and_invalidate() {
        let (mut s, gid) = store();
        let block = |parent: &SealedBlock<TestTx>, ts: u64, tags: &[u64]| {
            let mut h = header(parent.id(), parent.header.height + 1);
            h.timestamp_micros = ts;
            SealedBlock::new(h, tags.iter().copied().map(TestTx::new).collect())
        };
        let tx = |tag: u64| TestTx::new(tag).id();
        let g = s.block(&gid).expect("genesis").clone();
        // Tx 1 is in a1 and again in a2; tx 7 is on both branches.
        let a1 = block(&g, 1, &[7, 1]);
        let a2 = block(&a1, 2, &[1, 2]);
        let b1 = block(&g, 10, &[7]);
        let b2 = block(&b1, 11, &[]);
        let b3 = block(&b2, 12, &[3]);
        let b1_id = b1.id();
        s.insert(a1);
        s.insert(a2);
        assert_eq!(
            s.tx_confirmations(&tx(1)),
            Some(2),
            "first inclusion counts"
        );
        assert_eq!(s.tx_confirmations(&tx(7)), Some(2));
        assert_eq!(s.tx_confirmations(&tx(2)), Some(1));
        assert_eq!(s.tx_confirmations(&tx(3)), None);

        // The longer b branch takes over.
        s.insert(b1);
        s.insert(b2);
        assert!(matches!(s.insert(b3), InsertOutcome::Reorged { .. }));
        assert_eq!(s.tx_confirmations(&tx(7)), Some(3));
        assert_eq!(s.tx_confirmations(&tx(1)), None);
        assert_eq!(s.tx_confirmations(&tx(2)), None);
        assert_eq!(s.tx_confirmations(&tx(3)), Some(1));

        // Expunging it falls back onto the a branch.
        assert_eq!(s.invalidate(&b1_id).len(), 3);
        assert_eq!(s.tx_confirmations(&tx(7)), Some(2));
        assert_eq!(s.tx_confirmations(&tx(1)), Some(2));
        assert_eq!(s.tx_confirmations(&tx(2)), Some(1));
        assert_eq!(s.tx_confirmations(&tx(3)), None);
    }

    #[test]
    fn invalidate_removes_subtree_and_falls_back() {
        let (mut s, gid) = store();
        let a1 = child(&s, gid, 1);
        let a2 = child_of(&a1, 2);
        let b1 = child(&s, gid, 10);
        let (a1_id, a2_id, b1_id) = (a1.id(), a2.id(), b1.id());
        s.insert(a1);
        s.insert(a2);
        s.insert(b1);
        assert_eq!(s.tip(), a2_id);
        let removed = s.invalidate(&a1_id);
        assert_eq!(removed.len(), 2);
        assert!(!s.contains(&a1_id));
        assert!(!s.contains(&a2_id));
        // Falls back to the surviving branch.
        assert_eq!(s.tip(), b1_id);
        assert!(s.is_active(&b1_id));
    }

    #[test]
    fn invalidate_genesis_is_refused() {
        let (mut s, gid) = store();
        assert!(s.invalidate(&gid).is_empty());
        assert_eq!(s.tip(), gid);
    }

    #[test]
    fn invalidate_unknown_is_noop() {
        let (mut s, _gid) = store();
        assert!(s
            .invalidate(&dlt_crypto::sha256::sha256(b"nope"))
            .is_empty());
    }

    #[test]
    fn total_bytes_counts_all_branches() {
        let (mut s, gid) = store();
        let base = s.total_bytes();
        let a = child(&s, gid, 1);
        let b = child(&s, gid, 2);
        s.insert(a);
        s.insert(b);
        assert!(s.total_bytes() > base);
        assert_eq!(s.block_count(), 3);
    }
}
