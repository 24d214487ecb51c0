//! Blocks and block headers (paper §II-A, Fig. 1).
//!
//! A block couples a [`BlockHeader`] — carrying the hash link to its
//! predecessor, the Merkle root of its transactions and the consensus
//! fields — with the transaction list itself. The header layout is the
//! union of what the Bitcoin-like and Ethereum-like chains need; fields
//! a given chain doesn't use stay at their zero values (exactly as real
//! headers carry chain-specific fields).
//!
//! Transactions are abstracted by [`LedgerTx`] so the chain store,
//! mempool and miner are shared between the UTXO and account models.
//!
//! Content ids are hashed once: a [`SealedBlock`] carries the block id
//! and every transaction id, computed when it is built or received,
//! and the chain machinery reads those instead of hashing again.

use std::ops::Deref;

use dlt_crypto::codec::{Decode, DecodeError, Encode};
use dlt_crypto::keys::Address;
use dlt_crypto::merkle::merkle_root;
use dlt_crypto::sha256::double_sha256;
use dlt_crypto::Digest;

/// The interface a transaction exposes to chain-level machinery.
pub trait LedgerTx: Clone {
    /// The transaction identifier (hash of its encoding).
    fn id(&self) -> Digest;

    /// Fee paid to the block producer.
    fn fee(&self) -> u64;

    /// Capacity consumed inside a block: *bytes* for the Bitcoin-like
    /// chain, *gas* for the Ethereum-like chain (paper §VI-A).
    fn weight(&self) -> u64;

    /// Serialized size in bytes (ledger-size accounting, §V).
    fn encoded_size(&self) -> usize;

    /// Whether this is a block reward, which dies with its block
    /// instead of returning to the mempool.
    fn is_coinbase(&self) -> bool {
        false
    }
}

/// A block header: everything needed to verify chain linkage and
/// proof-of-work/stake without the transaction bodies. The default is
/// all zeros; a chain sets the fields it uses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockHeader {
    /// Hash of the predecessor block ([`Digest::ZERO`] for genesis).
    pub parent: Digest,
    /// Distance from genesis (genesis = 0).
    pub height: u64,
    /// Merkle root over the block's transaction ids.
    pub merkle_root: Digest,
    /// Root of the global state trie after this block
    /// (Ethereum-like chains only; zero otherwise).
    pub state_root: Digest,
    /// Merkle root over the block's receipts (Ethereum-like only).
    pub receipts_root: Digest,
    /// Block creation time in simulated microseconds.
    pub timestamp_micros: u64,
    /// Difficulty as the expected number of hash attempts to find a
    /// valid nonce. The PoW target is derived from this value.
    pub difficulty: u64,
    /// The free variable of the PoW puzzle.
    pub nonce: u64,
    /// Gas consumed by the block's transactions (Ethereum-like only).
    pub gas_used: u64,
    /// The block's gas limit (Ethereum-like only; dynamic per §VI-A).
    pub gas_limit: u64,
    /// Block proposer (proof-of-stake chains; [`Address::ZERO`] under
    /// PoW where the coinbase already names the miner).
    pub proposer: Address,
}

impl BlockHeader {
    /// The block identifier: the double SHA-256 of the encoded header,
    /// as Bitcoin computes block hashes.
    pub fn id(&self) -> Digest {
        double_sha256(&self.encode_to_vec())
    }

    /// Returns the header's encoded size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.encoded_len()
    }

    /// Whether this is a genesis header (no parent).
    pub fn is_genesis(&self) -> bool {
        self.parent.is_zero() && self.height == 0
    }
}

impl Encode for BlockHeader {
    fn encode(&self, out: &mut Vec<u8>) {
        self.parent.encode(out);
        self.height.encode(out);
        self.merkle_root.encode(out);
        self.state_root.encode(out);
        self.receipts_root.encode(out);
        self.timestamp_micros.encode(out);
        self.difficulty.encode(out);
        self.nonce.encode(out);
        self.gas_used.encode(out);
        self.gas_limit.encode(out);
        self.proposer.encode(out);
    }
}

impl Decode for BlockHeader {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(BlockHeader {
            parent: Digest::decode(input)?,
            height: u64::decode(input)?,
            merkle_root: Digest::decode(input)?,
            state_root: Digest::decode(input)?,
            receipts_root: Digest::decode(input)?,
            timestamp_micros: u64::decode(input)?,
            difficulty: u64::decode(input)?,
            nonce: u64::decode(input)?,
            gas_used: u64::decode(input)?,
            gas_limit: u64::decode(input)?,
            proposer: Address::decode(input)?,
        })
    }
}

/// A block: header plus transaction list.
///
/// A plain block is data: it can be edited, and nothing vouches for
/// its ids. The chain machinery takes [`SealedBlock`]s, which carry
/// the ids computed from their own content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block<T> {
    /// The block header.
    pub header: BlockHeader,
    /// The transactions, in execution order.
    pub txs: Vec<T>,
}

impl<T: LedgerTx> Block<T> {
    /// A sealed transaction-less genesis block — the anchor for
    /// experiments and network simulations that exercise chain
    /// structure without ledger semantics.
    pub fn empty_genesis() -> SealedBlock<T> {
        SealedBlock::new(
            BlockHeader {
                difficulty: 1,
                ..BlockHeader::default()
            },
            vec![],
        )
    }

    /// Seals the block as it is: hashes the header and every
    /// transaction. The header's Merkle root is kept, so a block whose
    /// bodies were edited fails [`SealedBlock::merkle_root_valid`].
    pub fn seal(self) -> SealedBlock<T> {
        let tx_ids = self.txs.iter().map(LedgerTx::id).collect();
        SealedBlock {
            id: self.header.id(),
            tx_ids,
            block: self,
        }
    }

    /// Sum of transaction fees (the block producer's income beside the
    /// subsidy).
    pub fn total_fee(&self) -> u64 {
        self.txs.iter().map(LedgerTx::fee).sum()
    }

    /// Sum of transaction weights (bytes or gas).
    pub fn total_weight(&self) -> u64 {
        self.txs.iter().map(LedgerTx::weight).sum()
    }

    /// Serialized size in bytes: header plus transaction bodies.
    pub fn size_bytes(&self) -> usize {
        self.header.size_bytes() + self.txs.iter().map(LedgerTx::encoded_size).sum::<usize>()
    }
}

/// A block with its id and its transactions' ids, each computed once
/// from the block's own content when it was sealed and never again.
///
/// The ids cannot go stale: the block is read through [`Deref`] and
/// there is no mutable access, and no constructor takes an id from its
/// caller — a receiver always computes them. To edit a block, take it
/// out with [`SealedBlock::into_inner`] and seal it again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBlock<T> {
    block: Block<T>,
    id: Digest,
    tx_ids: Box<[Digest]>,
}

impl<T: LedgerTx> SealedBlock<T> {
    /// Assembles a block over `txs` with the Merkle root computed over
    /// their ids, and seals it; each transaction is hashed once.
    /// Consensus fields (`difficulty`, `nonce`, …) are taken from
    /// `header`.
    pub fn new(mut header: BlockHeader, txs: Vec<T>) -> Self {
        let tx_ids: Box<[Digest]> = txs.iter().map(LedgerTx::id).collect();
        header.merkle_root = merkle_root(&tx_ids);
        SealedBlock {
            id: header.id(),
            tx_ids,
            block: Block { header, txs },
        }
    }
}

impl<T> SealedBlock<T> {
    /// The block identifier (the header hash).
    pub fn id(&self) -> Digest {
        self.id
    }

    /// The transaction ids, in block order.
    pub fn tx_ids(&self) -> &[Digest] {
        &self.tx_ids
    }

    /// Whether the header's Merkle root commits to the transactions:
    /// the root over the ids hashed from the bodies at sealing time
    /// (tamper check; paper Fig. 1).
    pub fn merkle_root_valid(&self) -> bool {
        merkle_root(&self.tx_ids) == self.block.header.merkle_root
    }

    /// Gives up the ids and returns the plain block.
    pub fn into_inner(self) -> Block<T> {
        self.block
    }
}

impl<T> Deref for SealedBlock<T> {
    type Target = Block<T>;

    fn deref(&self) -> &Block<T> {
        &self.block
    }
}

/// Public test-support helpers: a minimal transaction and block
/// constructors for chain-level tests in downstream crates that do not
/// care about UTXO/account semantics. Not part of the stable ledger
/// API.
pub mod testsupport {
    use super::*;
    use dlt_crypto::sha256::sha256;

    /// A dummy transaction with explicit fee and weight.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TestTx {
        /// Distinguishing tag (drives the id).
        pub tag: u64,
        /// Fee paid.
        pub fee: u64,
        /// Block-capacity weight.
        pub weight: u64,
    }

    impl LedgerTx for TestTx {
        fn id(&self) -> Digest {
            sha256(&self.tag.to_be_bytes())
        }
        fn fee(&self) -> u64 {
            self.fee
        }
        fn weight(&self) -> u64 {
            self.weight
        }
        fn encoded_size(&self) -> usize {
            24
        }
    }

    /// Builds a test transaction.
    pub fn test_tx(tag: u64, fee: u64, weight: u64) -> TestTx {
        TestTx { tag, fee, weight }
    }

    /// An empty test genesis block.
    pub fn test_genesis() -> SealedBlock<TestTx> {
        SealedBlock::new(test_header(Digest::ZERO, 0, 1), vec![])
    }

    /// A child block of `parent` distinguished by `tag` with the given
    /// difficulty.
    pub fn test_block(
        parent: &SealedBlock<TestTx>,
        tag: u64,
        difficulty: u64,
    ) -> SealedBlock<TestTx> {
        let mut header = test_header(parent.id(), parent.header.height + 1, difficulty);
        header.timestamp_micros = tag;
        SealedBlock::new(header, vec![test_tx(tag, 1, 100)])
    }

    /// A bare header with sane defaults.
    pub fn test_header(parent: Digest, height: u64, difficulty: u64) -> BlockHeader {
        BlockHeader {
            parent,
            height,
            timestamp_micros: height * 1_000_000,
            difficulty,
            ..BlockHeader::default()
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! A minimal transaction used by chain-level unit tests that don't
    //! care about UTXO/account semantics.
    use super::*;
    use dlt_crypto::sha256::sha256;

    /// A dummy transaction with explicit fee and weight.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TestTx {
        pub tag: u64,
        pub fee: u64,
        pub weight: u64,
    }

    impl TestTx {
        pub fn new(tag: u64) -> Self {
            TestTx {
                tag,
                fee: 1,
                weight: 100,
            }
        }
    }

    impl LedgerTx for TestTx {
        fn id(&self) -> Digest {
            sha256(&self.tag.to_be_bytes())
        }
        fn fee(&self) -> u64 {
            self.fee
        }
        fn weight(&self) -> u64 {
            self.weight
        }
        fn encoded_size(&self) -> usize {
            24
        }
    }

    /// A bare header at the given height/parent with sane defaults.
    pub fn header(parent: Digest, height: u64) -> BlockHeader {
        BlockHeader {
            parent,
            height,
            merkle_root: Digest::ZERO,
            state_root: Digest::ZERO,
            receipts_root: Digest::ZERO,
            timestamp_micros: height * 1_000_000,
            difficulty: 1,
            nonce: 0,
            gas_used: 0,
            gas_limit: 0,
            proposer: Address::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{header, TestTx};
    use super::*;
    use dlt_crypto::codec::decode_exact;

    #[test]
    fn header_id_changes_with_any_field() {
        let base = header(Digest::ZERO, 0);
        let base_id = base.id();
        let mut variants = Vec::new();
        let mut h = base.clone();
        h.height = 1;
        variants.push(h.clone());
        h = base.clone();
        h.nonce = 99;
        variants.push(h.clone());
        h = base.clone();
        h.difficulty = 77;
        variants.push(h.clone());
        h = base.clone();
        h.merkle_root = dlt_crypto::sha256::sha256(b"other");
        variants.push(h);
        for v in variants {
            assert_ne!(v.id(), base_id);
        }
    }

    #[test]
    fn header_codec_round_trip() {
        let mut h = header(dlt_crypto::sha256::sha256(b"parent"), 5);
        h.gas_used = 21_000;
        h.gas_limit = 8_000_000;
        let back: BlockHeader = decode_exact(&h.encode_to_vec()).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.id(), h.id());
    }

    #[test]
    fn genesis_detection() {
        assert!(header(Digest::ZERO, 0).is_genesis());
        assert!(!header(dlt_crypto::sha256::sha256(b"x"), 1).is_genesis());
    }

    #[test]
    fn block_merkle_root_detects_tamper() {
        let txs: Vec<TestTx> = (0..5).map(TestTx::new).collect();
        let block = SealedBlock::new(header(Digest::ZERO, 0), txs);
        assert!(block.merkle_root_valid());
        let mut tampered = block.into_inner();
        tampered.txs[2].tag = 999;
        assert!(!tampered.seal().merkle_root_valid());
    }

    #[test]
    fn sealed_ids_match_a_fresh_hash_of_the_content() {
        let txs: Vec<TestTx> = (0..5).map(TestTx::new).collect();
        let block = SealedBlock::new(header(Digest::ZERO, 0), txs);
        assert_eq!(block.id(), block.header.id());
        let fresh: Vec<Digest> = block.txs.iter().map(LedgerTx::id).collect();
        assert_eq!(block.tx_ids(), fresh.as_slice());
        // Re-sealing an untouched block reproduces every id.
        assert_eq!(block.clone().into_inner().seal(), block);
    }

    #[test]
    fn resealed_tampered_block_is_rejected_by_the_store() {
        use crate::chain::{BlockError, ChainStore, InsertOutcome};
        let genesis = SealedBlock::new(header(Digest::ZERO, 0), vec![]);
        let child = SealedBlock::new(header(genesis.id(), 1), vec![TestTx::new(1)]);
        let mut store = ChainStore::new(genesis, false);

        let mut wrong_root = child.clone().into_inner();
        wrong_root.header.merkle_root = dlt_crypto::sha256::sha256(b"wrong");
        let mut wrong_tx = child.clone().into_inner();
        wrong_tx.txs[0].tag = 999;
        for tampered in [wrong_root, wrong_tx] {
            assert_eq!(
                store.insert(tampered.seal()),
                InsertOutcome::Rejected(BlockError::BadMerkleRoot)
            );
        }
        assert!(matches!(
            store.insert(child),
            InsertOutcome::Extended { .. }
        ));
    }

    #[test]
    fn block_aggregates() {
        let txs: Vec<TestTx> = (0..4).map(TestTx::new).collect();
        let block = SealedBlock::new(header(Digest::ZERO, 0), txs);
        assert_eq!(block.total_fee(), 4);
        assert_eq!(block.total_weight(), 400);
        assert_eq!(block.size_bytes(), block.header.size_bytes() + 4 * 24);
    }

    #[test]
    fn empty_block_is_fine() {
        let block: SealedBlock<TestTx> = SealedBlock::new(header(Digest::ZERO, 0), vec![]);
        assert!(block.merkle_root_valid());
        assert_eq!(block.total_weight(), 0);
    }

    #[test]
    fn block_id_depends_on_txs_via_merkle_root() {
        let a = SealedBlock::new(header(Digest::ZERO, 0), vec![TestTx::new(1)]);
        let b = SealedBlock::new(header(Digest::ZERO, 0), vec![TestTx::new(2)]);
        assert_ne!(a.id(), b.id());
    }
}
