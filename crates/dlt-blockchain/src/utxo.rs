//! The UTXO transaction model (Bitcoin-like, paper §II-A).
//!
//! Value lives in *unspent transaction outputs*. A transaction consumes
//! existing outputs — proving ownership with a public key matching the
//! output's address and a signature over the transaction — and creates
//! new ones. The miner's *coinbase* transaction has no inputs and may
//! pay out the block subsidy plus the block's fees.
//!
//! [`UtxoLedger`] maintains the authoritative output set for the active
//! chain and supports *undo* of applied blocks, which is what makes the
//! soft-fork reorgs of §IV-A implementable: reverted blocks give their
//! outputs back and un-create what they introduced.
//!
//! One simplification vs. Bitcoin: a transaction declares its fee
//! explicitly (wallets know it anyway) so the chain-level
//! [`LedgerTx`] interface can report fees without a UTXO-set lookup;
//! validation recomputes the true fee and rejects mismatches.

use std::collections::{BTreeMap, BTreeSet};

use dlt_crypto::codec::{Decode, DecodeError, Encode};
use dlt_crypto::keys::{Address, Keypair, PublicKey, Signature};
use dlt_crypto::sha256::{double_sha256, Sha256};
use dlt_crypto::Digest;
use dlt_sim::rng::SimRng;

use crate::block::{LedgerTx, SealedBlock};

/// A reference to one output of a prior transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OutPoint {
    /// The transaction that created the output.
    pub txid: Digest,
    /// Index into that transaction's output list.
    pub index: u32,
}

impl Encode for OutPoint {
    fn encode(&self, out: &mut Vec<u8>) {
        self.txid.encode(out);
        self.index.encode(out);
    }
}

impl Decode for OutPoint {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(OutPoint {
            txid: Digest::decode(input)?,
            index: u32::decode(input)?,
        })
    }
}

/// A spendable output: an amount locked to an address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxOutput {
    /// Amount in base units.
    pub amount: u64,
    /// The owner: hash of the public key allowed to spend.
    pub recipient: Address,
}

impl Encode for TxOutput {
    fn encode(&self, out: &mut Vec<u8>) {
        self.amount.encode(out);
        self.recipient.encode(out);
    }
}

impl Decode for TxOutput {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(TxOutput {
            amount: u64::decode(input)?,
            recipient: Address::decode(input)?,
        })
    }
}

/// An input: an outpoint plus the ownership proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxInput {
    /// The output being spent.
    pub outpoint: OutPoint,
    /// The public key whose hash must equal the output's address.
    pub pubkey: PublicKey,
    /// Signature over the transaction's [sighash](UtxoTx::sighash).
    pub signature: Signature,
}

impl Encode for TxInput {
    fn encode(&self, out: &mut Vec<u8>) {
        self.outpoint.encode(out);
        self.pubkey.encode(out);
        self.signature.encode(out);
    }
}

impl Decode for TxInput {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(TxInput {
            outpoint: OutPoint::decode(input)?,
            pubkey: PublicKey::decode(input)?,
            signature: Signature::decode(input)?,
        })
    }
}

/// A UTXO transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UtxoTx {
    /// Inputs (empty for a coinbase transaction).
    pub inputs: Vec<TxInput>,
    /// Outputs created.
    pub outputs: Vec<TxOutput>,
    /// Declared fee (inputs minus outputs); validation recomputes and
    /// compares. Zero for coinbase.
    pub declared_fee: u64,
    /// Coinbase marker data: the block height, making each coinbase
    /// unique (as BIP 34 requires). Zero for regular transactions.
    pub coinbase_height: u64,
}

impl UtxoTx {
    /// Builds the miner's coinbase transaction for `height`.
    pub fn coinbase(height: u64, reward: u64, miner: Address) -> Self {
        UtxoTx {
            inputs: Vec::new(),
            outputs: vec![TxOutput {
                amount: reward,
                recipient: miner,
            }],
            declared_fee: 0,
            coinbase_height: height,
        }
    }

    /// The message each input's key signs: a hash over the outpoints,
    /// outputs and declared fee (the ownership proofs themselves are
    /// excluded, like Bitcoin blanks scriptSigs while signing).
    pub fn sighash(&self) -> Digest {
        let outpoints: Vec<OutPoint> = self.inputs.iter().map(|i| i.outpoint).collect();
        sighash_over(
            &outpoints,
            &self.outputs,
            self.declared_fee,
            self.coinbase_height,
        )
    }

    /// Total amount of the outputs.
    pub fn output_total(&self) -> u64 {
        self.outputs.iter().map(|o| o.amount).sum()
    }
}

/// Computes the signing message from transaction parts (used both by
/// [`UtxoTx::sighash`] and by wallets before inputs carry signatures).
fn sighash_over(
    outpoints: &[OutPoint],
    outputs: &[TxOutput],
    declared_fee: u64,
    coinbase_height: u64,
) -> Digest {
    let mut h = Sha256::new();
    h.update(b"utxo-sighash");
    let mut buf = Vec::new();
    for outpoint in outpoints {
        outpoint.encode(&mut buf);
    }
    outputs.to_vec().encode(&mut buf);
    declared_fee.encode(&mut buf);
    coinbase_height.encode(&mut buf);
    h.update(&buf);
    h.finalize()
}

impl Encode for UtxoTx {
    fn encode(&self, out: &mut Vec<u8>) {
        self.inputs.encode(out);
        self.outputs.encode(out);
        self.declared_fee.encode(out);
        self.coinbase_height.encode(out);
    }
}

impl Decode for UtxoTx {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(UtxoTx {
            inputs: Vec::<TxInput>::decode(input)?,
            outputs: Vec::<TxOutput>::decode(input)?,
            declared_fee: u64::decode(input)?,
            coinbase_height: u64::decode(input)?,
        })
    }
}

impl LedgerTx for UtxoTx {
    fn id(&self) -> Digest {
        double_sha256(&self.encode_to_vec())
    }
    fn fee(&self) -> u64 {
        self.declared_fee
    }
    fn weight(&self) -> u64 {
        self.encoded_size() as u64
    }
    fn encoded_size(&self) -> usize {
        self.encoded_len()
    }
    /// A coinbase is the transaction without inputs.
    fn is_coinbase(&self) -> bool {
        self.inputs.is_empty()
    }
}

/// Why a transaction or block failed UTXO validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UtxoError {
    /// An input references an output that doesn't exist (or was spent).
    MissingInput,
    /// The spender's public key doesn't hash to the output's address.
    WrongOwner,
    /// The ownership signature failed verification.
    BadSignature,
    /// The same outpoint is consumed twice (within a tx or block) —
    /// the double spend.
    DoubleSpend,
    /// Outputs exceed inputs.
    Overspend,
    /// The declared fee differs from inputs − outputs.
    FeeMismatch,
    /// A non-first transaction is a coinbase, or the first isn't.
    CoinbaseMisplaced,
    /// The coinbase pays more than subsidy + fees.
    CoinbaseOverpays,
    /// A transaction has no outputs.
    NoOutputs,
}

impl std::fmt::Display for UtxoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let text = match self {
            UtxoError::MissingInput => "input references a missing or spent output",
            UtxoError::WrongOwner => "public key does not match output address",
            UtxoError::BadSignature => "invalid ownership signature",
            UtxoError::DoubleSpend => "outpoint spent twice",
            UtxoError::Overspend => "outputs exceed inputs",
            UtxoError::FeeMismatch => "declared fee does not match inputs minus outputs",
            UtxoError::CoinbaseMisplaced => "coinbase transaction misplaced",
            UtxoError::CoinbaseOverpays => "coinbase exceeds subsidy plus fees",
            UtxoError::NoOutputs => "transaction has no outputs",
        };
        f.write_str(text)
    }
}

impl std::error::Error for UtxoError {}

/// Undo data for one applied block: what to restore and what to delete
/// on revert.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockUndo {
    spent: Vec<(OutPoint, TxOutput)>,
    created: Vec<OutPoint>,
}

impl BlockUndo {
    /// Approximate encoded size in bytes — pruned nodes keep recent
    /// undo data, so it participates in size accounting (§V-A).
    pub fn size_bytes(&self) -> usize {
        self.spent.len() * (36 + 40) + self.created.len() * 36
    }
}

/// The unspent output set plus block application/undo.
#[derive(Debug, Clone, Default)]
pub struct UtxoLedger {
    utxos: BTreeMap<OutPoint, TxOutput>,
    /// When false, signatures are assumed valid (Bitcoin's
    /// `assumevalid` behaviour) — used by large network simulations
    /// where per-input hash-based signature checks would dominate
    /// runtime without changing any measured behaviour.
    verify_signatures: bool,
}

impl UtxoLedger {
    /// Creates an empty ledger with full signature verification.
    pub fn new() -> Self {
        UtxoLedger {
            utxos: BTreeMap::new(),
            verify_signatures: true,
        }
    }

    /// Creates a ledger that skips signature checks (`assumevalid`).
    pub fn new_assume_valid() -> Self {
        UtxoLedger {
            utxos: BTreeMap::new(),
            verify_signatures: false,
        }
    }

    /// Number of unspent outputs.
    pub fn utxo_count(&self) -> usize {
        self.utxos.len()
    }

    /// Sum of all unspent amounts (total money supply in circulation).
    pub fn total_value(&self) -> u64 {
        self.utxos.values().map(|o| o.amount).sum()
    }

    /// Looks up an unspent output.
    pub fn utxo(&self, outpoint: &OutPoint) -> Option<&TxOutput> {
        self.utxos.get(outpoint)
    }

    /// Balance of an address (sum of its unspent outputs).
    pub fn balance(&self, address: &Address) -> u64 {
        self.utxos
            .values()
            .filter(|o| o.recipient == *address)
            .map(|o| o.amount)
            .sum()
    }

    /// All unspent outpoints owned by an address.
    pub fn outpoints_of(&self, address: &Address) -> Vec<(OutPoint, u64)> {
        let mut v: Vec<(OutPoint, u64)> = self
            .utxos
            .iter()
            .filter(|(_, o)| o.recipient == *address)
            .map(|(op, o)| (*op, o.amount))
            .collect();
        v.sort();
        v
    }

    /// Validates one regular transaction against the current set plus
    /// `block_spent` (outpoints consumed earlier in the same block).
    fn validate_regular(
        &self,
        tx: &UtxoTx,
        block_created: &BTreeMap<OutPoint, TxOutput>,
        block_spent: &BTreeSet<OutPoint>,
    ) -> Result<u64, UtxoError> {
        if tx.outputs.is_empty() {
            return Err(UtxoError::NoOutputs);
        }
        let sighash = tx.sighash();
        let mut seen = BTreeSet::new();
        let mut input_total = 0u64;
        for input in &tx.inputs {
            if !seen.insert(input.outpoint) || block_spent.contains(&input.outpoint) {
                return Err(UtxoError::DoubleSpend);
            }
            let output = self
                .utxos
                .get(&input.outpoint)
                .or_else(|| block_created.get(&input.outpoint))
                .ok_or(UtxoError::MissingInput)?;
            if input.pubkey.address() != output.recipient {
                return Err(UtxoError::WrongOwner);
            }
            if self.verify_signatures && !input.signature.verify(&sighash, &input.pubkey) {
                return Err(UtxoError::BadSignature);
            }
            input_total += output.amount;
        }
        let output_total = tx.output_total();
        if output_total > input_total {
            return Err(UtxoError::Overspend);
        }
        let fee = input_total - output_total;
        if fee != tx.declared_fee {
            return Err(UtxoError::FeeMismatch);
        }
        Ok(fee)
    }

    /// Applies a block: the first transaction must be the coinbase
    /// (when the block is non-empty), the rest regular. On success the
    /// output set is updated and undo data returned; on failure the
    /// ledger is unchanged.
    ///
    /// `subsidy` is the block reward the coinbase may claim on top of
    /// the block's fees.
    ///
    /// # Errors
    ///
    /// Any [`UtxoError`] leaves the ledger untouched.
    pub fn apply_block(
        &mut self,
        block: &SealedBlock<UtxoTx>,
        subsidy: u64,
    ) -> Result<BlockUndo, UtxoError> {
        // Validate first, then mutate: collect fees and stage changes.
        let mut block_created: BTreeMap<OutPoint, TxOutput> = BTreeMap::new();
        let mut block_spent: BTreeSet<OutPoint> = BTreeSet::new();
        let mut fees = 0u64;

        for (i, (tx, &txid)) in block.txs.iter().zip(block.tx_ids()).enumerate() {
            if i == 0 {
                if !tx.is_coinbase() {
                    return Err(UtxoError::CoinbaseMisplaced);
                }
                if tx.outputs.is_empty() {
                    return Err(UtxoError::NoOutputs);
                }
            } else {
                if tx.is_coinbase() {
                    return Err(UtxoError::CoinbaseMisplaced);
                }
                fees += self.validate_regular(tx, &block_created, &block_spent)?;
                for input in &tx.inputs {
                    block_spent.insert(input.outpoint);
                }
            }
            for (index, output) in tx.outputs.iter().enumerate() {
                block_created.insert(
                    OutPoint {
                        txid,
                        index: index as u32,
                    },
                    output.clone(),
                );
            }
        }
        if let Some(coinbase) = block.txs.first() {
            if coinbase.output_total() > subsidy + fees {
                return Err(UtxoError::CoinbaseOverpays);
            }
        }

        // Commit.
        let mut undo = BlockUndo::default();
        for outpoint in &block_spent {
            // In-block outputs spent in-block never hit the set.
            if let Some(prev) = self.utxos.remove(outpoint) {
                undo.spent.push((*outpoint, prev));
            }
        }
        for (outpoint, output) in block_created {
            if block_spent.contains(&outpoint) {
                continue; // created and consumed within the block
            }
            self.utxos.insert(outpoint, output);
            undo.created.push(outpoint);
        }
        Ok(undo)
    }

    /// Reverts a block using its undo data (reorg support, §IV-A).
    /// Blocks must be reverted newest-first.
    pub fn revert_block(&mut self, undo: BlockUndo) {
        for outpoint in undo.created {
            self.utxos.remove(&outpoint);
        }
        for (outpoint, output) in undo.spent {
            self.utxos.insert(outpoint, output);
        }
    }

    /// Encoded size of the UTXO set in bytes — what a "current" node
    /// must keep even after pruning history.
    pub fn size_bytes(&self) -> usize {
        self.utxos
            .iter()
            .map(|(op, o)| op.encoded_len() + o.encoded_len())
            .sum()
    }
}

/// A simple key-managing wallet for tests, examples and workload
/// generation. Generates a fresh one-time key per address (the
/// address-hygiene practice Bitcoin wallets follow, and a hard
/// requirement for our one-time signature schemes).
#[derive(Debug)]
pub struct Wallet {
    /// Sorted by address so input selection iterates in a
    /// deterministic order — a `HashMap` here made transaction
    /// construction depend on per-instance hash seeds.
    keys: BTreeMap<Address, Keypair>,
    rng: SimRng,
}

impl Wallet {
    /// Creates a wallet with a deterministic key stream.
    pub fn new(seed: u64) -> Self {
        Wallet {
            keys: BTreeMap::new(),
            rng: SimRng::new(seed),
        }
    }

    /// Generates a fresh address (one-time WOTS key).
    pub fn new_address(&mut self) -> Address {
        let keypair = Keypair::wots_from_seed(self.rng.seed32());
        let address = keypair.address();
        self.keys.insert(address, keypair);
        address
    }

    /// Whether the wallet holds the key for an address.
    pub fn owns(&self, address: &Address) -> bool {
        self.keys.contains_key(address)
    }

    /// Spendable balance of this wallet in `ledger`.
    pub fn balance(&self, ledger: &UtxoLedger) -> u64 {
        self.keys.keys().map(|a| ledger.balance(a)).sum()
    }

    /// Builds and signs a transfer of `amount` to `to` with `fee`,
    /// selecting inputs greedily from this wallet's unspent outputs and
    /// sending change to a fresh address.
    ///
    /// Returns `None` if the wallet cannot cover `amount + fee`.
    pub fn build_transfer(
        &mut self,
        ledger: &UtxoLedger,
        to: Address,
        amount: u64,
        fee: u64,
    ) -> Option<UtxoTx> {
        let needed = amount + fee;
        let mut selected: Vec<(OutPoint, u64, Address)> = Vec::new();
        let mut gathered = 0u64;
        let addresses: Vec<Address> = self.keys.keys().copied().collect();
        'outer: for address in addresses {
            for (outpoint, value) in ledger.outpoints_of(&address) {
                selected.push((outpoint, value, address));
                gathered += value;
                if gathered >= needed {
                    break 'outer;
                }
            }
        }
        if gathered < needed {
            return None;
        }

        let mut outputs = vec![TxOutput {
            amount,
            recipient: to,
        }];
        let change = gathered - needed;
        if change > 0 {
            let change_address = self.new_address();
            outputs.push(TxOutput {
                amount: change,
                recipient: change_address,
            });
        }

        // Sign before assembling inputs: the sighash covers outpoints,
        // outputs and fee, not the proofs themselves. Each one-time key
        // is consumed (removed) by its single signature.
        let outpoints: Vec<OutPoint> = selected.iter().map(|(op, _, _)| *op).collect();
        let sighash = sighash_over(&outpoints, &outputs, fee, 0);
        // An address may own several selected outpoints; signing the
        // *same* sighash repeatedly with a one-time key is safe (it
        // yields the identical signature), so cache per address.
        let mut signed: BTreeMap<Address, (PublicKey, Signature)> = BTreeMap::new();
        let mut inputs = Vec::with_capacity(selected.len());
        for (outpoint, _, address) in &selected {
            let (pubkey, signature) = match signed.get(address) {
                Some(entry) => entry.clone(),
                None => {
                    let mut keypair = self
                        .keys
                        .remove(address)
                        .expect("selected inputs come from owned addresses");
                    let pubkey = keypair.public_key();
                    let signature = keypair.sign(&sighash).expect("one-time keys never exhaust");
                    signed.insert(*address, (pubkey, signature.clone()));
                    (pubkey, signature)
                }
            };
            inputs.push(TxInput {
                outpoint: *outpoint,
                pubkey,
                signature,
            });
        }
        Some(UtxoTx {
            inputs,
            outputs,
            declared_fee: fee,
            coinbase_height: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::testutil::header;

    fn genesis_with_funds(wallet: &mut Wallet, amount: u64) -> (SealedBlock<UtxoTx>, Address) {
        let address = wallet.new_address();
        let coinbase = UtxoTx::coinbase(0, amount, address);
        (
            SealedBlock::new(header(Digest::ZERO, 0), vec![coinbase]),
            address,
        )
    }

    fn block_at(height: u64, txs: Vec<UtxoTx>) -> SealedBlock<UtxoTx> {
        let parent = dlt_crypto::sha256::sha256(&height.to_be_bytes());
        SealedBlock::new(header(parent, height), txs)
    }

    #[test]
    fn coinbase_creates_money() {
        let mut wallet = Wallet::new(1);
        let mut ledger = UtxoLedger::new();
        let (genesis, address) = genesis_with_funds(&mut wallet, 50);
        ledger.apply_block(&genesis, 50).unwrap();
        assert_eq!(ledger.total_value(), 50);
        assert_eq!(ledger.balance(&address), 50);
        assert_eq!(ledger.utxo_count(), 1);
    }

    #[test]
    fn transfer_moves_value_and_pays_fee() {
        let mut wallet = Wallet::new(2);
        let mut ledger = UtxoLedger::new();
        let (genesis, _) = genesis_with_funds(&mut wallet, 100);
        ledger.apply_block(&genesis, 100).unwrap();

        let mut recipient_wallet = Wallet::new(3);
        let to = recipient_wallet.new_address();
        let tx = wallet.build_transfer(&ledger, to, 30, 5).expect("funded");
        assert_eq!(tx.declared_fee, 5);

        let miner = Address::from_label("miner");
        let coinbase = UtxoTx::coinbase(1, 50 + 5, miner);
        let block = block_at(1, vec![coinbase, tx]);
        ledger.apply_block(&block, 50).unwrap();

        assert_eq!(ledger.balance(&to), 30);
        assert_eq!(ledger.balance(&miner), 55);
        assert_eq!(wallet.balance(&ledger), 65); // 100 - 30 - 5
                                                 // Total supply: 100 genesis + 50 subsidy (fee recirculates).
        assert_eq!(ledger.total_value(), 150);
    }

    #[test]
    fn double_spend_within_block_rejected() {
        let mut wallet = Wallet::new(4);
        let mut ledger = UtxoLedger::new();
        let (genesis, _) = genesis_with_funds(&mut wallet, 100);
        ledger.apply_block(&genesis, 100).unwrap();

        let to = Address::from_label("victim");
        let tx1 = wallet.build_transfer(&ledger, to, 90, 0).unwrap();
        // Rebuild an identical spend of the same input from a cloned
        // wallet state — simulate by crafting tx2 reusing tx1's input.
        let mut tx2 = tx1.clone();
        tx2.outputs[0].recipient = Address::from_label("attacker");
        // tx2's signature is now wrong, but double-spend must trigger
        // first regardless of signature validity order; use same output
        // set to check both orderings reject.
        let coinbase = UtxoTx::coinbase(1, 50, Address::from_label("miner"));
        let block = block_at(1, vec![coinbase, tx1, tx2]);
        let err = ledger.apply_block(&block, 50).unwrap_err();
        assert!(
            matches!(err, UtxoError::DoubleSpend | UtxoError::BadSignature),
            "got {err:?}"
        );
        // Failed application leaves the ledger untouched.
        assert_eq!(ledger.total_value(), 100);
        assert_eq!(ledger.utxo_count(), 1);
    }

    #[test]
    fn double_spend_across_blocks_rejected() {
        let mut wallet = Wallet::new(5);
        let mut ledger = UtxoLedger::new();
        let (genesis, _) = genesis_with_funds(&mut wallet, 100);
        ledger.apply_block(&genesis, 100).unwrap();

        let tx = wallet
            .build_transfer(&ledger, Address::from_label("a"), 50, 0)
            .unwrap();
        let b1 = block_at(
            1,
            vec![
                UtxoTx::coinbase(1, 50, Address::from_label("m")),
                tx.clone(),
            ],
        );
        ledger.apply_block(&b1, 50).unwrap();

        // Replay the same tx in the next block: inputs now missing.
        let b2 = block_at(
            2,
            vec![UtxoTx::coinbase(2, 50, Address::from_label("m")), tx],
        );
        assert_eq!(ledger.apply_block(&b2, 50), Err(UtxoError::MissingInput));
    }

    #[test]
    fn wrong_owner_rejected() {
        let mut wallet = Wallet::new(6);
        let mut ledger = UtxoLedger::new();
        let (genesis, _) = genesis_with_funds(&mut wallet, 100);
        ledger.apply_block(&genesis, 100).unwrap();

        let mut tx = wallet
            .build_transfer(&ledger, Address::from_label("a"), 10, 0)
            .unwrap();
        // Swap in a different pubkey.
        let intruder = Keypair::wots_from_seed([9u8; 32]);
        tx.inputs[0].pubkey = intruder.public_key();
        let block = block_at(
            1,
            vec![UtxoTx::coinbase(1, 50, Address::from_label("m")), tx],
        );
        assert_eq!(ledger.apply_block(&block, 50), Err(UtxoError::WrongOwner));
    }

    #[test]
    fn tampered_output_breaks_signature() {
        let mut wallet = Wallet::new(7);
        let mut ledger = UtxoLedger::new();
        let (genesis, _) = genesis_with_funds(&mut wallet, 100);
        ledger.apply_block(&genesis, 100).unwrap();

        let mut tx = wallet
            .build_transfer(&ledger, Address::from_label("a"), 10, 0)
            .unwrap();
        tx.outputs[0].recipient = Address::from_label("attacker");
        let block = block_at(
            1,
            vec![UtxoTx::coinbase(1, 50, Address::from_label("m")), tx],
        );
        assert_eq!(ledger.apply_block(&block, 50), Err(UtxoError::BadSignature));
    }

    #[test]
    fn fee_mismatch_rejected() {
        let mut wallet = Wallet::new(8);
        let mut ledger = UtxoLedger::new();
        let (genesis, _) = genesis_with_funds(&mut wallet, 100);
        ledger.apply_block(&genesis, 100).unwrap();

        let mut tx = wallet
            .build_transfer(&ledger, Address::from_label("a"), 10, 5)
            .unwrap();
        tx.declared_fee = 1; // lie about the fee
        let block = block_at(
            1,
            vec![UtxoTx::coinbase(1, 50, Address::from_label("m")), tx],
        );
        let err = ledger.apply_block(&block, 50).unwrap_err();
        assert!(
            matches!(err, UtxoError::FeeMismatch | UtxoError::BadSignature),
            "got {err:?}"
        );
    }

    #[test]
    fn coinbase_overpay_rejected() {
        let mut ledger = UtxoLedger::new();
        let coinbase = UtxoTx::coinbase(0, 1000, Address::from_label("greedy"));
        let genesis = SealedBlock::new(header(Digest::ZERO, 0), vec![coinbase]);
        assert_eq!(
            ledger.apply_block(&genesis, 50),
            Err(UtxoError::CoinbaseOverpays)
        );
    }

    #[test]
    fn coinbase_must_be_first() {
        let mut wallet = Wallet::new(9);
        let mut ledger = UtxoLedger::new();
        let (genesis, _) = genesis_with_funds(&mut wallet, 100);
        ledger.apply_block(&genesis, 100).unwrap();
        let tx = wallet
            .build_transfer(&ledger, Address::from_label("a"), 10, 0)
            .unwrap();
        // Regular tx first.
        let block = block_at(
            1,
            vec![tx, UtxoTx::coinbase(1, 50, Address::from_label("m"))],
        );
        assert_eq!(
            ledger.apply_block(&block, 50),
            Err(UtxoError::CoinbaseMisplaced)
        );
    }

    #[test]
    fn revert_restores_exact_state() {
        let mut wallet = Wallet::new(10);
        let mut ledger = UtxoLedger::new();
        let (genesis, funded) = genesis_with_funds(&mut wallet, 100);
        ledger.apply_block(&genesis, 100).unwrap();
        let before_count = ledger.utxo_count();
        let before_value = ledger.total_value();
        let before_balance = ledger.balance(&funded);

        let tx = wallet
            .build_transfer(&ledger, Address::from_label("a"), 25, 1)
            .unwrap();
        let block = block_at(
            1,
            vec![UtxoTx::coinbase(1, 51, Address::from_label("m")), tx],
        );
        let undo = ledger.apply_block(&block, 50).unwrap();
        assert_ne!(ledger.total_value(), before_value);

        ledger.revert_block(undo);
        assert_eq!(ledger.utxo_count(), before_count);
        assert_eq!(ledger.total_value(), before_value);
        assert_eq!(ledger.balance(&funded), before_balance);
    }

    #[test]
    fn intra_block_chained_spend_is_valid() {
        let mut wallet = Wallet::new(11);
        let mut ledger = UtxoLedger::new();
        let (genesis, _) = genesis_with_funds(&mut wallet, 100);
        ledger.apply_block(&genesis, 100).unwrap();

        // tx1 pays wallet2; tx2 spends tx1's output in the same block.
        let mut wallet2 = Wallet::new(12);
        let to2 = wallet2.new_address();
        let tx1 = wallet.build_transfer(&ledger, to2, 40, 0).unwrap();

        // wallet2 must see tx1's output to build tx2: apply to a scratch
        // ledger to construct, then validate against the real one.
        let mut scratch = ledger.clone();
        let scratch_block = block_at(
            1,
            vec![
                UtxoTx::coinbase(1, 50, Address::from_label("m")),
                tx1.clone(),
            ],
        );
        scratch.apply_block(&scratch_block, 50).unwrap();
        let tx2 = wallet2
            .build_transfer(&scratch, Address::from_label("end"), 40, 0)
            .unwrap();

        let block = block_at(
            1,
            vec![UtxoTx::coinbase(1, 50, Address::from_label("m")), tx1, tx2],
        );
        ledger.apply_block(&block, 50).unwrap();
        assert_eq!(ledger.balance(&Address::from_label("end")), 40);
    }

    #[test]
    fn wallet_insufficient_funds() {
        let mut wallet = Wallet::new(13);
        let ledger = UtxoLedger::new();
        wallet.new_address();
        assert!(wallet
            .build_transfer(&ledger, Address::from_label("a"), 1, 0)
            .is_none());
    }

    #[test]
    fn assume_valid_skips_signature_checks_only() {
        let mut wallet = Wallet::new(14);
        let mut ledger = UtxoLedger::new_assume_valid();
        let (genesis, _) = genesis_with_funds(&mut wallet, 100);
        ledger.apply_block(&genesis, 100).unwrap();

        let mut tx = wallet
            .build_transfer(&ledger, Address::from_label("a"), 10, 0)
            .unwrap();
        // Corrupt the signature: assume-valid mode still applies.
        tx.outputs[0].recipient = Address::from_label("elsewhere");
        let block = block_at(
            1,
            vec![UtxoTx::coinbase(1, 50, Address::from_label("m")), tx],
        );
        ledger.apply_block(&block, 50).unwrap();
        // But structural violations (double spends) still fail.
        let mut w2 = Wallet::new(15);
        let mut l2 = UtxoLedger::new_assume_valid();
        let (g2, _) = genesis_with_funds(&mut w2, 100);
        l2.apply_block(&g2, 100).unwrap();
        let t = w2
            .build_transfer(&l2, Address::from_label("x"), 10, 0)
            .unwrap();
        let b = block_at(
            1,
            vec![
                UtxoTx::coinbase(1, 50, Address::from_label("m")),
                t.clone(),
                t,
            ],
        );
        assert_eq!(l2.apply_block(&b, 50), Err(UtxoError::DoubleSpend));
    }

    #[test]
    fn tx_codec_round_trip() {
        use dlt_crypto::codec::decode_exact;
        let mut wallet = Wallet::new(16);
        let mut ledger = UtxoLedger::new();
        let (genesis, _) = genesis_with_funds(&mut wallet, 100);
        ledger.apply_block(&genesis, 100).unwrap();
        let tx = wallet
            .build_transfer(&ledger, Address::from_label("a"), 10, 2)
            .unwrap();
        let back: UtxoTx = decode_exact(&tx.encode_to_vec()).unwrap();
        assert_eq!(back, tx);
        assert_eq!(back.id(), tx.id());
        assert_eq!(back.weight(), tx.encoded_size() as u64);
    }
}
