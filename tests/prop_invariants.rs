//! Property-based tests over the core data structures and invariants,
//! on the in-repo `dlt_testkit::prop!` harness.

use std::collections::HashMap;

use dlt_blockchain::bitcoin::{BitcoinChain, BitcoinParams};
use dlt_blockchain::block::{Block, BlockHeader, LedgerTx};
use dlt_blockchain::difficulty::{retarget, RetargetParams};
use dlt_blockchain::utxo::{UtxoLedger, UtxoTx, Wallet};
use dlt_crypto::codec::{decode_exact, Decode, Encode};
use dlt_crypto::keys::Address;
use dlt_crypto::merkle::MerkleTree;
use dlt_crypto::sha256::{sha256, Sha256};
use dlt_crypto::trie::TrieDb;
use dlt_crypto::Digest;
use dlt_dag::account::NanoAccount;
use dlt_dag::lattice::{Lattice, LatticeParams};
use dlt_dag::voting::Election;
use dlt_testkit::prop;
use dlt_testkit::prop::Gen;

prop! {
    /// Streaming SHA-256 equals one-shot hashing for any chunking.
    fn sha256_streaming_equals_oneshot(g, cases = 64) {
        let data = g.bytes_in(0, 2048);
        let splits = g.vec_in(0, 8, |g| g.usize_in(0, 2048));
        let oneshot = sha256(&data);
        let mut hasher = Sha256::new();
        let mut cuts: Vec<usize> = splits.into_iter().map(|s| s % (data.len() + 1)).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut start = 0;
        for cut in cuts {
            hasher.update(&data[start..cut]);
            start = cut;
        }
        hasher.update(&data[start..]);
        assert_eq!(hasher.finalize(), oneshot);
    }
}

prop! {
    /// Codec round trips for random primitive compositions.
    fn codec_round_trips(g, cases = 64) {
        let a = g.any_u64();
        let b = g.any_bool();
        let s = g.ascii_string(0, 64);
        let v = g.vec_in(0, 32, |g| g.choice() as u32);
        let o = g.option(|g| g.any_u64());
        fn rt<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
            let bytes = value.encode_to_vec();
            assert_eq!(bytes.len(), value.encoded_len());
            let back: T = decode_exact(&bytes).unwrap();
            assert_eq!(back, value);
        }
        rt(a);
        rt(b);
        rt(s);
        rt(v);
        rt(o);
    }
}

prop! {
    /// Merkle proofs verify for every leaf, and fail for any other leaf.
    fn merkle_proofs_sound(g, cases = 64) {
        let seed_leaves = g.vec_in(1, 40, |g| g.any_u64());
        let probe = g.any_usize();
        let leaves: Vec<Digest> = seed_leaves.iter().map(|s| sha256(&s.to_be_bytes())).collect();
        let tree = MerkleTree::from_leaves(leaves.clone());
        let index = probe % leaves.len();
        let proof = tree.prove(index).unwrap();
        assert!(proof.verify(&tree.root(), &leaves[index]));
        // Wrong leaf must fail (when distinct).
        let other = (index + 1) % leaves.len();
        if leaves[other] != leaves[index] {
            assert!(!proof.verify(&tree.root(), &leaves[other]));
        }
    }
}

prop! {
    /// The trie agrees with a HashMap model under arbitrary
    /// insert/overwrite/remove interleavings, and its root is
    /// history-independent (same content ⇒ same root).
    fn trie_matches_model(g, cases = 64) {
        let ops = g.vec_in(1, 60, |g| (g.any_u8(), g.u8_in(0, 16), g.bytes_in(0, 6)));
        let mut db = TrieDb::new();
        let mut root = TrieDb::EMPTY_ROOT;
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        for (op, key_byte, value) in &ops {
            let key = vec![*key_byte];
            if *op % 4 == 0 {
                root = db.remove(root, &key);
                model.remove(&key);
            } else {
                root = db.insert(root, &key, value.clone());
                model.insert(key, value.clone());
            }
        }
        for (key, value) in &model {
            assert_eq!(db.get(root, key), Some(value.as_slice()));
        }
        assert_eq!(db.iter(root).len(), model.len());

        // Rebuild from the final content in sorted order: same root.
        let mut db2 = TrieDb::new();
        let mut root2 = TrieDb::EMPTY_ROOT;
        let mut items: Vec<_> = model.iter().collect();
        items.sort();
        for (key, value) in items {
            root2 = db2.insert(root2, key, value.clone());
        }
        assert_eq!(root2, root);
    }
}

prop! {
    /// Difficulty retargeting is clamped and positive.
    fn retarget_bounded(g, cases = 64) {
        let old = g.u64_in(1, u64::MAX / 8);
        let span = g.u64_in(1, u64::MAX / 8);
        let params = RetargetParams {
            target_interval_micros: 600_000_000,
            window: 100,
            max_step: 4,
        };
        let new = retarget(&params, old, span);
        assert!(new >= 1);
        assert!(new <= old.saturating_mul(4).max(1));
        assert!(new >= old / 4 || old < 4);
    }
}

prop! {
    /// Elections: the winner's tally is maximal, and total cast weight
    /// never exceeds the sum of voted weights.
    fn election_winner_is_maximal(g, cases = 64) {
        let votes = g.vec_in(1, 50, |g| (g.u8_in(0, 20), g.u64_in(1, 1000), g.u8_in(0, 4)));
        let mut election = Election::new();
        for (rep, weight, candidate) in &votes {
            election.vote(
                dlt_crypto::keys::Address::from_label(&format!("r{rep}")),
                *weight,
                sha256(&[*candidate]),
            );
        }
        let (_winner, winner_weight) = election.leader().unwrap();
        assert!(winner_weight > 0);
        let total: u64 = votes.iter().map(|(_, w, _)| *w).sum();
        assert!(election.total_cast() <= total);
    }
}

prop! {
    /// The lattice conserves total supply under any valid interleaving
    /// of sends and receives, and rollback restores conservation.
    fn lattice_conserves_supply(g, cases = 12) {
        let transfers = g.vec_in(1, 12, |g| (g.usize_in(0, 4), g.usize_in(0, 4), g.u64_in(1, 50)));
        let rollback_choice = g.any_usize();
        let params = LatticeParams {
            work_difficulty_bits: 1,
            verify_signatures: true,
            verify_work: true,
        };
        let supply = 1_000_000u64;
        let mut genesis = NanoAccount::from_seed([1u8; 32], 8, 1);
        let mut lattice = Lattice::new(params, genesis.genesis_block(supply));
        let mut accounts: Vec<NanoAccount> = (0..4)
            .map(|i| NanoAccount::from_seed([10 + i as u8; 32], 8, 1))
            .collect();
        // Fund everyone.
        let mut funded = Vec::new();
        for account in accounts.iter_mut() {
            let send = genesis.send(account.address(), 1_000).unwrap();
            let hash = lattice.process(send).unwrap();
            lattice.process(account.receive(hash, 1_000).unwrap()).unwrap();
        }
        // Random (valid) transfers; skip self-sends and over-spends.
        let mut settled_sends = Vec::new();
        for (from, to, amount) in transfers {
            if from == to {
                continue;
            }
            let to_address = accounts[to].address();
            let Ok(send) = accounts[from].send(to_address, amount) else {
                continue;
            };
            let hash = lattice.process(send).unwrap();
            let receive = accounts[to].receive(hash, amount).unwrap();
            lattice.process(receive).unwrap();
            settled_sends.push(hash);
            funded.push(hash);
            assert_eq!(lattice.circulating_total(), supply);
        }
        // Roll one settled transfer back (cascades through the receive).
        if !settled_sends.is_empty() {
            let victim = settled_sends[rollback_choice % settled_sends.len()];
            if lattice.rollback(&victim).is_ok() {
                assert_eq!(lattice.circulating_total(), supply);
            }
        }
    }
}

/// Funding of each of the three genesis outputs in the fork-choice
/// property below.
const BRANCH_FUNDS: u64 = 1_000;

/// A wallet holding the keys of the three funded genesis outputs, and
/// the genesis allocations. Every call returns the same keys.
fn funded_wallet() -> (Wallet, Vec<(Address, u64)>) {
    let mut wallet = Wallet::new(1);
    let allocations = (0..3)
        .map(|_| (wallet.new_address(), BRANCH_FUNDS))
        .collect();
    (wallet, allocations)
}

/// Mines a branch from genesis on a private chain: block `i` carries a
/// payment when `payments[i]`, and block `bad`, if any, is re-made with
/// an overpaying coinbase (its descendants re-linked onto it). Branches
/// built from the same wallet spend the same outputs, so two branches
/// double-spend each other.
fn bitcoin_branch(tag: u64, payments: &[bool], bad: Option<usize>) -> Vec<Block<UtxoTx>> {
    let (mut wallet, allocations) = funded_wallet();
    let mut builder = BitcoinChain::new(BitcoinParams::default(), &allocations);
    let miner = Address::from_label(&format!("miner-{tag}"));
    let mut blocks: Vec<Block<UtxoTx>> = Vec::new();
    for (i, pay) in payments.iter().enumerate() {
        let to = Address::from_label(&format!("shop-{tag}-{i}"));
        if let Some(tx) = pay
            .then(|| wallet.build_transfer(builder.ledger(), to, 10 + i as u64, 1))
            .flatten()
        {
            builder.submit_tx(tx);
        }
        blocks.push(builder.mine_block(miner, tag * 1_000 + i as u64));
    }
    if let Some(bad) = bad {
        let mut parent = builder.chain().genesis();
        for (i, block) in blocks.iter_mut().enumerate() {
            if i >= bad {
                let mut txs = block.txs.clone();
                if i == bad {
                    txs[0].outputs[0].amount += 1_000;
                }
                let header = BlockHeader {
                    parent,
                    ..block.header.clone()
                };
                *block = Block::new(header, txs);
            }
            parent = block.id();
        }
    }
    blocks
}

prop! {
    /// Two competing Bitcoin-like branches, one possibly hiding an
    /// invalid block, delivered in any order: after every delivery the
    /// UTXO set equals a fresh replay of the store's active chain, and
    /// no active transaction is still pending.
    fn bitcoin_ledger_follows_fork_choice(g, cases = 32) {
        let a_payments = g.vec_in(1, 5, Gen::any_bool);
        let b_payments = g.vec_in(1, 5, Gen::any_bool);
        let bad = g.option(|g| (g.any_bool(), g.usize_in(0, 4)));
        let bad_in = |in_a: bool, len: usize| {
            bad.filter(|(a, _)| *a == in_a).map(|(_, i)| i % len)
        };
        let mut pending = bitcoin_branch(1, &a_payments, bad_in(true, a_payments.len()));
        pending.extend(bitcoin_branch(2, &b_payments, bad_in(false, b_payments.len())));
        let order = g.vec_of(pending.len(), Gen::any_usize);

        let recipients: Vec<Address> = pending
            .iter()
            .flat_map(|b| b.txs.iter().flat_map(|tx| tx.outputs.iter().map(|o| o.recipient)))
            .collect();
        let (_, allocations) = funded_wallet();
        let mut chain = BitcoinChain::new(BitcoinParams::default(), &allocations);
        for pick in order {
            let block = pending.remove(pick % pending.len());
            let _ = chain.receive_block(block);

            let mut replay = UtxoLedger::new();
            for (height, block) in chain.chain().iter_active().enumerate() {
                let subsidy = if height == 0 {
                    3 * BRANCH_FUNDS
                } else {
                    chain.params().subsidy
                };
                replay.apply_block(block, subsidy).expect("the active chain is valid");
                for tx in &block.txs {
                    assert!(!chain.mempool().contains(&tx.id()), "active tx still pending");
                }
            }
            let ledger = chain.ledger();
            assert_eq!(ledger.total_value(), replay.total_value());
            assert_eq!(ledger.utxo_count(), replay.utxo_count());
            for address in allocations.iter().map(|(a, _)| a).chain(&recipients) {
                assert_eq!(ledger.balance(address), replay.balance(address));
            }
        }
    }
}
