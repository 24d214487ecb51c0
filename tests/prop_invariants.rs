//! Property-based tests over the core data structures and invariants,
//! on the in-repo `dlt_testkit::prop!` harness.

use std::collections::HashMap;

use dlt_blockchain::bitcoin::{BitcoinChain, BitcoinParams};
use dlt_blockchain::block::testsupport::{test_header, test_tx, TestTx};
use dlt_blockchain::block::{BlockHeader, LedgerTx, SealedBlock};
use dlt_blockchain::chain::ChainStore;
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

/// A wallet holding the keys of the three funded genesis outputs, a
/// second wallet holding one more funded output, and the genesis
/// allocations. Every call returns the same keys.
fn funded_wallets() -> (Wallet, Wallet, Vec<(Address, u64)>) {
    let mut wallet = Wallet::new(1);
    let mut payer = Wallet::new(2);
    let mut allocations: Vec<(Address, u64)> = (0..3)
        .map(|_| (wallet.new_address(), BRANCH_FUNDS))
        .collect();
    allocations.push((payer.new_address(), BRANCH_FUNDS));
    (wallet, payer, allocations)
}

/// Mines a branch from genesis on a private chain: block `i` carries a
/// payment when `payments[i]`, block `shared.0` also carries the
/// transaction `shared.1`, and block `bad`, if any, is re-made with an
/// overpaying coinbase (its descendants re-linked onto it). Branches
/// built from the same wallet spend the same outputs, so two branches
/// double-spend each other.
fn bitcoin_branch(
    tag: u64,
    payments: &[bool],
    shared: (usize, &UtxoTx),
    bad: Option<usize>,
) -> Vec<SealedBlock<UtxoTx>> {
    let (mut wallet, _, allocations) = funded_wallets();
    let mut builder = BitcoinChain::new(BitcoinParams::default(), &allocations);
    let miner = Address::from_label(&format!("miner-{tag}"));
    let mut blocks: Vec<SealedBlock<UtxoTx>> = Vec::new();
    for (i, pay) in payments.iter().enumerate() {
        let to = Address::from_label(&format!("shop-{tag}-{i}"));
        if let Some(tx) = pay
            .then(|| wallet.build_transfer(builder.ledger(), to, 10 + i as u64, 1))
            .flatten()
        {
            builder.submit_tx(tx);
        }
        if i == shared.0 {
            builder.submit_tx(shared.1.clone());
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
                *block = SealedBlock::new(header, txs);
            }
            parent = block.id();
        }
    }
    blocks
}

/// The linear-scan definition of `ChainStore::tx_confirmations`, over
/// ids hashed afresh from the bodies: for every transaction on the
/// active chain, the confirmations of the first active block holding
/// it.
fn scanned_confirmations<T: LedgerTx>(chain: &ChainStore<T>) -> HashMap<Digest, u64> {
    let mut first = HashMap::new();
    for (height, block) in chain.iter_active().enumerate() {
        for tx in &block.txs {
            first
                .entry(tx.id())
                .or_insert(chain.tip_height() - height as u64 + 1);
        }
    }
    first
}

/// Asserts that the store's tx index agrees with the scan for every
/// id in `ids`.
fn assert_index_matches_scan<T: LedgerTx>(chain: &ChainStore<T>, ids: &[Digest]) {
    let scanned = scanned_confirmations(chain);
    for id in ids {
        assert_eq!(
            chain.tx_confirmations(id),
            scanned.get(id).copied(),
            "tx {} confirmations",
            id.short()
        );
    }
}

prop! {
    /// Two competing Bitcoin-like branches, one possibly hiding an
    /// invalid block, delivered in any order: after every delivery the
    /// UTXO set equals a fresh replay of the store's active chain, no
    /// active transaction is still pending, and every transaction ever
    /// seen — genesis allocations and a payment mined on both branches
    /// included — has the confirmations a scan of the active chain
    /// gives.
    fn bitcoin_ledger_follows_fork_choice(g, cases = 32) {
        let a_payments = g.vec_in(1, 5, Gen::any_bool);
        let b_payments = g.vec_in(1, 5, Gen::any_bool);
        let bad = g.option(|g| (g.any_bool(), g.usize_in(0, 4)));
        let shared_at = (g.usize_in(0, 4), g.usize_in(0, 4));
        let bad_in = |in_a: bool, len: usize| {
            bad.filter(|(a, _)| *a == in_a).map(|(_, i)| i % len)
        };
        let (_, mut payer, allocations) = funded_wallets();
        let mut chain = BitcoinChain::new(BitcoinParams::default(), &allocations);
        let shared = payer
            .build_transfer(chain.ledger(), Address::from_label("both"), 25, 1)
            .expect("the payer is funded");
        let mut pending = bitcoin_branch(
            1,
            &a_payments,
            (shared_at.0 % a_payments.len(), &shared),
            bad_in(true, a_payments.len()),
        );
        pending.extend(bitcoin_branch(
            2,
            &b_payments,
            (shared_at.1 % b_payments.len(), &shared),
            bad_in(false, b_payments.len()),
        ));
        let order = g.vec_of(pending.len(), Gen::any_usize);

        let recipients: Vec<Address> = pending
            .iter()
            .flat_map(|b| b.txs.iter().flat_map(|tx| tx.outputs.iter().map(|o| o.recipient)))
            .collect();
        let genesis = chain.chain().block(&chain.chain().genesis()).expect("genesis");
        let seen: Vec<Digest> = genesis
            .txs
            .iter()
            .chain(pending.iter().flat_map(|b| &b.txs))
            .map(LedgerTx::id)
            .collect();
        let total_funds: u64 = allocations.iter().map(|(_, v)| v).sum();
        for pick in order {
            let block = pending.remove(pick % pending.len());
            let _ = chain.receive_block(block);

            let mut replay = UtxoLedger::new();
            for (height, block) in chain.chain().iter_active().enumerate() {
                let subsidy = if height == 0 {
                    total_funds
                } else {
                    chain.params().subsidy
                };
                // Re-sealing hashes the bodies afresh.
                let resealed = block.clone().into_inner().seal();
                replay.apply_block(&resealed, subsidy).expect("the active chain is valid");
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
            assert_index_matches_scan(chain.chain(), &seen);
        }
    }
}

prop! {
    /// A random block tree over a small pool of transactions — so the
    /// same transaction sits on competing branches and twice on one
    /// chain — delivered in any order (orphans included) with random
    /// invalidations in between: after every step the store's
    /// `tx_confirmations` equals a scan of its active chain for every
    /// transaction in the pool, genesis ones included.
    fn chain_store_tx_index_matches_scan(g, cases = 48) {
        const POOL: u64 = 8;
        let genesis = SealedBlock::new(
            test_header(Digest::ZERO, 0, 1),
            vec![test_tx(0, 1, 1), test_tx(1, 1, 1)],
        );
        let mut tree = vec![genesis.clone()];
        for i in 0..g.usize_in(1, 12) {
            let parent = &tree[g.usize_in(0, tree.len())];
            let mut header = test_header(parent.id(), parent.header.height + 1, g.u64_in(1, 4));
            header.timestamp_micros = i as u64;
            let txs = g.vec_in(0, 4, |g| test_tx(g.u64_below(POOL), 1, 1));
            tree.push(SealedBlock::new(header, txs));
        }
        let ids: Vec<Digest> = (0..POOL).map(|tag| test_tx(tag, 1, 1).id()).collect();
        let mut pending: Vec<SealedBlock<TestTx>> = tree.drain(1..).collect();
        let known: Vec<Digest> = pending.iter().map(SealedBlock::id).collect();

        let mut store = ChainStore::new(genesis, false);
        assert_index_matches_scan(&store, &ids);
        while !pending.is_empty() {
            let block = pending.remove(g.usize_in(0, pending.len()));
            let _ = store.insert(block);
            assert_index_matches_scan(&store, &ids);
            if g.u64_below(4) == 0 {
                store.invalidate(&known[g.usize_in(0, known.len())]);
                assert_index_matches_scan(&store, &ids);
            }
        }
    }
}
