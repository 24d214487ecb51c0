//! Micro-benchmarks for ledger-level hot paths, on the in-repo
//! `dlt_testkit::bench` harness (`cargo bench --bench ledgers`).
//! Results print to stderr and land in `results/bench_ledgers.json`.

use std::hint::black_box;

use dlt_blockchain::block::testsupport::{test_block, test_genesis, test_header, test_tx};
use dlt_blockchain::block::{LedgerTx, SealedBlock};
use dlt_blockchain::chain::ChainStore;
use dlt_blockchain::pow::mine_real;
use dlt_crypto::keys::Address;
use dlt_crypto::Digest;
use dlt_dag::account::NanoAccount;
use dlt_dag::block::LatticeBlock;
use dlt_dag::lattice::{Lattice, LatticeParams};
use dlt_dag::voting::{Election, Vote};
use dlt_testkit::bench::BenchSuite;

fn bench_pow(suite: &mut BenchSuite) {
    let mut nonce_salt = 0u64;
    suite.bench("pow_mine_real_d256", move || {
        let mut header = dlt_blockchain::block::BlockHeader {
            parent: Digest::ZERO,
            height: 1,
            merkle_root: Digest::ZERO,
            state_root: Digest::ZERO,
            receipts_root: Digest::ZERO,
            timestamp_micros: nonce_salt,
            difficulty: 256,
            nonce: 0,
            gas_used: 0,
            gas_limit: 0,
            proposer: Address::ZERO,
        };
        nonce_salt += 1;
        mine_real(&mut header, 1_000_000).expect("mineable")
    });
}

fn bench_chain(suite: &mut BenchSuite) {
    // A sealed block's id was hashed when it was sealed; reading it is
    // a copy. `block_header_id` is the hash itself.
    let genesis = test_genesis();
    let block = test_block(&genesis, 1, 1);
    suite.bench("block_header_id", || black_box(&block).header.id());
    suite.bench("block_id_sealed", || black_box(&block).id());

    // A transaction's confirmations are one index lookup, however long
    // the active chain.
    let mut store = ChainStore::new(genesis.clone(), false);
    let mut parent = genesis;
    for height in 1..=1_000u64 {
        let mut header = test_header(parent.id(), height, 1);
        header.timestamp_micros = height;
        let txs = (0..4).map(|i| test_tx(height * 4 + i, 1, 100)).collect();
        let child = SealedBlock::new(header, txs);
        store.insert(child.clone());
        parent = child;
    }
    let early = test_tx(4, 1, 100).id();
    assert_eq!(store.tx_confirmations(&early), Some(1_000));
    suite.bench("tx_confirmations_1000_blocks", || {
        store.tx_confirmations(black_box(&early))
    });
}

fn bench_lattice(suite: &mut BenchSuite) {
    let params = LatticeParams {
        work_difficulty_bits: 1,
        verify_signatures: true,
        verify_work: true,
    };
    // Key generation dominates setup; build prototypes once and clone
    // per iteration (cloning restores the unspent key state).
    let genesis_proto = NanoAccount::from_seed([1u8; 32], 8, 1);
    let bob_proto = NanoAccount::from_seed([2u8; 32], 8, 1);
    suite.bench_with_setup(
        "lattice_process_send_receive",
        || {
            let mut genesis = genesis_proto.clone();
            let lattice = Lattice::new(params, genesis.genesis_block(1_000_000));
            let mut bob = bob_proto.clone();
            let send = genesis.send(bob.address(), 10).unwrap();
            let receive = bob.receive(send.hash(), 10).unwrap();
            (lattice, send, receive)
        },
        |(mut lattice, send, receive)| {
            lattice.process(send).unwrap();
            lattice.process(receive).unwrap();
        },
    );
    let mut i = 0u64;
    suite.bench("anti_spam_work_8bits", move || {
        let root = dlt_crypto::sha256::sha256(&i.to_be_bytes());
        i += 1;
        LatticeBlock::compute_work(&root, 8)
    });
}

fn bench_voting(suite: &mut BenchSuite) {
    let candidate = dlt_crypto::sha256::sha256(b"candidate");
    let root = (Address::from_label("acct"), Digest::ZERO);
    suite.bench("vote_tally_100_reps", || {
        let mut election = Election::new();
        for i in 0..100u32 {
            let rep = Address::from_label(&format!("rep-{i}"));
            election.vote(rep, 10, candidate);
        }
        election.try_confirm(500)
    });
    let _ = Vote {
        representative: Address::from_label("r"),
        root,
        candidate,
    };
}

fn main() {
    let mut suite = BenchSuite::new("ledgers");
    bench_pow(&mut suite);
    bench_chain(&mut suite);
    bench_lattice(&mut suite);
    bench_voting(&mut suite);
    suite.finish();
}
