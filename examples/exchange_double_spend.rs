//! An exchange defends against a double spend — on both paradigms.
//!
//! Scenario: an attacker deposits coins at an exchange, waits for the
//! deposit to be credited, and tries to claw the coins back with a
//! conflicting transaction. The example shows why the exchange's
//! confirmation policy (paper §IV) is what decides the outcome:
//!
//! * on the blockchain, a 1-confirmation exchange loses to a private
//!   two-block branch, while the 6-confirmation rule holds;
//! * on the DAG, the conflict triggers a representative election and
//!   the first-seen deposit wins the weighted vote.
//!
//! Run with `cargo run -p dlt-examples --bin exchange_double_spend`.

use dlt_blockchain::bitcoin::{BitcoinChain, BitcoinParams};
use dlt_blockchain::block::{BlockHeader, LedgerTx, SealedBlock};
use dlt_blockchain::utxo::{UtxoTx, Wallet};
use dlt_core::confidence::revert_probability;
use dlt_crypto::keys::Address;
use dlt_crypto::Digest;
use dlt_dag::account::NanoAccount;
use dlt_dag::lattice::{Lattice, LatticeError, LatticeParams};
use dlt_dag::voting::Election;

fn main() {
    blockchain_attack();
    dag_attack();
}

fn blockchain_attack() {
    println!("--- blockchain: private-branch double spend ---");
    let mut attacker = Wallet::new(7);
    let attacker_address = attacker.new_address();
    let mut chain = BitcoinChain::new(BitcoinParams::default(), &[(attacker_address, 500)]);
    let genesis_id = chain.chain().genesis();

    // The deposit lands in block 1.
    let exchange = Address::from_label("exchange-hot-wallet");
    let deposit = attacker
        .build_transfer(chain.ledger(), exchange, 500, 0)
        .expect("funded");
    let deposit_id = deposit.id();
    chain.submit_tx(deposit);
    chain.mine_block(Address::from_label("honest-miner"), 600_000_000);
    println!(
        "deposit mined; exchange sees balance {} at 1 confirmation",
        chain.ledger().balance(&exchange)
    );
    println!(
        "analysis (§IV-A): with 30% of hash power the attacker reverts a \
         1-conf deposit with P={:.2}, a 6-conf deposit with P={:.3}",
        revert_probability(0.30, 1),
        revert_probability(0.30, 6),
    );

    // The attacker mines a private 2-block branch from genesis that
    // never contained the deposit.
    let empty = |parent: Digest, height: u64, ts: u64| -> SealedBlock<UtxoTx> {
        SealedBlock::new(
            BlockHeader {
                parent,
                height,
                merkle_root: Digest::ZERO,
                state_root: Digest::ZERO,
                receipts_root: Digest::ZERO,
                timestamp_micros: ts,
                difficulty: 1,
                nonce: 0,
                gas_used: 0,
                gas_limit: 0,
                proposer: Address::ZERO,
            },
            vec![UtxoTx::coinbase(
                height,
                50,
                Address::from_label("attacker-miner"),
            )],
        )
    };
    let a1 = empty(genesis_id, 1, 700_000_000);
    let a2 = empty(a1.id(), 2, 800_000_000);
    chain.receive_block(a1).expect("valid branch");
    let outcome = chain.receive_block(a2).expect("valid branch");
    println!(
        "attacker releases a longer private branch -> {}",
        match outcome {
            dlt_blockchain::chain::InsertOutcome::Reorged { .. } => "REORG",
            _ => "no reorg",
        }
    );
    println!(
        "exchange balance after reorg: {} — the 1-conf deposit was orphaned \
         (tx back in mempool: {})",
        chain.ledger().balance(&exchange),
        chain.mempool().contains(&deposit_id),
    );
    println!(
        "had the exchange waited 6 confirmations, the attacker would have \
         needed to outrun 6 blocks of honest work — the §IV-A rule.\n"
    );
}

fn dag_attack() {
    println!("--- DAG: double send resolved by weighted vote ---");
    let params = LatticeParams {
        work_difficulty_bits: 4,
        ..LatticeParams::default()
    };
    let mut genesis = NanoAccount::from_seed([9u8; 32], 6, 4);
    let mut lattice = Lattice::new(params, genesis.genesis_block(1_000_000));

    // Fund the attacker.
    let mut attacker = NanoAccount::from_seed([10u8; 32], 6, 4);
    let send = genesis.send(attacker.address(), 10_000).expect("funded");
    let hash = lattice.process(send).expect("valid");
    lattice
        .process(attacker.receive(hash, 10_000).expect("key"))
        .expect("valid");

    // The attacker signs two conflicting sends from the same position.
    let mut cloned_state = attacker.fork_state();
    let deposit = attacker
        .send(Address::from_label("exchange"), 10_000)
        .expect("funded");
    let clawback = cloned_state
        .send(Address::from_label("attacker-stash"), 10_000)
        .expect("funded");

    let deposit_hash = lattice.process(deposit).expect("first seen wins a slot");
    match lattice.process(clawback.clone()) {
        Err(LatticeError::Fork { existing }) => {
            println!(
                "conflict detected: clawback {} disputes position held by deposit {}",
                clawback.hash().short(),
                existing.short()
            );
        }
        other => panic!("expected fork, got {other:?}"),
    }

    // Representatives vote with their delegated weight (§III-B).
    let mut election = Election::new();
    election.vote(
        genesis.address(),
        lattice.weight(&genesis.address()),
        deposit_hash,
    );
    election.vote(
        attacker.address(),
        lattice.weight(&attacker.address()),
        clawback.hash(),
    );
    let (winner, weight) = election.leader().expect("votes cast");
    println!(
        "vote: honest weight {} vs attacker weight {} -> winner {} ({})",
        lattice.weight(&genesis.address()),
        lattice.weight(&attacker.address()),
        winner.short(),
        if winner == deposit_hash {
            "deposit stands"
        } else {
            "clawback wins"
        },
    );
    assert_eq!(winner, deposit_hash);
    let _ = weight;

    // Cement it: the §IV-B finality the paper anticipates.
    lattice.cement(&deposit_hash).expect("known block");
    println!(
        "deposit cemented; rollback now refused: {:?}",
        lattice.rollback(&deposit_hash).unwrap_err()
    );
}
