//! e01 — Ledger data structures (paper §II-A, Fig. 1).
//!
//! Builds a small Bitcoin-like chain and an Ethereum-like chain, prints
//! the hash linkage of Fig. 1 (header → predecessor hash, Merkle root
//! over transactions, Ethereum's state/receipts roots) and demonstrates
//! that tampering with any transaction is detected by the commitments.

use dlt_bench::{banner, section, Table};
use dlt_blockchain::account::AccountHolder;
use dlt_blockchain::bitcoin::{BitcoinChain, BitcoinParams};
use dlt_blockchain::block::LedgerTx;
use dlt_blockchain::ethereum::{EthereumChain, EthereumParams};
use dlt_blockchain::utxo::Wallet;
use dlt_crypto::keys::Address;

fn main() {
    let _report = banner("e01", "ledger data structures: blockchain", "§II-A, Fig. 1");

    // --- Bitcoin-like: blocks of UTXO transactions, Merkle-hashed. ---
    let mut wallet = Wallet::new(1);
    let funded: Vec<(Address, u64)> = (0..4).map(|_| (wallet.new_address(), 1_000)).collect();
    let mut btc = BitcoinChain::new(BitcoinParams::default(), &funded);
    let miner = Address::from_label("miner");
    for height in 1..=3u64 {
        let tx = wallet
            .build_transfer(btc.ledger(), Address::from_label("shop"), 50, 1)
            .expect("funded");
        btc.submit_tx(tx);
        btc.mine_block(miner, height * 600_000_000);
    }

    let mut table = Table::new([
        "height",
        "block id",
        "parent",
        "merkle root",
        "txs",
        "bytes",
    ]);
    for id in btc.chain().active_chain() {
        let block = btc.chain().block(id).expect("active");
        table.row([
            block.header.height.to_string(),
            id.short(),
            if block.header.parent.is_zero() {
                "(genesis)".to_string()
            } else {
                block.header.parent.short()
            },
            block.header.merkle_root.short(),
            block.txs.len().to_string(),
            block.size_bytes().to_string(),
        ]);
    }
    table.print();

    // Linkage check: every parent field matches the predecessor's id.
    let chain_ids = btc.chain().active_chain();
    let linked = chain_ids
        .windows(2)
        .all(|pair| btc.chain().header(&pair[1]).expect("stored").parent == pair[0]);
    println!("hash linkage intact: {linked}");

    // Tamper detection via the Merkle root.
    let tip = btc.chain().tip();
    let mut tampered = btc.chain().block(&tip).expect("tip").clone().into_inner();
    if let Some(tx) = tampered.txs.get_mut(0) {
        tx.outputs[0].amount += 1;
    }
    // A receiver seals what it got: the ids come from the edited bodies.
    let tampered = tampered.seal();
    println!(
        "tampered block keeps valid merkle root: {}",
        tampered.merkle_root_valid()
    );
    assert!(!tampered.merkle_root_valid());

    // --- Ethereum-like: accounts, state roots, receipts roots. ---
    section("state-committed chain (Ethereum-like), §II-A, §V-A");
    let mut alice = AccountHolder::from_seed([7u8; 32], 5);
    let mut eth = EthereumChain::new(EthereumParams::default(), &[(alice.address(), 1_000_000)]);
    let validator = Address::from_label("validator");
    for slot in 1..=3u64 {
        eth.submit_tx(alice.transfer(Address::from_label("bob"), 100, 1));
        eth.produce_block(validator, slot * 15_000_000);
    }
    let mut table = Table::new([
        "height",
        "block id",
        "state root",
        "receipts root",
        "gas used",
    ]);
    for id in eth.chain().active_chain() {
        let block = eth.chain().block(id).expect("active");
        table.row([
            block.header.height.to_string(),
            id.short(),
            block.header.state_root.short(),
            if block.header.receipts_root.is_zero() {
                "-".to_string()
            } else {
                block.header.receipts_root.short()
            },
            block.header.gas_used.to_string(),
        ]);
    }
    table.print();
    println!(
        "ethereum-like stores {} distinct state versions (one per block, shared structurally)",
        eth.chain().active_chain().len()
    );

    // Transactions are one-signature-per-input vs one-per-tx:
    let btc_tx_bytes = btc
        .chain()
        .block(&btc.chain().tip())
        .unwrap()
        .txs
        .iter()
        .find(|t| !t.is_coinbase())
        .map(|t| t.encoded_size())
        .unwrap_or(0);
    println!("representative UTXO tx size: {btc_tx_bytes} B (WOTS-signed)");
}
