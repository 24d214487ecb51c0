//! The three `dlt-core` ledger adapters as the payments and wallets
//! workloads configure them, with the output checks and per-layer
//! readings that need adapter-specific public getters.

use std::collections::BTreeSet;
use std::time::Instant;

use dlt_blockchain::bitcoin::BitcoinParams;
use dlt_blockchain::ethereum::EthereumParams;
use dlt_core::ledger::{
    BitcoinAdapter, DistributedLedger, EthereumAdapter, LedgerStats, NanoAdapter,
};
use dlt_crypto::keys::Address;
use dlt_dag::lattice::LatticeParams;
use dlt_sim::time::SimTime;

use crate::probe::{static_name, LedgerTiming, Probe, Tag};
use crate::rep::{Gauge, Rep};

/// Bitcoin-like: 10 s blocks (the paper's 600 s compressed 60x).
pub const BTC_INTERVAL: SimTime = SimTime::from_secs(10);
/// Bitcoin-like block size: about 30 single-input transfers.
const BTC_BLOCK_BYTES: u64 = 72_000;
const BTC_FUNDS_PER_OUTPUT: u64 = 10_000;
/// Ethereum-like: 1 s blocks, gas for 5 plain transfers.
pub const ETH_INTERVAL: SimTime = SimTime::from_secs(1);
const ETH_GAS_LIMIT: u64 = 105_000;
const ACCOUNT_FUNDS: u64 = 1_000_000_000;
/// Nano-like: the recipient receives after 100 ms, votes confirm
/// 200 ms later.
const NANO_RECEIVE_DELAY: SimTime = SimTime::from_millis(100);
const NANO_CONFIRM_DELAY: SimTime = SimTime::from_millis(200);
const NANO_WORK_BITS: u32 = 2;
/// The block producer label `EthereumAdapter` credits.
const ETH_PRODUCER: &str = "workload-validator";

/// How many actors each adapter funds and how much each can sign.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub actors: usize,
    /// Funded outputs per Bitcoin-like actor (each pays one transfer
    /// until its change confirms).
    pub btc_outputs: usize,
    /// MSS tree height of Ethereum-like and Nano-like actor keys
    /// (`2^h` signatures each; a Nano transfer costs the sender one
    /// and the recipient one).
    pub eth_key_height: u32,
    pub nano_key_height: u32,
}

/// One adapter under test.
pub enum Adapter {
    Btc(BitcoinAdapter),
    Eth(EthereumAdapter),
    Nano(NanoAdapter),
}

impl Adapter {
    /// Builds the adapter for `tag`; this is set-up work (key
    /// generation and funding).
    pub fn build(tag: Tag, seed: u64, sizes: Sizes) -> Adapter {
        match tag {
            Tag::Btc => Adapter::Btc(BitcoinAdapter::new(
                BitcoinParams {
                    max_block_bytes: BTC_BLOCK_BYTES,
                    ..BitcoinParams::default()
                },
                BTC_INTERVAL,
                sizes.actors,
                sizes.btc_outputs,
                BTC_FUNDS_PER_OUTPUT,
                seed,
            )),
            Tag::Eth => Adapter::Eth(EthereumAdapter::new(
                EthereumParams {
                    initial_gas_limit: ETH_GAS_LIMIT,
                    ..EthereumParams::default()
                },
                ETH_INTERVAL,
                sizes.actors,
                ACCOUNT_FUNDS,
                sizes.eth_key_height,
                seed,
            )),
            Tag::Nano => Adapter::Nano(NanoAdapter::new(
                LatticeParams {
                    work_difficulty_bits: NANO_WORK_BITS,
                    verify_signatures: true,
                    verify_work: true,
                },
                sizes.actors,
                ACCOUNT_FUNDS,
                sizes.nano_key_height,
                NANO_RECEIVE_DELAY,
                NANO_CONFIRM_DELAY,
                seed,
            )),
        }
    }

    fn ledger(&mut self) -> &mut dyn DistributedLedger {
        match self {
            Adapter::Btc(a) => a,
            Adapter::Eth(a) => a,
            Adapter::Nano(a) => a,
        }
    }

    /// Calls `f` on this adapter — directly, or through the timing
    /// decorator in the traced run.
    pub fn call<R>(
        &mut self,
        timing: Option<&LedgerTiming>,
        f: impl FnOnce(&mut dyn DistributedLedger) -> R,
    ) -> R {
        match timing {
            None => f(self.ledger()),
            Some(timing) => f(&mut timing.wrap(self.ledger())),
        }
    }

    /// Samples the queues transfers wait in (traced run only).
    pub fn sample(&self, queue: &mut Gauge) {
        let depth = match self {
            Adapter::Btc(a) => a.chain().mempool().len(),
            Adapter::Eth(a) => a.chain().mempool().len(),
            Adapter::Nano(a) => a.lattice().pending_count(),
        };
        queue.sample(depth as f64);
    }

    /// Output checks: supply is conserved, and confirmed ≤ submitted ≤
    /// offered.
    pub fn check(&self, tag: Tag, sizes: Sizes, stats: &LedgerStats, offered: u64, rep: &mut Rep) {
        let name = tag.as_str();
        rep.check(
            stats.confirmed <= stats.submitted && stats.submitted <= offered,
            || {
                format!(
                    "{name}: confirmed {} <= submitted {} <= offered {offered} violated",
                    stats.confirmed, stats.submitted
                )
            },
        );
        let actors = sizes.actors as u64;
        let (found, expected) = match self {
            Adapter::Btc(a) => {
                let minted = a.chain().params().subsidy * a.chain().chain().tip_height();
                (
                    a.chain().ledger().total_value(),
                    actors * sizes.btc_outputs as u64 * BTC_FUNDS_PER_OUTPUT + minted,
                )
            }
            Adapter::Eth(a) => {
                // Actor addresses are private to the adapter; every
                // actor that ever transacted appears in a block, and
                // the others still hold their funding.
                let producer = Address::from_label(ETH_PRODUCER);
                let mut seen = BTreeSet::new();
                for block in a.chain().chain().iter_active() {
                    for tx in &block.txs {
                        seen.insert(tx.sender());
                        seen.insert(tx.to);
                    }
                }
                seen.remove(&producer);
                let held: u64 = seen.iter().map(|addr| a.chain().balance(addr)).sum();
                let untouched = actors.saturating_sub(seen.len() as u64) * ACCOUNT_FUNDS;
                let minted = a.chain().params().block_reward * a.chain().chain().tip_height();
                (
                    held + untouched + a.chain().balance(&producer),
                    actors * ACCOUNT_FUNDS + minted,
                )
            }
            Adapter::Nano(a) => (a.lattice().circulating_total(), actors * ACCOUNT_FUNDS + 1),
        };
        rep.check(found == expected, || {
            format!("{name}: supply {found} != expected {expected}")
        });
    }

    /// Per-layer readings of the chain or lattice after a run.
    pub fn record_layers(&self, tag: Tag, stats: &LedgerStats, queue: &Gauge, rep: &mut Rep) {
        let layers = &mut rep.layers;
        layers.insert(
            tag.name("chain.ledger_bytes", ""),
            stats.ledger_bytes as f64,
        );
        let (blocks, txs) = match self {
            Adapter::Btc(a) => {
                let chain = a.chain().chain();
                // Every Bitcoin-like block carries one coinbase.
                let txs: usize = chain
                    .iter_active()
                    .map(|b| b.txs.len().saturating_sub(1))
                    .sum();
                (chain.tip_height(), txs)
            }
            Adapter::Eth(a) => {
                let chain = a.chain().chain();
                let txs: usize = chain.iter_active().map(|b| b.txs.len()).sum();
                (chain.tip_height(), txs)
            }
            Adapter::Nano(_) => {
                layers.insert("lattice.pending_mean.nano", queue.mean());
                return;
            }
        };
        layers.insert(tag.name("chain.blocks", ""), blocks as f64);
        layers.insert(
            tag.name("chain.txs_per_block", ""),
            txs as f64 / blocks.max(1) as f64,
        );
        layers.insert(tag.name("chain.mempool_depth_mean", ""), queue.mean());
        layers.insert(tag.name("chain.mempool_depth_max", ""), queue.max());
    }
}

/// Builds all three adapters in turn, timing each as set-up.
pub fn build_all(seed: u64, sizes: Sizes, rep: &mut Rep) -> Vec<(Tag, Adapter)> {
    Tag::ALL
        .iter()
        .enumerate()
        .map(|(i, &tag)| {
            let started = Instant::now();
            let adapter = Adapter::build(tag, seed.wrapping_mul(3).wrapping_add(i as u64), sizes);
            let secs = started.elapsed().as_secs_f64();
            rep.setup_s += secs;
            rep.layers
                .insert(static_name(&format!("setup.{}_s", tag.as_str())), secs);
            (tag, adapter)
        })
        .collect()
}

/// Copies the `TimedLedger` spans and counters of one adapter into the
/// per-layer metrics.
pub fn record_core_calls(probe: &Probe, tag: Tag, rep: &mut Rep) {
    for call in ["core.submit", "core.status", "core.advance"] {
        let span = tag.name(call, "");
        rep.layers
            .insert(tag.name(call, "calls"), probe.calls(span) as f64);
        rep.layers
            .insert(tag.name(call, "busy_s"), probe.self_s(span));
    }
    rep.layers.insert(
        tag.name("core.stats", "busy_s"),
        probe.self_s(tag.name("core.stats", "")),
    );
    rep.layers.insert(
        tag.name("core.submit", "rejected"),
        probe.counter(tag.name("core.submit", "rejected")),
    );
}
