//! `gossip` — the engine under a fault-injected flood (e11 act-2 shape).
//!
//! `MINERS` sampled-PoW miners at fixed total hashrate flood empty
//! blocks over log-normal links whose median latency is a few percent
//! of the block interval, where forks occur. Every send passes through
//! the e18 "chaos" fault interceptor (drop 10%, duplicate 20%, reorder
//! 30%). Mining stops once `BLOCKS` blocks are mined, so every seed
//! does the same amount of mining; the benchmark then steps the engine
//! until its queue is empty (a quiet drain) and checks that all miners
//! agree on the active chain below the settle height. No crypto runs.

use std::time::Instant;

use dlt_blockchain::block::Block;
use dlt_blockchain::difficulty::RetargetParams;
use dlt_blockchain::node::{MinerConfig, MinerNode, NetMsg};
use dlt_blockchain::utxo::UtxoTx;
use dlt_crypto::keys::Address;
use dlt_sim::engine::Simulation;
use dlt_sim::fault::FaultInterceptor;
use dlt_sim::latency::LatencyModel;
use dlt_sim::time::SimTime;

use crate::engine::{record_engine, step_until_idle};
use crate::probe::{CountingTracer, Node, Probe, TimedInterceptor};
use crate::rep::{Latencies, Rep, Tail};

const MINERS: usize = 128;
/// Expected block interval (the paper's 600 s compressed 60x).
const INTERVAL_S: f64 = 10.0;
/// Median link latency: 8% of the block interval (e11 puts a 32 MB
/// block's propagation at 4%), so forks are common.
const LATENCY_MEDIAN: SimTime = SimTime::from_millis(800);
const LATENCY_SIGMA: f64 = 0.3;
/// Blocks mined per repetition, about 300 simulated seconds. With a
/// fixed horizon instead, the block count (and with it the peak
/// resident set) varied by a quarter from seed to seed.
const BLOCKS: u64 = 30;
/// Blocks this far below the lowest tip must be identical everywhere.
const SETTLE_DEPTH: u64 = 6;

type Miner = MinerNode<UtxoTx>;
type Msg = NetMsg<UtxoTx>;
type Net = Simulation<Msg, Node<Msg, Miner>>;

fn build(seed: u64, probe: Option<&Probe>) -> Net {
    let mut sim: Net = Simulation::new(
        seed,
        LatencyModel::LogNormal {
            median: LATENCY_MEDIAN,
            sigma: LATENCY_SIGMA,
        },
    );
    for m in 0..MINERS {
        let config = MinerConfig {
            hashrate: 1.0 / (MINERS as f64 * INTERVAL_S),
            mine: true,
            subsidy: 0,
            block_capacity: 1_000_000,
            retarget: RetargetParams {
                target_interval_micros: (INTERVAL_S * 1e6) as u64,
                window: 1_000_000, // effectively static difficulty
                max_step: 4,
            },
            miner_address: Address::from_label(&format!("miner-{m}")),
            coinbase: None,
            mempool_capacity: 10,
        };
        let miner = MinerNode::new(Block::<UtxoTx>::empty_genesis(), config);
        sim.add_node(Node::new(miner, BLOCKS, probe));
    }
    let chaos = FaultInterceptor::new(seed ^ 0xc4a0_5eed)
        .drop_messages(0.10)
        .duplicate(0.20, SimTime::from_millis(50))
        .reorder(0.30, SimTime::from_millis(500));
    match probe {
        None => sim.set_interceptor(chaos),
        Some(probe) => sim.set_interceptor(TimedInterceptor::new(chaos, probe)),
    }
    sim
}

pub fn run(seed: u64, probe: Option<&Probe>, latencies: &mut Latencies) -> Rep {
    let mut rep = Rep {
        ops_name: "events",
        op_name: "step",
        tail: Tail::P999,
        attempt_name: "miners agreeing on the settled chain",
        ..Rep::default()
    };
    let started = Instant::now();
    let mut sim = build(seed, probe);
    let counts = probe.map(|_| {
        let (tracer, counts) = CountingTracer::new(sim.pending_events());
        sim.set_tracer(tracer);
        counts
    });
    rep.setup_s = started.elapsed().as_secs_f64();

    let (steps, slices_s) = step_until_idle(&mut sim, probe, latencies);
    rep.slices_s = slices_s;
    rep.ops = steps;
    rep.op_calls = steps;

    // Output checks (untimed).
    let chains: Vec<_> = sim.nodes().iter().map(|n| n.inner().chain()).collect();
    let mined = sim.metrics().count("node.blocks_mined");
    let lowest_tip = chains.iter().map(|c| c.tip_height()).min().unwrap_or(0);
    let settle = lowest_tip.saturating_sub(SETTLE_DEPTH) as usize;
    let reference = &chains[0].active_chain()[..=settle];
    let disagreeing = chains
        .iter()
        .filter(|c| &c.active_chain()[..=settle] != reference)
        .count();
    rep.attempted = MINERS as u64;
    rep.failed = disagreeing as u64;
    rep.check(disagreeing == 0, || {
        format!("{disagreeing} miners disagree with miner 0 below height {settle}")
    });
    let incomplete = chains
        .iter()
        .filter(|c| c.block_count() as u64 != mined + 1 || c.orphan_count() != 0)
        .count();
    rep.check(incomplete == 0, || {
        format!("{incomplete} miners do not hold all {mined} mined blocks after the drain")
    });

    let node0 = chains[0];
    // The clock ends at the last (ignored) mining timer, far past the
    // last delivery; the simulated span is up to the newest block.
    rep.sim_s = node0
        .header(&node0.tip())
        .map_or(0.0, |h| h.timestamp_micros as f64 / 1e6);
    let fork_rate = node0.stale_block_count() as f64 / node0.block_count() as f64;
    let reorgs = sim.metrics().count("node.reorgs");
    rep.outcome = vec![
        ("sim_fork_rate", fork_rate, "ratio"),
        ("blocks_mined", mined as f64, "count"),
        ("tip_height", node0.tip_height() as f64, "count"),
        ("settle_height", settle as f64, "count"),
        ("reorgs", reorgs as f64, "count"),
        (
            "net_messages",
            sim.metrics().count("net.messages") as f64,
            "count",
        ),
        ("sim_s", rep.sim_s, "s"),
    ];

    if let (Some(probe), Some(counts)) = (probe, counts) {
        let c = *counts.borrow();
        rep.check(c.depth == sim.pending_events() as u64, || {
            format!(
                "tracer queue depth {} != engine's {}",
                c.depth,
                sim.pending_events()
            )
        });
        let layers = &mut rep.layers;
        layers.insert("setup.net_s", rep.setup_s);
        record_engine(probe, &c, "gossip", layers);
        layers.insert(
            "fault.intercept.calls",
            probe.calls("fault.intercept") as f64,
        );
        layers.insert("fault.intercept.busy_s", probe.self_s("fault.intercept"));
        layers.insert(
            "fault.intercept.dropped",
            probe.counter("fault.intercept.dropped"),
        );
        layers.insert(
            "fault.intercept.extra_deliveries",
            probe.counter("fault.intercept.extra_deliveries"),
        );
        let receptions = probe.calls("miner.on_block");
        layers.insert("miner.on_block.calls", receptions as f64);
        layers.insert("miner.on_block.busy_s", probe.self_s("miner.on_block"));
        layers.insert("miner.on_timer.calls", probe.calls("miner.on_timer") as f64);
        layers.insert("miner.on_timer.busy_s", probe.self_s("miner.on_timer"));
        layers.insert("miner.blocks_mined", mined as f64);
        layers.insert("miner.stale_blocks", node0.stale_block_count() as f64);
        layers.insert("miner.reorgs", reorgs as f64);
        let deepest = sim
            .nodes()
            .iter()
            .map(|n| n.inner().deepest_reorg())
            .max()
            .unwrap_or(0);
        layers.insert("miner.max_reorg_depth", deepest as f64);
        layers.insert(
            "miner.useful_block_ratio",
            node0.tip_height() as f64 / mined.max(1) as f64,
        );
        // A miner first hears of every block it did not mine itself;
        // every other reception is a duplicate.
        let stored: u64 = chains.iter().map(|c| c.block_count() as u64 - 1).sum();
        let first_receptions = stored.saturating_sub(mined);
        layers.insert(
            "miner.dup_block_ratio",
            1.0 - first_receptions as f64 / receptions.max(1) as f64,
        );
    }
    rep
}
