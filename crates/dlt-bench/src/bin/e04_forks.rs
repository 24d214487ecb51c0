//! e04 — Soft forks under network delay (paper §IV-A, Fig. 4).
//!
//! Runs a PoW miner network at a fixed block interval while sweeping
//! the link latency, and measures the natural fork rate (stale blocks
//! per mined block), the reorg count and reorg depth distribution —
//! the quantitative content of Fig. 4's "two blocks claim the same
//! predecessor" scenario. The expected shape: fork rate grows roughly
//! with latency/interval, and nodes still converge on one chain.

use dlt_bench::{banner, trace, Table};
use dlt_blockchain::block::Block;
use dlt_blockchain::difficulty::RetargetParams;
use dlt_blockchain::node::{MinerConfig, MinerNode, NetMsg};
use dlt_blockchain::utxo::UtxoTx;
use dlt_crypto::keys::Address;
use dlt_sim::engine::Simulation;
use dlt_sim::latency::LatencyModel;
use dlt_sim::network::NodeId;
use dlt_sim::time::SimTime;

fn main() {
    let _report = banner("e04", "soft forks vs network delay", "§IV-A, Fig. 4");
    // Compressed timescale: 10 s target interval (instead of 600 s);
    // the dimensionless knob is latency / interval.
    let interval_secs = 10.0;
    let miners = 6;
    let run = SimTime::from_secs(3_000);

    let mut table = Table::new([
        "latency",
        "latency/interval",
        "blocks",
        "stale blocks",
        "fork rate",
        "reorgs",
        "max reorg depth",
        "converged",
    ]);

    // DLT_TRACE=1 records the full schedule/dispatch/mined/reorg event
    // stream of every sweep point into one log.
    let trace = trace::from_env("e04");
    for latency_ms in [10u64, 100, 500, 1_000, 3_000] {
        trace.mark("sweep.latency_ms", latency_ms);
        let mut sim: Simulation<NetMsg<_>, MinerNode<_>> = Simulation::new(
            42 + latency_ms,
            LatencyModel::LogNormal {
                median: SimTime::from_millis(latency_ms),
                sigma: 0.3,
            },
        );
        for m in 0..miners {
            let config = MinerConfig {
                hashrate: 1.0 / (miners as f64 * interval_secs),
                mine: true,
                subsidy: 0,
                block_capacity: 1_000_000,
                retarget: RetargetParams {
                    target_interval_micros: (interval_secs * 1e6) as u64,
                    window: 1_000_000, // effectively static difficulty
                    max_step: 4,
                },
                miner_address: Address::from_label(&format!("miner-{m}")),
                coinbase: None,
                mempool_capacity: 10,
            };
            sim.add_node(MinerNode::new(Block::<UtxoTx>::empty_genesis(), config));
        }
        trace.install(&mut sim);
        sim.run_until(run);
        sim.run_until_idle(run + SimTime::from_secs(30));

        let heights: Vec<u64> = (0..miners)
            .map(|i| sim.node(NodeId(i)).chain().tip_height())
            .collect();
        let stale: usize = sim.node(NodeId(0)).chain().stale_block_count();
        let total_blocks = sim.node(NodeId(0)).chain().block_count();
        let reorgs = sim.metrics().count("node.reorgs");
        let max_depth = sim.metrics().max("node.reorg_depth").unwrap_or(0.0);
        let settle = heights.iter().min().unwrap().saturating_sub(6);
        let converged = (0..miners)
            .map(|i| sim.node(NodeId(i)).chain().active_at(settle))
            .collect::<Vec<_>>()
            .windows(2)
            .all(|w| w[0] == w[1]);

        table.row([
            format!("{latency_ms} ms"),
            format!("{:.3}", latency_ms as f64 / 1000.0 / interval_secs),
            total_blocks.to_string(),
            stale.to_string(),
            format!("{:.3}", stale as f64 / total_blocks as f64),
            reorgs.to_string(),
            format!("{max_depth:.0}"),
            converged.to_string(),
        ]);
    }
    table.print();
    println!(
        "\nreading: fork rate rises with latency/interval; the longest \
         (most-work) chain always wins and the network converges — Fig. 4's \
         temporary forks resolve exactly as §IV-A describes."
    );
}
