//! `payments` — the write path, open loop in simulated time (e09's
//! shape).
//!
//! One Poisson stream of transfers between uniformly random actors is
//! offered, in turn, to the Bitcoin-like, Ethereum-like and Nano-like
//! adapters. The rate is above both chains' capacity and inside the
//! lattice's, so the chains build a mempool backlog during the load
//! phase; a drain phase then lets every accepted transfer confirm. The
//! only read is the final `stats()`. The engine is not used.

use std::time::Instant;

use dlt_core::ledger::TxStatus;
use dlt_crypto::Digest;
use dlt_sim::rng::SimRng;
use dlt_sim::time::SimTime;

use crate::ledgers::{build_all, record_core_calls, Sizes};
use crate::probe::{LedgerTiming, Probe};
use crate::rep::{Gauge, Latencies, Rep};

/// Offered load: `TRANSFERS` arrivals in `LOAD_S` simulated seconds,
/// 10 transfers/s. Capacity is about 3 transfers/s on the Bitcoin-like
/// chain and 5/s on the Ethereum-like one; the lattice takes all of it.
const TRANSFERS: usize = 50;
const LOAD_S: u64 = 5;
/// Drain after the load: long enough for the Bitcoin-like backlog to
/// be mined and buried under its 6 confirmations.
const DRAIN_S: u64 = 120;
/// Workload clock step: arrivals are drawn per step, then the ledger
/// advances by one step.
const STEP: SimTime = SimTime::from_millis(100);
/// Workload steps per measured slice (about 10 ms of host time).
const SLICE_STEPS: usize = 50;
const AMOUNT: u64 = 5;

/// About 6 transfers per actor on average. Capacities leave wide
/// margins, so no transfer is refused for want of funds or keys.
const SIZES: Sizes = Sizes {
    actors: 8,
    // Change only confirms after the backlog drains, so every
    // transfer needs its own funded output.
    btc_outputs: 16,
    // 16 sends per actor.
    eth_key_height: 4,
    // 32 blocks per actor: a Nano actor signs a send per outgoing and
    // a receive per incoming transfer.
    nano_key_height: 5,
};

/// The arrival schedule: for each load step, the `(from, to)` pairs
/// offered in it. Arrival times are uniform over the load window — a
/// Poisson stream conditioned on its count, so every seed offers the
/// same number of transfers.
fn schedule(seed: u64, actors: usize) -> Vec<Vec<(usize, usize)>> {
    let mut rng = SimRng::new(seed);
    let steps = (LOAD_S * 1000 / STEP.as_millis()) as usize;
    let mut arrivals = vec![Vec::new(); steps];
    for _ in 0..TRANSFERS {
        let step = rng.below(steps as u64) as usize;
        let from = rng.below(actors as u64) as usize;
        let mut to = rng.below(actors as u64 - 1) as usize;
        if to >= from {
            to += 1;
        }
        arrivals[step].push((from, to));
    }
    arrivals
}

pub fn run(seed: u64, probe: Option<&Probe>, latencies: &mut Latencies) -> Rep {
    let mut rep = Rep {
        ops_name: "transfers",
        op_name: "submit",
        attempt_name: "offered transfers",
        ..Rep::default()
    };
    let started = Instant::now();
    let arrivals = schedule(seed, SIZES.actors);
    rep.setup_s += started.elapsed().as_secs_f64();
    let mut adapters = build_all(seed, SIZES, &mut rep);

    let total_steps = (LOAD_S + DRAIN_S) * 1000 / STEP.as_millis();
    for (tag, adapter) in &mut adapters {
        let tag = *tag;
        let timing = probe.map(|p| LedgerTiming::new(p, tag));
        let timing = timing.as_ref();
        let mut queue = Gauge::default();
        let mut tickets: Vec<Digest> = Vec::new();
        let mut offered = 0u64;
        let mut slice = Instant::now();
        for step in 0..total_steps as usize {
            for &(from, to) in arrivals.get(step).map_or(&[][..], Vec::as_slice) {
                offered += 1;
                let t0 = Instant::now();
                let ticket = adapter.call(timing, |l| l.submit_transfer(from, to, AMOUNT));
                latencies.record(t0.elapsed().as_nanos() as u64);
                rep.op_calls += 1;
                tickets.extend(ticket);
            }
            adapter.call(timing, |l| l.advance(STEP));
            if timing.is_some() {
                adapter.sample(&mut queue);
            }
            if (step + 1) % SLICE_STEPS == 0 {
                rep.end_slice(&mut slice);
            }
        }
        let stats = adapter.call(timing, |l| l.stats());
        rep.end_slice(&mut slice);
        rep.sim_s += (LOAD_S + DRAIN_S) as f64;

        // Output checks (untimed): supply, counts, and every ticket the
        // stats count as confirmed reports Confirmed.
        adapter.check(tag, SIZES, &stats, offered, &mut rep);
        let confirmed_by_status = adapter.call(None, |l| {
            tickets
                .iter()
                .filter(|t| l.status(t) == TxStatus::Confirmed)
                .count() as u64
        });
        rep.check(confirmed_by_status == stats.confirmed, || {
            format!(
                "{}: {} tickets report Confirmed but stats count {}",
                tag.as_str(),
                confirmed_by_status,
                stats.confirmed
            )
        });

        rep.ops += stats.confirmed;
        rep.attempted += offered;
        rep.failed += offered - stats.confirmed.min(offered);
        rep.outcome
            .push((tag.name("offered", ""), offered as f64, "count"));
        rep.outcome
            .push((tag.name("submitted", ""), stats.submitted as f64, "count"));
        rep.outcome
            .push((tag.name("confirmed", ""), stats.confirmed as f64, "count"));
        rep.outcome
            .push((tag.name("blocks", ""), stats.blocks as f64, "count"));
        rep.outcome.push((
            tag.name("ledger_bytes", ""),
            stats.ledger_bytes as f64,
            "bytes",
        ));
        rep.layers
            .insert(tag.name("core.offered", ""), offered as f64);
        rep.layers
            .insert(tag.name("core.confirmed", ""), stats.confirmed as f64);
        if let Some(probe) = probe {
            record_core_calls(probe, tag, &mut rep);
            adapter.record_layers(tag, &stats, &queue, &mut rep);
        }
    }
    rep
}
