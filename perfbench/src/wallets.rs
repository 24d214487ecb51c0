//! `wallets` — the read path, closed loop.
//!
//! `CLIENTS` wallet clients per adapter. Each submits one transfer,
//! then polls `status()` for its ticket once per simulated second until
//! it reads `Confirmed`, and only then submits its next transfer. A
//! ticket still unconfirmed `DEADLINE_S` after submission counts as
//! failed. After `RUN_S` no new transfers start; the run ends when every
//! outstanding ticket has resolved. `status()` on the chains scans the
//! active chain, so an index or cache shows here and not on `payments`.

use std::time::Instant;

use dlt_core::ledger::TxStatus;
use dlt_crypto::Digest;
use dlt_sim::rng::SimRng;
use dlt_sim::time::SimTime;

use crate::ledgers::{build_all, record_core_calls, Sizes};
use crate::probe::{LedgerTiming, Probe};
use crate::rep::{percentile_f64, Gauge, Latencies, Rep};

const CLIENTS: usize = 8;
/// Simulated seconds during which clients start new transfers. Host
/// time grows about quadratically with it (every poll scans the chain).
const RUN_S: u64 = 20;
/// A transfer not confirmed this long after submission has failed.
const DEADLINE_S: u64 = 180;
const POLL: SimTime = SimTime::from_secs(1);
const AMOUNT: u64 = 5;

/// One client per actor. Nano clients confirm within a poll, so they
/// make up to `RUN_S` transfers, each costing a send and (for the
/// recipient) a receive signature.
const SIZES: Sizes = Sizes {
    actors: CLIENTS,
    btc_outputs: 8,
    eth_key_height: 5,
    nano_key_height: 6,
};

struct Client {
    actor: usize,
    /// The outstanding ticket and the second it was submitted at.
    pending: Option<(Digest, u64)>,
}

pub fn run(seed: u64, probe: Option<&Probe>, latencies: &mut Latencies) -> Rep {
    let mut rep = Rep {
        ops_name: "transfers",
        op_name: "status",
        attempt_name: "submitted transfers",
        ..Rep::default()
    };
    let mut adapters = build_all(seed ^ 0x5741_4c4c, SIZES, &mut rep);

    let mut confirm_all: Vec<f64> = Vec::new();
    for (index, (tag, adapter)) in adapters.iter_mut().enumerate() {
        let tag = *tag;
        let timing = probe.map(|p| LedgerTiming::new(p, tag));
        let timing = timing.as_ref();
        let mut rng = SimRng::new(seed.wrapping_add(index as u64));
        let mut queue = Gauge::default();
        let mut clients: Vec<Client> = (0..CLIENTS)
            .map(|actor| Client {
                actor,
                pending: None,
            })
            .collect();
        let (mut offered, mut confirmed, mut failed) = (0u64, 0u64, 0u64);
        let mut done: Vec<Digest> = Vec::new();
        let mut confirm_s: Vec<f64> = Vec::new();
        // One measured slice per simulated second.
        let mut slice = Instant::now();
        let mut second = 0u64;
        loop {
            for client in &mut clients {
                if let Some((ticket, at)) = client.pending {
                    let t0 = Instant::now();
                    let status = adapter.call(timing, |l| l.status(&ticket));
                    latencies.record(t0.elapsed().as_nanos() as u64);
                    rep.op_calls += 1;
                    if status == TxStatus::Confirmed {
                        confirmed += 1;
                        confirm_s.push((second - at) as f64);
                        done.push(ticket);
                        client.pending = None;
                    } else if second - at >= DEADLINE_S {
                        failed += 1;
                        client.pending = None;
                    }
                }
                if client.pending.is_none() && second < RUN_S {
                    let mut to = rng.below(CLIENTS as u64 - 1) as usize;
                    if to >= client.actor {
                        to += 1;
                    }
                    offered += 1;
                    let actor = client.actor;
                    match adapter.call(timing, |l| l.submit_transfer(actor, to, AMOUNT)) {
                        Some(ticket) => client.pending = Some((ticket, second)),
                        None => failed += 1,
                    }
                }
            }
            if second >= RUN_S && clients.iter().all(|c| c.pending.is_none()) {
                break;
            }
            adapter.call(timing, |l| l.advance(POLL));
            if timing.is_some() {
                adapter.sample(&mut queue);
            }
            rep.end_slice(&mut slice);
            second += 1;
        }
        let stats = adapter.call(timing, |l| l.stats());
        rep.end_slice(&mut slice);
        rep.sim_s += second as f64;

        // Output checks (untimed): supply, counts, and no confirmed
        // ticket regresses.
        adapter.check(tag, SIZES, &stats, offered, &mut rep);
        let regressed = adapter.call(None, |l| {
            done.iter()
                .filter(|t| l.status(t) != TxStatus::Confirmed)
                .count()
        });
        rep.check(regressed == 0, || {
            format!(
                "{}: {regressed} confirmed tickets no longer read Confirmed",
                tag.as_str()
            )
        });
        rep.check(stats.confirmed == confirmed, || {
            format!(
                "{}: clients saw {confirmed} confirmations, stats count {}",
                tag.as_str(),
                stats.confirmed
            )
        });

        rep.ops += confirmed;
        rep.attempted += offered;
        rep.failed += failed;
        let p50 = percentile_f64(&confirm_s, 0.50);
        let p99 = percentile_f64(&confirm_s, 0.99);
        rep.outcome
            .push((tag.name("offered", ""), offered as f64, "count"));
        rep.outcome
            .push((tag.name("confirmed", ""), confirmed as f64, "count"));
        rep.outcome
            .push((tag.name("sim_confirm_p50_s", ""), p50, "s"));
        rep.outcome
            .push((tag.name("sim_confirm_p99_s", ""), p99, "s"));
        rep.outcome
            .push((tag.name("sim_s", ""), second as f64, "s"));
        confirm_all.extend(confirm_s);
        rep.layers
            .insert(tag.name("core.offered", ""), offered as f64);
        rep.layers
            .insert(tag.name("core.confirmed", ""), confirmed as f64);
        if let Some(probe) = probe {
            record_core_calls(probe, tag, &mut rep);
            adapter.record_layers(tag, &stats, &queue, &mut rep);
        }
    }
    rep.outcome
        .push(("sim_confirm_p50_s", percentile_f64(&confirm_all, 0.50), "s"));
    rep.outcome
        .push(("sim_confirm_p99_s", percentile_f64(&confirm_all, 0.99), "s"));
    rep.outcome
        .push(("sim_confirm_samples", confirm_all.len() as f64, "count"));
    rep
}
