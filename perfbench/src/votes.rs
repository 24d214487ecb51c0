//! `votes` — DAG elections and tallies (the `dlt_bench::faults`
//! `dag_fixture` shape, scaled up).
//!
//! `REPS` equal-weight representatives, each a DAG node. A steady
//! stream of MSS-signed sends, signed during set-up, is published
//! round-robin: send `i` comes from representative `i % REPS`'s account
//! and is published at that representative's node. Every
//! `DOUBLE_EVERY`-th slot an attacker account also publishes a
//! double-send: two conflicting sends for one chain position, the
//! second at another node `DOUBLE_LAG` later. Representatives vote on
//! what they accept, votes flood to quorum and confirmed blocks are
//! cemented. The benchmark steps the engine until its queue is empty.

use std::time::Instant;

use dlt_crypto::keys::Address;
use dlt_crypto::Digest;
use dlt_dag::account::NanoAccount;
use dlt_dag::block::LatticeBlock;
use dlt_dag::lattice::LatticeParams;
use dlt_dag::node::{DagMsg, DagNode, DagNodeConfig};
use dlt_sim::engine::Simulation;
use dlt_sim::latency::LatencyModel;
use dlt_sim::network::NodeId;
use dlt_sim::rng::SimRng;
use dlt_sim::time::SimTime;

use crate::engine::{record_engine, step_until_idle};
use crate::probe::{CountingTracer, Node, Probe};
use crate::rep::{Latencies, Rep, Tail};

const REPS: usize = 16;
/// Ordinary sends, one every `GAP`.
const SENDS: usize = 32;
const GAP: SimTime = SimTime::from_millis(50);
/// A double-send every this many slots, its second half `DOUBLE_LAG`
/// after the first.
const DOUBLE_EVERY: usize = 8;
const DOUBLE_LAG: SimTime = SimTime::from_millis(150);
const DOUBLES: usize = SENDS / DOUBLE_EVERY;
const SUPPLY: u64 = 1_000_000;
/// An attacker's funding: too little to weigh in any election.
const ATTACKER_FUNDS: u64 = 100;
const WORK_BITS: u32 = 2;
/// A representative signs its opening receive and `SENDS / REPS` sends.
const REP_KEY_HEIGHT: u32 = 2;
/// An attacker signs its opening receive and one (forked) send.
const ATTACKER_KEY_HEIGHT: u32 = 1;
const LATENCY_MEDIAN: SimTime = SimTime::from_millis(80);
const LATENCY_SIGMA: f64 = 0.3;

type Net = Simulation<DagMsg, Node<DagMsg, DagNode>>;

fn params() -> LatticeParams {
    LatticeParams {
        work_difficulty_bits: WORK_BITS,
        verify_signatures: true,
        verify_work: true,
    }
}

fn key_seed(seed: u64, role: u8, index: usize) -> [u8; 32] {
    let mut out = [0u8; 32];
    out[..8].copy_from_slice(&seed.to_be_bytes());
    out[8..16].copy_from_slice(&(index as u64).to_be_bytes());
    out[31] = role;
    out
}

/// Everything set-up produces: the network and the published blocks.
struct Fixture {
    sim: Net,
    /// Hashes of the ordinary sends.
    sends: Vec<Digest>,
    /// The two halves of each double-send.
    doubles: Vec<(Digest, Digest)>,
}

fn build(seed: u64, probe: Option<&Probe>) -> Fixture {
    let send_span = probe.map(|p| p.span_id("account.send"));
    let sign = |account: &mut NanoAccount, to: Address, amount: u64| -> LatticeBlock {
        let mut go = || {
            account
                .send(to, amount)
                .expect("funded account with key capacity")
        };
        match (probe, send_span) {
            (Some(p), Some(id)) => p.span(id, go),
            _ => go(),
        }
    };

    let genesis_height = (1 + REPS + DOUBLES).next_power_of_two().trailing_zeros() + 1;
    let mut genesis = NanoAccount::from_seed(key_seed(seed, 0, 0), genesis_height, WORK_BITS);
    let genesis_block = genesis.genesis_block(SUPPLY);
    let mut reps: Vec<NanoAccount> = (0..REPS)
        .map(|i| NanoAccount::from_seed(key_seed(seed, 1, i), REP_KEY_HEIGHT, WORK_BITS))
        .collect();
    let mut attackers: Vec<NanoAccount> = (0..DOUBLES)
        .map(|i| NanoAccount::from_seed(key_seed(seed, 2, i), ATTACKER_KEY_HEIGHT, WORK_BITS))
        .collect();

    // Pre-network ledger: every representative gets an equal share and
    // every attacker a token amount, all from genesis.
    let share = (SUPPLY - ATTACKER_FUNDS * DOUBLES as u64) / (REPS as u64 + 1);
    let mut bootstrap = Vec::new();
    for (account, amount) in reps
        .iter_mut()
        .map(|a| (a, share))
        .chain(attackers.iter_mut().map(|a| (a, ATTACKER_FUNDS)))
    {
        let send = sign(&mut genesis, account.address(), amount);
        let hash = send.hash();
        bootstrap.push(send);
        bootstrap.push(account.receive(hash, amount).expect("fresh key"));
    }

    let mut sim: Net = Simulation::new(
        seed,
        LatencyModel::LogNormal {
            median: LATENCY_MEDIAN,
            sigma: LATENCY_SIGMA,
        },
    );
    for rep in &reps {
        let config = DagNodeConfig {
            representative: Some(rep.address()),
            quorum_fraction: 0.5,
            cement_on_confirm: true,
        };
        let mut node = DagNode::new(params(), genesis_block.clone(), config);
        for block in &bootstrap {
            node.bootstrap(block.clone());
        }
        sim.add_node(Node::new(node, u64::MAX, probe));
    }

    // The workload: ordinary sends round-robin, plus double-sends.
    let mut rng = SimRng::new(seed ^ 0x766f_7465);
    let mut sends = Vec::with_capacity(SENDS);
    let mut doubles = Vec::with_capacity(DOUBLES);
    for i in 0..SENDS {
        let at = GAP.mul(i as u64 + 1);
        let sender = i % REPS;
        let to = Address::from_label(&format!("shop-{}", rng.below(64)));
        let block = sign(&mut reps[sender], to, 1 + rng.below(10));
        sends.push(block.hash());
        sim.deliver_at(at, NodeId(sender), NodeId(sender), DagMsg::Publish(block));
        if i % DOUBLE_EVERY == DOUBLE_EVERY / 2 {
            let attacker = &mut attackers[doubles.len()];
            let mut fork = attacker.fork_state();
            let honest = sign(attacker, Address::from_label("merchant"), ATTACKER_FUNDS);
            let double = sign(&mut fork, Address::from_label("mule"), ATTACKER_FUNDS);
            doubles.push((honest.hash(), double.hash()));
            let first = rng.below(REPS as u64) as usize;
            let second = (first + 1 + rng.below(REPS as u64 - 1) as usize) % REPS;
            sim.deliver_at(at, NodeId(first), NodeId(first), DagMsg::Publish(honest));
            sim.deliver_at(
                at.saturating_add(DOUBLE_LAG),
                NodeId(second),
                NodeId(second),
                DagMsg::Publish(double),
            );
        }
    }
    Fixture {
        sim,
        sends,
        doubles,
    }
}

pub fn run(seed: u64, probe: Option<&Probe>, latencies: &mut Latencies) -> Rep {
    let mut rep = Rep {
        ops_name: "events",
        op_name: "step",
        tail: Tail::P999,
        attempt_name: "sends cemented at every representative",
        ..Rep::default()
    };
    let started = Instant::now();
    let Fixture {
        mut sim,
        sends,
        doubles,
    } = build(seed, probe);
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
    rep.sim_s = sim.now().as_secs_f64();

    // Output checks (untimed).
    let nodes: Vec<&DagNode> = sim.nodes().iter().map(|n| n.inner()).collect();
    let not_cemented = sends
        .iter()
        .filter(|h| {
            !nodes
                .iter()
                .all(|n| n.is_confirmed(h) && n.lattice().is_cemented(h))
        })
        .count();
    rep.attempted = SENDS as u64;
    rep.failed = not_cemented as u64;
    rep.check(not_cemented == 0, || {
        format!("{not_cemented} of {SENDS} sends not cemented at every representative")
    });
    let mut resolved = 0;
    for (k, (a, b)) in doubles.iter().enumerate() {
        let winners: Vec<(bool, bool)> = nodes
            .iter()
            .map(|n| (n.is_confirmed(a), n.is_confirmed(b)))
            .collect();
        rep.check(!winners.iter().any(|&(x, y)| x && y), || {
            format!("double-send {k}: a representative confirmed both halves")
        });
        rep.check(winners.iter().all(|w| *w == winners[0]), || {
            format!("double-send {k}: representatives disagree on the winner")
        });
        resolved += usize::from(winners[0].0 || winners[0].1);
    }
    for (i, node) in nodes.iter().enumerate() {
        rep.check(node.lattice().circulating_total() == SUPPLY, || {
            format!(
                "representative {i}: supply {} != {SUPPLY}",
                node.lattice().circulating_total()
            )
        });
    }

    let metrics = sim.metrics();
    let confirm_ms = |q| {
        metrics
            .percentile("dag.confirm_latency_ms", q)
            .unwrap_or(0.0)
    };
    rep.outcome = vec![
        ("sim_confirm_p50_s", confirm_ms(0.50) / 1e3, "s"),
        ("sim_confirm_p99_s", confirm_ms(0.99) / 1e3, "s"),
        (
            "sim_confirm_samples",
            metrics.len("dag.confirm_latency_ms") as f64,
            "count",
        ),
        ("double_sends_resolved", resolved as f64, "count"),
        (
            "votes_cast",
            metrics.count("dag.votes_cast") as f64,
            "count",
        ),
        (
            "forks_detected",
            metrics.count("dag.forks_detected") as f64,
            "count",
        ),
        (
            "net_messages",
            metrics.count("net.messages") as f64,
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
        record_engine(probe, &c, "votes", layers);
        for span in ["dag.on_publish", "dag.on_vote", "account.send"] {
            layers.insert(
                crate::probe::static_name(&format!("{span}.calls")),
                probe.calls(span) as f64,
            );
            layers.insert(
                crate::probe::static_name(&format!("{span}.busy_s")),
                probe.self_s(span),
            );
        }
        layers.insert("dag.votes_cast", metrics.count("dag.votes_cast") as f64);
        layers.insert(
            "dag.forks_detected",
            metrics.count("dag.forks_detected") as f64,
        );
        layers.insert(
            "dag.rollbacks",
            metrics.count("dag.losing_branches_rolled_back") as f64,
        );
        layers.insert(
            "dag.confirmed",
            metrics.count("dag.blocks_confirmed") as f64,
        );
    }
    rep
}
