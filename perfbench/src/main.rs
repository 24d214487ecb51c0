//! `perfbench` — the end-to-end benchmark of dlt-compare.
//!
//! ```text
//! perfbench --workload <payments|wallets|gossip|votes> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --selfcheck
//! ```
//!
//! A run splits `--seconds` over [`CHILDREN`] fresh child processes of
//! the same workload and seed, run one after another. Each child builds
//! fresh fixtures (timed as set-up) and repeats the fixed, seeded
//! workload a fixed number of times (its share of the time over the
//! workload's nominal repetition time), checks every
//! repetition's outputs and that all repetitions agree exactly on their
//! simulated outcome, and reports its medians and the fastest time of
//! each fixed slice of the measured phase. Throughput is the work over
//! the sum of those slice minima over all children: on a shared host
//! other tenants slow a repetition for seconds at a time, and only add
//! time, never take it away. Children must also agree with each other on
//! the simulated outcome. The parent prints a report and one JSON line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A traced child alternates plain and traced repetitions,
//! so it also measures the tracing overhead and checks that tracing
//! leaves every simulated outcome unchanged. See `perfbench/README.md`.

mod engine;
mod gossip;
mod ledgers;
mod payments;
mod probe;
mod rep;
mod votes;
mod wallets;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

use dlt_testkit::json::{self, Json};

use probe::Probe;
use rep::{median, Latencies, Rep};

/// Fresh processes one run is split over.
const CHILDREN: usize = 3;
/// No child starts a new repetition after this much wall time, so a run
/// on a slow or loaded host still ends well inside its time limit.
const CHILD_WALL_CAP_S: f64 = 24.0;

/// Host seconds one repetition takes, set-up and checks included, on
/// the 2-vCPU host the benchmark was sized on. They fix how many
/// repetitions a child makes, so every run does the same work however
/// fast the host is: the first repetition in a process runs cold and
/// later ones warm, and a mix that followed the host's speed would move
/// the medians.
fn nominal_rep_s(workload: &str) -> f64 {
    match workload {
        "payments" => 1.2,
        "wallets" => 1.6,
        "gossip" => 1.75,
        "votes" => 1.0,
        _ => unreachable!("workload validated in parse_args"),
    }
}

/// Prefix of the line a child reports its summary on.
const CHILD_LINE: &str = "perfbench-child ";

/// The default seed and the held-out seed `--selfcheck` also runs.
const DEFAULT_SEED: u64 = 1;
const HELD_OUT_SEED: u64 = 9_973;

const WORKLOADS: [&str; 4] = ["payments", "wallets", "gossip", "votes"];

/// End-to-end metrics of the JSON line (untraced run): name and unit.
/// The report also prints the timed call's p50 and tail latency; they
/// are left out of the JSON because on a shared host their spread over
/// runs exceeds any useful regression bound.
const END_TO_END: [(&str, &str); 3] = [
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run): name and unit. A layer the workload
/// does not reach reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.submit.btc.calls", "count"),
    ("core.submit.btc.busy_s", "s"),
    ("core.submit.btc.rejected", "count"),
    ("core.submit.eth.calls", "count"),
    ("core.submit.eth.busy_s", "s"),
    ("core.submit.eth.rejected", "count"),
    ("core.submit.nano.calls", "count"),
    ("core.submit.nano.busy_s", "s"),
    ("core.submit.nano.rejected", "count"),
    ("core.status.btc.calls", "count"),
    ("core.status.btc.busy_s", "s"),
    ("core.status.eth.calls", "count"),
    ("core.status.eth.busy_s", "s"),
    ("core.status.nano.calls", "count"),
    ("core.status.nano.busy_s", "s"),
    ("core.stats.btc.busy_s", "s"),
    ("core.stats.eth.busy_s", "s"),
    ("core.stats.nano.busy_s", "s"),
    ("core.advance.btc.calls", "count"),
    ("core.advance.btc.busy_s", "s"),
    ("core.advance.eth.calls", "count"),
    ("core.advance.eth.busy_s", "s"),
    ("core.advance.nano.calls", "count"),
    ("core.advance.nano.busy_s", "s"),
    ("core.offered.btc", "count"),
    ("core.offered.eth", "count"),
    ("core.offered.nano", "count"),
    ("core.confirmed.btc", "count"),
    ("core.confirmed.eth", "count"),
    ("core.confirmed.nano", "count"),
    ("setup.btc_s", "s"),
    ("setup.eth_s", "s"),
    ("setup.nano_s", "s"),
    ("setup.net_s", "s"),
    ("chain.blocks.btc", "count"),
    ("chain.blocks.eth", "count"),
    ("chain.txs_per_block.btc", "count"),
    ("chain.txs_per_block.eth", "count"),
    ("chain.mempool_depth_mean.btc", "count"),
    ("chain.mempool_depth_mean.eth", "count"),
    ("chain.mempool_depth_max.btc", "count"),
    ("chain.mempool_depth_max.eth", "count"),
    ("chain.ledger_bytes.btc", "bytes"),
    ("chain.ledger_bytes.eth", "bytes"),
    ("chain.ledger_bytes.nano", "bytes"),
    ("lattice.pending_mean.nano", "count"),
    ("engine.gossip.dispatched", "count"),
    ("engine.gossip.scheduled", "count"),
    ("engine.gossip.net_dropped", "count"),
    ("engine.gossip.busy_s", "s"),
    ("engine.gossip.ns_per_event", "ns"),
    ("engine.gossip.queue_depth_mean", "count"),
    ("engine.gossip.queue_depth_max", "count"),
    ("engine.votes.dispatched", "count"),
    ("engine.votes.scheduled", "count"),
    ("engine.votes.net_dropped", "count"),
    ("engine.votes.busy_s", "s"),
    ("engine.votes.ns_per_event", "ns"),
    ("engine.votes.queue_depth_mean", "count"),
    ("engine.votes.queue_depth_max", "count"),
    ("fault.intercept.calls", "count"),
    ("fault.intercept.busy_s", "s"),
    ("fault.intercept.dropped", "count"),
    ("fault.intercept.extra_deliveries", "count"),
    ("miner.on_block.calls", "count"),
    ("miner.on_block.busy_s", "s"),
    ("miner.on_timer.calls", "count"),
    ("miner.on_timer.busy_s", "s"),
    ("miner.blocks_mined", "count"),
    ("miner.stale_blocks", "count"),
    ("miner.reorgs", "count"),
    ("miner.max_reorg_depth", "count"),
    ("miner.useful_block_ratio", "ratio"),
    ("miner.dup_block_ratio", "ratio"),
    ("dag.on_publish.calls", "count"),
    ("dag.on_publish.busy_s", "s"),
    ("dag.on_vote.calls", "count"),
    ("dag.on_vote.busy_s", "s"),
    ("dag.votes_cast", "count"),
    ("dag.forks_detected", "count"),
    ("dag.rollbacks", "count"),
    ("dag.confirmed", "count"),
    ("account.send.calls", "count"),
    ("account.send.busy_s", "s"),
    ("trace.overhead_frac.payments", "ratio"),
    ("trace.overhead_frac.wallets", "ratio"),
    ("trace.overhead_frac.gossip", "ratio"),
    ("trace.overhead_frac.votes", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run as one child process making this many repetitions (of each
    /// kind, when traced) and print its summary line.
    child_reps: Option<usize>,
}

enum Mode {
    Run(Args),
    SelfCheck,
}

fn parse_args() -> Result<Mode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--selfcheck") {
        return Ok(Mode::SelfCheck);
    }
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut child_reps = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--child-reps" => {
                child_reps = Some(value.parse().map_err(|e| format!("--child-reps: {e}"))?)
            }
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Mode::Run(Args {
        workload,
        seed,
        seconds,
        trace,
        child_reps,
    }))
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(Mode::SelfCheck) => selfcheck(),
        Ok(Mode::Run(args)) if args.child_reps.is_some() => {
            println!("{CHILD_LINE}{}", run_child(&args));
            ExitCode::SUCCESS
        }
        Ok(Mode::Run(args)) => run_parent(&args),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// One repetition of `workload`: fresh fixtures, measured phase,
/// output checks.
fn run_rep(workload: &str, seed: u64, probe: Option<&Probe>, latencies: &mut Latencies) -> Rep {
    match workload {
        "payments" => payments::run(seed, probe, latencies),
        "wallets" => wallets::run(seed, probe, latencies),
        "gossip" => gossip::run(seed, probe, latencies),
        "votes" => votes::run(seed, probe, latencies),
        _ => unreachable!("workload validated in parse_args"),
    }
}

/// Runs repetitions in this process and summarises them as JSON: the
/// medians, the pooled latency percentiles, the outcome of the first
/// repetition and every failed check.
fn run_child(args: &Args) -> Json {
    let started = Instant::now();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<(Rep, Probe)> = Vec::new();
    // Latencies of the plain repetitions, pooled for the percentiles.
    let mut latencies = Latencies::new();
    let reps = args.child_reps.unwrap_or(1).max(1);
    // The process's peak resident set when its first repetition ends.
    // Later repetitions reuse a heap the earlier ones fragmented, and
    // would add that to the peak.
    let mut peak_rss_mb = 0.0;
    loop {
        let enough = !plain.is_empty() && (!args.trace || !traced.is_empty());
        let all = plain.len() >= reps && (!args.trace || traced.len() >= reps);
        if all || (enough && started.elapsed().as_secs_f64() >= CHILD_WALL_CAP_S) {
            break;
        }
        // A traced child alternates plain and traced repetitions so
        // both see the same host conditions.
        if args.trace && traced.len() < plain.len() {
            let probe = Probe::new();
            let rep = run_rep(
                &args.workload,
                args.seed,
                Some(&probe),
                &mut Latencies::new(),
            );
            traced.push((rep, probe));
        } else {
            plain.push(run_rep(&args.workload, args.seed, None, &mut latencies));
            if plain.len() == 1 {
                peak_rss_mb = rep::peak_rss_mb();
            }
        }
    }

    // Every repetition, plain or traced, must reproduce the first one's
    // simulated outcome exactly.
    let first = &plain[0];
    let mut errors: Vec<Json> = Vec::new();
    for (i, rep) in plain
        .iter()
        .chain(traced.iter().map(|(r, _)| r))
        .enumerate()
    {
        errors.extend(
            rep.errors
                .iter()
                .map(|e| Json::string(format!("rep {i}: {e}"))),
        );
        if let Some(diff) = first.outcome_diff(rep) {
            errors.push(Json::string(format!("rep {i} differs from rep 0: {diff}")));
        }
    }

    let mut layers: BTreeMap<String, Json> = BTreeMap::new();
    if !traced.is_empty() {
        for (name, _) in PER_LAYER {
            let value = median(
                traced
                    .iter()
                    .map(|(r, _)| r.layers.get(*name).copied().unwrap_or(0.0)),
            );
            layers.insert(name.to_string(), Json::number(value));
        }
        let overhead = median(traced.iter().map(|(r, _)| r.measured_s()))
            / median(plain.iter().map(Rep::measured_s))
            - 1.0;
        layers.insert(
            format!("trace.overhead_frac.{}", args.workload),
            Json::number(overhead),
        );
    }
    if let Some((_, probe)) = traced.last() {
        let dir = std::env::var("CARGO_TARGET_DIR")
            .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/target").into());
        let path = std::path::Path::new(&dir)
            .join("perfbench-spans")
            .join(format!("{}-seed{}.tsv", args.workload, args.seed));
        if let Err(e) = probe.write_spans(&path) {
            errors.push(Json::string(format!(
                "spans not written to {}: {e}",
                path.display()
            )));
        }
    }

    let fastest = match rep::fastest_slices(plain.iter().map(|r| r.slices_s.as_slice())) {
        Ok(fastest) => fastest,
        Err(e) => {
            errors.push(Json::string(e));
            Vec::new()
        }
    };

    let num = Json::number;
    let per_rep: Vec<String> = plain
        .iter()
        .map(|r| format!("{:.3}+{:.3}", r.setup_s, r.measured_s()))
        .collect();
    let outcome: Vec<Json> = first
        .outcome
        .iter()
        .map(|(name, value, unit)| {
            Json::Array(vec![Json::string(*name), num(*value), Json::string(*unit)])
        })
        .collect();
    Json::object([
        ("reps", num(plain.len() as f64)),
        ("traced_reps", num(traced.len() as f64)),
        ("ops", num(first.ops as f64)),
        (
            "fastest_s",
            Json::Array(fastest.iter().copied().map(num).collect()),
        ),
        ("setup_s", num(median(plain.iter().map(|r| r.setup_s)))),
        ("peak_rss_mb", num(peak_rss_mb)),
        ("p50_us", num(latencies.percentile_us(0.50))),
        (
            "tail_us",
            num(latencies.percentile_us(first.tail.quantile())),
        ),
        ("calls", num(latencies.calls() as f64)),
        ("kept", num(latencies.kept() as f64)),
        ("ops_name", Json::string(first.ops_name)),
        ("op_name", Json::string(first.op_name)),
        ("tail_label", Json::string(first.tail.label())),
        ("tail_q", num(first.tail.quantile())),
        ("attempt_name", Json::string(first.attempt_name)),
        ("attempted", num(first.attempted as f64)),
        ("failed", num(first.failed as f64)),
        ("sim_s", num(first.sim_s)),
        (
            "fingerprint",
            Json::string(format!("{:016x}", first.fingerprint())),
        ),
        ("per_rep", Json::string(per_rep.join(" "))),
        ("outcome", Json::Array(outcome)),
        ("errors", Json::Array(errors)),
        ("layers", Json::Object(layers)),
    ])
}

/// Runs the children one after another and returns their summaries,
/// or the reason a child gave none.
fn run_children(args: &Args) -> Vec<Result<Json, String>> {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return vec![Err(format!("own executable path: {e}"))],
    };
    // A traced child makes each repetition twice, plain and traced.
    let share = args.seconds / CHILDREN as f64 / if args.trace { 2.0 } else { 1.0 };
    let reps = ((share / nominal_rep_s(&args.workload)) as usize).max(1);
    (0..CHILDREN)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--child-reps", &reps.to_string()])
                .args(["--workload", &args.workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .output()
                .map_err(|e| format!("spawn child: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout
                .lines()
                .find_map(|l| l.strip_prefix(CHILD_LINE))
                .ok_or_else(|| {
                    format!(
                        "child exited with {} and no summary: {}",
                        out.status,
                        String::from_utf8_lossy(&out.stderr).trim()
                    )
                })?;
            json::parse(line).map_err(|e| format!("child summary: {e:?}"))
        })
        .collect()
}

fn field(summary: &Json, key: &str) -> f64 {
    summary.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// The fastest time of each measured slice in one child's summary.
fn fastest_s(summary: &Json) -> Vec<f64> {
    summary
        .get("fastest_s")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

fn text<'a>(summary: &'a Json, key: &str) -> &'a str {
    summary.get(key).and_then(Json::as_str).unwrap_or("")
}

fn run_parent(args: &Args) -> ExitCode {
    let mut errors: Vec<String> = Vec::new();
    let mut children: Vec<Json> = Vec::new();
    for (i, child) in run_children(args).into_iter().enumerate() {
        match child {
            Ok(summary) => children.push(summary),
            Err(e) => errors.push(format!("child {i}: {e}")),
        }
    }
    let Some(first) = children.first() else {
        for e in &errors {
            eprintln!("perfbench: {e}");
        }
        return ExitCode::FAILURE;
    };
    for (i, child) in children.iter().enumerate() {
        for e in child.get("errors").and_then(Json::as_array).unwrap_or(&[]) {
            errors.push(format!("child {i}: {}", e.as_str().unwrap_or("?")));
        }
        // Fresh processes must agree on the simulated outcome exactly.
        if text(child, "fingerprint") != text(first, "fingerprint") {
            errors.push(format!(
                "child {i} outcome_fingerprint {} differs from child 0's {}",
                text(child, "fingerprint"),
                text(first, "fingerprint")
            ));
        }
    }
    let over_children = |key: &str| median(children.iter().map(|c| field(c, key)));
    // The measured phase at its least interference: each slice's fastest
    // time over every repetition of every child.
    let slices: Vec<Vec<f64>> = children.iter().map(fastest_s).collect();
    let best_s: f64 = match rep::fastest_slices(slices.iter().map(Vec::as_slice)) {
        Ok(fastest) => fastest.iter().sum(),
        Err(e) => {
            errors.push(format!("children disagree: {e}"));
            f64::NAN
        }
    };
    let ops_per_s = field(first, "ops") / best_s;

    print_report(args, &children, &over_children, best_s);
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let value = median(children.iter().map(|c| {
                    c.get("layers")
                        .and_then(|l| l.get(name))
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0)
                }));
                (*name, value, *unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit)| {
                let value = match *name {
                    "ops_per_s" => ops_per_s,
                    _ => over_children(name),
                };
                (*name, value, *unit)
            })
            .collect()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        errors.is_empty(),
        field(first, "attempted"),
        field(first, "failed"),
        body.join(", ")
    );
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Formats a finite number for JSON with all its digits.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn print_report(args: &Args, children: &[Json], over_children: &dyn Fn(&str) -> f64, best_s: f64) {
    let first = &children[0];
    let reps: Vec<String> = children
        .iter()
        .map(|c| field(c, "reps").to_string())
        .collect();
    println!(
        "perfbench workload={} seed={} trace={} children={} reps per child: {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        children.len(),
        reps.join(" ")
    );
    println!(
        "  note: arrivals are scheduled in simulated time, so generator lateness is zero by construction"
    );
    println!(
        "  rates use the sum over measured slices of each slice's fastest time in any repetition;"
    );
    println!("  other host metrics are medians over the children, each over its repetitions");
    let (ops, call, tail) = (
        text(first, "ops_name"),
        text(first, "op_name"),
        text(first, "tail_label"),
    );
    let calls = field(first, "calls");
    let kept = field(first, "kept");
    let beyond = (kept * (1.0 - field(first, "tail_q"))).round();
    let attempted = field(first, "attempted");
    let failed = field(first, "failed");
    let rows = [
        (
            format!("{ops}_per_s"),
            field(first, "ops") / best_s,
            "1/s",
            format!(
                "{} {ops} per rep over {} slices in {best_s:.4} s",
                field(first, "ops"),
                fastest_s(first).len()
            ),
        ),
        (
            format!("{call}_p50_us"),
            over_children("p50_us"),
            "us",
            format!("{calls} timed calls per child, {kept} sampled"),
        ),
        (
            format!("{call}_{tail}_us"),
            over_children("tail_us"),
            "us",
            format!("{beyond} sampled calls beyond"),
        ),
        (
            "sim_s_per_s".to_string(),
            field(first, "sim_s") / best_s,
            "s/s",
            format!("{} simulated s per rep", field(first, "sim_s")),
        ),
        (
            "setup_s".to_string(),
            over_children("setup_s"),
            "s",
            String::new(),
        ),
        (
            "peak_rss_mb".to_string(),
            over_children("peak_rss_mb"),
            "MB",
            "fresh process, one repetition".to_string(),
        ),
        (
            "failed_frac".to_string(),
            failed / attempted.max(1.0),
            "ratio",
            format!("{failed} of {attempted} {}", text(first, "attempt_name")),
        ),
    ];
    for (name, value, unit, note) in rows {
        println!(
            "  {:<36} {:>14.4} {:<6} {note}",
            format!("{}.{name}", args.workload),
            value,
            unit
        );
    }
    for (i, child) in children.iter().enumerate() {
        println!(
            "  child {i}: ops_per_s {:.1}, per-rep host s (setup+measured): {}",
            field(child, "ops") / fastest_s(child).iter().sum::<f64>(),
            text(child, "per_rep")
        );
    }
    for row in first.get("outcome").and_then(Json::as_array).unwrap_or(&[]) {
        let cell = |i: usize| row.as_array().and_then(|r| r.get(i));
        println!(
            "  {:<36} {:>14.4} {}",
            format!(
                "{}.{}",
                args.workload,
                cell(0).and_then(Json::as_str).unwrap_or("?")
            ),
            cell(1).and_then(Json::as_f64).unwrap_or(0.0),
            cell(2).and_then(Json::as_str).unwrap_or("")
        );
    }
    println!("  outcome_fingerprint {}", text(first, "fingerprint"));
}

/// Runs every workload on the default seed and on the held-out seed.
/// Each run already compares several fresh processes, so this checks
/// cross-process determinism on both seeds and that the held-out seed
/// passes every output check.
fn selfcheck() -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for workload in WORKLOADS {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let out = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", "0.001", "--trace", "0"])
                .output()
                .expect("spawn perfbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let passed = out.status.success()
                && stdout
                    .lines()
                    .last()
                    .is_some_and(|l| l.starts_with("{\"correct\": true"));
            let fingerprint = stdout
                .lines()
                .find(|l| l.contains("outcome_fingerprint"))
                .unwrap_or("no fingerprint")
                .trim();
            println!(
                "selfcheck {workload} seed={seed}: {} ({fingerprint})",
                if passed { "pass" } else { "FAIL" }
            );
            ok &= passed;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
