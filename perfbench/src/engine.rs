//! Driving a `dlt-sim` simulation from the benchmark: timed stepping
//! and the engine's per-layer readings.

use std::collections::BTreeMap;
use std::time::Instant;

use dlt_sim::engine::{SimNode, Simulation};

use crate::probe::{static_name, EngineCounts, Probe};
use crate::rep::Latencies;

/// Engine steps per measured slice (about 10 ms of host time).
const SLICE_STEPS: u64 = 4096;
/// One step in this many is timed into the latency sample. A step
/// takes a few microseconds, so reading the clock around every one
/// would add a share of its own to what it measures.
const LATENCY_STRIDE: u64 = 16;

/// Steps `sim` until its queue is empty, timing every
/// `LATENCY_STRIDE`-th `step()` call into `latencies`. Returns the
/// number of steps and the host seconds of every `SLICE_STEPS` steps
/// (the last slice holds the rest).
/// In the traced run each step is also an `engine.step` span, whose
/// self time excludes the node callbacks (and the interceptor calls
/// nested in them).
pub fn step_until_idle<M, N: SimNode<M>>(
    sim: &mut Simulation<M, N>,
    probe: Option<&Probe>,
    latencies: &mut Latencies,
) -> (u64, Vec<f64>) {
    let mut steps = 0;
    let mut slices = Vec::new();
    let mut slice = Instant::now();
    let mut step = || match probe {
        None => sim.step(),
        Some(probe) => probe.span(probe.span_id("engine.step"), || sim.step()),
    };
    loop {
        let timed = (steps % LATENCY_STRIDE == 0).then(Instant::now);
        if !step() {
            break;
        }
        if let Some(t0) = timed {
            latencies.record(t0.elapsed().as_nanos() as u64);
        }
        steps += 1;
        if steps % SLICE_STEPS == 0 {
            let now = Instant::now();
            slices.push(now.duration_since(slice).as_secs_f64());
            slice = now;
        }
    }
    slices.push(slice.elapsed().as_secs_f64());
    (steps, slices)
}

/// Records `engine.<workload>.*` from the counting tracer and the
/// `engine.step` spans.
pub fn record_engine(
    probe: &Probe,
    counts: &EngineCounts,
    workload: &str,
    layers: &mut BTreeMap<&'static str, f64>,
) {
    let busy_s = probe.self_s("engine.step");
    let dispatched = counts.dispatched.max(1) as f64;
    let mut put = |name: &str, value: f64| {
        layers.insert(static_name(&format!("engine.{workload}.{name}")), value);
    };
    put("dispatched", counts.dispatched as f64);
    put("scheduled", counts.scheduled as f64);
    put("net_dropped", counts.dropped as f64);
    put("busy_s", busy_s);
    put("ns_per_event", busy_s * 1e9 / dispatched);
    put("queue_depth_mean", counts.depth_sum as f64 / dispatched);
    put("queue_depth_max", counts.depth_max as f64);
}
