//! One measured repetition and the statistics over repetitions.

use std::collections::BTreeMap;
use std::time::Instant;

/// The result of one repetition of a workload.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host seconds spent building fixtures.
    pub setup_s: f64,
    /// Host seconds of each slice of the measured phase, in order. A
    /// slice is a fixed amount of the workload's work (so many engine
    /// steps or workload ticks), the same in every repetition of a seed.
    pub slices_s: Vec<f64>,
    /// Completed operations of the measured phase (what `ops_per_s`
    /// counts), and their name in the report.
    pub ops: u64,
    pub ops_name: &'static str,
    /// The workload's timed call: its name in the report and how often
    /// it ran. Its latencies go to the run's pooled [`Latencies`].
    pub op_name: &'static str,
    pub op_calls: u64,
    /// The tail percentile reported for the timed call: the highest
    /// one that keeps at least ten samples beyond it in every run.
    pub tail: Tail,
    /// Simulated seconds the measured phase covered.
    pub sim_s: f64,
    /// What `failed_frac` counts: attempts and failures.
    pub attempted: u64,
    pub failed: u64,
    pub attempt_name: &'static str,
    /// Simulated outcome and call/event counts: name, value, unit.
    /// Identical for every repetition of one seed, traced or not.
    pub outcome: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics (traced repetitions only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Failed output checks.
    pub errors: Vec<String>,
}

impl Rep {
    /// Host seconds of the measured phase.
    pub fn measured_s(&self) -> f64 {
        self.slices_s.iter().sum()
    }

    /// Ends the current slice of the measured phase, begun at `since`,
    /// and begins the next.
    pub fn end_slice(&mut self, since: &mut Instant) {
        let now = Instant::now();
        self.slices_s.push(now.duration_since(*since).as_secs_f64());
        *since = now;
    }

    /// Describes the first difference in simulated outcome between two
    /// repetitions of the same seed, if any.
    pub fn outcome_diff(&self, other: &Rep) -> Option<String> {
        if (self.attempted, self.failed, self.ops, self.op_calls)
            != (other.attempted, other.failed, other.ops, other.op_calls)
        {
            return Some(format!(
                "attempted/failed/ops/calls {:?} vs {:?}",
                (self.attempted, self.failed, self.ops, self.op_calls),
                (other.attempted, other.failed, other.ops, other.op_calls)
            ));
        }
        if self.outcome.len() != other.outcome.len() {
            return Some("outcome row count".to_string());
        }
        self.outcome
            .iter()
            .zip(&other.outcome)
            .find(|(a, b)| a.0 != b.0 || a.1.to_bits() != b.1.to_bits())
            .map(|(a, b)| format!("{} = {} vs {}", a.0, a.1, b.1))
    }

    /// A hash of the simulated outcome, printed so two processes can be
    /// compared line for line.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |x: u64| {
            for byte in x.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        fold(self.attempted);
        fold(self.failed);
        fold(self.ops);
        fold(self.op_calls);
        for (_, value, _) in &self.outcome {
            fold(value.to_bits());
        }
        h
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Host latencies of one timed call, pooled over a run's repetitions:
/// every call is counted, and a uniform random sample of at most
/// `RESERVOIR` of them is kept (Vitter's algorithm R with a fixed-seed
/// generator), so percentiles are exact below that many calls and the
/// harness's memory stays small and constant above it.
pub struct Latencies {
    calls: u64,
    sample: Vec<u64>,
    rng: u64,
}

/// Latency samples kept per repetition.
pub const RESERVOIR: usize = 1 << 16;

impl Latencies {
    pub fn new() -> Self {
        Latencies {
            calls: 0,
            sample: Vec::with_capacity(RESERVOIR),
            rng: 0x9e37_79b9_7f4a_7c15,
        }
    }

    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Latency samples kept (what the percentiles are taken over).
    pub fn kept(&self) -> usize {
        self.sample.len()
    }

    /// Nearest-rank percentile in microseconds (0 with no samples).
    pub fn percentile_us(&mut self, q: f64) -> f64 {
        percentile(&mut self.sample, q) / 1e3
    }

    pub fn record(&mut self, ns: u64) {
        self.calls += 1;
        if self.sample.len() < RESERVOIR {
            self.sample.push(ns);
            return;
        }
        // xorshift64*
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        let r = self.rng.wrapping_mul(0x2545_f491_4f6c_dd1d);
        let slot = ((u128::from(r) * u128::from(self.calls)) >> 64) as usize;
        if slot < RESERVOIR {
            self.sample[slot] = ns;
        }
    }
}

/// Which tail percentile a workload reports.
#[derive(Debug, Default, Clone, Copy)]
pub enum Tail {
    /// p99: calls number in the thousands per run.
    #[default]
    P99,
    /// p99.9: the latency sample holds `RESERVOIR` calls.
    P999,
}

impl Tail {
    pub fn quantile(self) -> f64 {
        match self {
            Tail::P99 => 0.99,
            Tail::P999 => 0.999,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Tail::P99 => "p99",
            Tail::P999 => "p999",
        }
    }
}

/// The fastest time of each slice over several timings of the same
/// slices. Other tenants of a shared host only ever add time to a
/// slice, so its minimum over repetitions is its cost with the least
/// interference, and the sum of the minima is the steadiest estimate of
/// the whole phase. Fails if the timings do not cut the same slices.
pub fn fastest_slices<'a>(
    timings: impl IntoIterator<Item = &'a [f64]>,
) -> Result<Vec<f64>, String> {
    let mut fastest: Option<Vec<f64>> = None;
    for slices in timings {
        match &mut fastest {
            None => fastest = Some(slices.to_vec()),
            Some(f) if f.len() != slices.len() => {
                return Err(format!(
                    "{} measured slices where another repetition has {}",
                    slices.len(),
                    f.len()
                ))
            }
            Some(f) => f.iter_mut().zip(slices).for_each(|(f, s)| *f = f.min(*s)),
        }
    }
    Ok(fastest.unwrap_or_default())
}

/// Median of a sequence (0 for an empty one).
pub fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of integer samples (0 for no samples);
/// reorders `samples`.
pub fn percentile(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len()) - 1;
    let (_, nth, _) = samples.select_nth_unstable(rank);
    *nth as f64
}

/// Percentile of f64 samples (0 for no samples).
pub fn percentile_f64(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    v[rank]
}

/// The process's peak resident set in MB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Running mean and maximum of a sampled quantity.
#[derive(Debug, Default, Clone, Copy)]
pub struct Gauge {
    sum: f64,
    n: u64,
    max: f64,
}

impl Gauge {
    pub fn sample(&mut self, value: f64) {
        self.sum += value;
        self.n += 1;
        self.max = self.max.max(value);
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    pub fn max(&self) -> f64 {
        self.max
    }
}
