//! The traced run's instruments, built only from the program's public
//! traits and calls.
//!
//! A [`Probe`] records nested spans (name, start, end, parent) and
//! named counters. The wrappers below feed it from the layer
//! boundaries the benchmark can see from outside the program:
//!
//! * [`TimedLedger`] — a `DistributedLedger` decorator (`core.*`);
//! * [`Node`] — a `SimNode` wrapper timing `on_message` per message
//!   kind and `on_timer` (`miner.*`, `dag.*`);
//! * [`TimedInterceptor`] — an `Interceptor` wrapper (`fault.*`);
//! * [`CountingTracer`] — a `Tracer` counting schedule, dispatch and
//!   drop events and tracking the exact queue depth (`engine.*`).
//!
//! Spans stay in memory; per-name totals are kept for every span and
//! the first [`RAW_SPAN_CAP`] spans are kept whole and written out by
//! [`Probe::write_spans`] when the run ends. A span's self time is its
//! duration minus the time its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use dlt_blockchain::node::NetMsg;
use dlt_core::ledger::{DistributedLedger, LedgerStats, TxStatus};
use dlt_crypto::Digest;
use dlt_dag::node::DagMsg;
use dlt_sim::engine::{Context, Payload, SimNode};
use dlt_sim::fault::Interceptor;
use dlt_sim::metrics::CounterId;
use dlt_sim::network::NodeId;
use dlt_sim::time::SimTime;
use dlt_sim::trace::{TraceEvent, Tracer};

/// Spans kept whole for the span file; later spans only add to the
/// per-name totals.
pub const RAW_SPAN_CAP: usize = 200_000;

/// An interned span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone, Copy)]
struct RawSpan {
    name: SpanId,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

struct Open {
    name: SpanId,
    start: Instant,
    child_ns: u64,
    raw: Option<u32>,
}

#[derive(Default, Clone, Copy)]
struct Totals {
    calls: u64,
    self_ns: u64,
}

struct Inner {
    epoch: Instant,
    names: Vec<&'static str>,
    totals: Vec<Totals>,
    stack: Vec<Open>,
    raw: Vec<RawSpan>,
    counters: BTreeMap<&'static str, f64>,
}

/// Shared span and counter store of one traced repetition.
#[derive(Clone)]
pub struct Probe(Rc<RefCell<Inner>>);

impl Probe {
    pub fn new() -> Self {
        Probe(Rc::new(RefCell::new(Inner {
            epoch: Instant::now(),
            names: Vec::new(),
            totals: Vec::new(),
            stack: Vec::new(),
            raw: Vec::new(),
            counters: BTreeMap::new(),
        })))
    }

    /// Interns a span name (idempotent).
    pub fn span_id(&self, name: &'static str) -> SpanId {
        let mut inner = self.0.borrow_mut();
        if let Some(i) = inner.names.iter().position(|n| *n == name) {
            return SpanId(i);
        }
        inner.names.push(name);
        inner.totals.push(Totals::default());
        SpanId(inner.names.len() - 1)
    }

    /// Runs `f` inside a span. The store is not borrowed while `f`
    /// runs, so spans nest freely.
    pub fn span<R>(&self, id: SpanId, f: impl FnOnce() -> R) -> R {
        self.enter(id);
        let out = f();
        self.exit();
        out
    }

    fn enter(&self, name: SpanId) {
        let mut inner = self.0.borrow_mut();
        let start = Instant::now();
        let raw = if inner.raw.len() < RAW_SPAN_CAP {
            let parent = inner.stack.last().and_then(|open| open.raw);
            let start_ns = start.duration_since(inner.epoch).as_nanos() as u64;
            inner.raw.push(RawSpan {
                name,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            Some((inner.raw.len() - 1) as u32)
        } else {
            None
        };
        inner.stack.push(Open {
            name,
            start,
            child_ns: 0,
            raw,
        });
    }

    fn exit(&self) {
        let end = Instant::now();
        let mut inner = self.0.borrow_mut();
        let open = inner.stack.pop().expect("span exit matches an enter");
        let duration = end.duration_since(open.start).as_nanos() as u64;
        let totals = &mut inner.totals[open.name.0];
        totals.calls += 1;
        totals.self_ns += duration.saturating_sub(open.child_ns);
        if let Some(i) = open.raw {
            let end_ns = end.duration_since(inner.epoch).as_nanos() as u64;
            inner.raw[i as usize].end_ns = end_ns;
        }
        if let Some(parent) = inner.stack.last_mut() {
            parent.child_ns += duration;
        }
    }

    /// Adds `by` to a named counter.
    pub fn add(&self, name: &'static str, by: f64) {
        *self.0.borrow_mut().counters.entry(name).or_insert(0.0) += by;
    }

    /// A counter's value (0 when never touched).
    pub fn counter(&self, name: &str) -> f64 {
        self.0.borrow().counters.get(name).copied().unwrap_or(0.0)
    }

    /// Calls made to a span (0 when never entered).
    pub fn calls(&self, name: &str) -> u64 {
        self.totals(name).calls
    }

    /// Self time of a span in seconds (0 when never entered).
    pub fn self_s(&self, name: &str) -> f64 {
        self.totals(name).self_ns as f64 / 1e9
    }

    fn totals(&self, name: &str) -> Totals {
        let inner = self.0.borrow();
        inner
            .names
            .iter()
            .position(|n| *n == name)
            .map_or_else(Totals::default, |i| inner.totals[i])
    }

    /// Writes the whole spans as tab-separated `index parent name
    /// start_ns end_ns` rows (parent `-` for a root span).
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let inner = self.0.borrow();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tparent\tname\tstart_ns\tend_ns")?;
        for (i, span) in inner.raw.iter().enumerate() {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}",
                inner.names[span.name.0], span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

// ---------------------------------------------------------------------
// core: DistributedLedger decorator
// ---------------------------------------------------------------------

/// The span ids and counter name one adapter's calls are recorded
/// under, interned once per repetition.
pub struct LedgerTiming {
    probe: Probe,
    rejected: &'static str,
    submit: SpanId,
    advance: SpanId,
    status: SpanId,
    stats: SpanId,
}

impl LedgerTiming {
    pub fn new(probe: &Probe, tag: Tag) -> Self {
        LedgerTiming {
            rejected: tag.name("core.submit", "rejected"),
            submit: probe.span_id(tag.name("core.submit", "")),
            advance: probe.span_id(tag.name("core.advance", "")),
            status: probe.span_id(tag.name("core.status", "")),
            stats: probe.span_id(tag.name("core.stats", "")),
            probe: probe.clone(),
        }
    }

    /// Wraps `inner` in the timing decorator (cheap: two references).
    pub fn wrap<'a>(&'a self, inner: &'a mut dyn DistributedLedger) -> TimedLedger<'a> {
        TimedLedger {
            inner,
            timing: self,
        }
    }
}

/// Times every `DistributedLedger` call of one adapter as
/// `core.<call>.<tag>` spans and counts rejected submissions.
pub struct TimedLedger<'a> {
    inner: &'a mut dyn DistributedLedger,
    timing: &'a LedgerTiming,
}

impl DistributedLedger for TimedLedger<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn actor_count(&self) -> usize {
        self.inner.actor_count()
    }

    fn submit_transfer(&mut self, from: usize, to: usize, amount: u64) -> Option<Digest> {
        let t = self.timing;
        let inner = &mut *self.inner;
        let ticket = t
            .probe
            .span(t.submit, || inner.submit_transfer(from, to, amount));
        if ticket.is_none() {
            t.probe.add(t.rejected, 1.0);
        }
        ticket
    }

    fn advance(&mut self, dt: SimTime) {
        let t = self.timing;
        let inner = &mut *self.inner;
        t.probe.span(t.advance, || inner.advance(dt));
    }

    fn status(&self, ticket: &Digest) -> TxStatus {
        let t = self.timing;
        t.probe.span(t.status, || self.inner.status(ticket))
    }

    fn stats(&self) -> LedgerStats {
        let t = self.timing;
        t.probe.span(t.stats, || self.inner.stats())
    }
}

/// The three adapters, as metric-name suffixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    Btc,
    Eth,
    Nano,
}

impl Tag {
    pub const ALL: [Tag; 3] = [Tag::Btc, Tag::Eth, Tag::Nano];

    pub fn as_str(self) -> &'static str {
        match self {
            Tag::Btc => "btc",
            Tag::Eth => "eth",
            Tag::Nano => "nano",
        }
    }

    /// `"<prefix>.<tag>"`, or `"<prefix>.<tag>.<suffix>"` — interned
    /// as `'static` names from a fixed table.
    pub fn name(self, prefix: &str, suffix: &str) -> &'static str {
        static_name(&if suffix.is_empty() {
            format!("{prefix}.{}", self.as_str())
        } else {
            format!("{prefix}.{}.{suffix}", self.as_str())
        })
    }
}

/// Interns a metric name for the life of the process. The name set is
/// small and fixed, so the leak is bounded.
pub fn static_name(name: &str) -> &'static str {
    thread_local! {
        static NAMES: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    }
    NAMES.with(|names| {
        let mut names = names.borrow_mut();
        if let Some(found) = names.iter().find(|n| **n == name) {
            return *found;
        }
        let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
        names.push(leaked);
        leaked
    })
}

// ---------------------------------------------------------------------
// miner / dag: SimNode wrapper
// ---------------------------------------------------------------------

/// Message kinds the node wrapper times separately.
pub trait MsgKind {
    /// Span names of the callbacks, indexed by [`MsgKind::kind`].
    const SPANS: [&'static str; 2];
    /// Which of [`MsgKind::SPANS`] handles this message.
    fn kind(&self) -> usize;
}

impl<T> MsgKind for NetMsg<T> {
    const SPANS: [&'static str; 2] = ["miner.on_block", "miner.on_tx"];
    fn kind(&self) -> usize {
        match self {
            NetMsg::Block(_) => 0,
            NetMsg::Tx(_) => 1,
        }
    }
}

impl MsgKind for DagMsg {
    const SPANS: [&'static str; 2] = ["dag.on_publish", "dag.on_vote"];
    fn kind(&self) -> usize {
        match self {
            DagMsg::Publish(_) => 0,
            DagMsg::Vote(_) => 1,
        }
    }
}

/// The miners' count of blocks mined, shared by all nodes of a network.
const BLOCKS_MINED: &str = "node.blocks_mined";

/// The benchmark's node wrapper, used in both runs. Timers (mining
/// attempts) reach the node only while the network has mined fewer than
/// `mining_cap` blocks, so the gossip workload mines a fixed number of
/// blocks and then drains quietly; `u64::MAX` forwards every timer. In
/// the traced run it also times each callback per message kind.
pub struct Node<M, N> {
    inner: N,
    mining_cap: u64,
    mined: Option<CounterId>,
    probe: Option<(Probe, [SpanId; 3])>,
    _msg: std::marker::PhantomData<fn(M)>,
}

impl<M: MsgKind, N> Node<M, N> {
    pub fn new(inner: N, mining_cap: u64, probe: Option<&Probe>) -> Self {
        let probe = probe.map(|p| {
            let ids = [
                p.span_id(M::SPANS[0]),
                p.span_id(M::SPANS[1]),
                p.span_id("miner.on_timer"),
            ];
            (p.clone(), ids)
        });
        Node {
            inner,
            mining_cap,
            mined: None,
            probe,
            _msg: std::marker::PhantomData,
        }
    }

    pub fn inner(&self) -> &N {
        &self.inner
    }
}

impl<M: MsgKind, N: SimNode<M>> SimNode<M> for Node<M, N> {
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        self.inner.on_start(ctx);
        if self.mining_cap != u64::MAX {
            self.mined = Some(ctx.metrics().counter(BLOCKS_MINED));
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: Payload<M>) {
        match &self.probe {
            None => self.inner.on_message(ctx, from, msg),
            Some((probe, ids)) => {
                let inner = &mut self.inner;
                probe.span(ids[msg.kind()], || inner.on_message(ctx, from, msg));
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, M>, timer: u64) {
        if let Some(mined) = self.mined {
            if ctx.metrics().counter_value(mined) >= self.mining_cap {
                return;
            }
        }
        match &self.probe {
            None => self.inner.on_timer(ctx, timer),
            Some((probe, ids)) => {
                let inner = &mut self.inner;
                probe.span(ids[2], || inner.on_timer(ctx, timer));
            }
        }
    }
}

// ---------------------------------------------------------------------
// fault: Interceptor wrapper
// ---------------------------------------------------------------------

/// Times an interceptor and counts the deliveries it removed and added.
pub struct TimedInterceptor<I> {
    inner: I,
    probe: Probe,
    span: SpanId,
}

impl<I: Interceptor> TimedInterceptor<I> {
    pub fn new(inner: I, probe: &Probe) -> Self {
        TimedInterceptor {
            inner,
            span: probe.span_id("fault.intercept"),
            probe: probe.clone(),
        }
    }
}

impl<I: Interceptor> Interceptor for TimedInterceptor<I> {
    fn intercept(&mut self, now: SimTime, from: NodeId, to: NodeId, deliveries: &mut Vec<SimTime>) {
        let before = deliveries.len();
        let inner = &mut self.inner;
        self.probe
            .span(self.span, || inner.intercept(now, from, to, deliveries));
        let after = deliveries.len();
        if after == 0 && before > 0 {
            self.probe.add("fault.intercept.dropped", 1.0);
        }
        if after > before {
            self.probe
                .add("fault.intercept.extra_deliveries", (after - before) as f64);
        }
    }
}

// ---------------------------------------------------------------------
// engine: counting Tracer
// ---------------------------------------------------------------------

/// Engine event counts and the exact queue depth, shared between the
/// tracer (moved into the simulation) and the harness.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineCounts {
    pub scheduled: u64,
    pub dispatched: u64,
    pub dropped: u64,
    pub depth: u64,
    pub depth_max: u64,
    /// Sum of the depth seen at each dispatch (event-weighted mean).
    pub depth_sum: u128,
}

/// Counts schedule, dispatch and drop events. Installed after set-up,
/// so it starts from the queue depth at installation.
pub struct CountingTracer(pub Rc<RefCell<EngineCounts>>);

impl CountingTracer {
    pub fn new(initial_depth: usize) -> (Self, Rc<RefCell<EngineCounts>>) {
        let counts = Rc::new(RefCell::new(EngineCounts {
            depth: initial_depth as u64,
            depth_max: initial_depth as u64,
            ..EngineCounts::default()
        }));
        (CountingTracer(Rc::clone(&counts)), counts)
    }
}

impl Tracer for CountingTracer {
    fn trace(&mut self, event: TraceEvent) {
        let mut c = self.0.borrow_mut();
        match event {
            TraceEvent::Schedule { .. } => {
                c.scheduled += 1;
                c.depth += 1;
                c.depth_max = c.depth_max.max(c.depth);
            }
            TraceEvent::Dispatch { .. } => {
                c.dispatched += 1;
                c.depth_sum += u128::from(c.depth);
                c.depth = c.depth.saturating_sub(1);
            }
            TraceEvent::Dropped { .. } => c.dropped += 1,
            TraceEvent::Sent { .. } | TraceEvent::Mark { .. } => {}
        }
    }
}
