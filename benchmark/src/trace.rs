//! Outside-in tracing: spans around calls into the program's layers, and
//! wrappers that put those spans around the engine's calls into its
//! plugin, traffic source and route planner.
//!
//! Nothing inside the program is instrumented. Each span records its
//! duration, and its self time is the duration minus the part covered by
//! child spans. Spans live in a thread-local accumulator, so fleet workers
//! trace their own runs; [`collect`] hands the totals of one call back.
//!
//! Only calls made at most once per cycle or per packet are timed.
//! `allow_grant` and `pick_slot` run about a million times per run, so the
//! plugin wrapper counts them instead.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use sb_routing::{Route, RouteSource};
use sb_sim::audit::Violation;
use sb_sim::{InputRef, NetCore, NewPacket, OutPort, Packet, Plugin, SlotRef, TrafficSource};
use sb_topology::{Direction, NodeId, Topology};

/// The traced calls. Names follow the repository's crates and modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `Scenario::topology`.
    TopologyBuild,
    /// `placement::alive_bubbles`.
    Placement,
    /// `Design::planner`.
    RoutingBuild,
    /// `Simulator::new` / `Simulator::with_bubbles`.
    EngineNew,
    /// `Simulator::warmup`.
    EngineWarmup,
    /// `Simulator::run` over the measurement window.
    EngineRun,
    /// `Simulator::deadlocked_now`.
    Oracle,
    /// Static Bubble `Plugin::before_cycle`.
    SbBefore,
    /// Static Bubble `Plugin::after_cycle`.
    SbAfter,
    /// Escape-VC `Plugin::before_cycle`.
    EscapeBefore,
    /// Escape-VC `Plugin::after_cycle`.
    EscapeAfter,
    /// `RouteSource::route`.
    Route,
    /// `RouteSource::routable`.
    Routable,
    /// `TrafficSource::generate`.
    Generate,
    /// `SweepSpec::expand`.
    FleetExpand,
    /// The fleet's run fan-out over the pool.
    FleetRunRecords,
    /// `sb_fleet::aggregate`.
    FleetAggregate,
}

const SPANS: usize = Span::FleetAggregate as usize + 1;

/// Per-span totals of one thread, plus the plugin's call counters.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    total_ns: [u64; SPANS],
    self_ns: [u64; SPANS],
    calls: [u64; SPANS],
    /// `Plugin::allow_grant` calls in measurement windows.
    pub grant_attempts: u64,
    /// `Plugin::pick_slot` calls in measurement windows.
    pub slot_picks: u64,
}

impl Trace {
    /// Seconds spent in `span`, children included.
    pub fn total_s(&self, span: Span) -> f64 {
        self.total_ns[span as usize] as f64 * 1e-9
    }

    /// Seconds spent in `span` itself, children excluded.
    pub fn self_s(&self, span: Span) -> f64 {
        self.self_ns[span as usize] as f64 * 1e-9
    }

    /// Times `span` was entered.
    pub fn calls(&self, span: Span) -> u64 {
        self.calls[span as usize]
    }

    /// Add another trace's totals into this one.
    pub fn merge(&mut self, other: &Trace) {
        for i in 0..SPANS {
            self.total_ns[i] += other.total_ns[i];
            self.self_ns[i] += other.self_ns[i];
            self.calls[i] += other.calls[i];
        }
        self.grant_attempts += other.grant_attempts;
        self.slot_picks += other.slot_picks;
    }
}

#[derive(Default)]
struct Tracer {
    trace: Trace,
    /// Open spans: kind, start, nanoseconds covered by closed children.
    stack: Vec<(Span, Instant, u64)>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Run `f` inside `span`.
pub fn span<R>(span: Span, f: impl FnOnce() -> R) -> R {
    TRACER.with(|t| t.borrow_mut().stack.push((span, Instant::now(), 0)));
    let r = f();
    let end = Instant::now();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let (kind, start, child) = t.stack.pop().expect("span stack underflow");
        let dur = end.duration_since(start).as_nanos() as u64;
        let i = kind as usize;
        t.trace.total_ns[i] += dur;
        t.trace.self_ns[i] += dur.saturating_sub(child);
        t.trace.calls[i] += 1;
        if let Some(parent) = t.stack.last_mut() {
            parent.2 += dur;
        }
    });
    r
}

/// Run `f` and return, beside its result, the totals of the spans it
/// closed on this thread. Spans still open around the call keep counting
/// `f`'s spans as their children.
pub fn collect<R>(f: impl FnOnce() -> R) -> (R, Trace) {
    let saved = TRACER.with(|t| std::mem::take(&mut t.borrow_mut().trace));
    let r = f();
    let trace = TRACER.with(|t| std::mem::replace(&mut t.borrow_mut().trace, saved));
    (r, trace)
}

/// A [`Plugin`] that times `before_cycle`/`after_cycle` under the given
/// spans (none for the null plugin, whose hooks are empty), counts
/// `allow_grant`/`pick_slot`, and forwards every method to `inner`.
pub struct TracedPlugin<P> {
    /// The real plugin.
    pub inner: P,
    hooks: Option<(Span, Span)>,
    grant_attempts: Cell<u64>,
    slot_picks: Cell<u64>,
}

impl<P: Plugin> TracedPlugin<P> {
    /// Wrap `inner`; `hooks` names the spans of its two per-cycle hooks.
    pub fn new(inner: P, hooks: Option<(Span, Span)>) -> Self {
        TracedPlugin {
            inner,
            hooks,
            grant_attempts: Cell::new(0),
            slot_picks: Cell::new(0),
        }
    }

    /// Drop the counts so far (the warmup's), keeping the window's only.
    pub fn reset_counts(&self) {
        self.grant_attempts.set(0);
        self.slot_picks.set(0);
    }

    /// `(allow_grant calls, pick_slot calls)` since the last reset.
    pub fn counts(&self) -> (u64, u64) {
        (self.grant_attempts.get(), self.slot_picks.get())
    }
}

impl<P: Plugin> Plugin for TracedPlugin<P> {
    fn before_cycle(&mut self, core: &mut NetCore) {
        match self.hooks {
            Some((before, _)) => span(before, || self.inner.before_cycle(core)),
            None => self.inner.before_cycle(core),
        }
    }

    fn after_cycle(&mut self, core: &mut NetCore) {
        match self.hooks {
            Some((_, after)) => span(after, || self.inner.after_cycle(core)),
            None => self.inner.after_cycle(core),
        }
    }

    fn allow_grant(
        &self,
        core: &NetCore,
        router: NodeId,
        input: InputRef,
        out: OutPort,
        pkt: &Packet,
    ) -> bool {
        self.grant_attempts.set(self.grant_attempts.get() + 1);
        self.inner.allow_grant(core, router, input, out, pkt)
    }

    fn pick_slot(
        &self,
        core: &NetCore,
        router: NodeId,
        port: Direction,
        pkt: &Packet,
    ) -> Option<SlotRef> {
        self.slot_picks.set(self.slot_picks.get() + 1);
        self.inner.pick_slot(core, router, port, pkt)
    }

    fn on_bubble_freed(&mut self, core: &mut NetCore, router: NodeId) {
        self.inner.on_bubble_freed(core, router);
    }

    fn audit_check(&mut self, core: &NetCore, out: &mut Vec<Violation>) {
        self.inner.audit_check(core, out);
    }

    fn forensic_lines(&self, core: &NetCore) -> Vec<String> {
        self.inner.forensic_lines(core)
    }

    fn next_timer(&self, core: &NetCore) -> Option<u64> {
        self.inner.next_timer(core)
    }

    fn snapshot_state(&self) -> Result<String, String> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, blob: &str) -> Result<(), String> {
        self.inner.restore_state(blob)
    }

    fn trace_lines(&mut self) -> Vec<String> {
        self.inner.trace_lines()
    }

    fn set_tracing(&mut self, enable: bool) {
        self.inner.set_tracing(enable);
    }
}

/// A [`TrafficSource`] that times `generate` and forwards every method.
pub struct TracedTraffic<T>(pub T);

impl<T: TrafficSource> TrafficSource for TracedTraffic<T> {
    fn generate(
        &mut self,
        time: u64,
        topo: &Topology,
        rng: &mut dyn rand::RngCore,
    ) -> Vec<NewPacket> {
        span(Span::Generate, || self.0.generate(time, topo, rng))
    }

    fn on_delivered(&mut self, pkt: &Packet, time: u64) {
        self.0.on_delivered(pkt, time);
    }

    fn exhausted(&self) -> bool {
        self.0.exhausted()
    }

    fn on_measurement_reset(&mut self) {
        self.0.on_measurement_reset();
    }

    fn next_arrival(&self, now: u64) -> Option<u64> {
        self.0.next_arrival(now)
    }

    fn on_topology_change(&mut self) {
        self.0.on_topology_change();
    }

    fn snapshot_state(&self) -> Result<String, String> {
        self.0.snapshot_state()
    }

    fn restore_state(&mut self, blob: &str) -> Result<(), String> {
        self.0.restore_state(blob)
    }
}

/// A [`RouteSource`] that times `route` and `routable` and forwards every
/// method.
pub struct TracedRoutes(pub Box<dyn RouteSource>);

impl RouteSource for TracedRoutes {
    fn route(&self, src: NodeId, dst: NodeId, rng: &mut dyn rand::RngCore) -> Option<Route> {
        span(Span::Route, || self.0.route(src, dst, rng))
    }

    fn hop_count(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        self.0.hop_count(src, dst)
    }

    fn routable(&self, src: NodeId, dst: NodeId) -> bool {
        span(Span::Routable, || self.0.routable(src, dst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let ((), t) = collect(|| {
            span(Span::EngineRun, || {
                span(Span::SbBefore, || {
                    std::thread::sleep(std::time::Duration::from_millis(20))
                });
            })
        });
        assert_eq!(t.calls(Span::EngineRun), 1);
        assert_eq!(t.calls(Span::SbBefore), 1);
        assert!(t.total_s(Span::EngineRun) >= t.total_s(Span::SbBefore));
        assert!(t.self_s(Span::EngineRun) < 0.010);
        assert!(t.self_s(Span::SbBefore) >= 0.020);
    }
}
