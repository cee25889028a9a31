//! Turning repetitions into metrics: medians, tails, the per-layer split
//! of a traced repetition and the dominant-layer verdict.

use crate::trace::{Span, Trace};
use crate::workload::{Rep, Workload};

/// The median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The highest percentile with at least ten samples above it, as
/// `(percentile, value)`; `None` below eleven samples.
pub fn tail(xs: &[f64]) -> Option<(usize, f64)> {
    let s = sorted(xs);
    let n = s.len();
    (n >= 11).then(|| ((n - 10) * 100 / n, s[n - 11]))
}

/// One named metric with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// The per-layer metrics of one traced repetition, before the
/// run-level ones (`bench.trace_overhead_frac`, `run_fail_ratio`).
pub fn layer_metrics(w: Workload, rep: &Rep) -> Vec<Metric> {
    let t = rep.trace.as_ref().expect("traced repetition");
    let l = &rep.layers;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (unique, simulated) = l.fleet.unwrap_or((0, 0));
    let run_records_s = t.total_s(Span::FleetRunRecords);
    let movements = l.movements as f64;
    vec![
        ("core.plugin.before_cycle_s", t.total_s(Span::SbBefore), "s"),
        ("core.plugin.after_cycle_s", t.total_s(Span::SbAfter), "s"),
        ("core.plugin.probes_sent", l.probes_sent as f64, "count"),
        (
            "core.plugin.probes_dropped",
            l.probes_dropped as f64,
            "count",
        ),
        (
            "core.plugin.deadlocks_recovered",
            l.deadlocks_recovered as f64,
            "count",
        ),
        (
            "core.plugin.heal_ratio",
            ratio(l.deadlocks_recovered as f64, l.probes_sent as f64),
            "ratio",
        ),
        (
            "sim.escape.before_cycle_s",
            t.total_s(Span::EscapeBefore),
            "s",
        ),
        (
            "sim.escape.after_cycle_s",
            t.total_s(Span::EscapeAfter),
            "s",
        ),
        ("sim.escape.escapes", l.escapes as f64, "count"),
        ("routing.route_s", t.total_s(Span::Route), "s"),
        ("routing.route_calls", t.calls(Span::Route) as f64, "count"),
        ("routing.routable_s", t.total_s(Span::Routable), "s"),
        (
            "routing.routable_calls",
            t.calls(Span::Routable) as f64,
            "count",
        ),
        (
            "sim.engine.run_s",
            t.total_s(Span::EngineWarmup) + t.total_s(Span::EngineRun),
            "s",
        ),
        (
            "sim.engine.self_s",
            t.self_s(Span::EngineWarmup) + t.self_s(Span::EngineRun),
            "s",
        ),
        (
            "sim.engine.ns_per_movement",
            ratio(t.self_s(Span::EngineRun) * 1e9, movements),
            "ns",
        ),
        ("sim.engine.movements", movements, "count"),
        (
            "sim.engine.grant_attempts",
            t.grant_attempts as f64,
            "count",
        ),
        ("sim.engine.slot_picks", t.slot_picks as f64, "count"),
        (
            "sim.engine.grant_ratio",
            ratio(movements, t.grant_attempts as f64),
            "ratio",
        ),
        ("sim.traffic.generate_s", t.total_s(Span::Generate), "s"),
        (
            "sim.traffic.offered_packets",
            l.offered_packets as f64,
            "count",
        ),
        ("sim.engine.queued_at_end", l.queued_at_end as f64, "count"),
        ("sim.deadlock.oracle_s", t.total_s(Span::Oracle), "s"),
        (
            "sim.deadlock.oracle_calls",
            t.calls(Span::Oracle) as f64,
            "count",
        ),
        ("topology.build_s", t.total_s(Span::TopologyBuild), "s"),
        ("core.placement_s", t.total_s(Span::Placement), "s"),
        ("routing.build_s", t.total_s(Span::RoutingBuild), "s"),
        ("sim.engine.new_s", t.total_s(Span::EngineNew), "s"),
        ("fleet.expand_s", t.total_s(Span::FleetExpand), "s"),
        ("fleet.run_records_s", run_records_s, "s"),
        ("fleet.aggregate_s", t.total_s(Span::FleetAggregate), "s"),
        ("fleet.unique_scenarios", unique as f64, "count"),
        ("fleet.simulated", simulated as f64, "count"),
        ("pool.busy_s", l.busy_s, "s"),
        (
            "pool.utilization",
            ratio(l.busy_s, l.jobs as f64 * run_records_s),
            "ratio",
        ),
        (
            "bench.predicted_layer_share",
            verdict(w, t, rep).predicted_share,
            "ratio",
        ),
    ]
}

/// Host seconds of self time per layer group of one traced repetition.
/// For the sweep, the fleet/pool group is the fleet's own calls plus the
/// workers' idle time inside the fan-out.
fn layer_seconds(t: &Trace, rep: &Rep) -> Vec<(&'static str, f64)> {
    let s = |spans: &[Span]| spans.iter().map(|&x| t.self_s(x)).sum::<f64>();
    let idle =
        (rep.layers.jobs as f64 * t.total_s(Span::FleetRunRecords) - rep.layers.busy_s).max(0.0);
    vec![
        ("core.plugin", s(&[Span::SbBefore, Span::SbAfter])),
        ("sim.escape", s(&[Span::EscapeBefore, Span::EscapeAfter])),
        ("routing", s(&[Span::Route, Span::Routable])),
        ("sim.traffic", s(&[Span::Generate])),
        ("sim.engine", s(&[Span::EngineWarmup, Span::EngineRun])),
        ("sim.deadlock", s(&[Span::Oracle])),
        (
            "setup",
            s(&[
                Span::TopologyBuild,
                Span::Placement,
                Span::RoutingBuild,
                Span::EngineNew,
            ]),
        ),
        (
            "fleet/pool",
            s(&[Span::FleetExpand, Span::FleetAggregate]) + idle,
        ),
    ]
}

/// The layer groups predicted to take the most host time on `w` (see the
/// rationale in README.md).
pub fn predicted(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::RecoveryLive | Workload::RecoveryOverload => &["core.plugin", "sim.escape"],
        Workload::UpdownLive => &["routing"],
        Workload::SweepLadder => &["fleet/pool", "setup"],
    }
}

/// Whether the predicted layers took more host time than any other one.
pub struct Verdict {
    /// Each layer group's share of the repetition's layer self time.
    pub shares: Vec<(&'static str, f64)>,
    /// Share of the predicted groups together.
    pub predicted_share: f64,
    /// The largest group outside the prediction, with its share.
    pub largest_other: (&'static str, f64),
    /// `predicted_share` beats `largest_other`.
    pub held: bool,
}

/// Judge the prediction for `w` on one traced repetition.
pub fn verdict(w: Workload, t: &Trace, rep: &Rep) -> Verdict {
    let secs = layer_seconds(t, rep);
    let total = secs
        .iter()
        .map(|(_, v)| v)
        .sum::<f64>()
        .max(f64::MIN_POSITIVE);
    let shares: Vec<(&'static str, f64)> = secs.iter().map(|&(n, v)| (n, v / total)).collect();
    let want = predicted(w);
    let predicted_share = shares
        .iter()
        .filter(|(name, _)| want.contains(name))
        .map(|(_, v)| v)
        .sum();
    let largest_other = shares
        .iter()
        .filter(|(name, _)| !want.contains(name))
        .fold(("none", 0.0), |a, &b| if b.1 > a.1 { b } else { a });
    Verdict {
        shares,
        predicted_share,
        largest_other,
        held: predicted_share > largest_other.1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(tail(&[1.0; 10]), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        // Ten samples (11..=20) lie above the 50th percentile's value 10.
        assert_eq!(tail(&xs), Some((50, 10.0)));
    }
}
