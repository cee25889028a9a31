//! The four workloads, one repetition of each, plain and traced, and the
//! checks every simulated run must pass.

use std::collections::BTreeSet;
use std::time::Instant;

use sb_fleet::cache::content_key;
use sb_fleet::{
    aggregate, run_records, schema_epoch, CacheConfig, CacheKey, ExecOptions, RunResult,
    ScenarioRecord, SweepReport, SweepRun, SweepSpec,
};
use sb_routing::RouteSource;
use sb_scenario::{BubbleSpec, ClockMode, Design, FaultSpec, Scenario, TrafficSpec};
use sb_sim::{EscapeVcPlugin, NullPlugin, Plugin, Simulator, Stats, UniformTraffic};
use static_bubble::{placement, StaticBubblePlugin};

use crate::trace::{self, Span, Trace, TracedPlugin, TracedRoutes, TracedTraffic};

/// The workload seed selects one of this many input sets (`seed mod
/// INPUT_SETS`), each with a recorded reference output.
pub const INPUT_SETS: u64 = 32;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Static Bubble and escape-VC below their knees.
    RecoveryLive,
    /// Static Bubble and escape-VC past their knees.
    RecoveryOverload,
    /// Spanning-tree (up*/down*) routing below its knee.
    UpdownLive,
    /// A fig09-shaped rate ladder through `sb_fleet`.
    SweepLadder,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::RecoveryLive,
        Workload::RecoveryOverload,
        Workload::UpdownLive,
        Workload::SweepLadder,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RecoveryLive => "recovery_live",
            Workload::RecoveryOverload => "recovery_overload",
            Workload::UpdownLive => "updown_live",
            Workload::SweepLadder => "sweep_ladder",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

// ---------------------------------------------------------------------
// Inputs

/// The single-topology workloads' mesh: 16×16 with 24 link and 4 router
/// faults, one fixed topology for every input set so that input sets
/// differ only in the injection process.
const MESH: u16 = 16;
const LINK_FAULTS: usize = 24;
const ROUTER_FAULTS: usize = 4;
const TOPOLOGY_SEED: u64 = 0x5B00;
const WARMUP: u64 = 1_000;
const CYCLES: u64 = 4_000;

/// Offered loads in flits/node/cycle.
const SB_LIVE: f64 = 0.05;
const EVC_LIVE: f64 = 0.04;
const SB_OVERLOAD: f64 = 0.08;
const EVC_OVERLOAD: f64 = 0.1;
const UPDOWN_LIVE: f64 = 0.03;

/// What a run must show to count as live (see [`check_run`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Liveness {
    /// Acceptance ≥ 0.99, movements > 0, not deadlocked at the end.
    Live,
    /// Deliveries, plus heals (Static Bubble) or escapes (escape-VC).
    Overload,
    /// Movements and deliveries (no wedged rung).
    Moving,
}

fn single(design: Design, rate: f64, set: u64) -> Scenario {
    Scenario::new(format!("{}-{rate}", design.label()), design)
        .with_mesh(MESH, MESH)
        .with_faults(FaultSpec::Mixed {
            links: LINK_FAULTS,
            routers: ROUTER_FAULTS,
            seed: TOPOLOGY_SEED,
        })
        .with_rate(rate)
        .with_seed(set + 1)
        .with_warmup(WARMUP)
        .with_cycles(CYCLES)
}

/// The single-topology scenarios of one repetition, with their liveness
/// rule. Every scenario of a set shares one topology.
fn scenarios(w: Workload, set: u64) -> Vec<(Scenario, Liveness)> {
    use Design::*;
    match w {
        Workload::RecoveryLive => vec![
            (single(StaticBubble, SB_LIVE, set), Liveness::Live),
            (single(EscapeVc, EVC_LIVE, set), Liveness::Live),
        ],
        Workload::RecoveryOverload => vec![
            (single(StaticBubble, SB_OVERLOAD, set), Liveness::Overload),
            (single(EscapeVc, EVC_OVERLOAD, set), Liveness::Overload),
        ],
        Workload::UpdownLive => vec![(single(SpanningTree, UPDOWN_LIVE, set), Liveness::Live)],
        Workload::SweepLadder => Vec::new(),
    }
}

/// The fig09-shaped grid: three fixed 8×8 topologies with 12 link faults,
/// the three paper designs and a rate ladder through the knee. As in the
/// single-topology workloads, input sets differ only in the simulation
/// seed.
pub fn sweep_spec(set: u64) -> SweepSpec {
    let mut spec = SweepSpec::new("sweep_ladder");
    spec.link_faults = vec![12];
    spec.topo_seeds = vec![0xF900, 0xF901, 0xF902];
    spec.designs = [Design::SpanningTree, Design::EscapeVc, Design::StaticBubble]
        .iter()
        .map(|d| d.label().to_string())
        .collect();
    spec.rates = vec![0.02, 0.05, 0.08, 0.12, 0.16, 0.20];
    spec.seeds = vec![set + 1];
    spec.warmup = 400;
    spec.cycles = 1_600;
    spec.accept = 0.92;
    spec
}

/// Worker threads for the sweep: one per core.
pub fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ---------------------------------------------------------------------
// Outputs and checks

/// One simulated run's output, as far as the checks look at it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOut {
    /// Measurement-window statistics.
    pub stats: Stats,
    /// The deadlock oracle's verdict on the final state.
    pub deadlocked: bool,
    /// Escape-VC diversions (escape-VC runs of the single workloads).
    pub escapes: Option<u64>,
    /// Packets still waiting in source queues at the end.
    pub queued_at_end: usize,
}

/// FNV-1a digest of the JSON form of `stats`: equal digests mean equal
/// `Stats`, every field included.
pub fn digest(stats: &Stats) -> u64 {
    let json = sb_scenario::json::to_json_string(stats).expect("Stats serialize");
    sb_scenario::fnv1a(json.as_bytes())
}

fn check_run(run: &RunOut, rule: Liveness, design: Design) -> Result<(), String> {
    let s = &run.stats;
    let ok = match rule {
        Liveness::Live => s.acceptance() >= 0.99 && s.movements > 0 && !run.deadlocked,
        Liveness::Overload => {
            s.delivered_packets > 0
                && match design {
                    Design::StaticBubble => s.deadlocks_recovered > 0,
                    Design::EscapeVc => run.escapes.unwrap_or(0) > 0,
                    _ => true,
                }
        }
        Liveness::Moving => s.movements > 0 && s.delivered_packets > 0,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{} breaks the {rule:?} guard: acceptance {:.4}, movements {}, delivered {}, recovered {}, escapes {:?}, deadlocked {}",
            design.label(),
            s.acceptance(),
            s.movements,
            s.delivered_packets,
            s.deadlocks_recovered,
            run.escapes,
            run.deadlocked
        ))
    }
}

/// The outcome of one repetition.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host seconds for the whole repetition.
    pub wall_s: f64,
    /// Host seconds before the first simulated cycle (plain repetitions).
    pub setup_s: f64,
    /// Host seconds spent simulating (plain repetitions).
    pub sim_s: f64,
    /// Simulated cycles (plain repetitions).
    pub cycles: u64,
    /// Simulated runs.
    pub runs: usize,
    /// Indices of the runs that failed a check.
    pub failed: BTreeSet<usize>,
    /// Why they failed.
    pub failures: Vec<String>,
    /// Digests of each run's `Stats` (then the sweep report's), in order.
    pub digests: Vec<u64>,
    /// Each run's output (single-topology workloads).
    pub outs: Vec<RunOut>,
    /// Traced repetitions: per-layer totals.
    pub trace: Option<Trace>,
    /// Traced repetitions: per-layer values read from the program's outputs.
    pub layers: Layers,
}

impl Rep {
    /// Record that run `i` failed.
    pub fn fail_run(&mut self, i: usize, why: String) {
        self.failed.insert(i);
        self.failures.push(why);
    }

    /// Record a failure no single run owns: it fails them all.
    pub fn fail_all(&mut self, why: String) {
        self.failed.extend(0..self.runs.max(1));
        self.failures.push(why);
    }
}

/// Per-layer values a traced repetition reads from the program's outputs,
/// summed over its runs (window counts where `Stats` defines them).
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Static Bubble probes sent.
    pub probes_sent: u64,
    /// Static Bubble returned probes dropped.
    pub probes_dropped: u64,
    /// Static Bubble deadlocks recovered.
    pub deadlocks_recovered: u64,
    /// Escape-VC diversions (whole run).
    pub escapes: u64,
    /// Packet movements.
    pub movements: u64,
    /// Packets offered.
    pub offered_packets: u64,
    /// Packets left in source queues at the end.
    pub queued_at_end: u64,
    /// The sweep's `(unique scenario contents, simulations)`.
    pub fleet: Option<(usize, usize)>,
    /// Sum of per-run host seconds on the pool's workers.
    pub busy_s: f64,
    /// Worker threads of the sweep.
    pub jobs: usize,
}

impl Layers {
    fn add(&mut self, out: &RunOut) {
        let s = &out.stats;
        self.probes_sent += s.probes_sent;
        self.probes_dropped += s.probes_dropped;
        self.deadlocks_recovered += s.deadlocks_recovered;
        self.escapes += out.escapes.unwrap_or(0);
        self.movements += s.movements;
        self.offered_packets += s.offered_packets;
        self.queued_at_end += out.queued_at_end as u64;
    }
}

/// Run one repetition of `w` on input set `set`.
pub fn rep(w: Workload, set: u64, traced: bool) -> Rep {
    match (w, traced) {
        (Workload::SweepLadder, false) => sweep_rep(set),
        (Workload::SweepLadder, true) => sweep_rep_traced(set),
        (_, false) => single_rep(w, set),
        (_, true) => single_rep_traced(w, set),
    }
}

fn single_rep(w: Workload, set: u64) -> Rep {
    let mut rep = Rep::default();
    let start = Instant::now();
    for (sc, rule) in scenarios(w, set) {
        let t0 = Instant::now();
        let topo = sc.topology();
        let mut runner = sc.build_on(&topo);
        let t1 = Instant::now();
        runner.warmup(sc.warmup);
        runner.run(sc.cycles);
        let t2 = Instant::now();
        let out = RunOut {
            stats: runner.stats().clone(),
            deadlocked: runner.deadlocked_now(),
            escapes: runner.escapes(),
            queued_at_end: runner.core().queued(),
        };
        rep.setup_s += (t1 - t0).as_secs_f64();
        rep.sim_s += (t2 - t1).as_secs_f64();
        rep.cycles += sc.warmup + sc.cycles;
        finish_run(&mut rep, out, rule, sc.design);
    }
    rep.wall_s = start.elapsed().as_secs_f64();
    rep
}

fn finish_run(rep: &mut Rep, out: RunOut, rule: Liveness, design: Design) {
    rep.digests.push(digest(&out.stats));
    if let Err(e) = check_run(&out, rule, design) {
        rep.fail_run(rep.runs, e);
    }
    rep.runs += 1;
    rep.outs.push(out);
}

fn single_rep_traced(w: Workload, set: u64) -> Rep {
    let mut rep = Rep::default();
    let mut trace = Trace::default();
    let start = Instant::now();
    for (sc, rule) in scenarios(w, set) {
        let run = traced_execute(&sc);
        trace.merge(&run.trace);
        rep.layers.add(&run.out);
        finish_run(&mut rep, run.out, rule, sc.design);
    }
    rep.wall_s = start.elapsed().as_secs_f64();
    rep.trace = Some(trace);
    rep
}

/// A traced run: [`sb_fleet::execute_one`]'s steps with default
/// execution options, each call into a layer wrapped in a span, and the
/// engine's plugin, traffic source and route planner wrapped.
pub struct TracedRun {
    /// The run's output.
    pub out: RunOut,
    /// The result as the fleet records it.
    pub result: RunResult,
    /// This run's spans and counts.
    pub trace: Trace,
}

/// Execute `sc` with tracing on this thread.
pub fn traced_execute(sc: &Scenario) -> TracedRun {
    assert_eq!(
        sc.bubbles,
        BubbleSpec::Auto,
        "benchmark scenarios place bubbles automatically"
    );
    assert_eq!(
        sc.clock,
        ClockMode::Step,
        "benchmark scenarios use the step clock"
    );
    let traffic = match sc.traffic {
        TrafficSpec::Uniform { rate, single_vnet } => {
            let t = UniformTraffic::new(rate);
            TracedTraffic(if single_vnet { t.single_vnet() } else { t })
        }
        other => panic!("benchmark scenarios use uniform traffic, not {other:?}"),
    };
    let (mut run, spans) = trace::collect(|| build_and_drive(sc, traffic));
    run.trace.merge(&spans);
    run
}

/// The traced run, whose trace holds only the plugin's call counts.
fn build_and_drive(sc: &Scenario, traffic: TracedTraffic<UniformTraffic>) -> TracedRun {
    let topo = trace::span(Span::TopologyBuild, || sc.topology());
    let planner: Box<dyn RouteSource> =
        Box::new(TracedRoutes(trace::span(Span::RoutingBuild, || {
            sc.design.planner(&topo)
        })));
    let nodes = topo.alive_node_count();
    match sc.design {
        Design::StaticBubble => {
            let bubbles = trace::span(Span::Placement, || placement::alive_bubbles(&topo));
            let plugin = TracedPlugin::new(
                StaticBubblePlugin::with_options(topo.mesh(), sc.tdd, sc.sb_options()),
                Some((Span::SbBefore, Span::SbAfter)),
            );
            let sim = trace::span(Span::EngineNew, || {
                Simulator::with_bubbles(
                    &topo, sc.config, planner, plugin, traffic, sc.seed, &bubbles,
                )
            });
            drive(sim, sc, nodes, |_| None)
        }
        Design::EscapeVc => {
            let plugin = TracedPlugin::new(
                EscapeVcPlugin::new(&topo, sc.tdd),
                Some((Span::EscapeBefore, Span::EscapeAfter)),
            );
            let sim = trace::span(Span::EngineNew, || {
                Simulator::new(&topo, sc.config, planner, plugin, traffic, sc.seed)
            });
            drive(sim, sc, nodes, |p| Some(p.escapes()))
        }
        Design::SpanningTree | Design::TreeOnly | Design::Unprotected => {
            let plugin = TracedPlugin::new(NullPlugin, None);
            let sim = trace::span(Span::EngineNew, || {
                Simulator::new(&topo, sc.config, planner, plugin, traffic, sc.seed)
            });
            drive(sim, sc, nodes, |_| None)
        }
    }
}

fn drive<P: Plugin>(
    mut sim: Simulator<TracedPlugin<P>, TracedTraffic<UniformTraffic>>,
    sc: &Scenario,
    nodes: usize,
    escapes: impl Fn(&P) -> Option<u64>,
) -> TracedRun {
    sim.set_audit(sc.audit_every);
    sim.set_clock(sc.clock);
    trace::span(Span::EngineWarmup, || sim.warmup(sc.warmup));
    sim.plugin().reset_counts();
    trace::span(Span::EngineRun, || sim.run(sc.cycles));
    let deadlocked = trace::span(Span::Oracle, || sim.deadlocked_now());
    let stats = sim.core().stats().clone();
    let mut trace = Trace::default();
    (trace.grant_attempts, trace.slot_picks) = sim.plugin().counts();
    TracedRun {
        out: RunOut {
            stats: stats.clone(),
            deadlocked,
            escapes: escapes(&sim.plugin().inner),
            queued_at_end: sim.core().queued(),
        },
        result: RunResult {
            stats,
            nodes,
            deadlocked,
            drained: None,
            forensics: None,
        },
        trace,
    }
}

// ---------------------------------------------------------------------
// The sweep

fn sweep_rep(set: u64) -> Rep {
    let spec = sweep_spec(set);
    let mut rep = Rep::default();
    let t0 = Instant::now();
    let runs = spec.expand().expect("the benchmark's sweep grid expands");
    let t1 = Instant::now();
    let (records, acct) = run_records(
        &spec.name,
        &runs,
        jobs(),
        ExecOptions::default(),
        &CacheConfig::none(),
    );
    let t2 = Instant::now();
    let report = aggregate(&spec.name, spec.accept, &runs, records);
    let json = report.to_json().expect("sweep reports serialize");
    rep.wall_s = t0.elapsed().as_secs_f64();
    rep.setup_s = (t1 - t0).as_secs_f64();
    rep.sim_s = (t2 - t1).as_secs_f64();
    rep.cycles = acct.simulated as u64 * (spec.warmup + spec.cycles);
    check_sweep(
        &mut rep,
        &runs,
        &report,
        &json,
        (acct.unique_scenarios, acct.simulated),
    );
    rep
}

fn sweep_rep_traced(set: u64) -> Rep {
    let spec = sweep_spec(set);
    let jobs = jobs();
    let mut rep = Rep::default();
    let mut runs_trace = Trace::default();
    let mut busy_s = 0.0;
    let start = Instant::now();
    let ((runs, report), mut trace) = trace::collect(|| {
        let runs = trace::span(Span::FleetExpand, || spec.expand())
            .expect("the benchmark's sweep grid expands");
        let mut records = Vec::with_capacity(runs.len());
        // Stands in for `run_records` as the plain repetition calls it: the
        // same pool and jobs. The grid has no duplicate contents (checked),
        // so there is nothing to dedup and every run simulates.
        trace::span(Span::FleetRunRecords, || {
            sb_pool::run_stream(
                runs.iter().collect(),
                jobs,
                &|_, run: &SweepRun| {
                    let t = Instant::now();
                    let traced = traced_execute(&run.scenario);
                    (traced, t.elapsed().as_secs_f64())
                },
                |i, result| {
                    let result = result.map(|(run, secs)| {
                        runs_trace.merge(&run.trace);
                        busy_s += secs;
                        rep.layers.add(&run.out);
                        run.result
                    });
                    records.push(ScenarioRecord {
                        index: i as u32,
                        result,
                    });
                },
            )
        });
        let report = trace::span(Span::FleetAggregate, || {
            aggregate(&spec.name, spec.accept, &runs, records)
        });
        (runs, report)
    });
    let json = report.to_json().expect("sweep reports serialize");
    rep.wall_s = start.elapsed().as_secs_f64();
    trace.merge(&runs_trace);
    let epoch = schema_epoch();
    let unique: BTreeSet<CacheKey> = runs
        .iter()
        .filter_map(|r| content_key(&r.scenario, ExecOptions::default(), epoch).ok())
        .collect();
    rep.layers.fleet = Some((unique.len(), runs.len()));
    rep.layers.busy_s = busy_s;
    rep.layers.jobs = jobs;
    rep.trace = Some(trace);
    check_sweep(&mut rep, &runs, &report, &json, (unique.len(), runs.len()));
    rep
}

/// Check every row of a sweep report, and that the grid simulated each of
/// its runs exactly once (`fleet` = unique contents, simulations).
fn check_sweep(
    rep: &mut Rep,
    runs: &[SweepRun],
    report: &SweepReport,
    json: &str,
    fleet: (usize, usize),
) {
    rep.runs = runs.len();
    for (i, (run, row)) in runs.iter().zip(&report.scenarios).enumerate() {
        match &row.stats {
            Some(stats) if row.ok => {
                rep.digests.push(digest(stats));
                let out = RunOut {
                    stats: stats.clone(),
                    deadlocked: row.deadlocked,
                    escapes: None,
                    queued_at_end: 0,
                };
                if let Err(e) = check_run(&out, Liveness::Moving, run.scenario.design) {
                    rep.fail_run(i, format!("{}: {e}", row.id.key));
                }
            }
            _ => {
                rep.digests.push(0);
                let error = report
                    .failed
                    .iter()
                    .find(|f| f.id == row.id)
                    .map_or("no result", |f| f.error.as_str());
                rep.fail_run(i, format!("{}: {error}", row.id.key));
            }
        }
    }
    if report.scenarios.len() != runs.len() {
        rep.fail_all(format!(
            "sweep report has {} rows for {} runs",
            report.scenarios.len(),
            runs.len()
        ));
    }
    if fleet != (runs.len(), runs.len()) {
        rep.fail_all(format!(
            "sweep grid of {} runs has {} unique contents and {} simulations",
            runs.len(),
            fleet.0,
            fleet.1
        ));
    }
    rep.digests.push(sb_scenario::fnv1a(json.as_bytes()));
}
