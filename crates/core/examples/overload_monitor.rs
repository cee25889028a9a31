//! Overload monitor: drive the network beyond saturation and watch the
//! recovery protocol fight the forming gridlock — per-kilocycle
//! deliveries, oracle dead-buffer counts, frozen routers and FSM/bubble
//! state (the tool used to find the protocol hardening in DESIGN.md).
//!
//! ```text
//! cargo run -p static-bubble --release --example overload_monitor
//! ```

use rand::SeedableRng;
use sb_routing::MinimalRouting;
use sb_sim::{Plugin, SimConfig, Simulator, UniformTraffic};
use sb_topology::{FaultKind, FaultModel, Mesh};
use static_bubble::{placement, StaticBubblePlugin};

fn main() {
    let mesh = Mesh::new(8, 8);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let topo = FaultModel::new(FaultKind::Links, 15).inject(mesh, &mut rng);
    let bubbles = placement::alive_bubbles(&topo);
    let mut sim = Simulator::with_bubbles(
        &topo,
        SimConfig::single_vnet(),
        Box::new(MinimalRouting::new(&topo)),
        StaticBubblePlugin::new(mesh, 34),
        UniformTraffic::new(0.5).single_vnet(),
        1,
        &bubbles,
    );
    sim.plugin_mut().set_tracing(true);
    let mut last_del = 0u64;
    let mut last_ret = 0u64;
    let mut last_rec = 0u64;
    for _ in 0..30 {
        sim.run(1000);
        let s = sim.core().stats().clone();
        let ret = sim.plugin().counters().probe_returns;
        let dead = sb_sim::find_deadlock(sim.core()).len();
        println!("t={:6} del/1k={:5} inflight={:3} dead={:3} frozen={:2} probes={:6} ret/1k={:3} recov/1k={:2} msgs={}",
            sim.time(), s.delivered_packets - last_del, sim.core().in_flight(), dead,
            sim.plugin().frozen_routers(), s.probes_sent, ret - last_ret,
            s.deadlocks_recovered - last_rec, sim.plugin().in_flight_messages());
        last_del = s.delivered_packets;
        last_ret = ret;
        last_rec = s.deadlocks_recovered;
    }
    println!("{}", sim.plugin().counters().summary());
    for line in sim.plugin_mut().trace_lines().iter().rev().take(20).rev() {
        println!("trace: {line}");
    }
    for (r, io, src) in sim.plugin().frozen_details() {
        let f = sim.plugin().fsm(src);
        println!(
            "frozen n{} io=({:?},{:?}) source=n{} src_state={:?}",
            r.0,
            io.0,
            io.1,
            src.0,
            f.map(|x| x.state)
        );
    }
    for b in &bubbles {
        let f = sim.plugin().fsm(*b).unwrap();
        if !matches!(
            f.state,
            static_bubble::FsmState::SOff | static_bubble::FsmState::SDd
        ) {
            let core = sim.core();
            println!("node {}: {:?} count={} tdr={} bubble_attach={:?} bubble_occupied={} occupant_wants={:?}",
                b.0, f.state, f.count(core.time()), f.tdr, core.bubble_attach(*b),
                core.bubble_occupant(*b).is_some(),
                core.bubble_occupant(*b).map(|p| p.desired_hop()));
        }
    }
}
