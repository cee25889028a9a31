//! The escape-VC deadlock-recovery baseline (Section II-B, second baseline).
//!
//! One VC per vnet per input port is reserved as the *escape VC*. Regular
//! packets use deadlock-prone minimal routes in the remaining VCs. A
//! per-router timeout (the same detection threshold `t_DD` as Static Bubble)
//! moves a stalled packet into the escape network: its route is re-stamped
//! with a deadlock-free up*/down* spanning-tree path from its current router
//! and from then on it may only occupy escape VCs. The escape network's
//! channel dependencies are acyclic (up-down), so it always drains, which in
//! turn unblocks the regular VCs.
//!
//! Costs modelled exactly as Table I: the reservation removes one VC per
//! vnet per port from regular traffic at **every** router (vs. one extra
//! buffer at 21 routers for Static Bubble), which is where the throughput
//! gap of Fig. 9 comes from.

use crate::netcore::NetCore;
use crate::packet::{PacketId, PacketMode};
use crate::plugin::{InputRef, Plugin, SlotRef};
use crate::vc::VcRef;
use sb_routing::{RouteSource, UpDownRouting};
use sb_topology::{Direction, NodeId, Topology, DIRECTIONS};

/// The escape-VC recovery plugin.
#[derive(Debug)]
pub struct EscapeVcPlugin {
    updown: UpDownRouting,
    tdd: u64,
    /// Per-VC stall counters, indexed by flat vc id ([`NetCore::flat_vc`])
    /// and sized lazily on first use. `Some((pkt, armed_at))` means the
    /// slot's head has been switchable-but-stalled since cycle `armed_at`,
    /// the first cycle its counter counts: the counter is an armed-at stamp
    /// and reads the same under any clock (see [`EscapeVcPlugin::deadline`]).
    /// A flat table beats the old `HashMap<VcRef, _>` on the hot sweep: no
    /// hashing, and clearing a lapsed entry is one store.
    stalls: Vec<Option<(PacketId, u64)>>,
    /// Number of `Some` entries in `stalls`, so `next_timer` can bail out
    /// without scanning the table when nothing is stalled (the common case).
    tracked: usize,
    escapes: u64,
    rng: rand::rngs::StdRng,
}

impl EscapeVcPlugin {
    /// Build the plugin for `topo` with detection threshold `tdd` (cycles a
    /// head packet may stall before being moved to the escape network).
    pub fn new(topo: &Topology, tdd: u64) -> Self {
        use rand::SeedableRng;
        EscapeVcPlugin {
            updown: UpDownRouting::new(topo),
            tdd: tdd.max(1),
            stalls: Vec::new(),
            tracked: 0,
            escapes: 0,
            rng: rand::rngs::StdRng::seed_from_u64(0xE5CA),
        }
    }

    /// Number of packets that have been moved into the escape network.
    pub fn escapes(&self) -> u64 {
        self.escapes
    }

    /// The escape VC (flat index) of `vnet`: the last VC of the vnet's
    /// group.
    pub fn escape_vc(core: &NetCore, vnet: u8) -> u8 {
        core.config().vcs_of_vnet(vnet).end - 1
    }

    /// Is flat index `vc` an escape VC under `core`'s configuration?
    pub fn is_escape_vc(core: &NetCore, vc: u8) -> bool {
        let cfg = core.config();
        vc % cfg.vcs_per_vnet == cfg.vcs_per_vnet - 1
    }

    /// The cycle whose tick fires a stall counter armed at `armed_at`: the
    /// counter reads `t + 1 − armed_at` at the tick of cycle `t` and fires
    /// at `≥ t_DD`.
    fn deadline(&self, armed_at: u64) -> u64 {
        armed_at + self.tdd - 1
    }

    fn clear_stall(&mut self, i: usize) {
        if self.stalls[i].take().is_some() {
            self.tracked -= 1;
        }
    }
}

impl Plugin for EscapeVcPlugin {
    fn pick_slot(
        &self,
        core: &NetCore,
        router: NodeId,
        port: Direction,
        pkt: &crate::packet::Packet,
    ) -> Option<SlotRef> {
        let escape = Self::escape_vc(core, pkt.vnet);
        match pkt.mode {
            PacketMode::Normal => core
                .config()
                .vcs_of_vnet(pkt.vnet)
                .find(|&vc| vc != escape && core.vc_is_free(VcRef { router, port, vc }))
                .map(SlotRef::Regular),
            PacketMode::Escape => core
                .vc_is_free(VcRef {
                    router,
                    port,
                    vc: escape,
                })
                .then_some(SlotRef::Regular(escape)),
        }
    }

    fn after_cycle(&mut self, core: &mut NetCore) {
        // Track stalls; escalate to the escape network on timeout.
        let vcs = core.config().vcs_per_port() as u8;
        let n = core.topology().mesh().node_count();
        self.stalls.resize(n * 4 * vcs as usize, None);
        let alive: Vec<NodeId> = core.topology().alive_nodes().collect();
        let now = core.time();
        for router in alive {
            for port in DIRECTIONS {
                for vc in 0..vcs {
                    let r = VcRef { router, port, vc };
                    let i = core.flat_vc(r);
                    let Some(pkt) = core.vc_occupant(r) else {
                        self.clear_stall(i);
                        continue;
                    };
                    if core.vc_ready_at(r).expect("occupied") > now || pkt.desired_hop().is_none() {
                        // Still arriving, or waiting only on the ejection
                        // port.
                        self.clear_stall(i);
                        continue;
                    }
                    let (id, dst, mode) = (pkt.id, pkt.dst, pkt.mode);
                    // A fresh (or re-owned) entry counts this very tick —
                    // entry creation always happens on the first cycle the
                    // condition holds, which is never inside a leaped gap.
                    let armed_at = match self.stalls[i] {
                        Some((owner, at)) if owner == id => at,
                        old => {
                            if old.is_none() {
                                self.tracked += 1;
                            }
                            self.stalls[i] = Some((id, now));
                            now
                        }
                    };
                    if now >= self.deadline(armed_at) {
                        // The counter restarts at 0: it counts again from
                        // the next cycle.
                        self.stalls[i] = Some((id, now + 1));
                        if mode == PacketMode::Escape {
                            continue;
                        }
                        if let Some(route) = self.updown.route(router, dst, &mut self.rng) {
                            core.with_packet_mut(InputRef::Vc(r), |p| {
                                p.restamp(route, PacketMode::Escape)
                            });
                            self.escapes += 1;
                        }
                    }
                }
            }
        }
    }

    fn next_timer(&self, core: &NetCore) -> Option<u64> {
        // Each tracked stall fires (escape or counter restart) at its
        // deadline. Entries whose condition lapsed are pruned at the next
        // tick anyway; their stale bound only wakes the engine early, never
        // late.
        if self.tracked == 0 {
            return None;
        }
        let now = core.time();
        self.stalls
            .iter()
            .flatten()
            .map(|&(_, armed_at)| self.deadline(armed_at).max(now))
            .min()
    }

    fn snapshot_state(&self) -> Result<String, String> {
        crate::json::to_json_string(&EscapeState {
            stalls: self.stalls.clone(),
            tracked: self.tracked,
            escapes: self.escapes,
            rng: self.rng.state(),
        })
        .map_err(|e| e.0)
    }

    fn restore_state(&mut self, blob: &str) -> Result<(), String> {
        let state: EscapeState = crate::json::from_json_str(blob).map_err(|e| e.0)?;
        self.stalls = state.stalls;
        self.tracked = state.tracked;
        self.escapes = state.escapes;
        self.rng = rand::rngs::StdRng::from_state(state.rng);
        Ok(())
    }
}

/// Snapshot blob of the escape plugin's mutable state. The up*/down*
/// spanning tree is a pure function of the topology and is rebuilt by the
/// constructor on restore.
#[derive(serde::Serialize, serde::Deserialize)]
struct EscapeState {
    stalls: Vec<Option<(PacketId, u64)>>,
    tracked: usize,
    escapes: u64,
    rng: [u64; 4],
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::Simulator;
    use crate::packet::NewPacket;
    use crate::traffic::{ScriptedTraffic, UniformTraffic};
    use sb_routing::MinimalRouting;
    use sb_topology::{Mesh, Topology};

    #[test]
    fn escape_vc_index_is_last_of_vnet() {
        let topo = Topology::full(Mesh::new(2, 2));
        let core = NetCore::new(&topo, SimConfig::default(), &[]);
        assert_eq!(EscapeVcPlugin::escape_vc(&core, 0), 3);
        assert_eq!(EscapeVcPlugin::escape_vc(&core, 2), 11);
        assert!(EscapeVcPlugin::is_escape_vc(&core, 7));
        assert!(!EscapeVcPlugin::is_escape_vc(&core, 6));
    }

    #[test]
    fn normal_packets_never_occupy_escape_vcs() {
        let mesh = Mesh::new(4, 4);
        let topo = Topology::full(mesh);
        let mut sim = Simulator::new(
            &topo,
            SimConfig::single_vnet(),
            Box::new(MinimalRouting::new(&topo)),
            EscapeVcPlugin::new(&topo, 1_000_000),
            UniformTraffic::new(0.1).single_vnet(),
            7,
        );
        for _ in 0..500 {
            sim.tick();
            let core = sim.core();
            let esc = EscapeVcPlugin::escape_vc(core, 0);
            for router in core.topology().alive_nodes() {
                for port in DIRECTIONS {
                    assert!(
                        core.vc_occupant(VcRef {
                            router,
                            port,
                            vc: esc
                        })
                        .is_none(),
                        "escape VC occupied without any timeout"
                    );
                }
            }
        }
        assert!(sim.core().stats().delivered_packets > 0);
    }

    #[test]
    fn stalled_packet_escapes_and_delivers() {
        // Single-VC-ish config: 2 VCs per vnet (1 regular + 1 escape).
        let mesh = Mesh::new(3, 3);
        let topo = Topology::full(mesh);
        let cfg = SimConfig {
            vnets: 1,
            vcs_per_vnet: 2,
            max_packet_flits: 5,
        };
        // Deterministic single packet; it cannot deadlock alone, so instead
        // verify the escape machinery by forcing tdd = 1 so it escapes at
        // the first stall (behind its own serialization none occurs — so
        // drive enough traffic to create contention).
        let script: Vec<(u64, NewPacket)> = (0..40)
            .map(|i| {
                (
                    i / 4,
                    NewPacket {
                        src: NodeId((i % 9) as u16),
                        dst: NodeId(((i * 5 + 3) % 9) as u16),
                        vnet: 0,
                        len_flits: 5,
                    },
                )
            })
            .filter(|(_, p)| p.src != p.dst)
            .collect();
        let n = script.len() as u64;
        let mut sim = Simulator::new(
            &topo,
            cfg,
            Box::new(MinimalRouting::new(&topo)),
            EscapeVcPlugin::new(&topo, 2),
            ScriptedTraffic::new(script),
            3,
        );
        assert!(sim.run_until_drained(5_000));
        assert_eq!(sim.core().stats().delivered_packets, n);
    }
}
