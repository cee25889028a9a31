//! Up*/down* spanning-tree routing (Autonet), the paper's baseline for
//! deadlock *avoidance* on irregular topologies.
//!
//! A BFS spanning tree is built per connected component; every link gets an
//! *up* end (the endpoint closer to the root, ties to the lower node id) and
//! a *down* end. A legal route traverses zero or more up moves followed by
//! zero or more down moves — the forbidden down→up turn is what breaks every
//! cyclic dependency. All cross-component pairs are unroutable.
//!
//! Routes returned here are *shortest legal* paths, computed by BFS over the
//! `(node, has-gone-down)` state graph. Legality is suffix-closed, so a
//! packet stamped with such a route (including mid-flight re-stamping when a
//! packet enters the escape network) can never participate in a down→up
//! dependency.
//!
//! Construction records one *move mask* byte per router: bit `d` says the
//! link along `DIRECTIONS[d]` is alive, bit `4 + d` that the move along it is
//! an up move. Both are set inside the per-component level BFS, which finds
//! neighbours by index arithmetic (`i ± 1`, `i ± width`). The route BFS
//! reads only these masks; its visit and parent state packs into one byte
//! per router. Nothing is cached between calls: routing stays an immutable
//! function of the topology. Admission ([`RouteSource::routable`]) needs no search at all,
//! because up*/down* connects every pair of a component (up the tree to the
//! root, then down).

use crate::route::{Route, RouteSource};

use sb_topology::{connected_components, ComponentMap, Direction, NodeId, Topology, DIRECTIONS};

/// How the spanning-tree root of each component is chosen.
///
/// Ariadne's distributed construction roots the tree at an effectively
/// arbitrary "winner" node (the first to flood); uDIREC and software
/// approaches optimize the choice. [`RootPolicy::Arbitrary`] models the
/// former (lowest alive id), [`RootPolicy::Center`] the latter (minimum
/// eccentricity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RootPolicy {
    /// Lowest-id alive node of the component (Ariadne-style winner).
    #[default]
    Arbitrary,
    /// A component center: minimal eccentricity, ties to the lowest id.
    Center,
}

/// Up-down routing over an irregular topology.
///
/// ```
/// use sb_routing::{RouteSource, UpDownRouting};
/// use sb_topology::{Mesh, Topology};
/// use rand::SeedableRng;
///
/// let mesh = Mesh::new(8, 8);
/// let routing = UpDownRouting::new(&Topology::full(mesh));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let route = routing
///     .route(mesh.node_at(0, 0), mesh.node_at(7, 0), &mut rng)
///     .expect("same component");
/// // Up-down may be forced through the tree: never shorter than minimal.
/// assert!(route.hops() >= 7);
/// ```
#[derive(Debug, Clone)]
pub struct UpDownRouting {
    topo: Topology,
    components: ComponentMap,
    /// BFS level from the component root; `None` for dead routers.
    level: Vec<Option<u32>>,
    /// Root of each component.
    roots: Vec<NodeId>,
    /// Per-router move mask: bit `d` = link along `DIRECTIONS[d]` alive,
    /// bit `4 + d` = that move is up. Zero for dead routers.
    moves: Vec<u8>,
}

/// Route-BFS visit byte, state 0 (not yet gone down): reached, and the
/// direction of the hop into it in bits 1–2. Its parent is always state 0.
const SEEN_UP: u8 = 1;
/// Route-BFS visit byte, state 1 (gone down): reached, the direction of the
/// hop into it in bits 4–5, and its parent's state in [`PARENT_DOWN`].
const SEEN_DOWN: u8 = 1 << 3;
/// Route-BFS visit byte: state 1 was reached from its parent's state 1.
const PARENT_DOWN: u8 = 1 << 6;

impl UpDownRouting {
    /// Build the spanning trees (one per component, with the default
    /// [`RootPolicy::Arbitrary`] Ariadne-style roots) and the up/down link
    /// orientation.
    pub fn new(topo: &Topology) -> Self {
        Self::with_root_policy(topo, RootPolicy::default())
    }

    /// Build with an explicit root policy.
    pub fn with_root_policy(topo: &Topology, policy: RootPolicy) -> Self {
        let components = connected_components(topo);
        let n = topo.mesh().node_count();
        let steps = index_steps(topo.mesh().width());
        let mut level = vec![None; n];
        let mut moves = vec![0u8; n];
        let mut roots = Vec::with_capacity(components.count() as usize);
        let mut queue = std::collections::VecDeque::new();
        for c in 0..components.count() {
            let root = match policy {
                RootPolicy::Center => topo
                    .center_of_component(&components, c)
                    .expect("component is non-empty"),
                RootPolicy::Arbitrary => components
                    .members(c)
                    .next()
                    .expect("component is non-empty"),
            };
            roots.push(root);
            level[root.index()] = Some(0);
            queue.push_back(root.index());
            while let Some(u) = queue.pop_front() {
                let lu = level[u].expect("queued node has a level");
                for (d, dir) in DIRECTIONS.into_iter().enumerate() {
                    if !topo.link_alive(NodeId::from(u), dir) {
                        continue;
                    }
                    let v = u.wrapping_add(steps[d]);
                    // Each neighbour's level is final once `u` is expanded.
                    let lv = *level[v].get_or_insert_with(|| {
                        queue.push_back(v);
                        lu + 1
                    });
                    // The up end of a link is the endpoint closer to the
                    // root, ties to the lower id.
                    moves[u] |= 1 << d | u8::from((lv, v) < (lu, u)) << (4 + d);
                }
            }
        }
        UpDownRouting {
            topo: topo.clone(),
            components,
            level,
            roots,
            moves,
        }
    }

    /// The spanning-tree root of the component containing `node`.
    pub fn root_of(&self, node: NodeId) -> Option<NodeId> {
        self.components
            .component_of(node)
            .map(|c| self.roots[c as usize])
    }

    /// BFS level of `node` from its component root.
    pub fn level(&self, node: NodeId) -> Option<u32> {
        self.level[node.index()]
    }

    /// Is the move from `node` along alive link `dir` an *up* move (towards
    /// the up end of that link)? `None` for dead links.
    pub fn is_up_move(&self, node: NodeId, dir: Direction) -> Option<bool> {
        let (mask, d) = (self.moves[node.index()], dir.index());
        (mask >> d & 1 == 1).then_some(mask >> (4 + d) & 1 == 1)
    }

    /// Is `route` (starting at `src`) legal under the up*/down* rule?
    pub fn is_legal(&self, src: NodeId, route: &Route) -> bool {
        let mesh = self.topo.mesh();
        let mut cur = src;
        let mut gone_down = false;
        for &d in route.directions() {
            match self.is_up_move(cur, d) {
                Some(true) if gone_down => return false,
                Some(up) => gone_down |= !up,
                None => return false,
            }
            cur = mesh.neighbor(cur, d).expect("checked alive");
        }
        true
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }
}

/// Node-index offset of one hop along each of `DIRECTIONS` on a mesh of the
/// given width (row-major ids; negative offsets wrap).
fn index_steps(width: u16) -> [usize; 4] {
    let w = usize::from(width);
    [w, 1, w.wrapping_neg(), usize::MAX]
}

impl RouteSource for UpDownRouting {
    /// Shortest legal up*/down* route; deterministic (ignores `rng`).
    ///
    /// A BFS over `(node, gone_down)` states that expands each state's
    /// moves in `DIRECTIONS` order and stops at the first state of `dst` it
    /// discovers.
    fn route(&self, src: NodeId, dst: NodeId, _rng: &mut dyn rand::RngCore) -> Option<Route> {
        if !self.routable(src, dst) {
            return None;
        }
        if src == dst {
            return Some(Route::default());
        }
        let steps = index_steps(self.topo.mesh().width());
        let (src, dst) = (src.index(), dst.index());
        let mut seen = vec![0u8; self.moves.len()];
        // Queued states, `node * 2 + gone_down`, popped from `head`.
        let mut queue: Vec<u32> = Vec::with_capacity(2 * self.moves.len());
        seen[src] = SEEN_UP;
        queue.push(2 * src as u32);
        let mut head = 0;
        let (mut node, mut gone_down) = 'bfs: loop {
            let state = *queue.get(head)?;
            head += 1;
            let (node, gone_down) = (state as usize / 2, state & 1 == 1);
            let mask = self.moves[node];
            let mut legal = mask & 0xF;
            if gone_down {
                // Once gone down, up moves are forbidden.
                legal &= !(mask >> 4);
            }
            while legal != 0 {
                let d = legal.trailing_zeros() as usize;
                legal &= legal - 1;
                let next = node.wrapping_add(steps[d]);
                let next_down = gone_down || mask >> (4 + d) & 1 == 0;
                let visit = &mut seen[next];
                if next_down {
                    if *visit & SEEN_DOWN != 0 {
                        continue;
                    }
                    *visit |= SEEN_DOWN | (d as u8) << 4;
                    if gone_down {
                        *visit |= PARENT_DOWN;
                    }
                } else {
                    if *visit & SEEN_UP != 0 {
                        continue;
                    }
                    *visit |= SEEN_UP | (d as u8) << 1;
                }
                if next == dst {
                    break 'bfs (next, next_down);
                }
                queue.push(2 * next as u32 + u32::from(next_down));
            }
        };
        // Walk the parents back to the start state (src, not gone down).
        let mut hops = Vec::new();
        while node != src || gone_down {
            let visit = seen[node];
            let d = if gone_down {
                gone_down = visit & PARENT_DOWN != 0;
                visit >> 4 & 3
            } else {
                visit >> 1 & 3
            };
            hops.push(DIRECTIONS[d as usize]);
            node = node.wrapping_sub(steps[d as usize]);
        }
        hops.reverse();
        Some(Route::new(hops))
    }

    /// O(1): up*/down* connects every pair within a component, so this is
    /// exactly `route(src, dst).is_some()`.
    fn routable(&self, src: NodeId, dst: NodeId) -> bool {
        self.components.connected(src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sb_topology::{FaultKind, FaultModel, Mesh};

    fn all_pairs_routes(routing: &UpDownRouting) -> Vec<(NodeId, Route)> {
        let mesh = routing.topology().mesh();
        let mut rng = StdRng::seed_from_u64(0);
        let mut out = Vec::new();
        for a in mesh.nodes() {
            for b in mesh.nodes() {
                if let Some(r) = routing.route(a, b, &mut rng) {
                    out.push((a, r));
                }
            }
        }
        out
    }

    #[test]
    fn full_mesh_routes_exist_and_are_legal() {
        let mesh = Mesh::new(6, 6);
        let topo = Topology::full(mesh);
        let routing = UpDownRouting::new(&topo);
        let routes = all_pairs_routes(&routing);
        assert_eq!(routes.len(), 36 * 36);
        for (src, r) in &routes {
            assert!(routing.is_legal(*src, r), "illegal route {r} from {src}");
            assert!(!r.has_u_turn());
        }
    }

    #[test]
    fn routes_connect_components_only() {
        let mesh = Mesh::new(4, 2);
        let mut topo = Topology::full(mesh);
        for y in 0..2 {
            topo.remove_link(mesh.node_at(1, y), Direction::East);
        }
        let routing = UpDownRouting::new(&topo);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(routing
            .route(mesh.node_at(0, 0), mesh.node_at(1, 1), &mut rng)
            .is_some());
        assert!(routing
            .route(mesh.node_at(0, 0), mesh.node_at(2, 0), &mut rng)
            .is_none());
    }

    #[test]
    fn up_down_reaches_everything_under_heavy_faults() {
        let mesh = Mesh::new(8, 8);
        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = FaultModel::new(FaultKind::Links, 30).inject(mesh, &mut rng);
            let routing = UpDownRouting::new(&topo);
            let comps = connected_components(&topo);
            for a in topo.alive_nodes() {
                for b in topo.alive_nodes() {
                    let connected = comps.connected(a, b);
                    let route = routing.route(a, b, &mut rng);
                    assert_eq!(route.is_some(), connected, "{a}->{b}");
                    if let Some(r) = route {
                        assert_eq!(r.trace(&topo, a), Some(b));
                        assert!(routing.is_legal(a, &r));
                    }
                }
            }
        }
    }

    #[test]
    fn up_move_orientation_antisymmetric() {
        let mesh = Mesh::new(8, 8);
        let mut rng = StdRng::seed_from_u64(3);
        let topo = FaultModel::new(FaultKind::Routers, 10).inject(mesh, &mut rng);
        let routing = UpDownRouting::new(&topo);
        for n in topo.alive_nodes() {
            for (dir, m) in topo.neighbors(n) {
                let a = routing.is_up_move(n, dir).unwrap();
                let b = routing.is_up_move(m, dir.opposite()).unwrap();
                assert_ne!(a, b, "link {n}-{m} oriented both ways");
            }
        }
    }

    #[test]
    fn root_has_level_zero_and_only_down_moves_out() {
        let mesh = Mesh::new(8, 8);
        let topo = Topology::full(mesh);
        let routing = UpDownRouting::new(&topo);
        // Default policy roots at the lowest alive id.
        assert_eq!(routing.root_of(mesh.node_at(5, 5)), Some(NodeId(0)));
        let root = routing.root_of(mesh.node_at(0, 0)).unwrap();
        assert_eq!(routing.level(root), Some(0));
        for (dir, _) in topo.neighbors(root) {
            assert_eq!(routing.is_up_move(root, dir), Some(false));
        }
    }

    #[test]
    fn detour_through_tree_can_exceed_minimal() {
        // The motivating example of Fig. 1: some flows are forced through the
        // tree and become non-minimal on irregular topologies.
        let mesh = Mesh::new(8, 8);
        let mut stretched = 0;
        let mut rng = StdRng::seed_from_u64(0);
        for seed in 0..5u64 {
            let mut trng = StdRng::seed_from_u64(seed);
            let topo = FaultModel::new(FaultKind::Links, 20).inject(mesh, &mut trng);
            let routing = UpDownRouting::new(&topo);
            let minimal = crate::MinimalRouting::new(&topo);
            for a in topo.alive_nodes() {
                for b in topo.alive_nodes() {
                    let Some(min) = minimal.distance(a, b) else {
                        continue;
                    };
                    let ud = routing.route(a, b, &mut rng).unwrap().hops() as u32;
                    assert!(ud >= min);
                    if ud > min {
                        stretched += 1;
                    }
                }
            }
        }
        assert!(
            stretched > 0,
            "up-down should stretch some pairs on irregular topologies"
        );
    }
}
