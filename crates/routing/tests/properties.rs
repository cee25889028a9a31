//! Property-based tests for routing over irregular topologies.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;
use sb_routing::{
    ChannelDependencyGraph, MinimalRouting, RootPolicy, Route, RouteSource, UpDownRouting,
};
use sb_topology::{
    connected_components, distances_from, ComponentMap, Direction, FaultKind, FaultModel, Mesh,
    NodeId, Topology, DIRECTIONS,
};

fn arb_faulty_topology() -> impl Strategy<Value = sb_topology::Topology> {
    (3u16..8, 3u16..8, any::<u64>(), 0usize..25).prop_map(|(w, h, seed, faults)| {
        let mesh = Mesh::new(w, h);
        let faults = faults.min(mesh.link_count() / 2);
        let mut rng = StdRng::seed_from_u64(seed);
        FaultModel::new(FaultKind::Links, faults).inject(mesh, &mut rng)
    })
}

/// Meshes up to 16×16 with link *and* router faults; heavy draws split the
/// mesh into several components.
fn arb_mixed_fault_topology() -> impl Strategy<Value = Topology> {
    (
        2u16..=16,
        2u16..=16,
        any::<u64>(),
        0.0f64..0.5,
        0.0f64..0.15,
    )
        .prop_map(|(w, h, seed, link_frac, router_frac)| {
            let mesh = Mesh::new(w, h);
            let links = (mesh.link_count() as f64 * link_frac) as usize;
            let routers = (mesh.node_count() as f64 * router_frac) as usize;
            mixed_faults(mesh, seed, links, routers)
        })
}

fn mixed_faults(mesh: Mesh, seed: u64, links: usize, routers: usize) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut topo = FaultModel::new(FaultKind::Links, links).inject(mesh, &mut rng);
    for i in sample(&mut rng, mesh.node_count(), routers) {
        topo.remove_router(NodeId::from(i));
    }
    topo
}

/// The up*/down* route BFS as first written: a `VecDeque` over
/// `(node, gone_down)` states, `Option` parents, `is_up_move` per move.
fn reference_route(
    routing: &UpDownRouting,
    components: &ComponentMap,
    src: NodeId,
    dst: NodeId,
) -> Option<Route> {
    if components.component_of(src)? != components.component_of(dst)? {
        return None;
    }
    if src == dst {
        return Some(Route::default());
    }
    let mesh = routing.topology().mesh();
    let n = mesh.node_count();
    let mut prev: Vec<Option<(usize, Direction)>> = vec![None; n * 2];
    let mut visited = vec![false; n * 2];
    let start = src.index() * 2;
    visited[start] = true;
    let mut queue = std::collections::VecDeque::from([start]);
    let mut goal: Option<usize> = None;
    'bfs: while let Some(state) = queue.pop_front() {
        let node = NodeId::from(state / 2);
        let gone_down = state % 2 == 1;
        for dir in DIRECTIONS {
            let Some(up) = routing.is_up_move(node, dir) else {
                continue;
            };
            if gone_down && up {
                continue;
            }
            let next_node = mesh.neighbor(node, dir).expect("alive link");
            let next_state = next_node.index() * 2 + usize::from(gone_down || !up);
            if visited[next_state] {
                continue;
            }
            visited[next_state] = true;
            prev[next_state] = Some((state, dir));
            if next_node == dst {
                goal = Some(next_state);
                break 'bfs;
            }
            queue.push_back(next_state);
        }
    }
    let mut state = goal?;
    let mut hops = Vec::new();
    while let Some((p, dir)) = prev[state] {
        hops.push(dir);
        state = p;
    }
    hops.reverse();
    Some(Route::new(hops))
}

/// Pin the fused constructor's roots, levels and orientation against
/// per-root `distances_from`, then every ordered pair's route and
/// admission against [`reference_route`].
fn check_updown_against_reference(topo: &Topology, policy: RootPolicy) {
    let routing = UpDownRouting::with_root_policy(topo, policy);
    let components = connected_components(topo);
    let mesh = topo.mesh();
    let mut level = vec![None; mesh.node_count()];
    let mut root = vec![None; mesh.node_count()];
    for c in 0..components.count() {
        let r = match policy {
            RootPolicy::Arbitrary => components.members(c).next(),
            RootPolicy::Center => topo.center_of_component(&components, c),
        };
        let dist = distances_from(topo, r.expect("non-empty component"));
        for m in components.members(c) {
            level[m.index()] = dist[m.index()];
            root[m.index()] = r;
        }
    }
    for a in mesh.nodes() {
        assert_eq!(routing.level(a), level[a.index()], "level of {a}");
        assert_eq!(routing.root_of(a), root[a.index()], "root of {a}");
        for dir in DIRECTIONS {
            let up = topo.link_alive(a, dir).then(|| {
                let b = mesh.neighbor(a, dir).expect("alive link");
                (level[b.index()], b) < (level[a.index()], a)
            });
            assert_eq!(routing.is_up_move(a, dir), up, "{a} along {dir}");
        }
    }
    let mut rng = StdRng::seed_from_u64(0);
    for a in mesh.nodes() {
        for b in mesh.nodes() {
            let expected = reference_route(&routing, &components, a, b);
            assert_eq!(routing.routable(a, b), expected.is_some(), "{a}->{b}");
            assert_eq!(routing.route(a, b, &mut rng), expected, "{a}->{b}");
        }
    }
}

#[test]
fn updown_matches_reference_on_16x16_meshes() {
    // The benchmark's fault counts (24 links, 4 routers), and a heavy draw
    // that leaves several components.
    let mesh = Mesh::new(16, 16);
    let heavy = mixed_faults(mesh, 3, 192, 25);
    assert!(connected_components(&heavy).count() > 1);
    for topo in [mixed_faults(mesh, 0x5B00, 24, 4), heavy] {
        for policy in [RootPolicy::Arbitrary, RootPolicy::Center] {
            check_updown_against_reference(&topo, policy);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn updown_matches_reference_route(topo in arb_mixed_fault_topology()) {
        for policy in [RootPolicy::Arbitrary, RootPolicy::Center] {
            check_updown_against_reference(&topo, policy);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn minimal_routes_trace_to_destination(topo in arb_faulty_topology(), seed in any::<u64>()) {
        let routing = MinimalRouting::new(&topo);
        let mut rng = StdRng::seed_from_u64(seed);
        for a in topo.alive_nodes().step_by(3) {
            for b in topo.alive_nodes().step_by(5) {
                match routing.route(a, b, &mut rng) {
                    Some(r) => {
                        prop_assert_eq!(r.trace(&topo, a), Some(b));
                        prop_assert_eq!(r.hops() as u32, routing.distance(a, b).unwrap());
                    }
                    None => prop_assert!(!topo.reachable(a, b)),
                }
            }
        }
    }

    #[test]
    fn minimal_routes_never_uturn(topo in arb_faulty_topology(), seed in any::<u64>()) {
        // A shortest path can never immediately backtrack.
        let routing = MinimalRouting::new(&topo);
        let mut rng = StdRng::seed_from_u64(seed);
        for a in topo.alive_nodes().step_by(4) {
            for b in topo.alive_nodes().step_by(7) {
                if let Some(r) = routing.route(a, b, &mut rng) {
                    prop_assert!(!r.has_u_turn());
                }
            }
        }
    }

    #[test]
    fn updown_routes_are_legal_and_complete(topo in arb_faulty_topology()) {
        let routing = UpDownRouting::new(&topo);
        let mut rng = StdRng::seed_from_u64(0);
        for a in topo.alive_nodes().step_by(2) {
            for b in topo.alive_nodes().step_by(3) {
                match routing.route(a, b, &mut rng) {
                    Some(r) => {
                        prop_assert_eq!(r.trace(&topo, a), Some(b));
                        prop_assert!(routing.is_legal(a, &r));
                    }
                    None => prop_assert!(!topo.reachable(a, b)),
                }
            }
        }
    }

    #[test]
    fn updown_cdg_always_acyclic(topo in arb_faulty_topology()) {
        let routing = UpDownRouting::new(&topo);
        let mut rng = StdRng::seed_from_u64(1);
        let cdg = ChannelDependencyGraph::from_route_source(&topo, &routing, 1, &mut rng);
        prop_assert!(cdg.is_acyclic());
    }

    #[test]
    fn updown_never_shorter_than_minimal(topo in arb_faulty_topology()) {
        let ud = UpDownRouting::new(&topo);
        let minimal = MinimalRouting::new(&topo);
        let mut rng = StdRng::seed_from_u64(2);
        for a in topo.alive_nodes().step_by(3) {
            for b in topo.alive_nodes().step_by(4) {
                if let (Some(r), Some(d)) = (ud.route(a, b, &mut rng), minimal.distance(a, b)) {
                    prop_assert!(r.hops() as u32 >= d);
                }
            }
        }
    }

    #[test]
    fn reachability_agrees_between_routings(topo in arb_faulty_topology()) {
        let ud = UpDownRouting::new(&topo);
        let minimal = MinimalRouting::new(&topo);
        let mut rng = StdRng::seed_from_u64(3);
        let nodes: Vec<NodeId> = topo.alive_nodes().collect();
        for &a in nodes.iter().step_by(3) {
            for &b in nodes.iter().step_by(5) {
                prop_assert_eq!(
                    ud.route(a, b, &mut rng).is_some(),
                    minimal.is_reachable(a, b)
                );
            }
        }
    }
}
