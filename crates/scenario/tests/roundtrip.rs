//! Acceptance: a [`Scenario`] round-trips `spec → JSON/TOML → spec`
//! losslessly, for every enum arm the spec can hold.

use sb_scenario::{BubbleSpec, Design, FaultSpec, Scenario, TrafficSpec};
use sb_sim::SimConfig;
use sb_topology::{FaultKind, NodeId};

fn exercise(scenario: Scenario) {
    let json = scenario.to_json().expect("to json");
    let from_json = Scenario::from_json(&json).expect("from json");
    assert_eq!(from_json, scenario, "JSON round trip\n{json}");

    let toml = scenario.to_toml().expect("to toml");
    let from_toml = Scenario::from_toml(&toml).expect("from toml");
    assert_eq!(from_toml, scenario, "TOML round trip\n{toml}");

    // And across formats: JSON(spec) == JSON(TOML→spec).
    assert_eq!(from_toml.to_json().unwrap(), json);
}

#[test]
fn default_scenario_round_trips() {
    for design in [
        Design::SpanningTree,
        Design::TreeOnly,
        Design::EscapeVc,
        Design::StaticBubble,
        Design::Unprotected,
    ] {
        exercise(Scenario::new("defaults", design));
    }
}

#[test]
fn model_faults_round_trip() {
    for kind in [FaultKind::Links, FaultKind::Routers] {
        exercise(
            Scenario::new("faulted", Design::StaticBubble).with_faults(FaultSpec::Model {
                kind,
                count: 13,
                seed: 0xDEAD_BEEF,
            }),
        );
    }
}

#[test]
fn mixed_faults_round_trip() {
    exercise(
        Scenario::new("mixed", Design::EscapeVc).with_faults(FaultSpec::Mixed {
            links: 12,
            routers: 3,
            seed: 42,
        }),
    );
}

#[test]
fn traffic_variants_round_trip() {
    for traffic in [
        TrafficSpec::Idle,
        TrafficSpec::Uniform {
            rate: 0.125,
            single_vnet: false,
        },
        TrafficSpec::BitComplement {
            rate: 0.37,
            single_vnet: true,
        },
    ] {
        exercise(Scenario::new("traffic", Design::SpanningTree).with_traffic(traffic));
    }
}

#[test]
fn explicit_bubbles_round_trip() {
    exercise(
        Scenario::new("bubbles", Design::StaticBubble).with_bubbles(BubbleSpec::Explicit(vec![
            NodeId::from(0usize),
            NodeId::from(9usize),
            NodeId::from(62usize),
        ])),
    );
}

#[test]
fn awkward_rates_and_names_round_trip() {
    exercise(
        Scenario::new(
            "weird \"name\" with\n newline # and comment",
            Design::TreeOnly,
        )
        .with_rate(0.1 + 0.2) // 0.30000000000000004 — shortest-repr must hold
        .with_mesh(16, 3)
        .with_config(SimConfig::default())
        .with_seed(u64::MAX),
    );
}

#[test]
fn toml_text_is_sectioned_like_a_config_file() {
    let toml = Scenario::new("doc", Design::StaticBubble)
        .with_faults(FaultSpec::Model {
            kind: FaultKind::Links,
            count: 8,
            seed: 7,
        })
        .to_toml()
        .unwrap();
    assert!(toml.contains("name = \"doc\""), "{toml}");
    assert!(toml.contains("design = \"StaticBubble\""), "{toml}");
    assert!(toml.contains("[faults.Model]"), "{toml}");
    assert!(toml.contains("[traffic.Uniform]"), "{toml}");
    assert!(toml.contains("[config]"), "{toml}");
}

#[test]
fn built_runner_matches_spec_semantics() {
    // The spec that claims 10 link faults really runs on a topology with 10
    // dead links, and the built runner delivers packets.
    let scenario = Scenario::new("semantics", Design::StaticBubble)
        .with_faults(FaultSpec::Model {
            kind: FaultKind::Links,
            count: 10,
            seed: 3,
        })
        .with_rate(0.05)
        .with_warmup(200)
        .with_cycles(1_500);
    let topo = scenario.topology();
    assert_eq!(
        topo.alive_links().count(),
        scenario.mesh().link_count() - 10
    );
    let out = scenario.run();
    assert!(out.stats.delivered_packets > 0);
    // Round-tripping the spec and re-running is bit-identical.
    let again = Scenario::from_toml(&scenario.to_toml().unwrap())
        .unwrap()
        .run();
    assert_eq!(again.stats, out.stats);
}

#[test]
fn specs_with_a_stale_threads_field_still_load() {
    // Spec files written before the `threads` field was removed still
    // carry it; the parser skips the unknown key, and the leftover line
    // must not change the scenario or its result-cache key.
    let scenario = Scenario::new("stale", Design::StaticBubble).with_faults(FaultSpec::Model {
        kind: FaultKind::Links,
        count: 15,
        seed: 7,
    });
    let toml = format!("threads = 4\n{}", scenario.to_toml().unwrap());
    let json = scenario
        .to_json()
        .unwrap()
        .replacen('{', "{\n  \"threads\": 4,", 1);
    for parsed in [
        Scenario::from_toml(&toml).expect("stale TOML loads"),
        Scenario::from_json(&json).expect("stale JSON loads"),
    ] {
        assert_eq!(parsed, scenario);
        assert_eq!(
            parsed.content_fingerprint().unwrap(),
            scenario.content_fingerprint().unwrap()
        );
    }
}
