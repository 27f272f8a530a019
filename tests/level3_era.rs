//! The pre-June-2017 configuration: Level3 as a third offload CDN.
//!
//! The paper notes Level3 "was removed from the request mapping in late
//! June 2017" — i.e. the removal was a configuration change, not a code
//! change. This test re-enables the old configuration and checks the third
//! selector branch comes back, and that the measured (default)
//! configuration has no trace of it.

use metacdn_suite::core::names;
use metacdn_suite::dnssim::{resolve_cold, CompiledNamespace, QueryContext};
use metacdn_suite::dnswire::RecordType;
use metacdn_suite::geo::{Locode, Registry, SimTime};
use metacdn_suite::scenario::{loads, ScenarioConfig, World};
use std::net::Ipv4Addr;

fn resolve_many(world: &World, n: u32) -> Vec<String> {
    let now = SimTime::from_ymd(2017, 6, 1);
    loads::update_loads(world, now);
    let locode = Locode::parse("defra").unwrap();
    let city = Registry::by_locode(locode).unwrap();
    let ns = CompiledNamespace::compile(&world.ns);
    let mut seen = Vec::new();
    for i in 0..n {
        let ctx = QueryContext {
            client_ip: Ipv4Addr::from(0x0AAA_0000 + i * 17),
            locode,
            coord: city.coord,
            continent: city.continent,
            now,
        };
        let (trace, _) = resolve_cold(&ns, &names::entry(), RecordType::A, &ctx);
        for (_, to, _) in trace.cname_edges() {
            seen.push(to.to_string());
        }
    }
    seen
}

#[test]
fn level3_branch_exists_before_removal() {
    let mut cfg = ScenarioConfig::fast();
    cfg.enable_level3 = true;
    let world = World::build(&cfg);
    let seen = resolve_many(&world, 300);
    assert!(
        seen.iter().any(|n| n == "apple.download.lvl3.net"),
        "pre-removal config must route some clients via Level3"
    );
    // And its answers resolve to Level3 address space.
    let l3_net = metacdn_suite::netsim::Ipv4Net::parse("4.23.0.0/16").unwrap();
    assert!(world.topo.origin_of(l3_net.nth(5).unwrap()).is_some());
}

#[test]
fn level3_absent_after_removal() {
    let world = World::build(&ScenarioConfig::fast());
    let seen = resolve_many(&world, 300);
    assert!(
        !seen.iter().any(|n| n.contains("lvl3")),
        "the measured configuration has no Level3 branch"
    );
}

#[test]
fn apac_never_uses_level3_even_when_enabled() {
    // §3.2: APAC offered only Akamai and Limelight even pre-removal.
    let mut cfg = ScenarioConfig::fast();
    cfg.enable_level3 = true;
    let world = World::build(&cfg);
    let now = SimTime::from_ymd(2017, 6, 1);
    loads::update_loads(&world, now);
    let locode = Locode::parse("jptyo").unwrap();
    let city = Registry::by_locode(locode).unwrap();
    let ns = CompiledNamespace::compile(&world.ns);
    for i in 0..200u32 {
        let ctx = QueryContext {
            client_ip: Ipv4Addr::from(0x0ABB_0000 + i * 29),
            locode,
            coord: city.coord,
            continent: city.continent,
            now,
        };
        let (trace, _) = resolve_cold(&ns, &names::entry(), RecordType::A, &ctx);
        for (_, to, _) in trace.cname_edges() {
            assert!(!to.to_string().contains("lvl3"), "APAC client reached Level3");
        }
    }
}
