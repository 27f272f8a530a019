//! End-to-end mapping behaviour across crates: resolution through the full
//! world from many vantage points, TTL dynamics, IPv4-only behaviour, and
//! reproducibility.

use metacdn_suite::core::names;
use metacdn_suite::dnssim::{
    resolve_cold, CompiledNamespace, InternedResolver, NoInternedFaults, QueryContext,
    ResolveScratch,
};
use metacdn_suite::dnswire::RecordType;
use metacdn_suite::geo::{Continent, Duration, Registry, SimTime};
use metacdn_suite::scenario::classes::{attribute_interned, AttributionTable};
use metacdn_suite::scenario::{loads, CdnClass, ScenarioConfig, World};
use std::net::Ipv4Addr;

fn ctx_for(city_code: &str, ip: u32, now: SimTime) -> QueryContext {
    let locode = metacdn_suite::geo::Locode::parse(city_code).unwrap();
    let city = Registry::by_locode(locode).unwrap();
    QueryContext {
        client_ip: Ipv4Addr::from(ip),
        locode,
        coord: city.coord,
        continent: city.continent,
        now,
    }
}

#[test]
fn every_continent_resolves_to_a_routable_cache() {
    let world = World::build(&ScenarioConfig::fast());
    let now = SimTime::from_ymd(2017, 9, 15);
    loads::update_loads(&world, now);
    let ns = CompiledNamespace::compile(&world.ns);
    let cities = ["usnyc", "deber", "jptyo", "ausyd", "brsao", "zajnb", "cnsha", "inbom"];
    for (i, code) in cities.iter().enumerate() {
        let ctx = ctx_for(code, 0x0A20_0000 + i as u32 * 1000, now);
        let (trace, res) = resolve_cold(&ns, &names::entry(), RecordType::A, &ctx);
        res.unwrap_or_else(|e| panic!("{code}: {e:?}"));
        let addrs = trace.addresses();
        assert!(!addrs.is_empty(), "{code} got an empty answer");
        for ip in addrs {
            assert!(
                world.topo.origin_of(ip).is_some(),
                "{code}: answer {ip} is not BGP-routable"
            );
        }
    }
}

#[test]
fn china_and_india_divert_before_cdn_selection() {
    let world = World::build(&ScenarioConfig::fast());
    let now = SimTime::from_ymd(2017, 9, 15);
    loads::update_loads(&world, now);
    let ns = CompiledNamespace::compile(&world.ns);
    for (code, market) in [("cnsha", "china"), ("cnbjs", "china"), ("inbom", "india"), ("indel", "india")] {
        let ctx = ctx_for(code, 0x0A30_0000, now);
        let (trace, _) = resolve_cold(&ns, &names::entry(), RecordType::A, &ctx);
        let chain: Vec<String> =
            trace.cname_edges().iter().map(|(_, to, _)| to.to_string()).collect();
        assert!(
            chain.iter().any(|n| n.contains(&format!("{market}-lb"))),
            "{code} must divert to the {market} LB, chain: {chain:?}"
        );
        assert!(
            !chain.iter().any(|n| n.contains("applimg.com")),
            "{code} must never reach the Meta-CDN selector"
        );
    }
}

#[test]
fn no_aaaa_anywhere_in_the_mapping() {
    let world = World::build(&ScenarioConfig::fast());
    let now = SimTime::from_ymd(2017, 9, 15);
    loads::update_loads(&world, now);
    let ns = CompiledNamespace::compile(&world.ns);
    for code in ["usnyc", "deber", "jptyo"] {
        let ctx = ctx_for(code, 0x0A40_0000, now);
        let (trace, res) = resolve_cold(&ns, &names::entry(), RecordType::Aaaa, &ctx);
        res.unwrap();
        assert!(
            trace.addresses().is_empty(),
            "{code}: the paper found the mapping to be IPv4-only"
        );
    }
}

#[test]
fn ttl_hierarchy_controls_re_resolution() {
    let world = World::build(&ScenarioConfig::fast());
    let t0 = SimTime::from_ymd(2017, 9, 15);
    loads::update_loads(&world, t0);
    let ns = CompiledNamespace::compile(&world.ns);
    let mut scratch = ResolveScratch::new();
    let entry = ns.intern_in(&mut scratch, &names::entry());
    let mut r = InternedResolver::new();
    let mut ctx = ctx_for("defra", 0x0A50_0001, t0);
    r.resolve(&ns, &mut scratch, entry, RecordType::A, &ctx, &NoInternedFaults, 0, None).unwrap();
    let (hits0, _) = r.cache_stats();
    assert_eq!(hits0, 0, "cold cache");

    // 60 s later: entry (21600 s) and geo split (120 s) cached; the 15 s
    // selector and the short A records must be re-resolved.
    ctx.now = t0 + Duration::secs(60);
    r.resolve(&ns, &mut scratch, entry, RecordType::A, &ctx, &NoInternedFaults, 0, None).unwrap();
    let trace = ns.materialize_trace(&scratch, scratch.trace());
    let cached: Vec<bool> = trace.steps.iter().map(|s| s.from_cache).collect();
    assert!(cached[0] && cached[1], "long-TTL head stays cached: {cached:?}");
    assert!(!cached[2], "the 15 s selector re-decides: {cached:?}");

    // 3 minutes later the 120 s geo split has also expired.
    ctx.now = t0 + Duration::mins(3);
    let _ = r.resolve(&ns, &mut scratch, entry, RecordType::A, &ctx, &NoInternedFaults, 0, None);
    let trace = ns.materialize_trace(&scratch, scratch.trace());
    let cached: Vec<bool> = trace.steps.iter().map(|s| s.from_cache).collect();
    assert!(cached[0] && !cached[1], "geo split expired: {cached:?}");
}

#[test]
fn same_seed_worlds_resolve_identically() {
    let cfg = ScenarioConfig::fast();
    let w1 = World::build(&cfg);
    let w2 = World::build(&cfg);
    let now = SimTime::from_ymd_hms(2017, 9, 19, 18, 0, 0);
    loads::update_loads(&w1, now);
    loads::update_loads(&w2, now);
    let (ns1, ns2) = (CompiledNamespace::compile(&w1.ns), CompiledNamespace::compile(&w2.ns));
    for i in 0..50u32 {
        let ctx = ctx_for("deber", 0x0A60_0000 + i * 7, now);
        let (t1, _) = resolve_cold(&ns1, &names::entry(), RecordType::A, &ctx);
        let (t2, _) = resolve_cold(&ns2, &names::entry(), RecordType::A, &ctx);
        assert_eq!(t1.addresses(), t2.addresses(), "determinism violated at client {i}");
    }
}

#[test]
fn coverage_rule_shapes_south_america() {
    let world = World::build(&ScenarioConfig::fast());
    let now = SimTime::from_ymd(2017, 9, 15);
    loads::update_loads(&world, now);
    let ns = CompiledNamespace::compile(&world.ns);
    let attr = AttributionTable::build(ns.table());
    let mut scratch = ResolveScratch::new();
    let entry = ns.intern_in(&mut scratch, &names::entry());
    let mut apple_sa = 0;
    let mut apple_na = 0;
    for i in 0..300u32 {
        for (code, counter) in [("brsao", &mut apple_sa), ("usnyc", &mut apple_na)] {
            let ctx = ctx_for(code, 0x0A70_0000 + i * 13, now);
            let _ = InternedResolver::new().resolve(
                &ns,
                &mut scratch,
                entry,
                RecordType::A,
                &ctx,
                &NoInternedFaults,
                0,
                None,
            );
            let attribution = attribute_interned(scratch.trace(), &attr, &ns, &scratch);
            let apple = scratch
                .trace()
                .addresses()
                .any(|ip| world.classify(attribution, ip) == CdnClass::Apple);
            if apple {
                *counter += 1;
            }
        }
    }
    assert!(
        apple_sa * 2 < apple_na,
        "South America must skew third-party: SA {apple_sa} vs NA {apple_na}"
    );
}

#[test]
fn traceroutes_reach_resolved_caches() {
    let world = World::build(&ScenarioConfig::fast());
    let now = SimTime::from_ymd(2017, 9, 15);
    loads::update_loads(&world, now);
    let ctx = ctx_for("deber", 0x0A80_0001, now);
    let (trace, _) =
        resolve_cold(&CompiledNamespace::compile(&world.ns), &names::entry(), RecordType::A, &ctx);
    let mut router = metacdn_suite::netsim::Router::new();
    // Probes traceroute from their host AS (the continental eyeball AS).
    let probe_as = world
        .global_probe_specs
        .iter()
        .find(|s| s.city.continent == Continent::Europe)
        .map(|s| s.as_id)
        .expect("EU probes exist");
    for ip in trace.addresses() {
        let tr = metacdn_suite::netsim::traceroute::trace(&world.topo, &mut router, probe_as, ip);
        assert!(tr.reached, "traceroute to {ip} failed");
        assert!(tr.hops.len() >= 2, "path should cross at least one AS border");
        assert!(tr.hops.last().unwrap().rtt_ms < 400.0, "absurd RTT");
    }
}
