//! Export pipeline: simulated probe measurements serialize to RIPE-Atlas-
//! style JSON lines (the shape of the paper's public dataset #9299652) and
//! parse back losslessly.

use metacdn_suite::atlas::export::PAPER_MSM_ID;
use metacdn_suite::atlas::{build_fleet, to_jsonl, AtlasDnsResult, AtlasTracerouteResult};
use metacdn_suite::core::names;
use metacdn_suite::dnssim::{resolve_cold, CompiledNamespace};
use metacdn_suite::dnswire::RecordType;
use metacdn_suite::geo::SimTime;
use metacdn_suite::netsim::{traceroute, Router};
use metacdn_suite::scenario::{loads, ScenarioConfig, World};

#[test]
fn dns_campaign_exports_and_reimports() {
    let world = World::build(&ScenarioConfig::fast());
    let t = SimTime::from_ymd_hms(2017, 9, 19, 18, 0, 0);
    loads::update_loads(&world, t);
    let fleet = build_fleet(world.isp_probe_specs[..10].to_vec());
    let ns = CompiledNamespace::compile(&world.ns);
    let mut results = Vec::new();
    for probe in &fleet {
        let (trace, res) = resolve_cold(&ns, &names::entry(), RecordType::A, &probe.context(t));
        res.unwrap();
        results.push(AtlasDnsResult::from_trace(PAPER_MSM_ID, probe.id, t, &trace));
    }
    let jsonl = to_jsonl(&results);
    assert_eq!(jsonl.lines().count(), 10);
    for (line, original) in jsonl.lines().zip(&results) {
        let parsed = AtlasDnsResult::from_json_line(line).expect("parses back");
        assert_eq!(&parsed, original);
        assert_eq!(parsed.msm_id, PAPER_MSM_ID);
        // Every exported result carries the CNAME chain plus A records.
        assert!(parsed.answers.iter().any(|(ty, ..)| ty == "CNAME"));
        assert!(parsed.answers.iter().any(|(ty, ..)| ty == "A"));
    }
}

#[test]
fn traceroute_exports_with_hops() {
    let world = World::build(&ScenarioConfig::fast());
    let mut router = Router::new();
    let spec = &world.isp_probe_specs[0];
    let tr = traceroute::trace_between(
        &world.topo,
        &mut router,
        spec.as_id,
        "23.0.0.1".parse().unwrap(),
        Some(spec.city.coord),
        None,
    );
    assert!(tr.reached);
    let exported = AtlasTracerouteResult::from_traceroute(1, 7, SimTime(100), &tr);
    let line = exported.to_json_line();
    assert!(line.contains("\"type\":\"traceroute\""));
    assert_eq!(exported.hops.len(), tr.hops.len());
}
