//! §3.1 device behaviour, end to end: hourly manifest polls against
//! `mesu.apple.com`, update discovery from the ~1800-entry manifest, and a
//! user-initiated download riding the full mapping chain into a cache site.

use metacdn_suite::cdn::HttpRequest;
use metacdn_suite::core::names;
use metacdn_suite::dnssim::{
    resolve_cold, CompiledNamespace, InternedResolver, NoInternedFaults, QueryContext,
    ResolveScratch,
};
use metacdn_suite::dnswire::RecordType;
use metacdn_suite::geo::{Duration, Locode, Registry, SimTime};
use metacdn_suite::scenario::{loads, ScenarioConfig, World};
use metacdn_suite::workload::manifest::poll_rate_qps;
use metacdn_suite::workload::Manifest;
use std::net::Ipv4Addr;

fn device_ctx(now: SimTime) -> QueryContext {
    let locode = Locode::parse("demuc").unwrap();
    let city = Registry::by_locode(locode).unwrap();
    QueryContext {
        client_ip: Ipv4Addr::new(84, 17, 42, 7),
        locode,
        coord: city.coord,
        continent: city.continent,
        now,
    }
}

#[test]
fn hourly_polls_hit_mesu_and_cache_between() {
    let world = World::build(&ScenarioConfig::fast());
    let t0 = SimTime::from_ymd_hms(2017, 9, 19, 15, 0, 0);
    loads::update_loads(&world, t0);
    let ns = CompiledNamespace::compile(&world.ns);
    let mut scratch = ResolveScratch::new();
    let mesu = ns.intern_in(&mut scratch, &names::mesu());
    let mut resolver = InternedResolver::new();

    // First poll resolves mesu.apple.com fresh…
    let ctx = device_ctx(t0);
    resolver
        .resolve(&ns, &mut scratch, mesu, RecordType::A, &ctx, &NoInternedFaults, 0, None)
        .unwrap();
    let mesu_ip = scratch.trace().addresses().next().unwrap();
    assert!(metacdn_suite::cdn::AppleCdn::scan_prefix().contains(mesu_ip));

    // …the next hourly poll re-resolves (mesu's 300 s TTL lapsed)…
    let ctx = device_ctx(t0 + Duration::HOUR);
    let _ =
        resolver.resolve(&ns, &mut scratch, mesu, RecordType::A, &ctx, &NoInternedFaults, 0, None);
    let trace2 = ns.materialize_trace(&scratch, scratch.trace());
    assert!(!trace2.steps[0].from_cache, "300 s TTL cannot survive an hour");
    assert_eq!(trace2.addresses(), vec![mesu_ip], "stable manifest host");
}

#[test]
fn manifest_discovery_finds_ios11_for_a_device() {
    let manifest = Manifest::software_update();
    assert!((1700..=1900).contains(&manifest.len()));
    let latest = manifest.latest_for("iPhone9,4").expect("device supported");
    assert!(latest.url.contains("appldnld.apple.com"), "download URL points at the entry host");
    // The six-entry last-resort file exists alongside.
    assert_eq!(Manifest::update_brain().len(), 6);
}

#[test]
fn fleet_poll_load_is_modest_but_constant() {
    // 1B devices polling hourly ≈ 278k qps — the *download* flash crowd is
    // the event, not the polls.
    let qps = poll_rate_qps(1_000_000_000);
    assert!(qps > 250_000.0 && qps < 300_000.0);
}

#[test]
fn user_initiated_download_flows_through_a_nearby_site() {
    let mut world = World::build(&ScenarioConfig::fast());
    let release_evening = SimTime::from_ymd_hms(2017, 9, 19, 18, 0, 0);
    loads::update_loads(&world, release_evening);

    // Resolve the download host.
    let ctx = device_ctx(release_evening);
    let (trace, res) =
        resolve_cold(&CompiledNamespace::compile(&world.ns), &names::entry(), RecordType::A, &ctx);
    res.unwrap();
    let server = trace.addresses()[0];

    // If the Meta-CDN chose Apple, the device downloads from that vip's
    // site; find it via rDNS and serve the image.
    if let Some(name) = world.apple.ptr_lookup(server).copied() {
        let manifest = Manifest::software_update();
        let entry = manifest.latest_for("iPhone9,4").unwrap().clone();
        let site = world
            .apple
            .sites_mut()
            .iter_mut()
            .find(|s| s.locode == name.locode && s.site_id == name.site_id)
            .expect("vip belongs to a site");
        let req = HttpRequest {
            host: "appldnld.apple.com".into(),
            path: entry.url.clone(),
            client: ctx.client_ip,
        };
        let (resp, outcome) = site.serve(&req, &entry.url, 2_800_000_000);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_length, 2_800_000_000);
        assert_eq!(outcome.vip.locode, name.locode, "served by the resolved site");
        // The Via chain names parse under the Table 1 scheme.
        for hop in &resp.via {
            if !hop.host.ends_with("cloudfront.net") {
                assert!(
                    metacdn_suite::cdn::naming::ServerName::parse(&hop.host).is_some(),
                    "unparseable Via host {}",
                    hop.host
                );
            }
        }
    } else {
        // Third-party CDN: the address must belong to Akamai's or
        // Limelight's pools and be routable.
        let origin = world.topo.origin_of(server).expect("routable");
        assert_ne!(origin, metacdn_suite::scenario::params::APPLE_AS);
    }
}
