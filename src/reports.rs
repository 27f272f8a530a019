//! Renderers behind the repository examples.
//!
//! Each function builds a world, runs the example's workload, and returns
//! the full report as one string. The examples print it verbatim; the
//! golden-snapshot suite (`tests/golden_examples.rs`) compares it against
//! a tracked fixture, so any drift in the user-facing walkthroughs is a
//! test failure instead of a silent regression. Everything rendered here
//! is deterministic — including the metrics excerpt, which only shows
//! deterministic-class counters (identical for any worker count).

use std::fmt::Write as _;

use crate::build_world_or_exit;
use crate::core::names;
use crate::dnssim::{
    CompiledNamespace, InternedResolver, NoInternedFaults, QueryContext, ResolveScratch,
};
use crate::dnswire::RecordType;
use crate::geo::{Continent, Duration, Locode, Region, Registry, SimTime};
use crate::scenario::{loads, params, run_dns, Campaign, CampaignReport, CdnClass, ScenarioConfig};

/// The quickstart walkthrough: resolve the update entry point as a Berlin
/// client, show the CNAME chain, the answer set, cache behavior on
/// re-resolution, and the controller's view of the instant.
pub fn quickstart_report() -> String {
    let mut out = String::new();
    // The calibrated iOS-11 world: topology, CDNs, mapping zones, probes.
    let world = build_world_or_exit(&ScenarioConfig::fast());

    // A client in Berlin, two days before the release.
    let berlin = Registry::by_locode(Locode::parse("deber").unwrap()).unwrap();
    let now = SimTime::from_ymd_hms(2017, 9, 17, 19, 0, 0);
    loads::update_loads(&world, now); // publish controller inputs for `now`
    let ctx = QueryContext {
        client_ip: "84.17.10.23".parse().unwrap(),
        locode: berlin.locode,
        coord: berlin.coord,
        continent: berlin.continent,
        now,
    };

    // Resolve appldnld.apple.com through the full mapping chain.
    let ns = CompiledNamespace::compile(&world.ns);
    let mut scratch = ResolveScratch::new();
    let entry = ns.intern_in(&mut scratch, &names::entry());
    let mut resolver = InternedResolver::new();
    resolver
        .resolve(&ns, &mut scratch, entry, RecordType::A, &ctx, &NoInternedFaults, 0, None)
        .expect("the entry point always resolves");
    let trace = ns.materialize_trace(&scratch, scratch.trace());

    let _ = writeln!(out, "CNAME chain for {} (client: Berlin, {now}):", names::entry());
    for (from, to, ttl) in trace.cname_edges() {
        let _ = writeln!(out, "  {from} --{ttl:>5}s--> {to}");
    }
    let _ = writeln!(out, "answer:");
    for ip in trace.addresses() {
        let origin = world.topo.origin_of(ip).expect("announced address");
        let who = world.topo.as_info(origin).map(|a| a.name.as_str()).unwrap_or("?");
        let ptr = world
            .apple
            .ptr_lookup(ip)
            .map(|n| n.fqdn())
            .unwrap_or_else(|| "(no rDNS)".into());
        let _ = writeln!(out, "  {ip}  [{who}]  {ptr}");
    }

    // Re-resolve 30 seconds later: the 15-second selector TTL has lapsed, so
    // the Meta-CDN may hand this client to a different CDN.
    let mut later = ctx;
    later.now = now + Duration::secs(30);
    let _ = resolver.resolve(
        &ns,
        &mut scratch,
        entry,
        RecordType::A,
        &later,
        &NoInternedFaults,
        0,
        None,
    );
    let trace2 = ns.materialize_trace(&scratch, scratch.trace());
    let cached = trace2.steps.iter().filter(|s| s.from_cache).count();
    let _ = writeln!(
        out,
        "\nre-resolution 30 s later: {} of {} chain steps served from cache \
(the 21600 s entry CNAME is pinned; the 15 s selector re-decides)",
        cached,
        trace2.steps.len()
    );

    // What the controller knows at this instant.
    let _ = writeln!(out, "\ncontroller snapshot: {:#?}", world.state.snapshot(now));
    let _ = writeln!(
        out,
        "\nApple EU capacity: {:.1} Tbps across {} edge-bx servers at {} sites; \
release instant: {}",
        world.apple_capacity_bps(Region::Eu) / 1e12,
        world.apple.total_bx(),
        world.apple.sites().len(),
        params::release()
    );
    out
}

/// The rollout walkthrough: a compact global DNS campaign around the iOS
/// 11 release — the European unique-IP spike, the CDN selection shift,
/// and the campaign's deterministic metrics.
pub fn ios_update_rollout_report() -> String {
    let mut out = String::new();
    let mut cfg = ScenarioConfig::fast();
    cfg.global_probes = 300;
    cfg.global_dns_interval = Duration::mins(10);
    cfg.global_start = SimTime::from_ymd(2017, 9, 18);
    cfg.global_end = SimTime::from_ymd(2017, 9, 21);
    let world = build_world_or_exit(&cfg);
    let release = params::release();

    let _ = writeln!(
        out,
        "running {} probes every {} min, {} → {} (release: {release})\n",
        cfg.global_probes,
        cfg.global_dns_interval.as_secs() / 60,
        cfg.global_start,
        cfg.global_end
    );
    let CampaignReport { result, metrics, .. } = run_dns(&world, &cfg, Campaign::Global, 0);
    let _ = writeln!(out, "{} resolutions performed\n", result.resolutions);

    // Hourly EU unique-IP series, paper-figure style.
    let _ = writeln!(
        out,
        "Europe, unique cache IPs per hour (A=Apple K=Akamai K*=other-AS L=Limelight L*=other-AS):"
    );
    let mut t = cfg.global_start;
    while t < cfg.global_end {
        let count = |c: CdnClass| result.unique_ips.count(t, Continent::Europe, c);
        let total: usize = CdnClass::ALL.iter().map(|c| count(*c)).sum();
        let marker =
            if t <= release && release < t + Duration::hours(1) { "  <-- iOS 11.0" } else { "" };
        let _ = writeln!(
            out,
            "  {t}  A:{:>3} K:{:>3} K*:{:>3} L:{:>3} L*:{:>3}  total {:>4} {}{marker}",
            count(CdnClass::Apple),
            count(CdnClass::Akamai),
            count(CdnClass::AkamaiOtherAs),
            count(CdnClass::Limelight),
            count(CdnClass::LimelightOtherAs),
            total,
            "#".repeat(total / 25),
        );
        t += Duration::hours(3);
    }

    // How the effective CDN selection shifted at the release instant.
    let _ = writeln!(out, "\neffective EU selection shares (schedule + reactive overflow):");
    for (label, at) in [
        ("2 days before", release - Duration::days(2)),
        ("release + 1 h", release + Duration::hours(1)),
        ("release + 1 day", release + Duration::days(1)),
    ] {
        loads::update_loads(&world, at);
        let eff = world.state.effective_share(Region::Eu, at);
        let fmt: Vec<String> = eff.iter().map(|(k, p)| format!("{k} {:.0}%", p * 100.0)).collect();
        let _ = writeln!(
            out,
            "  {label:<16} {}   (Apple util {:.2}, a1015 {})",
            fmt.join(", "),
            world.state.apple_utilization(Region::Eu),
            if world.state.a1015_active(Region::Eu, at) { "ACTIVE" } else { "off" }
        );
    }

    // What the observability layer counted — the deterministic registry
    // only, so this report is identical on any machine and thread count.
    let _ = writeln!(out, "\ncampaign metrics (deterministic counters, nonzero):");
    for (name, value) in mcdn_obs::COUNTER_NAMES
        .iter()
        .take(mcdn_obs::N_DET)
        .enumerate()
        .map(|(i, name)| (name, metrics.counter(i as u16)))
        .filter(|&(_, v)| v > 0)
    {
        let _ = writeln!(out, "  {name:<28} {value}");
    }
    out
}
