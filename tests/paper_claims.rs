//! The paper's headline claims, asserted end-to-end at reduced scale.
//!
//! Absolute magnitudes differ from the paper (fewer probes, coarser
//! sampling), but every *shape* claim must hold: who spikes, in which
//! order, by roughly what factor, and where it returns to normal.

use metacdn_suite::analysis::{fig2, fig7, fig8};
use metacdn_suite::geo::{Continent, Duration, SimTime};
use metacdn_suite::scenario::{
    params, run_dns, run_traffic, Campaign, CdnClass, ScenarioConfig, World,
};

fn event_cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::fast();
    cfg.global_probes = 250;
    cfg.global_dns_interval = Duration::mins(5);
    cfg.global_start = SimTime::from_ymd(2017, 9, 17);
    cfg.global_end = SimTime::from_ymd(2017, 9, 21);
    cfg.isp_start = SimTime::from_ymd(2017, 9, 12);
    cfg.isp_end = SimTime::from_ymd(2017, 9, 23);
    cfg.traffic_start = SimTime::from_ymd(2017, 9, 15);
    cfg.traffic_end = SimTime::from_ymd(2017, 9, 23);
    cfg.traffic_tick = Duration::mins(15);
    cfg
}

/// Claim (§4): Europe is the only continent with a considerable unique-IP
/// spike; the increase is driven by Limelight and Akamai, not Apple.
#[test]
fn europe_spikes_alone_and_apple_stays_flat() {
    let cfg = event_cfg();
    let world = World::build(&cfg);
    let result = run_dns(&world, &cfg, Campaign::Global, 0).result;
    let release = params::release();
    let pre_bin = SimTime::from_ymd_hms(2017, 9, 18, 18, 0, 0);
    let peak_bin = SimTime::from_ymd_hms(2017, 9, 19, 18, 0, 0);
    let total = |bin: SimTime, cont: Continent| -> usize {
        CdnClass::ALL.iter().map(|c| result.unique_ips.count(bin, cont, *c)).sum()
    };
    let eu_ratio = total(peak_bin, Continent::Europe) as f64
        / total(pre_bin, Continent::Europe).max(1) as f64;
    assert!(eu_ratio > 2.0, "EU spike ratio {eu_ratio:.2}");
    for cont in [Continent::NorthAmerica, Continent::Asia, Continent::Oceania] {
        let r = total(peak_bin, cont) as f64 / total(pre_bin, cont).max(1) as f64;
        assert!(
            r < eu_ratio / 1.5,
            "{cont} must not spike like Europe: {r:.2} vs {eu_ratio:.2}"
        );
    }
    // Apple's own count stays flat while Limelight drives the spike.
    let apple_pre = result.unique_ips.count(pre_bin, Continent::Europe, CdnClass::Apple);
    let apple_peak = result.unique_ips.count(peak_bin, Continent::Europe, CdnClass::Apple);
    assert!(
        (apple_peak as f64) < 2.0 * apple_pre.max(1) as f64,
        "Apple flat: {apple_pre} → {apple_peak}"
    );
    let ll_pre = result.unique_ips.count(pre_bin, Continent::Europe, CdnClass::Limelight);
    let ll_peak = result.unique_ips.count(peak_bin, Continent::Europe, CdnClass::Limelight);
    assert!(ll_peak as f64 > 3.0 * ll_pre.max(1) as f64, "Limelight drives: {ll_pre} → {ll_peak}");
    let _ = release;
}

/// Claim (§3.2/§4): the mapping graph matches Figure 2, and the a1015 map
/// is an event-only addition.
#[test]
fn mapping_graph_matches_figure_2() {
    let world = World::build(&ScenarioConfig::fast());
    let t = fig2::fig2(&world);
    let missing: Vec<_> = fig2::missing_edges(&t)
        .into_iter()
        .filter(|m| !m.contains("china") && !m.contains("india"))
        .collect();
    assert!(missing.is_empty(), "{missing:?}");
    assert_eq!(t.find_row(1, "a1015.gi3.akamai.net").unwrap()[3], "event-only");
}

/// Claims (§5.3): Limelight's traffic ratio peaks far above Apple's, which
/// peaks far above Akamai's; the bulk of days 1–2 is Apple+Limelight with
/// no additional Akamai.
#[test]
fn figure7_ordering_and_day_split() {
    let cfg = event_cfg();
    let world = World::build(&cfg);
    let dns = run_dns(&world, &cfg, Campaign::Isp, 0).result;
    let traffic = run_traffic(&world, &cfg, 0).0;
    let t = fig7::fig7_summary(&traffic, &dns.ip_classes, params::release());
    let ratio = |cdn: &str| -> f64 {
        t.find_row(0, cdn).unwrap()[1].parse().unwrap()
    };
    let (ak, ll, ap) = (ratio("Akamai"), ratio("Limelight"), ratio("Apple"));
    assert!(ll > ap && ap > ak, "ordering: LL {ll} > Apple {ap} > Akamai {ak}");
    assert!(ll > 300.0, "Limelight spikes hard: {ll} (paper: 438)");
    assert!((100.0..200.0).contains(&ak), "Akamai barely moves: {ak} (paper: 113)");
    assert!((140.0..320.0).contains(&ap), "Apple roughly doubles: {ap} (paper: 211)");
    // Day 1–2: Akamai's excess share collapses to ~0.
    let akamai_row = t.find_row(0, "Akamai").unwrap();
    for day in [3, 4] {
        let share: f64 = akamai_row[day].trim_end_matches('%').parse().unwrap_or(0.0);
        assert!(share < 10.0, "no additional Akamai traffic on day {}: {share}%", day - 2);
    }
}

/// Claims (§5.4): AS A spikes on Sep 19 (pre-fill), AS D appears from
/// nowhere with >40 % of overflow, at least two of its four links saturate,
/// and the pattern reverts after three days.
#[test]
fn figure8_as_d_lifecycle() {
    let cfg = event_cfg();
    let world = World::build(&cfg);
    let dns = run_dns(&world, &cfg, Campaign::Isp, 0).result;
    let traffic = run_traffic(&world, &cfg, 0).0;
    let t = fig8::fig8_series(&traffic, &dns.ip_classes, &world);
    let share = |day: &str, asn: &str| -> f64 {
        t.rows
            .iter()
            .find(|r| r[0].starts_with(day) && r[1] == asn)
            .map(|r| r[2].parse().unwrap())
            .unwrap_or(0.0)
    };
    // Quiet before: no D at all.
    assert_eq!(share("Sep 16", "D"), 0.0);
    assert_eq!(share("Sep 17", "D"), 0.0);
    // Sep 19: A spikes (pre-fill).
    assert!(share("Sep 19", "A") > 45.0, "A pre-fill spike: {}", share("Sep 19", "A"));
    // Sep 20–21: D takes >40 %.
    assert!(share("Sep 20", "D") > 40.0, "D share Sep 20: {}", share("Sep 20", "D"));
    assert!(share("Sep 21", "D") > 30.0, "D share Sep 21: {}", share("Sep 21", "D"));
    // Sep 22: reverted.
    assert_eq!(share("Sep 22", "D"), 0.0, "Limelight retires the D caches");
    // Link saturation: at least two D links ran at ≥99 % for several polls.
    let sat = fig8::fig8_d_link_saturation(&traffic, &world, cfg.traffic_tick);
    let saturated = sat
        .rows
        .iter()
        .filter(|r| r[4].parse::<u32>().unwrap_or(0) >= 3)
        .count();
    assert!(saturated >= 2, "≥2 links entirely saturated at peak times, got {saturated}");
}

/// Claim (§4, Figure 5): inside the ISP, Akamai's unique-IP count rises
/// steeply into Sep 20 while Apple's stays stable.
#[test]
fn figure5_akamai_rises_apple_stable() {
    let mut cfg = event_cfg();
    cfg.isp_probes = 200; // denser fleet so daily unions resolve the pools
    let world = World::build(&cfg);
    let result = run_dns(&world, &cfg, Campaign::Isp, 0).result;
    let (rise, apple_ratio) = metacdn_suite::analysis::fig5::fig5_akamai_rise(&result);
    assert!(rise > 100.0, "Akamai must rise steeply (paper +408%), got +{rise:.0}%");
    assert!((0.5..1.6).contains(&apple_ratio), "Apple stable, got ratio {apple_ratio:.2}");
}
