//! Checks every reproducible claim of the paper against a fresh simulation
//! run and prints a PASS/FAIL table. Exits non-zero if any claim fails.
//!
//! ```text
//! check_claims [--paper]
//! ```
//!
//! Bands are deliberately loose at fast scale (sampling density limits what
//! a small fleet can see); `--paper` uses the tighter paper-scale bands.

use mcdn_analysis::{fig2, fig3, fig4, fig7, fig8, table1, Table};
use mcdn_geo::{Continent, Duration, Region, SimTime};
use mcdn_scenario::{loads, params, run_dns, run_traffic, Campaign, ScenarioConfig, World};

struct Claims {
    table: Table,
    failures: u32,
}

impl Claims {
    fn new() -> Claims {
        Claims {
            table: Table::new(
                "Paper claims vs this run",
                &["claim", "paper", "measured", "band", "verdict"],
            ),
            failures: 0,
        }
    }

    fn check(&mut self, claim: &str, paper: &str, measured: f64, lo: f64, hi: f64) {
        let ok = (lo..=hi).contains(&measured);
        if !ok {
            self.failures += 1;
        }
        self.table.push(vec![
            claim.to_string(),
            paper.to_string(),
            format!("{measured:.2}"),
            format!("[{lo}, {hi}]"),
            if ok { "PASS" } else { "FAIL" }.to_string(),
        ]);
    }

    fn check_bool(&mut self, claim: &str, paper: &str, measured: bool) {
        if !measured {
            self.failures += 1;
        }
        self.table.push(vec![
            claim.to_string(),
            paper.to_string(),
            measured.to_string(),
            "true".to_string(),
            if measured { "PASS" } else { "FAIL" }.to_string(),
        ]);
    }
}

fn main() {
    let paper_scale = std::env::args().any(|a| a == "--paper");
    let mut cfg = if paper_scale {
        ScenarioConfig::paper()
    } else {
        let mut c = ScenarioConfig::fast();
        c.global_probes = 250;
        c.global_dns_interval = Duration::mins(5);
        c.global_start = SimTime::from_ymd(2017, 9, 17);
        c.global_end = SimTime::from_ymd(2017, 9, 21);
        c.isp_start = SimTime::from_ymd(2017, 9, 12);
        c.isp_end = SimTime::from_ymd(2017, 9, 23);
        c
    };
    cfg.traffic_start = SimTime::from_ymd(2017, 9, 15);
    cfg.traffic_end = SimTime::from_ymd(2017, 9, 23);
    let world = World::build(&cfg);
    let release = params::release();
    let mut claims = Claims::new();

    // --- §3.2 / Figure 2 -------------------------------------------------
    let graph = fig2::fig2(&world);
    let missing = fig2::missing_edges(&graph)
        .into_iter()
        .filter(|m| !m.contains("china") && !m.contains("india"))
        .count();
    claims.check("fig2: expected mapping edges missing", "0", missing as f64, 0.0, 0.0);
    let selector_ttl_ok = graph
        .rows
        .iter()
        .filter(|r| r[0] == "appldnld.g.applimg.com")
        .all(|r| r[2] == "15");
    claims.check_bool("fig2: selector TTL is 15 s", "15 s", selector_ttl_ok);

    // --- §3.3 / Figure 3 + Table 1 ----------------------------------------
    let sites = fig3::fig3(&world);
    claims.check("fig3: discovered site locations", "34", sites.rows.len() as f64, 34.0, 34.0);
    let (parsed, total) = table1::scheme_coverage(&world);
    claims.check(
        "table1: naming-scheme parse coverage",
        "all",
        parsed as f64 / total as f64,
        1.0,
        1.0,
    );

    // --- §4 / Figures 4, 5 -------------------------------------------------
    eprintln!("running DNS campaigns…");
    let global = run_dns(&world, &cfg, Campaign::Global, 0).result;
    // The ratio `results/fig4_summary.csv` holds: the highest hourly bin of
    // the two days after the release over the mean bin of the two before.
    let fig4 = fig4::fig4_summary(&global, release);
    let spike = |cont: Continent| -> f64 {
        fig4.find_row(0, &cont.to_string())
            .and_then(|r| r[3].trim_end_matches('x').parse().ok())
            .unwrap_or(0.0)
    };
    claims.check("fig4: EU unique-IP spike factor", ">4x", spike(Continent::Europe), 2.0, 10.0);
    claims.check("fig4: North America stays flat", "~1x", spike(Continent::NorthAmerica), 0.5, 1.5);

    let isp = run_dns(&world, &cfg, Campaign::Isp, 0).result;
    let (akamai_rise, apple_ratio) = mcdn_analysis::fig5::fig5_akamai_rise(&isp);
    let rise_band = if paper_scale { (300.0, 600.0) } else { (80.0, 600.0) };
    claims.check("fig5: Akamai IP rise Sep 18→20 (%)", "+408%", akamai_rise, rise_band.0, rise_band.1);
    claims.check("fig5: Apple IP stability ratio", "~1", apple_ratio, 0.5, 1.6);

    // --- §5 / Figures 7, 8 --------------------------------------------------
    eprintln!("running border telemetry…");
    let mut ip_classes = isp.ip_classes.clone();
    ip_classes.extend(global.ip_classes.iter().map(|(k, v)| (*k, *v)));
    let (traffic, _) = run_traffic(&world, &cfg, 0);
    let summary = fig7::fig7_summary(&traffic, &ip_classes, release);
    let ratio = |cdn: &str| -> f64 {
        summary.find_row(0, cdn).map(|r| r[1].parse().unwrap_or(0.0)).unwrap_or(0.0)
    };
    claims.check("fig7: Limelight peak ratio (%)", "438%", ratio("Limelight"), 300.0, 650.0);
    claims.check("fig7: Apple peak ratio (%)", "211%", ratio("Apple"), 140.0, 320.0);
    claims.check("fig7: Akamai peak ratio (%)", "113%", ratio("Akamai"), 100.0, 160.0);
    claims.check_bool(
        "fig7: ordering LL > Apple > Akamai",
        "same",
        ratio("Limelight") > ratio("Apple") && ratio("Apple") > ratio("Akamai"),
    );

    let d_share = fig8::d_peak_share(&traffic, &ip_classes, &world);
    claims.check("fig8: AS D peak overflow share", ">40%", d_share * 100.0, 40.0, 90.0);
    let saturation = fig8::fig8_d_link_saturation(&traffic, &world, cfg.traffic_tick);
    let saturated = saturation
        .rows
        .iter()
        .filter(|r| r[4].parse::<u32>().unwrap_or(0) >= 3)
        .count();
    claims.check("fig8: D links entirely saturated", "2 of 4", saturated as f64, 2.0, 4.0);

    // --- Mechanism claims ----------------------------------------------------
    loads::update_loads(&world, release + Duration::mins(30));
    let util = world.state.apple_utilization(Region::Eu);
    claims.check("§4: Apple EU runs at/over capacity at release", "high", util, 0.9, 3.0);
    // a1015 lifecycle: walk to release + 7h.
    let w2 = World::build(&cfg);
    let mut t = release - Duration::hours(1);
    while t <= release + Duration::hours(7) {
        loads::update_loads(&w2, t);
        t += Duration::mins(30);
    }
    claims.check_bool(
        "§4: a1015 map live ~6h after release",
        "Sep 19 ≈23h",
        w2.state.a1015_active(Region::Eu, release + Duration::hours(7)),
    );

    println!("{}", claims.table);
    if claims.failures > 0 {
        eprintln!("{} claim(s) FAILED", claims.failures);
        std::process::exit(1);
    }
    println!("all {} claims PASS", claims.table.rows.len());
}
