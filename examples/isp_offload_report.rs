//! The Eyeball-ISP operations view: run the border telemetry over the event
//! window and print the §5 offload/overflow report — per-CDN traffic
//! ratios, the overflow split by handover AS, AS-D link saturation, and the
//! 95/5 billing consequence for AS D.
//!
//! ```sh
//! cargo run --release --example isp_offload_report
//! ```

use metacdn_suite::analysis::{fig7, fig8};
use metacdn_suite::geo::{Duration, SimTime};
use metacdn_suite::isp::billing::percentile_95_5;
use metacdn_suite::build_world_or_exit;
use metacdn_suite::scenario::{params, run_dns, run_traffic, Campaign, ScenarioConfig};

fn main() {
    let mut cfg = ScenarioConfig::fast();
    cfg.traffic_start = SimTime::from_ymd(2017, 9, 15);
    cfg.traffic_end = SimTime::from_ymd(2017, 9, 23);
    cfg.isp_start = SimTime::from_ymd(2017, 9, 10);
    cfg.isp_end = SimTime::from_ymd(2017, 9, 24);
    let world = build_world_or_exit(&cfg);
    let release = params::release();

    eprintln!("collecting DNS-observed server IPs (cross-correlation input)…");
    let dns = run_dns(&world, &cfg, Campaign::Isp, 0).result;
    eprintln!("collecting border telemetry (NetFlow + SNMP + BGP)…");
    let traffic = run_traffic(&world, &cfg, 0).0;
    println!(
        "{} sampled NetFlow records (1-in-{} packet sampling), {} SNMP polls, {:.1} TB dropped at saturated links\n",
        traffic.flows.len(),
        traffic.sampling,
        traffic.snmp.samples().count(),
        traffic.dropped_bytes as f64 / 1e12,
    );

    println!("{}", fig7::fig7_summary(&traffic, &dns.ip_classes, release));
    println!("{}", fig8::fig8_series(&traffic, &dns.ip_classes, &world));
    println!("{}", fig8::fig8_d_link_saturation(&traffic, &world, cfg.traffic_tick));

    // §5.4's closing observation: the 95/5 bill of AS D's links. The spike
    // lasts three days; in a 30-day month that's ~10% of samples — far past
    // the free 5% — so the ISP-facing bill jumps to the spike level.
    println!("AS D 95/5 billing impact (per link, event window extrapolated to a month):");
    for (i, link) in world.isp_d_links.iter().enumerate() {
        // Collect the event-window 5-minute samples…
        let event_samples: Vec<u64> = traffic
            .snmp
            .samples()
            .filter(|(_, l, _)| l == link)
            .map(|(_, _, b)| b)
            .collect();
        // …and embed them in an otherwise-quiet month.
        let month_slots = 30 * 24 * 3600 / cfg.traffic_tick.as_secs() as usize;
        let mut month: Vec<u64> = vec![0; month_slots.saturating_sub(event_samples.len())];
        month.extend(&event_samples);
        let with_event = percentile_95_5(&month);
        let quiet = percentile_95_5(&vec![0u64; month_slots]);
        println!(
            "  ISP–D #{}: billed 95th percentile {:.1} Gbps (quiet month: {:.1} Gbps)",
            i + 1,
            with_event / 1e9,
            quiet / 1e9
        );
    }
    println!(
        "\n(event window {} → {}, release {release})",
        cfg.traffic_start,
        cfg.traffic_start + Duration::days(8)
    );
}
