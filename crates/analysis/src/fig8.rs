//! Figure 8: overflow by handover AS during the iOS update.
//!
//! §5.4: take Limelight-delivered traffic, keep the *overflow* part (source
//! AS ≠ handover AS), and show each handover AS's daily share — plus the
//! saturation state of the AS-D links that the event lights up.

use crate::sums::OrderedSums;
use crate::table::Table;
use mcdn_geo::{Duration, SimTime};
use mcdn_intern::FnvBuildHasher;
use mcdn_netsim::AsId;
use mcdn_scenario::{params, CdnClass, TrafficResult, World};
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

/// Handover group labels of the figure.
fn handover_label(handover: AsId) -> &'static str {
    match handover {
        x if x == params::TRANSIT_A => "A",
        x if x == params::TRANSIT_B => "B",
        x if x == params::TRANSIT_C => "C",
        x if x == params::TRANSIT_D => "D",
        // ~40 smaller handover ASes are grouped as "other".
        _ => "other",
    }
}

/// Daily overflow bytes by handover label, for Limelight-attributed flows.
pub fn overflow_by_handover(
    traffic: &TrafficResult,
    ip_classes: &HashMap<Ipv4Addr, CdnClass>,
    world: &World,
) -> BTreeMap<(SimTime, &'static str), f64> {
    // The scaling degrades gracefully when SNMP polls were missed
    // (gapped cells fall back to sampling-rate inversion instead of
    // silently reading zero). Volumes are added in flow order: summing
    // per cell or per source first would change the f64 totals.
    let scaled = traffic.flows.scale(&traffic.snmp, traffic.sampling);
    // The source AS of each Limelight-attributed address, `None` for any
    // other address: one class lookup and trie walk per source address
    // instead of per flow.
    let mut limelight_origin: HashMap<Ipv4Addr, Option<AsId>, FnvBuildHasher> =
        HashMap::default();
    let mut out = OrderedSums::new();
    for v in scaled.volumes() {
        let origin = *limelight_origin.entry(v.src).or_insert_with(|| {
            let class = ip_classes.get(&v.src)?;
            if class.cdn() != CdnClass::Limelight {
                return None;
            }
            world.topo.origin_of(v.src)
        });
        let Some(source_as) = origin else { continue };
        let handover = world.topo.link(v.link).other(params::EYEBALL_AS);
        if source_as == handover {
            continue; // direct traffic, not overflow
        }
        out.add((v.bin.floor_day(), handover_label(handover)), v.bytes);
    }
    out.into_map()
}

/// The Figure 8 series: per day, each handover AS's share of Limelight
/// overflow traffic.
pub fn fig8_series(
    traffic: &TrafficResult,
    ip_classes: &HashMap<Ipv4Addr, CdnClass>,
    world: &World,
) -> Table {
    let data = overflow_by_handover(traffic, ip_classes, world);
    let mut day_totals: BTreeMap<SimTime, f64> = BTreeMap::new();
    for ((day, _), bytes) in &data {
        *day_totals.entry(*day).or_insert(0.0) += bytes;
    }
    let mut t = Table::new(
        "Figure 8 — Overflow by handover AS (Limelight traffic)",
        &["day", "handover AS", "share %"],
    );
    for ((day, label), bytes) in &data {
        let total = day_totals[day];
        if total > 0.0 {
            t.push(vec![
                day.to_string(),
                label.to_string(),
                format!("{:.0}", bytes / total * 100.0),
            ]);
        }
    }
    t
}

/// Saturation report for the ISP↔AS-D links over the event window. The
/// paper observes two of the four become *entirely saturated at peak
/// times*; with fill-in-order load placement our first links saturate for
/// many polls while the last fill only at the single demand peak, so the
/// table reports both the peak rate and how long each link ran saturated.
pub fn fig8_d_link_saturation(traffic: &TrafficResult, world: &World, tick: Duration) -> Table {
    let mut t = Table::new(
        "Figure 8 companion — AS D link saturation",
        &["link", "capacity (Gbps)", "peak rate (Gbps)", "peak util %", "polls ≥99% util"],
    );
    for (i, link_id) in world.isp_d_links.iter().enumerate() {
        let cap = world.topo.link(*link_id).capacity_bps;
        let cap_bytes = cap * tick.as_secs() as f64 / 8.0;
        let mut peak_bytes = 0u64;
        let mut saturated_polls = 0u32;
        for (_, l, b) in traffic.snmp.samples() {
            if l == *link_id {
                peak_bytes = peak_bytes.max(b);
                if b as f64 >= cap_bytes * 0.99 {
                    saturated_polls += 1;
                }
            }
        }
        let peak_bps = peak_bytes as f64 * 8.0 / tick.as_secs() as f64;
        t.push(vec![
            format!("ISP–D #{}", i + 1),
            format!("{:.0}", cap / 1e9),
            format!("{:.1}", peak_bps / 1e9),
            format!("{:.0}", peak_bps / cap * 100.0),
            saturated_polls.to_string(),
        ]);
    }
    t
}

/// The share AS D reaches on its biggest day (paper: "more than 40 %").
pub fn d_peak_share(
    traffic: &TrafficResult,
    ip_classes: &HashMap<Ipv4Addr, CdnClass>,
    world: &World,
) -> f64 {
    let data = overflow_by_handover(traffic, ip_classes, world);
    let mut best = 0.0f64;
    let mut day_totals: BTreeMap<SimTime, f64> = BTreeMap::new();
    for ((day, _), bytes) in &data {
        *day_totals.entry(*day).or_insert(0.0) += bytes;
    }
    for ((day, label), bytes) in &data {
        if *label == "D" && day_totals[day] > 0.0 {
            best = best.max(bytes / day_totals[day]);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdn_isp::{FlowRecord, FlowTable};
    use mcdn_scenario::ScenarioConfig;
    use std::collections::HashMap;

    /// Hand-crafted flows over the real topology, all in one day: one
    /// direct Limelight flow (not overflow), one via a regional cache
    /// behind AS A, one via the surge host behind AS D, a direct Akamai
    /// flow, an Akamai flow handed over by AS B, and a flow behind AS D
    /// from an address DNS never saw.
    fn synthetic(world: &World) -> (TrafficResult, HashMap<Ipv4Addr, CdnClass>) {
        let day = SimTime::from_ymd(2017, 9, 20);
        let mut snmp = mcdn_isp::SnmpCounters::new();
        let mut flows = FlowTable::new();
        let mut ip_classes = HashMap::new();
        let link_to = |asn| {
            world
                .topo
                .links_between(asn, params::EYEBALL_AS)
                .first()
                .map(|l| l.id)
                .expect("link")
        };
        for (ip, class, handover, bytes) in [
            ("68.232.0.9", Some(CdnClass::Limelight), params::LIMELIGHT_AS, 10_000u32),
            ("69.28.0.2", Some(CdnClass::LimelightOtherAs), params::TRANSIT_A, 3_000),
            ("69.28.64.2", Some(CdnClass::LimelightOtherAs), params::TRANSIT_D, 7_000),
            ("69.28.64.3", None, params::TRANSIT_D, 4_000),
            ("23.0.0.9", Some(CdnClass::Akamai), params::AKAMAI_AS, 50_000),
            ("23.0.0.10", Some(CdnClass::Akamai), params::TRANSIT_B, 20_000),
        ] {
            let src: Ipv4Addr = ip.parse().unwrap();
            let link = link_to(handover);
            snmp.account(link, bytes as u64);
            if let Some(class) = class {
                ip_classes.insert(src, class);
            }
            let record = FlowRecord {
                src,
                dst: "84.17.0.1".parse().unwrap(),
                input_if: (link.0 & 0xFFFF) as u16,
                packets: 1,
                bytes,
                src_as: 0,
                dst_as: 3320,
            };
            flows.push(day, link, record);
        }
        snmp.poll(day);
        let traffic = TrafficResult {
            flows,
            snmp,
            dropped_bytes: 0,
            sampling: 1,
            export_losses: 0,
            polls_missed: 0,
        };
        (traffic, ip_classes)
    }

    #[test]
    fn only_limelight_overflow_is_counted() {
        let world = World::build(&ScenarioConfig::fast());
        let (traffic, ip_classes) = synthetic(&world);
        let data = overflow_by_handover(&traffic, &ip_classes, &world);
        let day = SimTime::from_ymd(2017, 9, 20);
        // The direct LL flow, both Akamai flows and the unseen address
        // are excluded; A gets 3000, D gets 7000.
        assert_eq!(data.get(&(day, "A")).copied(), Some(3_000.0));
        assert_eq!(data.get(&(day, "D")).copied(), Some(7_000.0));
        assert_eq!(data.len(), 2);
    }

    #[test]
    fn shares_sum_to_one_hundred() {
        let world = World::build(&ScenarioConfig::fast());
        let (traffic, ip_classes) = synthetic(&world);
        let t = fig8_series(&traffic, &ip_classes, &world);
        let total: f64 = t.rows.iter().map(|r| r[2].parse::<f64>().unwrap()).sum();
        assert!((total - 100.0).abs() < 1.5, "rounding-tolerant sum, got {total}");
        assert!((d_peak_share(&traffic, &ip_classes, &world) - 0.7).abs() < 1e-9);
    }
}
