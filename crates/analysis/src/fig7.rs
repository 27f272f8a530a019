//! Figure 7: update traffic by source AS (CDN) during the iOS update.
//!
//! Pipeline exactly as §5.3: select server IPs observed in the DNS
//! measurements, find flows from them in (sampled) NetFlow, scale volumes
//! by SNMP octet counters, attribute to CDNs, and normalize each CDN's
//! hourly rate by its own maximum over the three pre-update days.

use crate::sums::OrderedSums;
use crate::table::Table;
use mcdn_geo::{Duration, SimTime};
use mcdn_intern::FnvBuildHasher;
use mcdn_scenario::{CdnClass, TrafficResult};
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

/// The three CDNs panelled in Figure 7.
pub const PANELS: [CdnClass; 3] = [CdnClass::Akamai, CdnClass::Limelight, CdnClass::Apple];

/// Hourly traffic volume per CDN, bytes. Only flows whose source address
/// was observed in DNS (i.e. appears in `ip_classes`) are attributed —
/// the same restriction the paper's cross-correlation has.
pub fn hourly_by_cdn(
    traffic: &TrafficResult,
    ip_classes: &HashMap<Ipv4Addr, CdnClass>,
) -> BTreeMap<(SimTime, CdnClass), f64> {
    // The scaling degrades gracefully when SNMP polls were missed
    // (gapped cells fall back to sampling-rate inversion instead of
    // silently reading zero). Volumes are added in flow order: summing
    // per cell or per source first would change the f64 totals.
    let scaled = traffic.flows.scale(&traffic.snmp, traffic.sampling);
    // The CDN of each source address, `None` when DNS never saw it: one
    // class lookup per address instead of per record.
    let mut cdn_of: HashMap<Ipv4Addr, Option<CdnClass>, FnvBuildHasher> = HashMap::default();
    let mut out = OrderedSums::new();
    for v in scaled.volumes() {
        let cdn = *cdn_of.entry(v.src).or_insert_with(|| ip_classes.get(&v.src).map(|c| c.cdn()));
        let Some(cdn) = cdn else { continue };
        out.add((v.bin.floor_to(Duration::HOUR), cdn), v.bytes);
    }
    out.into_map()
}

/// Per-CDN maximum hourly volume over the three days before `release_day`
/// (the figure's 100 % reference).
fn pre_update_peak(
    hourly: &BTreeMap<(SimTime, CdnClass), f64>,
    release_day: SimTime,
) -> HashMap<CdnClass, f64> {
    let from = release_day - Duration::days(3);
    let mut peaks = HashMap::new();
    for ((hour, class), bytes) in hourly {
        if *hour >= from && *hour < release_day {
            let e = peaks.entry(*class).or_insert(0.0f64);
            *e = e.max(*bytes);
        }
    }
    peaks
}

/// The Figure 7 ratio series: per hour and CDN, traffic as a percentage of
/// that CDN's pre-update three-day peak.
pub fn fig7_series(
    traffic: &TrafficResult,
    ip_classes: &HashMap<Ipv4Addr, CdnClass>,
    release: SimTime,
) -> Table {
    let hourly = hourly_by_cdn(traffic, ip_classes);
    let peaks = pre_update_peak(&hourly, release.floor_day());
    let mut t = Table::new(
        "Figure 7 — Update traffic by source AS (ratio vs pre-update peak)",
        &["hour", "cdn", "ratio %"],
    );
    for ((hour, class), bytes) in &hourly {
        if !PANELS.contains(class) {
            continue;
        }
        let peak = peaks.get(class).copied().unwrap_or(0.0);
        let ratio = if peak > 0.0 { bytes / peak * 100.0 } else { 0.0 };
        t.push(vec![hour.to_string(), class.to_string(), format!("{ratio:.0}")]);
    }
    t
}

/// Headline statistics: per CDN the peak ratio reached on/after release day
/// (paper: Apple 211 %, Limelight 438 %, Akamai 113 %) and the share of
/// excess (above-pre-peak) volume per day (paper, Sep 19: 33 % Apple /
/// 44 % Limelight / 23 % Akamai; Sep 20–21 ≈ 60/40/0).
pub fn fig7_summary(
    traffic: &TrafficResult,
    ip_classes: &HashMap<Ipv4Addr, CdnClass>,
    release: SimTime,
) -> Table {
    let hourly = hourly_by_cdn(traffic, ip_classes);
    let release_day = release.floor_day();
    let peaks = pre_update_peak(&hourly, release_day);

    // Peak ratios.
    let mut peak_ratio: HashMap<CdnClass, f64> = HashMap::new();
    // Excess volume per (day, cdn): traffic above the same-hour pre-update
    // average (a simple seasonal baseline).
    let mut pre_hour_sum: HashMap<(u32, CdnClass), (f64, u32)> = HashMap::new();
    for ((hour, class), bytes) in &hourly {
        if *hour >= release_day - Duration::days(3) && *hour < release_day {
            let e = pre_hour_sum.entry((hour.hour(), *class)).or_insert((0.0, 0));
            e.0 += bytes;
            e.1 += 1;
        }
    }
    let mut excess: BTreeMap<(SimTime, CdnClass), f64> = BTreeMap::new();
    for ((hour, class), bytes) in &hourly {
        if *hour < release_day {
            continue;
        }
        if let Some(peak) = peaks.get(class) {
            if *peak > 0.0 {
                let r = bytes / peak * 100.0;
                let e = peak_ratio.entry(*class).or_insert(0.0);
                *e = e.max(r);
            }
        }
        let baseline = pre_hour_sum
            .get(&(hour.hour(), *class))
            .map(|(s, n)| s / *n as f64)
            .unwrap_or(0.0);
        *excess.entry((hour.floor_day(), *class)).or_insert(0.0) +=
            (bytes - baseline).max(0.0);
    }

    let mut t = Table::new(
        "Figure 7 summary — peak ratio and daily excess-volume share",
        &["cdn", "peak ratio %", "excess share day 0", "day 1", "day 2"],
    );
    let day_total = |d: SimTime| -> f64 {
        PANELS.iter().map(|c| excess.get(&(d, *c)).copied().unwrap_or(0.0)).sum()
    };
    for class in PANELS {
        let share = |d: SimTime| -> String {
            let total = day_total(d);
            if total > 0.0 {
                format!("{:.0}%", excess.get(&(d, class)).copied().unwrap_or(0.0) / total * 100.0)
            } else {
                "—".into()
            }
        };
        t.push(vec![
            class.to_string(),
            format!("{:.0}", peak_ratio.get(&class).copied().unwrap_or(0.0)),
            share(release_day),
            share(release_day + Duration::days(1)),
            share(release_day + Duration::days(2)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdn_isp::{FlowRecord, FlowTable, SnmpCounters};
    use mcdn_netsim::LinkId;
    use mcdn_scenario::TrafficResult;

    const LL_IP: Ipv4Addr = Ipv4Addr::new(68, 232, 0, 1);

    /// Builds a synthetic telemetry window: three quiet pre-days at 1000
    /// bytes/hour for one Limelight IP, then a release day at 5000. Each
    /// hour the same link also carries 2000 bytes from an address DNS
    /// never saw.
    fn synthetic() -> (TrafficResult, HashMap<Ipv4Addr, CdnClass>, SimTime) {
        let release = SimTime::from_ymd_hms(2017, 9, 19, 17, 0, 0);
        let unseen = Ipv4Addr::new(23, 0, 0, 7);
        let link = LinkId(3);
        let mut snmp = SnmpCounters::new();
        let mut flows = FlowTable::new();
        let mut t = release.floor_day() - Duration::days(3);
        while t < release.floor_day() + Duration::days(1) {
            let ll_bytes: u32 = if t >= release { 5000 } else { 1000 };
            for (src, bytes) in [(LL_IP, ll_bytes), (unseen, 2000)] {
                snmp.account(link, bytes as u64);
                let record = FlowRecord {
                    src,
                    dst: Ipv4Addr::new(84, 17, 0, 1),
                    input_if: 3,
                    packets: 1,
                    bytes,
                    src_as: 22822,
                    dst_as: 3320,
                };
                flows.push(t, link, record);
            }
            snmp.poll(t);
            t += Duration::HOUR;
        }
        let mut ip_classes = HashMap::new();
        ip_classes.insert(LL_IP, CdnClass::Limelight);
        let traffic = TrafficResult {
            flows,
            snmp,
            dropped_bytes: 0,
            sampling: 1,
            export_losses: 0,
            polls_missed: 0,
        };
        (traffic, ip_classes, release)
    }

    #[test]
    fn only_observed_sources_fill_the_hours() {
        let (traffic, ip_classes, release) = synthetic();
        let hourly = hourly_by_cdn(&traffic, &ip_classes);
        assert_eq!(hourly.len(), 4 * 24);
        for ((hour, cdn), bytes) in hourly {
            assert_eq!(cdn, CdnClass::Limelight);
            assert_eq!(bytes, if hour >= release { 5000.0 } else { 1000.0 }, "{hour}");
        }
    }

    #[test]
    fn ratio_series_normalizes_by_pre_peak() {
        let (traffic, ip_classes, release) = synthetic();
        let t = fig7_series(&traffic, &ip_classes, release);
        let ratios: Vec<f64> = t
            .rows
            .iter()
            .filter(|r| r[1] == "Limelight")
            .map(|r| r[2].parse().unwrap())
            .collect();
        assert!(ratios.iter().any(|r| (*r - 100.0).abs() < 1.0), "pre-days sit at 100%");
        assert!(ratios.iter().any(|r| (*r - 500.0).abs() < 1.0), "event hits 500%");
    }

    #[test]
    fn unobserved_sources_are_not_attributed() {
        let (traffic, _, release) = synthetic();
        // Empty DNS observation set: nothing can be attributed.
        let empty = HashMap::new();
        let t = fig7_series(&traffic, &empty, release);
        assert!(t.rows.is_empty(), "the cross-correlation has nothing to match");
    }

    #[test]
    fn summary_reports_event_peak() {
        let (traffic, ip_classes, release) = synthetic();
        let t = fig7_summary(&traffic, &ip_classes, release);
        let ll = t.find_row(0, "Limelight").unwrap();
        let peak: f64 = ll[1].parse().unwrap();
        assert!((peak - 500.0).abs() < 1.0, "got {peak}");
        // All excess on day 0 belongs to Limelight (only CDN present).
        assert_eq!(ll[2], "100%");
    }
}
