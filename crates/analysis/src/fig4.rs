//! Figure 4: unique CDN cache IPs per continent over the global campaign.

use crate::table::Table;
use mcdn_geo::{Continent, Duration, SimTime};
use mcdn_scenario::{CdnClass, DnsCampaignResult};

/// The full Figure 4 series: one row per (bin, continent, class) with the
/// unique-IP count.
pub fn fig4_series(result: &DnsCampaignResult) -> Table {
    let mut t = Table::new(
        "Figure 4 — Unique CDN cache IPs, worldwide measurement",
        &["bin start", "continent", "cdn", "unique IPs"],
    );
    for (bin, cont, class, count) in result.unique_ips.series() {
        t.push(vec![bin.to_string(), cont.to_string(), class.to_string(), count.to_string()]);
    }
    t
}

/// Headline statistics of the figure: per continent, the pre-event average
/// hourly unique-IP total, the event-window peak, and their ratio (the
/// paper reports Europe peaking at 977 vs a 191 pre-event average — a >4×
/// spike — and no comparable spike elsewhere).
pub fn fig4_summary(result: &DnsCampaignResult, release: SimTime) -> Table {
    let mut t = Table::new(
        "Figure 4 summary — pre-event avg vs event peak per continent",
        &["continent", "pre-event avg/bin", "event peak/bin", "ratio"],
    );
    for cont in Continent::ALL {
        let mut pre: Vec<usize> = Vec::new();
        let mut peak = 0usize;
        let mut totals: std::collections::BTreeMap<SimTime, usize> = Default::default();
        for (bin, c, _class, count) in result.unique_ips.series() {
            if c == cont {
                *totals.entry(bin).or_default() += count;
            }
        }
        for (bin, total) in totals {
            if bin < release && bin >= release - Duration::days(2) {
                pre.push(total);
            }
            if bin >= release && bin < release + Duration::days(2) {
                peak = peak.max(total);
            }
        }
        let avg = if pre.is_empty() { 0.0 } else { pre.iter().sum::<usize>() as f64 / pre.len() as f64 };
        let ratio = if avg > 0.0 { peak as f64 / avg } else { 0.0 };
        t.push(vec![
            cont.to_string(),
            format!("{avg:.0}"),
            peak.to_string(),
            format!("{ratio:.2}x"),
        ]);
    }
    t
}

/// The class breakdown at the peak European bin (who caused the spike —
/// the paper attributes it mostly to Limelight, then Akamai incl. its
/// other-AS caches).
pub fn fig4_eu_peak_breakdown(result: &DnsCampaignResult, release: SimTime) -> Table {
    // Find the densest EU bin in the event window.
    let mut totals: std::collections::BTreeMap<SimTime, usize> = Default::default();
    for (bin, c, _class, count) in result.unique_ips.series() {
        if c == Continent::Europe && bin >= release && bin < release + Duration::days(2) {
            *totals.entry(bin).or_default() += count;
        }
    }
    let peak_bin = totals.iter().max_by_key(|(_, v)| **v).map(|(k, _)| *k);
    let mut t = Table::new(
        "Figure 4 — Europe peak-bin breakdown by CDN class",
        &["cdn", "unique IPs"],
    );
    if let Some(bin) = peak_bin {
        for class in CdnClass::ALL {
            let n = result.unique_ips.count(bin, Continent::Europe, class);
            t.push(vec![class.to_string(), n.to_string()]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdn_atlas::UniqueIpAggregator;
    use mcdn_scenario::DnsCampaignResult;
    use std::net::Ipv4Addr;

    fn synthetic() -> (DnsCampaignResult, SimTime) {
        let release = SimTime::from_ymd_hms(2017, 9, 19, 17, 0, 0);
        let mut agg = UniqueIpAggregator::new(Duration::hours(1));
        // Pre-event: 10 Limelight IPs per hour for two days.
        let mut t = release - Duration::days(2);
        while t < release {
            for i in 0..10u32 {
                agg.record(t, Continent::Europe, CdnClass::Limelight, Ipv4Addr::from(0x4400_0000 + i));
            }
            t += Duration::hours(1);
        }
        // Event hour: 50 IPs.
        for i in 0..50u32 {
            agg.record(
                release + Duration::mins(30),
                Continent::Europe,
                CdnClass::Limelight,
                Ipv4Addr::from(0x4400_0000 + i),
            );
        }
        (
            DnsCampaignResult {
                unique_ips: agg,
                ip_classes: Default::default(),
                resolutions: 0,
                attempts: 0,
                retry_exhausted: 0,
                memo_lookups: 0,
                memo_hits: 0,
            },
            release,
        )
    }

    #[test]
    fn summary_ratio_is_peak_over_pre_average() {
        let (result, release) = synthetic();
        let t = fig4_summary(&result, release);
        let eu = t.find_row(0, "Europe").expect("Europe row");
        assert_eq!(eu[1], "10");
        assert_eq!(eu[2], "50");
        assert_eq!(eu[3], "5.00x");
        // Continents without data report zero, not garbage.
        let asia = t.find_row(0, "Asia").expect("Asia row");
        assert_eq!(asia[2], "0");
    }

    #[test]
    fn series_has_one_row_per_cell() {
        let (result, _) = synthetic();
        let t = fig4_series(&result);
        assert_eq!(t.rows.len(), 48 + 1, "48 pre-event hours + 1 event hour");
    }

    #[test]
    fn peak_breakdown_reports_all_classes() {
        let (result, release) = synthetic();
        let t = fig4_eu_peak_breakdown(&result, release);
        assert_eq!(t.rows.len(), CdnClass::ALL.len());
        assert_eq!(t.find_row(0, "Limelight").unwrap()[1], "50");
        assert_eq!(t.find_row(0, "Apple").unwrap()[1], "0");
    }
}
