//! Measurement-coverage annotations for fault-injected campaigns.
//!
//! When the measurement plane runs under a fault profile, every figure is
//! computed from partial data: some probe rounds failed even after
//! retries, some NetFlow exports were lost, some SNMP bins were never
//! polled. These tables make that loss explicit so a reader of the
//! regenerated figures knows how much observation backs them — the
//! simulated analogue of a measurement paper's data-completeness
//! paragraph.

use crate::table::Table;
use mcdn_faults::coverage::interpolate_gaps;
use mcdn_geo::{Duration, SimTime};
use mcdn_isp::CellTable;
use mcdn_netsim::LinkId;
use mcdn_scenario::{DnsCampaignResult, TrafficResult};

/// Coverage summary of one DNS campaign: measurements, retries, and the
/// fraction that produced usable resolutions.
pub fn dns_campaign_coverage(result: &DnsCampaignResult) -> Table {
    let mut t = Table::new(
        "DNS campaign coverage",
        &["measurements", "attempts", "retries", "exhausted", "success %"],
    );
    let retries = result.attempts.saturating_sub(result.resolutions);
    t.push(vec![
        result.resolutions.to_string(),
        result.attempts.to_string(),
        retries.to_string(),
        result.retry_exhausted.to_string(),
        format!("{:.1}", result.success_fraction() * 100.0),
    ]);
    t
}

/// Coverage summary of the border telemetry: NetFlow export losses, SNMP
/// poll gaps, and how many scaling cells had real SNMP backing.
pub fn telemetry_coverage(traffic: &TrafficResult) -> Table {
    let cells = CellTable::build(&traffic.flows, &traffic.snmp, traffic.sampling);
    let scaling = cells.coverage();
    let mut t = Table::new(
        "Border telemetry coverage",
        &[
            "flow records",
            "exports lost",
            "SNMP polls missed",
            "cells SNMP-scaled",
            "cells gapped",
            "SNMP coverage %",
        ],
    );
    t.push(vec![
        traffic.flows.len().to_string(),
        traffic.export_losses.to_string(),
        traffic.polls_missed.to_string(),
        scaling.covered_cells.to_string(),
        scaling.gapped_cells.to_string(),
        format!("{:.1}", scaling.fraction() * 100.0),
    ]);
    t
}

/// One link's SNMP byte series on the regular poll grid over `[from, to)`,
/// with missed bins linearly interpolated and flagged — the gap-tolerant
/// input for utilization plots. Bins are `step`-spaced (pass the traffic
/// tick).
pub fn link_series_with_gaps(
    traffic: &TrafficResult,
    link: LinkId,
    from: SimTime,
    to: SimTime,
    step: Duration,
) -> Table {
    let observed: Vec<(SimTime, f64)> = traffic
        .snmp
        .samples()
        .filter(|(_, l, _)| *l == link)
        .filter(|(t, _, _)| *t >= from && *t < to)
        .map(|(t, _, b)| (t, b as f64))
        .collect();
    let (bins, cov) = interpolate_gaps(&observed, from, to, step);
    let mut t = Table::new(
        format!(
            "Link {} SNMP series ({} of {} bins observed)",
            link.0,
            cov.observed,
            cov.observed + cov.missing
        ),
        &["bin", "bytes", "interpolated"],
    );
    for b in bins {
        t.push(vec![
            b.t.to_string(),
            format!("{:.0}", b.value),
            if b.interpolated { "yes".into() } else { "no".into() },
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdn_isp::SnmpCounters;
    use mcdn_scenario::{run_dns, Campaign, ScenarioConfig, World};

    fn traffic_with_gap() -> TrafficResult {
        let t0 = SimTime::from_ymd(2017, 9, 19);
        let step = Duration::mins(5);
        let mut snmp = SnmpCounters::new();
        snmp.account(LinkId(1), 100);
        snmp.poll(t0);
        snmp.account(LinkId(1), 100);
        snmp.poll_filtered(t0 + step, |_| false); // the missed cycle
        snmp.account(LinkId(1), 100);
        snmp.poll(t0 + step + step);
        TrafficResult {
            flows: Vec::new(),
            snmp,
            dropped_bytes: 0,
            sampling: 1000,
            export_losses: 3,
            polls_missed: 1,
        }
    }

    #[test]
    fn telemetry_table_reports_losses_and_gaps() {
        let t = telemetry_coverage(&traffic_with_gap());
        assert_eq!(t.rows[0][1], "3");
        assert_eq!(t.rows[0][2], "1");
        // No flows → no scaling cells → full coverage by convention.
        assert_eq!(t.rows[0][5], "100.0");
    }

    #[test]
    fn link_series_flags_the_missed_bin() {
        let t0 = SimTime::from_ymd(2017, 9, 19);
        let step = Duration::mins(5);
        let table = link_series_with_gaps(
            &traffic_with_gap(),
            LinkId(1),
            t0,
            t0 + Duration::mins(15),
            step,
        );
        assert_eq!(table.rows.len(), 3);
        let flags: Vec<&str> = table.rows.iter().map(|r| r[2].as_str()).collect();
        assert_eq!(flags, vec!["no", "yes", "no"]);
        // The gap bin interpolates between 100 and 200 bytes of delta.
        let mid: f64 = table.rows[1][1].parse().unwrap();
        assert!((mid - 150.0).abs() < 1e-9, "got {mid}");
    }

    #[test]
    fn dns_coverage_reports_clean_campaign_as_full() {
        let mut cfg = ScenarioConfig::fast();
        cfg.global_probes = 20;
        cfg.global_dns_interval = Duration::hours(6);
        cfg.global_start = SimTime::from_ymd(2017, 9, 19);
        cfg.global_end = SimTime::from_ymd(2017, 9, 20);
        let world = World::build(&cfg);
        let result = run_dns(&world, &cfg, Campaign::Global, 0).result;
        let t = dns_campaign_coverage(&result);
        assert_eq!(t.rows[0][0], t.rows[0][1], "no faults → attempts == measurements");
        assert_eq!(t.rows[0][2], "0");
        assert_eq!(t.rows[0][4], "100.0");
    }
}
