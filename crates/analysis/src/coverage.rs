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
    let scaled = traffic.flows.scale(&traffic.snmp, traffic.sampling);
    let scaling = scaled.coverage();
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

#[cfg(test)]
mod tests {
    use super::*;
    use mcdn_geo::{Duration, SimTime};
    use mcdn_isp::{FlowRecord, FlowTable, SnmpCounters};
    use mcdn_netsim::LinkId;
    use mcdn_scenario::{run_dns, Campaign, ScenarioConfig, World};
    use std::net::Ipv4Addr;

    /// Three 5-minute polls of link 1, the middle one missed, with one
    /// sampled record in each bin and a zero-byte record on link 2.
    fn traffic_with_gap() -> TrafficResult {
        let t0 = SimTime::from_ymd(2017, 9, 19);
        let step = Duration::mins(5);
        let mut snmp = SnmpCounters::new();
        let mut flows = FlowTable::new();
        let record = |bytes| FlowRecord {
            src: Ipv4Addr::new(23, 0, 0, 1),
            dst: Ipv4Addr::new(84, 17, 0, 1),
            input_if: 1,
            packets: 1,
            bytes,
            src_as: 20940,
            dst_as: 3320,
        };
        flows.push(t0, LinkId(2), record(0));
        for (bin, polled) in [(t0, true), (t0 + step, false), (t0 + step + step, true)] {
            flows.push(bin, LinkId(1), record(1));
            snmp.account(LinkId(1), 100);
            snmp.poll_filtered(bin, |_| polled);
        }
        TrafficResult {
            flows,
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
        assert_eq!(t.rows[0][..5], ["4", "3", "1", "2", "1"]);
        assert_eq!(t.rows[0][5], "66.7");
        // No flows → no scaling cells → full coverage by convention.
        let empty = TrafficResult { flows: FlowTable::new(), ..traffic_with_gap() };
        assert_eq!(telemetry_coverage(&empty).rows[0][3..], ["0", "0", "100.0"]);
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
