//! The metric catalogue. `BENCHMARK.json` at the repository root lists
//! the same names, units, directions and bounds; a test keeps the two in
//! step.

use crate::stats::Better::{self, Higher, Lower};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Absolute slack in the metric's unit, used where it exceeds `bound`.
    pub floor: f64,
    /// How a run reduces its repetitions' samples to the reported value.
    pub pick: Pick,
}

/// The reduction of one run's samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// The best sample. Other tenants of a shared host slow a repetition
    /// down, sometimes by half or more for a minute at a time, and never
    /// speed it up; the best repetition is the one they disturbed least.
    Best,
    Median,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    floor: f64,
    pick: Pick,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        floor,
        pick,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        floor: 0.0,
        pick: Pick::Median,
    }
}

/// What a user of the pipeline sees; reported by untraced runs.
pub const END_TO_END: [Metric; 5] = [
    e2e("wall_s", "s", Lower, 0.25, 0.0, Pick::Best),
    e2e("setup_s", "s", Lower, 0.25, 0.005, Pick::Median),
    e2e("cpu_s", "s", Lower, 0.25, 0.0, Pick::Best),
    e2e("resolutions_per_s", "1/s", Higher, 0.25, 0.0, Pick::Best),
    e2e("peak_rss_mb", "MiB", Lower, 0.25, 0.0, Pick::Median),
];

/// Single-layer metrics; reported by traced runs, 0 where a workload
/// does not reach the layer.
pub const PER_LAYER: [Metric; 47] = [
    layer("world.build_s", "s", Lower),
    layer("atlas.crawl_s", "s", Lower),
    layer("global_dns.wall_s", "s", Lower),
    layer("isp_dns.wall_s", "s", Lower),
    layer("campaign.rounds", "count", Higher),
    layer("campaign.round_ms.p50", "ms", Lower),
    layer("campaign.round_ms.p99", "ms", Lower),
    layer("campaign.retries_per_res", "ratio", Lower),
    layer("campaign.fail_ratio", "ratio", Lower),
    layer("dnssim.cache_puts_per_res", "ratio", Lower),
    layer("dnssim.cache_hits_per_res", "ratio", Higher),
    layer("dnssim.cache_expired_share", "ratio", Lower),
    layer("dnssim.memo_lookups_per_res", "ratio", Lower),
    layer("dnssim.memo_hit_rate", "ratio", Higher),
    layer("dnssim.fault_servfail", "count", Lower),
    layer("dnssim.fault_timeout", "count", Lower),
    layer("dnssim.tamper_total", "count", Lower),
    layer("dnssim.bailiwick_drops", "count", Lower),
    layer("reuse.rate", "ratio", Higher),
    layer("reuse.invalidations_per_record", "ratio", Lower),
    layer("exec.shard_ms.p50", "ms", Lower),
    layer("exec.shard_ms.p99", "ms", Lower),
    layer("exec.busy_share", "ratio", Higher),
    layer("exec.orchestration_s", "s", Lower),
    layer("journal.checkpoint_writes", "count", Lower),
    layer("journal.bytes", "bytes", Lower),
    layer("checkpoint.wall_us.p50", "us", Lower),
    layer("checkpoint.wall_us.p99", "us", Lower),
    layer("faulted.suspend_s", "s", Lower),
    layer("faulted.resume_s", "s", Lower),
    layer("chaos.sweep_s", "s", Lower),
    layer("chaos.ticks", "count", Higher),
    layer("health.ejections", "count", Lower),
    layer("health.restorations", "count", Lower),
    layer("poison.sweep_s", "s", Lower),
    layer("traffic.wall_s", "s", Lower),
    layer("traffic.flow_records", "count", Higher),
    layer("traffic.snmp_samples", "count", Higher),
    layer("traffic.shard_ms.p50", "ms", Lower),
    layer("traffic.shard_ms.p99", "ms", Lower),
    layer("traffic.flow_records_per_s", "1/s", Higher),
    layer("analysis.fig7_s", "s", Lower),
    layer("analysis.fig8_s", "s", Lower),
    layer("analysis.figures_s", "s", Lower),
    layer("obs.trace_dropped", "count", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.layer_share", "ratio", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .collect();
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric or workload name");
    }

    #[test]
    fn manifest_lists_exactly_this_catalogue() {
        for m in &END_TO_END {
            let line = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            );
            assert!(MANIFEST.contains(&line), "BENCHMARK.json lacks {line}");
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in &PER_LAYER {
            let line = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            );
            assert!(MANIFEST.contains(&line), "BENCHMARK.json lacks {line}");
        }
        assert_eq!(
            MANIFEST.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for w in Workload::ALL {
            assert!(
                MANIFEST.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())),
                "{}",
                w.name()
            );
        }
        assert_eq!(MANIFEST.matches("\"why\"").count(), Workload::ALL.len());
    }
}
