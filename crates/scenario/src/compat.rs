//! The eight campaign entry points the benchmark still imports.
//!
//! `benchmark/src/workloads.rs` calls these names, and files under
//! `benchmark/` change only together with the benchmark's goldens. Each
//! is one call of [`run_dns`], [`run_dns_journaled`] or [`run_traffic`]
//! with the same output. The module goes once the benchmark calls those
//! three runners itself.

use crate::checkpoint::{CampaignError, CampaignRun, ResumeOptions};
use crate::config::ScenarioConfig;
use crate::dnscampaign::{run_dns, run_dns_journaled, Campaign, DnsCampaignResult};
use crate::traffic::{run_traffic, TrafficResult};
use crate::world::World;
use mcdn_obs::MetricsSnapshot;
use std::path::Path;
use std::time::Duration;

/// [`run_dns`] of the global campaign: the result only.
pub fn run_global_dns_threads(
    world: &World,
    cfg: &ScenarioConfig,
    threads: usize,
) -> DnsCampaignResult {
    run_dns(world, cfg, Campaign::Global, threads).result
}

/// [`run_dns`] of the global campaign: the result and metrics snapshot.
pub fn run_global_dns_threads_observed(
    world: &World,
    cfg: &ScenarioConfig,
    threads: usize,
) -> (DnsCampaignResult, MetricsSnapshot) {
    let report = run_dns(world, cfg, Campaign::Global, threads);
    (report.result, report.metrics)
}

/// [`run_dns`] of the global campaign: result, shard walls and snapshot.
pub fn run_global_dns_threads_timed_observed(
    world: &World,
    cfg: &ScenarioConfig,
    threads: usize,
) -> (DnsCampaignResult, Vec<Duration>, MetricsSnapshot) {
    let report = run_dns(world, cfg, Campaign::Global, threads);
    (report.result, report.shard_walls, report.metrics)
}

/// [`run_dns`] of the in-ISP campaign: the result and metrics snapshot.
pub fn run_isp_dns_threads_observed(
    world: &World,
    cfg: &ScenarioConfig,
    threads: usize,
) -> (DnsCampaignResult, MetricsSnapshot) {
    let report = run_dns(world, cfg, Campaign::Isp, threads);
    (report.result, report.metrics)
}

/// [`run_dns`] of the in-ISP campaign: result, shard walls and snapshot.
pub fn run_isp_dns_threads_timed_observed(
    world: &World,
    cfg: &ScenarioConfig,
    threads: usize,
) -> (DnsCampaignResult, Vec<Duration>, MetricsSnapshot) {
    let report = run_dns(world, cfg, Campaign::Isp, threads);
    (report.result, report.shard_walls, report.metrics)
}

/// [`run_dns_journaled`] of the global campaign.
pub fn run_global_dns_resumable_with_observed(
    world: &World,
    cfg: &ScenarioConfig,
    journal: &Path,
    opts: ResumeOptions,
) -> Result<(CampaignRun, MetricsSnapshot), CampaignError> {
    run_dns_journaled(world, cfg, Campaign::Global, journal, opts)
}

/// [`run_traffic`]: the result only.
pub fn run_isp_traffic_threads(
    world: &World,
    cfg: &ScenarioConfig,
    threads: usize,
) -> TrafficResult {
    run_traffic(world, cfg, threads).0
}

/// [`run_traffic`]: the result and the phase-B shard walls.
pub fn run_isp_traffic_threads_timed(
    world: &World,
    cfg: &ScenarioConfig,
    threads: usize,
) -> (TrafficResult, Vec<Duration>) {
    run_traffic(world, cfg, threads)
}
