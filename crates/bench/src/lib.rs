//! Shared setup for the `micro` Criterion benches, which time the hot
//! substrate operations (DNS codec, resolver, LPM, routing, NetFlow,
//! cache-site serving) against one micro-scale world.
//!
//! Each job has one timing harness: the `bench_campaigns` binary times the
//! campaign engine at 1, 2 and 4 threads, and the `benchmark/` crate times
//! the paper pipeline stage by stage.

use mcdn_geo::{Duration, SimTime};
use mcdn_scenario::{ScenarioConfig, World};

/// A configuration small enough for statistical benching: a few dozen
/// probes, hour-level sampling, and a window around the release.
pub fn micro_cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::fast();
    cfg.global_probes = 60;
    cfg.isp_probes = 40;
    cfg.global_dns_interval = Duration::hours(1);
    cfg.global_start = SimTime::from_ymd(2017, 9, 18);
    cfg.global_end = SimTime::from_ymd(2017, 9, 21);
    cfg.isp_start = SimTime::from_ymd(2017, 9, 16);
    cfg.isp_end = SimTime::from_ymd(2017, 9, 22);
    cfg.traffic_start = SimTime::from_ymd(2017, 9, 18);
    cfg.traffic_end = SimTime::from_ymd(2017, 9, 21);
    cfg.traffic_tick = Duration::hours(1);
    cfg.flows_per_cdn = 15;
    cfg
}

/// Builds the micro world once per harness.
pub fn micro_world() -> (ScenarioConfig, World) {
    let cfg = micro_cfg();
    let world = World::build(&cfg);
    (cfg, world)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_world_builds() {
        let (cfg, world) = micro_world();
        assert_eq!(world.global_probe_specs.len(), cfg.global_probes);
    }
}
