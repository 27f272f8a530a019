//! The campaign engine's exact work counts.
//!
//! The simulation is deterministic, so the engine's cost properties are
//! exact counts, the same on any host and in any build profile:
//!
//! * on a pool warm to 4 threads, a DNS campaign wakes the pool once per
//!   round and the traffic simulation once per batch of eight ticks, and
//!   neither spawns a worker;
//! * a real campaign window (the serial global campaign of
//!   `bench_campaigns`' full workload) averages under one heap allocation
//!   per resolution, and recording metrics allocates nothing;
//! * so does the same window under `FaultProfile::realistic` with
//!   standard retries: deciding a query's faults allocates nothing;
//! * the poisoning sweep's wire audit writes, mangles and checks its
//!   messages in reused buffers: the sweep, its world builds aside,
//!   makes fewer than one allocation per ten wire messages.
//!
//! The counting allocator and the pool counters are process-wide, so this
//! binary holds a single test: nothing else allocates or dispatches while
//! it counts.

use alloc_counter::{AllocCounts, CountingAlloc};
use metacdn_suite::exec;
use metacdn_suite::faults::{FaultProfile, RetryPolicy};
use metacdn_suite::geo::{Duration, SimTime};
use metacdn_suite::obs;
use metacdn_suite::scenario::{
    params, poison_grid, run_dns, run_poison_sweep, run_traffic, Campaign, ScenarioConfig, World,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// `bench_campaigns`' workload: the full one, or its `--smoke` reduction.
fn bench_cfg(smoke: bool) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::fast();
    cfg.global_probes = if smoke { 40 } else { 150 };
    cfg.isp_probes = if smoke { 30 } else { 80 };
    cfg.global_dns_interval = if smoke { Duration::hours(2) } else { Duration::mins(30) };
    cfg.global_start = SimTime::from_ymd(2017, 9, 18);
    cfg.global_end = SimTime::from_ymd(2017, 9, if smoke { 20 } else { 21 });
    cfg.isp_start = SimTime::from_ymd(2017, 9, 16);
    cfg.isp_end = SimTime::from_ymd(2017, 9, 22);
    cfg.traffic_start = SimTime::from_ymd(2017, 9, 18);
    cfg.traffic_end = SimTime::from_ymd(2017, 9, if smoke { 19 } else { 21 });
    cfg.traffic_tick = if smoke { Duration::hours(1) } else { Duration::mins(30) };
    cfg
}

/// Pool dispatches and worker spawns of `run`, world build included.
fn pool_work(run: impl FnOnce()) -> (u64, usize) {
    let before = exec::pool_stats();
    run();
    let after = exec::pool_stats();
    (after.dispatches - before.dispatches, after.spawned - before.spawned)
}

/// Heap allocations of the serial global campaign over a fresh world
/// (the build itself not counted), and its resolutions.
fn campaign_allocs(cfg: &ScenarioConfig) -> (AllocCounts, u64) {
    let world = World::build(cfg);
    let before = ALLOC.snapshot();
    let report = run_dns(&world, cfg, Campaign::Global, 1);
    (ALLOC.snapshot().since(before), report.result.resolutions)
}

#[test]
fn campaign_engine_work_counts() {
    const THREADS: usize = 4;
    let smoke = bench_cfg(true);
    exec::warm(THREADS);
    // 48 h of 2-hour rounds, and 6 days of 12-hour rounds.
    for (campaign, rounds) in [(Campaign::Global, 24), (Campaign::Isp, 12)] {
        let work = pool_work(|| {
            run_dns(&World::build(&smoke), &smoke, campaign, THREADS);
        });
        assert_eq!(work, (rounds, 0), "{campaign:?}: (pool dispatches, workers spawned)");
    }
    // 24 hourly ticks in batches of 8.
    let work = pool_work(|| {
        run_traffic(&World::build(&smoke), &smoke, THREADS);
    });
    assert_eq!(work, (3, 0), "traffic: (pool dispatches, workers spawned)");

    // The campaigns above warmed the process: the first campaign of a
    // process makes one extra allocation, which is not the engine's cost.
    let full = bench_cfg(false);
    let (enabled, resolutions) = campaign_allocs(&full);
    obs::set_enabled(false);
    let (disabled, _) = campaign_allocs(&full);
    obs::set_enabled(true);
    assert_eq!(resolutions, 21_600, "150 probes × 144 half-hour rounds");
    assert!(
        enabled.allocs < resolutions,
        "{} allocations ({} bytes) for {resolutions} resolutions: one or more per resolution",
        enabled.allocs,
        enabled.bytes
    );
    assert_eq!(enabled, disabled, "metrics recording must not allocate");
    let mut faulted = full;
    faulted.faults = FaultProfile::realistic(full.seed);
    faulted.retry = RetryPolicy::standard();
    let (allocs, faulted_resolutions) = campaign_allocs(&faulted);
    assert_eq!(faulted_resolutions, resolutions, "retries do not count as resolutions");
    assert!(
        allocs.allocs < resolutions,
        "{} allocations ({} bytes) for {resolutions} faulted resolutions: one or more per \
         resolution",
        allocs.allocs,
        allocs.bytes
    );

    // The poisoning sweep over the window of its unit tests. Each of its
    // scenarios builds a world, whose allocations are counted apart.
    let mut sweep = ScenarioConfig::fast();
    sweep.traffic_start = params::release() - Duration::hours(2);
    sweep.traffic_end = params::release() + Duration::hours(6);
    let grid = poison_grid(sweep.seed);
    let before = ALLOC.snapshot();
    for _ in &grid {
        World::build(&sweep);
    }
    let builds = ALLOC.snapshot().since(before);
    let before = ALLOC.snapshot();
    let results = run_poison_sweep(&sweep, &grid).expect("poison sweep invariants");
    let allocs = ALLOC.snapshot().since(before).allocs - builds.allocs;
    let resolutions: u64 = results.iter().map(|r| r.resolutions).sum();
    let wire_messages: u64 = results.iter().map(|r| r.wire_messages).sum();
    assert_eq!((resolutions, wire_messages), (1_792, 31_924), "7 scenarios × 8 probes × 32 ticks");
    assert!(
        allocs * 10 < wire_messages,
        "{allocs} allocations besides {} of the world builds for {wire_messages} wire messages: \
         one or more per ten messages",
        builds.allocs
    );
}
