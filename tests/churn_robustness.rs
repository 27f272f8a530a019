//! Robustness: the paper's headline shapes survive realistic probe churn.
//!
//! RIPE Atlas fleets are never fully online; this test re-runs the event
//! campaign with 88 % probe availability and checks the Europe spike and
//! the stable-Apple observation still hold.

use metacdn_suite::geo::{Continent, Duration, SimTime};
use metacdn_suite::scenario::{run_dns, Campaign, CdnClass, ScenarioConfig, World};

#[test]
fn eu_spike_survives_probe_churn() {
    let mut cfg = ScenarioConfig::fast();
    cfg.global_probes = 250;
    cfg.global_dns_interval = Duration::mins(5);
    cfg.global_start = SimTime::from_ymd_hms(2017, 9, 18, 12, 0, 0);
    cfg.global_end = SimTime::from_ymd(2017, 9, 20);
    cfg.probe_availability = 0.88;
    let world = World::build(&cfg);
    let result = run_dns(&world, &cfg, Campaign::Global, 0).result;

    // Fewer resolutions than a perfect fleet would make…
    let perfect_rounds =
        cfg.global_end.since(cfg.global_start).as_secs() / cfg.global_dns_interval.as_secs();
    let max_resolutions = perfect_rounds * cfg.global_probes as u64;
    assert!(result.resolutions < max_resolutions * 95 / 100, "churn must bite");
    assert!(result.resolutions > max_resolutions * 75 / 100, "but not devastate");

    // …yet the Europe spike still shows.
    let count_at = |bin: SimTime| -> usize {
        CdnClass::ALL
            .iter()
            .map(|c| result.unique_ips.count(bin, Continent::Europe, *c))
            .sum()
    };
    let before = count_at(SimTime::from_ymd_hms(2017, 9, 18, 18, 0, 0));
    let after = count_at(SimTime::from_ymd_hms(2017, 9, 19, 18, 0, 0));
    assert!(
        after as f64 > 2.0 * before as f64,
        "spike must survive churn: {before} → {after}"
    );

    // Apple stays flat under churn too.
    let apple_before =
        result.unique_ips.count(SimTime::from_ymd_hms(2017, 9, 18, 18, 0, 0), Continent::Europe, CdnClass::Apple);
    let apple_after =
        result.unique_ips.count(SimTime::from_ymd_hms(2017, 9, 19, 18, 0, 0), Continent::Europe, CdnClass::Apple);
    assert!((apple_after as f64) < 2.0 * apple_before.max(1) as f64);
}
