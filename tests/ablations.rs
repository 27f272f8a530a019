//! Ablations of the design choices DESIGN.md calls out. Each case toggles
//! one design element and asserts its *behavioural* consequence, so a
//! regression in the mechanism shows up as a failed test:
//!
//! * selector TTL 15 s vs 21600 s — how quickly a client population can be
//!   rerouted between CDNs (the paper's "quick reroutes" rationale);
//! * reactive overflow on/off — what happens to Apple's share when demand
//!   exceeds its capacity;
//! * off-net cache pools on/off — whether overflow via AS D exists at all;
//! * Akamai's wide answers (k=8) vs narrow (k=2) — how fast a probe fleet
//!   discovers a widened pool.

use metacdn_suite::core::{CdnKind, CdnShare, MetaCdnState, Schedule};
use metacdn_suite::geo::{Duration, Region, SimTime};
use metacdn_suite::scenario::{params, ScenarioConfig, World};
use std::collections::HashSet;
use std::net::Ipv4Addr;

/// Fraction of 1000 clients that change CDN within `window` seconds when
/// the schedule flips at t0, given a selector TTL.
fn reroute_fraction(selector_ttl: u64, window: u64) -> f64 {
    // Before: all-Apple. After: all-Limelight.
    let t0 = SimTime::from_ymd_hms(2017, 9, 19, 17, 0, 0);
    let mut schedule = Schedule::constant(CdnShare::apple_only());
    schedule.set_from(
        Region::Eu,
        t0,
        CdnShare { apple: 0.0, akamai: 0.0, limelight: 1.0, level3: 0.0 },
    );
    let state = MetaCdnState::new(schedule);
    let n = 1000u32;
    let moved = (0..n)
        .filter(|&i| {
            let client = Ipv4Addr::from(0x0A00_0000 + i * 131);
            // The client last resolved just before the flip; it re-resolves
            // only when its cached selector CNAME expires.
            let last_resolved = t0 - Duration::secs((i as u64 * 7) % selector_ttl + 1);
            let next_resolution = last_resolved + Duration::secs(selector_ttl);
            next_resolution <= t0 + Duration::secs(window)
                && state.select_cdn(Region::Eu, client, next_resolution) == Some(CdnKind::Limelight)
        })
        .count();
    moved as f64 / n as f64
}

#[test]
fn selector_ttl_15s_reroutes_nearly_everyone_within_a_minute() {
    let f = reroute_fraction(15, 60);
    assert!(f > 0.95, "15 s TTL reroutes nearly everyone in a minute: {f}");
}

#[test]
fn selector_ttl_6h_pins_clients_to_the_old_cdn() {
    let f = reroute_fraction(21_600, 60);
    assert!(f < 0.05, "6 h TTL pins clients to the old CDN: {f}");
}

const OVERFLOW_SHARE: CdnShare = CdnShare { apple: 0.6, akamai: 0.2, limelight: 0.2, level3: 0.0 };

fn apple_share(state: &MetaCdnState) -> f64 {
    let t = SimTime::from_ymd_hms(2017, 9, 19, 18, 0, 0);
    let eff = state.effective_share(Region::Eu, t);
    eff.iter().find(|(k, _)| *k == CdnKind::Apple).expect("Apple is scheduled").1
}

#[test]
fn reactive_overflow_caps_apple_over_capacity() {
    let state = MetaCdnState::new(Schedule::constant(OVERFLOW_SHARE));
    state.set_apple_utilization(Region::Eu, 3.0); // 3x over capacity
    let apple = apple_share(&state);
    assert!(apple < 0.25, "spill must cap Apple: {apple}");
}

#[test]
fn without_the_overload_signal_apple_keeps_its_scheduled_share() {
    // Ablated: the controller never learns about the overload.
    let state = MetaCdnState::new(Schedule::constant(OVERFLOW_SHARE));
    let apple = apple_share(&state);
    assert!((apple - 0.6).abs() < 1e-9, "Apple share {apple}");
}

/// Exposed Limelight EU addresses that originate in the off-net AS D, at
/// pool load `load`.
fn d_pool_addresses(world: &World, load: f64) -> usize {
    world
        .limelight
        .exposed(Region::Eu, load)
        .iter()
        .filter(|ip| world.topo.origin_of(**ip) == Some(params::LL_SURGE_D_AS))
        .count()
}

#[test]
fn offnet_d_pool_engages_under_load() {
    let world = World::build(&ScenarioConfig::fast());
    assert!(d_pool_addresses(&world, 0.9) > 0, "off-net D pool must engage under load");
}

#[test]
fn offnet_d_pool_is_absent_on_quiet_days() {
    let world = World::build(&ScenarioConfig::fast());
    assert_eq!(d_pool_addresses(&world, 0.05), 0, "no overflow via AS D on quiet days");
}

/// Draws a fleet of 400 clients needs, one answer of `k` addresses a
/// minute, to see 90% of Akamai's widened EU pool, within a budget of
/// 10,000 draws (`None` if the budget runs out).
fn draws_to_discover(world: &World, k: usize) -> Option<usize> {
    let pool = world.akamai.exposed(Region::Eu, 0.9);
    let target = pool.len() * 9 / 10;
    let t0 = SimTime::from_ymd_hms(2017, 9, 19, 18, 0, 0);
    let mut seen = HashSet::new();
    let mut answer = Vec::new();
    for draw in 0..10_000u64 {
        let client = Ipv4Addr::from(0x0A00_0000 + (draw as u32 % 400) * 97);
        let now = t0 + Duration::secs(draw * 60);
        answer.clear();
        world.akamai.answer(Region::Eu, 0.9, client, now, k, &mut answer);
        seen.extend(answer.iter().copied());
        if seen.len() >= target {
            return Some(draw as usize + 1);
        }
    }
    None
}

#[test]
fn wide_answers_discover_the_widened_pool() {
    let world = World::build(&ScenarioConfig::fast());
    let draws = draws_to_discover(&world, 8);
    assert!(draws.is_some(), "k=8 answers must reveal 90% of the pool within 10,000 draws");
}

#[test]
fn narrow_answers_slow_pool_discovery() {
    let world = World::build(&ScenarioConfig::fast());
    let wide = draws_to_discover(&world, 8).expect("k=8 discovers the pool");
    let narrow = draws_to_discover(&world, 2).unwrap_or(usize::MAX);
    assert!(narrow > wide, "narrow answers slow pool discovery: {narrow} vs {wide}");
}
