//! Ablation benches for the design choices DESIGN.md calls out. Each bench
//! measures (and asserts) the *behavioural* consequence of toggling one
//! design element, so regressions in the mechanisms show up as changed
//! outputs, not just changed runtimes:
//!
//! * selector TTL 15 s vs 21600 s — how quickly a client population can be
//!   rerouted between CDNs (the paper's "quick reroutes" rationale);
//! * reactive overflow on/off — what happens to Apple's share when demand
//!   exceeds its capacity;
//! * off-net cache pools on/off — whether overflow via AS D exists at all;
//! * Akamai's wide answers (k=8) vs narrow (k=2) — how fast a probe fleet
//!   discovers a widened pool.

use criterion::{criterion_group, criterion_main, Criterion};
use mcdn_geo::{Duration, Region, SimTime};
use mcdn_scenario::params;
use metacdn::{CdnKind, CdnShare, MetaCdnState, Schedule};
use std::hint::black_box;
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
    let mut moved = 0u32;
    let n = 1000u32;
    for i in 0..n {
        let client = Ipv4Addr::from(0x0A00_0000 + i * 131);
        // The client last resolved just before the flip; it re-resolves
        // only when its cached selector CNAME expires.
        let last_resolved = t0 - Duration::secs((i as u64 * 7) % selector_ttl + 1);
        let next_resolution = last_resolved + Duration::secs(selector_ttl);
        if next_resolution <= t0 + Duration::secs(window) {
            if let Some(k) = state.select_cdn(Region::Eu, client, next_resolution) {
                if k == CdnKind::Limelight {
                    moved += 1;
                }
            }
        }
    }
    moved as f64 / n as f64
}

fn ablation_selector_ttl(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_selector_ttl");
    g.bench_function("ttl_15s_reroute_within_60s", |b| {
        b.iter(|| {
            let f = reroute_fraction(15, 60);
            assert!(f > 0.95, "15 s TTL reroutes nearly everyone in a minute: {f}");
            black_box(f)
        })
    });
    g.bench_function("ttl_21600s_reroute_within_60s", |b| {
        b.iter(|| {
            let f = reroute_fraction(21_600, 60);
            assert!(f < 0.05, "6 h TTL pins clients to the old CDN: {f}");
            black_box(f)
        })
    });
    g.finish();
}

fn ablation_reactive_overflow(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_reactive_overflow");
    let share = CdnShare { apple: 0.6, akamai: 0.2, limelight: 0.2, level3: 0.0 };
    let t = SimTime::from_ymd_hms(2017, 9, 19, 18, 0, 0);
    g.bench_function("overflow_enabled_apple_capped", |b| {
        b.iter(|| {
            let state = MetaCdnState::new(Schedule::constant(share));
            state.set_apple_utilization(Region::Eu, 3.0); // 3x over capacity
            let eff = state.effective_share(Region::Eu, t);
            let apple = eff.iter().find(|(k, _)| *k == CdnKind::Apple).unwrap().1;
            assert!(apple < 0.25, "spill must cap Apple: {apple}");
            black_box(eff)
        })
    });
    g.bench_function("overflow_absent_apple_uncapped", |b| {
        b.iter(|| {
            let state = MetaCdnState::new(Schedule::constant(share));
            // Ablated: the controller never learns about the overload.
            let eff = state.effective_share(Region::Eu, t);
            let apple = eff.iter().find(|(k, _)| *k == CdnKind::Apple).unwrap().1;
            assert!((apple - 0.6).abs() < 1e-9);
            black_box(eff)
        })
    });
    g.finish();
}

fn ablation_offnet_pools(c: &mut Criterion) {
    let (_, world) = mcdn_bench::micro_world();
    let mut g = c.benchmark_group("ablation_offnet_pools");
    g.bench_function("with_offnet_d_pool_exposed_under_load", |b| {
        b.iter(|| {
            let exposed = world.limelight.exposed(Region::Eu, 0.9);
            let d_ips = exposed
                .iter()
                .filter(|ip| world.topo.origin_of(**ip) == Some(params::LL_SURGE_D_AS))
                .count();
            assert!(d_ips > 0, "off-net D pool must engage under load");
            black_box(d_ips)
        })
    });
    g.bench_function("without_load_d_pool_absent", |b| {
        b.iter(|| {
            let exposed = world.limelight.exposed(Region::Eu, 0.05);
            let d_ips = exposed
                .iter()
                .filter(|ip| world.topo.origin_of(**ip) == Some(params::LL_SURGE_D_AS))
                .count();
            assert_eq!(d_ips, 0, "no overflow via AS D on quiet days");
            black_box(d_ips)
        })
    });
    g.finish();
}

fn ablation_answer_width(c: &mut Criterion) {
    let (_, world) = mcdn_bench::micro_world();
    let mut g = c.benchmark_group("ablation_answer_width");
    // How many draws does a fleet need to see 90% of a widened pool?
    let discover = |k: usize| -> usize {
        let pool = world.akamai.exposed(Region::Eu, 0.9);
        let target = pool.len() * 9 / 10;
        let mut seen = std::collections::HashSet::new();
        let mut answer = Vec::new();
        let mut draws = 0usize;
        let t0 = SimTime::from_ymd_hms(2017, 9, 19, 18, 0, 0);
        'outer: for round in 0..10_000u64 {
            let client = Ipv4Addr::from(0x0A00_0000 + (round as u32 % 400) * 97);
            let now = t0 + Duration::secs(round * 60);
            answer.clear();
            world.akamai.answer(Region::Eu, 0.9, client, now, k, &mut answer);
            seen.extend(answer.iter().copied());
            draws += 1;
            if seen.len() >= target {
                break 'outer;
            }
        }
        draws
    };
    g.sample_size(10);
    g.bench_function("wide_answers_k8_discovery", |b| {
        b.iter(|| {
            let d = discover(8);
            black_box(d)
        })
    });
    g.bench_function("narrow_answers_k2_discovery", |b| {
        b.iter(|| {
            let d8 = discover(8);
            let d2 = discover(2);
            assert!(d2 > d8, "narrow answers slow pool discovery: {d2} vs {d8}");
            black_box(d2)
        })
    });
    g.finish();
}

criterion_group!(
    ablation,
    ablation_selector_ttl,
    ablation_reactive_overflow,
    ablation_offnet_pools,
    ablation_answer_width,
);
criterion_main!(ablation);
