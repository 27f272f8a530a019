//! Generalization check: the calibrated mechanisms, driven by a *different*
//! event (the iOS 11.1 release on Oct 31), produce the qualitatively
//! expected smaller episode — a real test that the figures emerge from the
//! model rather than from September-specific tuning.

use metacdn_suite::analysis::fig8;
use metacdn_suite::geo::{Duration, Region, SimTime};
use metacdn_suite::scenario::{
    loads, params, run_dns, run_traffic, Campaign, ScenarioConfig, World,
};

fn window(start: (u32, u32), end: (u32, u32)) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::fast();
    cfg.traffic_start = SimTime::from_ymd(2017, start.0, start.1);
    cfg.traffic_end = SimTime::from_ymd(2017, end.0, end.1);
    cfg.traffic_tick = Duration::mins(30);
    cfg.isp_start = cfg.traffic_start - Duration::days(2);
    cfg.isp_end = cfg.traffic_end + Duration::days(1);
    cfg
}

#[test]
fn ios_11_1_is_a_smaller_echo_of_the_main_event() {
    let release_11_1 = SimTime::from_ymd_hms(2017, 10, 31, 17, 0, 0);

    // Main event window.
    let cfg_main = window((9, 15), (9, 23));
    let world_main = World::build(&cfg_main);
    let dns_main = run_dns(&world_main, &cfg_main, Campaign::Isp, 0).result;
    let traffic_main = run_traffic(&world_main, &cfg_main, 0).0;
    let d_main = fig8::d_peak_share(&traffic_main, &dns_main.ip_classes, &world_main);

    // 11.1 window.
    let cfg_minor = window((10, 28), (11, 4));
    let world_minor = World::build(&cfg_minor);
    let dns_minor = run_dns(&world_minor, &cfg_minor, Campaign::Isp, 0).result;
    let traffic_minor = run_traffic(&world_minor, &cfg_minor, 0).0;

    // Limelight load rises at the 11.1 release but stays well below the
    // September peak.
    loads::update_loads(&world_minor, release_11_1 + Duration::hours(2));
    let ll_minor = world_minor.state.cdn_load(metacdn::CdnKind::Limelight, Region::Eu);
    loads::update_loads(&world_main, params::release() + Duration::hours(2));
    let ll_main = world_main.state.cdn_load(metacdn::CdnKind::Limelight, Region::Eu);
    assert!(ll_minor > 0.1, "11.1 must load Limelight: {ll_minor}");
    assert!(ll_minor < ll_main * 0.7, "but less than 11.0: {ll_minor} vs {ll_main}");

    // Overflow through AS D: present in both episodes (the D pool engages
    // above its threshold), weaker in the minor one.
    let d_minor = fig8::d_peak_share(&traffic_minor, &dns_minor.ip_classes, &world_minor);
    assert!(d_main > 0.4, "main event D share {d_main}");
    assert!(d_minor > 0.0, "11.1 also overflows via D");
    assert!(
        d_minor <= d_main,
        "the echo is no stronger than the main event: {d_minor} vs {d_main}"
    );

    // And total dropped bytes (saturation) are lower in the echo.
    assert!(
        traffic_minor.dropped_bytes < traffic_main.dropped_bytes,
        "less saturation in the smaller event: {} vs {}",
        traffic_minor.dropped_bytes,
        traffic_main.dropped_bytes
    );
}
