//! The per-tick controller feedback loop.
//!
//! Each simulation tick the driver recomputes what the Meta-CDN controller
//! and the CDN load balancers "know": regional demand, the scheduled
//! selection share, Apple's resulting utilization (which feeds the reactive
//! overflow in [`MetaCdnState`](metacdn::MetaCdnState)), and each
//! third-party CDN's update-serving load (which drives DNS pool exposure
//! and, for Akamai, the `a1015` event-map lifecycle).

use crate::params;
use crate::world::World;
use mcdn_geo::{Region, SimTime};
use metacdn::CdnKind;

/// Recomputes and publishes all controller inputs for instant `t`.
pub fn update_loads(world: &World, t: SimTime) {
    for region in Region::ALL {
        let demand = world.region_demand_bps(region, t);
        let share = world.state.scheduled_share(region, t);
        let probs = share.normalized_in(region);
        let apple_w = probs
            .iter()
            .find(|(k, _)| *k == CdnKind::Apple)
            .map(|(_, p)| *p)
            .unwrap_or(0.0);
        let cap = world.apple_capacity_bps(region);
        let util = if cap > 0.0 { apple_w * demand / cap } else { f64::INFINITY };
        world.state.set_apple_utilization(region, util);

        // Effective shares (after overflow) drive third-party loads.
        let eff = world.state.effective_share(region, t);
        for kind in [CdnKind::Akamai, CdnKind::Limelight] {
            let w = eff.iter().find(|(k, _)| *k == kind).map(|(_, p)| *p).unwrap_or(0.0);
            let load = w * demand / params::update_capacity(kind, region);
            world.state.set_cdn_load(kind, region, load, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use mcdn_geo::Duration;

    #[test]
    fn loads_rise_at_release_and_recede() {
        let w = World::build(&ScenarioConfig::fast());
        let release = params::release();

        update_loads(&w, release - Duration::days(2));
        let ak_before = w.state.cdn_load(CdnKind::Akamai, Region::Eu);
        let ll_before = w.state.cdn_load(CdnKind::Limelight, Region::Eu);
        assert!(ak_before < 0.1, "quiet Akamai load {ak_before}");
        assert!(ll_before < 0.1, "quiet Limelight load {ll_before}");

        update_loads(&w, release + Duration::hours(1));
        let ak_event = w.state.cdn_load(CdnKind::Akamai, Region::Eu);
        let ll_event = w.state.cdn_load(CdnKind::Limelight, Region::Eu);
        assert!(ak_event > 0.5, "event Akamai load {ak_event} must trip the a1015 threshold");
        assert!(ll_event > 0.6, "event Limelight load {ll_event}");

        update_loads(&w, release + Duration::days(8));
        let ll_after = w.state.cdn_load(CdnKind::Limelight, Region::Eu);
        assert!(ll_after < 0.15, "post-event Limelight load {ll_after}");
    }

    #[test]
    fn apple_utilization_flattops_on_event_day() {
        let w = World::build(&ScenarioConfig::fast());
        update_loads(&w, params::release() + Duration::mins(30));
        let util = w.state.apple_utilization(Region::Eu);
        assert!(util > 0.9, "EU Apple must run at/over capacity: {util}");
        // US absorbs its demand within capacity.
        let us = w.state.apple_utilization(Region::Us);
        assert!(us < 1.0, "US stays under capacity: {us}");
    }

    #[test]
    fn a1015_lifecycle_through_the_event() {
        let w = World::build(&ScenarioConfig::fast());
        let release = params::release();
        // Walk the controller hourly across the event.
        let mut t = release - Duration::days(1);
        while t < release + Duration::days(4) {
            update_loads(&w, t);
            t += Duration::hours(1);
        }
        // After the walk the event map must have activated at some point:
        // check activation ~7h after release by replaying to that instant.
        let w2 = World::build(&ScenarioConfig::fast());
        let mut t = release - Duration::hours(2);
        let probe_at = release + Duration::hours(7);
        while t <= probe_at {
            update_loads(&w2, t);
            t += Duration::mins(30);
        }
        assert!(w2.state.a1015_active(Region::Eu, probe_at), "a1015 should be live 7h in");
    }

    /// Pins every controller read through a 30-minute `update_loads` walk
    /// over Sep 18–22: the exported signals (f64 bits), each region's
    /// effective share, a1015 activation, and the step-② and step-③
    /// selections of a fixed client set — read under an installed
    /// snapshot and from the live state, before and after the chaos
    /// signals (health verdicts, capacity factors, down sites) are set
    /// partway through. A mismatch is a behaviour change of the
    /// controller.
    #[test]
    fn controller_reads_are_pinned_through_an_update_walk() {
        use metacdn::{install_snapshot, MetaCdnState};
        use std::net::Ipv4Addr;
        use std::sync::Arc;

        fn reads_into(h: &mut mcdn_faults::Fnv64, state: &MetaCdnState, t: SimTime) {
            for region in Region::ALL {
                for (k, p) in state.effective_share(region, t).iter() {
                    h.update(&[*k as u8]);
                    h.update(&p.to_bits().to_le_bytes());
                }
                h.update(&[state.a1015_active(region, t) as u8, 0xff]);
                for i in 0..24u32 {
                    let ip = Ipv4Addr::from(0x0A00_0000 + i * 7919);
                    let pick = |k: Option<CdnKind>| k.map_or(0xee, |k| k as u8);
                    h.update(&[
                        pick(state.select_cdn(region, ip, t)),
                        pick(state.select_third_party(region, ip, t)),
                    ]);
                }
            }
        }

        fn signals_into(h: &mut mcdn_faults::Fnv64, state: &MetaCdnState) {
            let s = state.export_signals();
            for (r, v) in &s.apple_util {
                h.update(&[*r as u8]);
                h.update(&v.to_bits().to_le_bytes());
            }
            for (k, r, v) in s.cdn_load.iter().chain(&s.capacity_factor) {
                h.update(&[*k as u8, *r as u8]);
                h.update(&v.to_bits().to_le_bytes());
            }
            for (r, since) in &s.akamai_overload_since {
                h.update(&[*r as u8]);
                h.update(&since.as_secs().to_le_bytes());
            }
            for (k, r, healthy) in &s.cdn_health {
                h.update(&[*k as u8, *r as u8, *healthy as u8]);
            }
            for (r, share) in &s.last_good {
                h.update(&[*r as u8, share.len() as u8]);
                for (k, p) in share {
                    h.update(&[*k as u8]);
                    h.update(&p.to_bits().to_le_bytes());
                }
            }
            for key in &s.down_sites {
                h.update(&key.to_le_bytes());
            }
            h.update(b"|");
        }

        let w = World::build(&ScenarioConfig::fast());
        let sites: Vec<u64> = w.apple.sites().iter().map(|s| s.site_key()).collect();
        let mut h = mcdn_faults::Fnv64::new();
        let mut t = SimTime::from_ymd(2017, 9, 18);
        while t < SimTime::from_ymd(2017, 9, 22) {
            if t == SimTime::from_ymd_hms(2017, 9, 19, 18, 0, 0) {
                w.state.set_cdn_health(CdnKind::Limelight, Region::Eu, false);
                w.state.set_capacity_factor(CdnKind::Apple, Region::Eu, 0.5);
                w.state.set_capacity_factor(CdnKind::Akamai, Region::Us, 0.25);
                w.state.set_capacity_factor(CdnKind::Limelight, Region::Apac, 0.5);
                w.state.set_site_down(sites[0], true);
                w.state.set_site_down(sites[sites.len() / 2], true);
            }
            if t == SimTime::from_ymd_hms(2017, 9, 20, 12, 0, 0) {
                // Every CDN dark in APAC: the controller freezes onto its
                // last-known-good mapping there.
                for k in CdnKind::ALL {
                    w.state.set_cdn_health(k, Region::Apac, false);
                }
                w.state.set_cdn_health(CdnKind::Limelight, Region::Eu, true);
                w.state.set_site_down(sites[0], false);
            }
            update_loads(&w, t);
            {
                let _g = install_snapshot(Arc::new(w.state.capture()));
                reads_into(&mut h, &w.state, t);
            }
            reads_into(&mut h, &w.state, t);
            signals_into(&mut h, &w.state);
            t += Duration::mins(30);
        }
        assert_eq!(h.finish(), 0xd5cc_26b6_fc53_105e, "controller reads moved");
    }

    #[test]
    fn d_pool_engages_only_during_event_days() {
        let w = World::build(&ScenarioConfig::fast());
        let release = params::release();
        update_loads(&w, release - Duration::days(2));
        let quiet = w
            .limelight
            .exposed(Region::Eu, w.state.cdn_load(CdnKind::Limelight, Region::Eu));
        update_loads(&w, release + Duration::hours(2));
        let event = w
            .limelight
            .exposed(Region::Eu, w.state.cdn_load(CdnKind::Limelight, Region::Eu));
        let d_ip: std::net::Ipv4Addr = "69.28.64.1".parse().expect("ip");
        assert!(!quiet.contains(&d_ip), "D pool must be out on quiet days");
        assert!(event.contains(&d_ip), "D pool must engage during the event");
    }
}
