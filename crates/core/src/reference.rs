//! Test oracle for the controller's flat signal arrays.
//!
//! [`RefInner`] and [`RefSchedule`] are the hash-map-backed signal store
//! and weight schedule that [`MetaCdnState`] and [`Schedule`] replaced
//! with fixed per-(CDN, region) and per-region arrays, and [`RefState`]
//! reads them the way the map-backed controller did: a thread's installed
//! snapshot of the state if any, the live signals otherwise, with the
//! live `last_good` recorded only outside snapshot mode. The property
//! test below drives both through arbitrary writes, restores and snapshot
//! installs (of this state and of a second one) and compares every read.

use crate::kinds::CdnKind;
use crate::policy::{CdnShare, Schedule, SelectionShare};
use crate::state::{
    install_snapshot, pick_weighted, MetaCdnState, SignalState, SnapshotGuard, A1015_LAG,
    AKAMAI_OVERLOAD_THRESHOLD,
};
use mcdn_geo::{Duration, Region, SimTime};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// The map-backed signal set (absent = never set).
#[derive(Debug, Default, Clone)]
struct RefInner {
    apple_util: HashMap<Region, f64>,
    cdn_load: HashMap<(CdnKind, Region), f64>,
    akamai_overload_since: HashMap<Region, SimTime>,
    cdn_health: HashMap<(CdnKind, Region), bool>,
    capacity_factor: HashMap<(CdnKind, Region), f64>,
    last_good: HashMap<Region, SelectionShare>,
    down_sites: HashSet<u64>,
}

/// The map-backed weight schedule.
#[derive(Debug, Clone)]
struct RefSchedule {
    default: CdnShare,
    breakpoints: HashMap<Region, Vec<(SimTime, CdnShare)>>,
}

impl RefSchedule {
    fn constant(default: CdnShare) -> RefSchedule {
        RefSchedule { default, breakpoints: HashMap::new() }
    }

    fn set_from(&mut self, region: Region, at: SimTime, share: CdnShare) {
        let v = self.breakpoints.entry(region).or_default();
        v.push((at, share));
        v.sort_by_key(|(t, _)| *t);
    }

    fn ever_uses_in(&self, region: Region, kind: CdnKind) -> bool {
        if !kind.available_in(region) {
            return false;
        }
        self.default.weight(kind) > 0.0
            || self
                .breakpoints
                .get(&region)
                .is_some_and(|pts| pts.iter().any(|(_, s)| s.weight(kind) > 0.0))
    }

    fn share_at(&self, region: Region, now: SimTime) -> CdnShare {
        let mut current = self.default;
        if let Some(points) = self.breakpoints.get(&region) {
            for (at, share) in points {
                if *at <= now {
                    current = *share;
                } else {
                    break;
                }
            }
        }
        current
    }
}

/// The model of one controller: its schedule, its live signals, and the
/// stack of snapshots of it installed on the test thread.
struct RefState {
    schedule: RefSchedule,
    live: RefInner,
    installed: Vec<RefInner>,
}

impl RefState {
    fn new(schedule: RefSchedule) -> RefState {
        RefState { schedule, live: RefInner::default(), installed: Vec::new() }
    }

    fn view(&self) -> &RefInner {
        self.installed.last().unwrap_or(&self.live)
    }

    fn set_apple_utilization(&mut self, region: Region, util: f64) {
        self.live.apple_util.insert(region, util.max(0.0));
    }

    fn set_cdn_load(&mut self, kind: CdnKind, region: Region, load: f64, now: SimTime) {
        let load = load.clamp(0.0, 1.0);
        self.live.cdn_load.insert((kind, region), load);
        if kind == CdnKind::Akamai {
            if load >= AKAMAI_OVERLOAD_THRESHOLD {
                self.live.akamai_overload_since.entry(region).or_insert(now);
            } else if load < 0.2 {
                self.live.akamai_overload_since.remove(&region);
            }
        }
    }

    fn set_cdn_health(&mut self, kind: CdnKind, region: Region, healthy: bool) {
        self.live.cdn_health.insert((kind, region), healthy);
    }

    fn set_capacity_factor(&mut self, kind: CdnKind, region: Region, factor: f64) {
        self.live.capacity_factor.insert((kind, region), factor.clamp(0.0, 1.0));
    }

    fn set_site_down(&mut self, key: u64, down: bool) {
        if down {
            self.live.down_sites.insert(key);
        } else {
            self.live.down_sites.remove(&key);
        }
    }

    fn cdn_load(&self, kind: CdnKind, region: Region) -> f64 {
        *self.view().cdn_load.get(&(kind, region)).unwrap_or(&0.0)
    }

    fn apple_utilization(&self, region: Region) -> f64 {
        *self.view().apple_util.get(&region).unwrap_or(&0.0)
    }

    fn a1015_active(&self, region: Region, now: SimTime) -> bool {
        self.view().akamai_overload_since.get(&region).is_some_and(|s| now >= *s + A1015_LAG)
    }

    fn cdn_healthy(&self, kind: CdnKind, region: Region) -> bool {
        *self.view().cdn_health.get(&(kind, region)).unwrap_or(&true)
    }

    fn capacity_factor(&self, kind: CdnKind, region: Region) -> f64 {
        *self.view().capacity_factor.get(&(kind, region)).unwrap_or(&1.0)
    }

    fn site_is_down(&self, key: u64) -> bool {
        self.view().down_sites.contains(&key)
    }

    fn effective_share(&mut self, region: Region, now: SimTime) -> SelectionShare {
        let probs = self.overflow_share(region, now);
        if probs.is_empty() {
            return probs;
        }
        let inner = self.view();
        let degraded = probs.iter().any(|(k, _)| {
            !*inner.cdn_health.get(&(*k, region)).unwrap_or(&true)
                || *inner.capacity_factor.get(&(*k, region)).unwrap_or(&1.0) < 1.0
        });
        if !degraded {
            return probs;
        }
        let mut kept = probs;
        for (k, p) in kept.iter_mut() {
            let healthy = *inner.cdn_health.get(&(*k, region)).unwrap_or(&true);
            let factor =
                (*inner.capacity_factor.get(&(*k, region)).unwrap_or(&1.0)).clamp(0.0, 1.0);
            *p = if healthy { *p * factor } else { 0.0 };
        }
        let total: f64 = probs.iter().map(|(_, p)| p).sum();
        let kept_total: f64 = kept.iter().map(|(_, p)| p).sum();
        if kept_total <= 0.0 {
            return inner.last_good.get(&region).copied().unwrap_or(probs);
        }
        kept.retain(|(_, p)| *p > 0.0);
        for (_, p) in kept.iter_mut() {
            *p = *p * total / kept_total;
        }
        if self.installed.is_empty() {
            self.live.last_good.insert(region, kept);
        }
        kept
    }

    fn overflow_share(&self, region: Region, now: SimTime) -> SelectionShare {
        let mut probs = self.schedule.share_at(region, now).normalized_in(region);
        if probs.is_empty() {
            return probs;
        }
        let util = self.apple_utilization(region);
        if util <= 1.0 {
            return probs;
        }
        let apple_p =
            probs.iter().find(|(k, _)| *k == CdnKind::Apple).map(|(_, p)| *p).unwrap_or(0.0);
        let kept = apple_p / util;
        let spill = apple_p - kept;
        let third_total: f64 =
            probs.iter().filter(|(k, _)| *k != CdnKind::Apple).map(|(_, p)| p).sum();
        for (k, p) in probs.iter_mut() {
            if *k == CdnKind::Apple {
                *p = kept;
            } else if third_total > 0.0 {
                *p += spill * (*p / third_total);
            }
        }
        if third_total == 0.0 && spill > 0.0 {
            let thirds = || {
                CdnKind::THIRD_PARTY
                    .into_iter()
                    .filter(|k| k.available_in(region) && *k != CdnKind::Level3)
            };
            let n = thirds().count();
            for k in thirds() {
                probs.set(k, spill / n as f64);
            }
        }
        probs
    }

    fn select_cdn(&mut self, region: Region, ip: Ipv4Addr, now: SimTime) -> Option<CdnKind> {
        pick_weighted(&self.effective_share(region, now), ip, now, 0)
    }

    fn select_third_party(
        &mut self,
        region: Region,
        ip: Ipv4Addr,
        now: SimTime,
    ) -> Option<CdnKind> {
        let mut probs = self.effective_share(region, now);
        probs.retain(|(k, _)| *k != CdnKind::Apple);
        pick_weighted(&probs, ip, now, 0x33)
    }

    fn export_signals(&self) -> SignalState {
        let inner = &self.live;
        let mut s = SignalState {
            apple_util: inner.apple_util.iter().map(|(&r, &v)| (r, v)).collect(),
            cdn_load: inner.cdn_load.iter().map(|(&(k, r), &v)| (k, r, v)).collect(),
            akamai_overload_since: inner
                .akamai_overload_since
                .iter()
                .map(|(&r, &t)| (r, t))
                .collect(),
            cdn_health: inner.cdn_health.iter().map(|(&(k, r), &h)| (k, r, h)).collect(),
            capacity_factor: inner.capacity_factor.iter().map(|(&(k, r), &v)| (k, r, v)).collect(),
            last_good: inner.last_good.iter().map(|(&r, share)| (r, share.to_vec())).collect(),
            down_sites: inner.down_sites.iter().copied().collect(),
        };
        s.apple_util.sort_by_key(|&(r, _)| r);
        s.cdn_load.sort_by_key(|&(k, r, _)| (k, r));
        s.akamai_overload_since.sort_by_key(|&(r, _)| r);
        s.cdn_health.sort_by_key(|&(k, r, _)| (k, r));
        s.capacity_factor.sort_by_key(|&(k, r, _)| (k, r));
        s.last_good.sort_by_key(|&(r, _)| r);
        s.down_sites.sort_unstable();
        s
    }

    fn restore_signals(&mut self, s: &SignalState) {
        self.live = RefInner {
            apple_util: s.apple_util.iter().copied().collect(),
            cdn_load: s.cdn_load.iter().map(|&(k, r, v)| ((k, r), v)).collect(),
            akamai_overload_since: s.akamai_overload_since.iter().copied().collect(),
            cdn_health: s.cdn_health.iter().map(|&(k, r, h)| ((k, r), h)).collect(),
            capacity_factor: s.capacity_factor.iter().map(|&(k, r, v)| ((k, r), v)).collect(),
            last_good: s
                .last_good
                .iter()
                .map(|(r, shares)| (*r, shares.iter().copied().collect()))
                .collect(),
            down_sites: s.down_sites.iter().copied().collect(),
        };
    }
}

mod props {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn t0() -> SimTime {
        SimTime::from_ymd_hms(2017, 9, 19, 12, 0, 0)
    }

    /// Apple, Akamai, Limelight and Level3 weights.
    type Weights = (u32, u32, u32, u32);

    /// A share from small integer weights; all-zero shares (an empty
    /// selection) and Level3 weight both occur.
    fn share((apple, akamai, limelight, level3): Weights) -> CdnShare {
        CdnShare {
            apple: f64::from(apple),
            akamai: f64::from(akamai),
            limelight: f64::from(limelight),
            level3: f64::from(level3),
        }
    }

    fn weights() -> impl Strategy<Value = Weights> {
        (0u32..4, 0u32..3, 0u32..3, 0u32..2)
    }

    /// The same random schedule, built for the controller and the model.
    fn schedules(default: Weights, points: &[(usize, u64, Weights)]) -> (Schedule, RefSchedule) {
        let mut real = Schedule::constant(share(default));
        let mut model = RefSchedule::constant(share(default));
        for &(r, hours, w) in points {
            let at = t0() + Duration::hours(hours);
            real.set_from(Region::ALL[r], at, share(w));
            model.set_from(Region::ALL[r], at, share(w));
        }
        (real, model)
    }

    /// Instants the reads are taken at: before, inside and after the
    /// schedule's breakpoints and the a1015 lag.
    const READ_HOURS: [u64; 4] = [0, 5, 7, 30];

    fn check_reads(
        real: &MetaCdnState,
        model: &mut RefState,
        label: &str,
    ) -> Result<(), TestCaseError> {
        for region in Region::ALL {
            prop_assert_eq!(
                real.apple_utilization(region).to_bits(),
                model.apple_utilization(region).to_bits()
            );
            for kind in CdnKind::ALL {
                prop_assert_eq!(
                    real.cdn_load(kind, region).to_bits(),
                    model.cdn_load(kind, region).to_bits()
                );
                prop_assert_eq!(real.cdn_healthy(kind, region), model.cdn_healthy(kind, region));
                prop_assert_eq!(
                    real.capacity_factor(kind, region).to_bits(),
                    model.capacity_factor(kind, region).to_bits()
                );
            }
            for h in READ_HOURS {
                let now = t0() + Duration::hours(h);
                prop_assert_eq!(real.a1015_active(region, now), model.a1015_active(region, now));
                let bits = |s: SelectionShare| -> Vec<(CdnKind, u64)> {
                    s.iter().map(|&(k, p)| (k, p.to_bits())).collect()
                };
                let (got, want) = (
                    bits(real.effective_share(region, now)),
                    bits(model.effective_share(region, now)),
                );
                prop_assert!(
                    got == want,
                    "{label}: effective share in {region:?} at +{h}h: {got:?} != {want:?}"
                );
                for i in 0..8u32 {
                    let ip = Ipv4Addr::from(0x0A00_0000 + i * 7919);
                    prop_assert_eq!(
                        real.select_cdn(region, ip, now),
                        model.select_cdn(region, ip, now)
                    );
                    prop_assert_eq!(
                        real.select_third_party(region, ip, now),
                        model.select_third_party(region, ip, now)
                    );
                }
            }
        }
        for key in 0..4u64 {
            prop_assert_eq!(real.with_down_sites(|down| down(key)), model.site_is_down(key));
        }
        let (got, want) = (real.export_signals(), model.export_signals());
        prop_assert!(got == want, "{label}: exported signals {got:?} != {want:?}");
        Ok(())
    }

    proptest! {
        /// The array-backed weight schedule answers `share_at` and
        /// `ever_uses_in` like the map-backed one.
        #[test]
        fn schedule_reads_match_the_map_model(
            default in weights(),
            points in vec((0usize..3, 0u64..36, weights()), 0..8),
        ) {
            let (real, model) = schedules(default, &points);
            for h in 0..40u64 {
                let now = t0() + Duration::hours(h);
                for region in Region::ALL {
                    prop_assert_eq!(real.share_at(region, now), model.share_at(region, now));
                }
            }
            for region in Region::ALL {
                for kind in CdnKind::ALL {
                    prop_assert_eq!(
                        real.ever_uses_in(region, kind),
                        model.ever_uses_in(region, kind)
                    );
                }
            }
        }

        /// Arbitrary writes, restores and snapshot installs (of this
        /// state and of a second one) leave every controller read equal
        /// to the map-backed model's, live and under a snapshot, and
        /// `restore_signals(export_signals())` round-trips.
        #[test]
        fn controller_reads_match_the_map_model(
            default in weights(),
            points in vec((0usize..3, 0u64..36, weights()), 0..6),
            ops in vec((0u8..11, 0usize..4, 0usize..3, 0u32..1000, any::<bool>()), 1..40),
        ) {
            let (schedule, ref_schedule) = schedules(default, &points);
            let a = MetaCdnState::new(schedule.clone());
            let b = MetaCdnState::new(schedule);
            let mut model_a = RefState::new(ref_schedule.clone());
            let mut model_b = RefState::new(ref_schedule);
            // Installed guards with the state each snapshot belongs to,
            // innermost last.
            let mut guards: Vec<(bool, SnapshotGuard)> = Vec::new();
            let mut saved: Option<SignalState> = None;
            for (op, k, r, v, flag) in ops {
                let (kind, region) = (CdnKind::ALL[k], Region::ALL[r]);
                // Writes go to the second state when `flag` is set.
                let (state, model) =
                    if flag && op < 5 { (&b, &mut model_b) } else { (&a, &mut model_a) };
                match op {
                    0 => {
                        let util = f64::from(v) / 250.0;
                        state.set_apple_utilization(region, util);
                        model.set_apple_utilization(region, util);
                    }
                    1 => {
                        let load = f64::from(v) / 900.0;
                        let now = t0() + Duration::hours(u64::from(v % 4));
                        state.set_cdn_load(kind, region, load, now);
                        model.set_cdn_load(kind, region, load, now);
                    }
                    2 => {
                        let healthy = v % 3 != 0;
                        state.set_cdn_health(kind, region, healthy);
                        model.set_cdn_health(kind, region, healthy);
                    }
                    3 => {
                        let factor = f64::from(v % 7) * 0.25 - 0.25;
                        state.set_capacity_factor(kind, region, factor);
                        model.set_capacity_factor(kind, region, factor);
                    }
                    4 => {
                        let key = u64::from(v % 4);
                        state.set_site_down(key, v % 2 == 0);
                        model.set_site_down(key, v % 2 == 0);
                    }
                    5 => saved = Some(a.export_signals()),
                    6 => {
                        // Restore an earlier export of this state, or the
                        // second state's signals.
                        let s = match (&saved, flag) {
                            (Some(s), false) => s.clone(),
                            _ => b.export_signals(),
                        };
                        a.restore_signals(&s);
                        model_a.restore_signals(&s);
                    }
                    7 | 8 => {
                        let of_a = op == 7;
                        let (state, model) =
                            if of_a { (&a, &mut model_a) } else { (&b, &mut model_b) };
                        // Captured at one of the read instants, so reads
                        // there take the snapshot's precomputed shares and
                        // reads at the others compute from its signals.
                        let hour = READ_HOURS[v as usize % READ_HOURS.len()];
                        let at = t0() + Duration::hours(hour);
                        guards.push((of_a, install_snapshot(Arc::new(state.capture(at)))));
                        let frozen = model.live.clone();
                        model.installed.push(frozen);
                    }
                    9 => {
                        if let Some((of_a, guard)) = guards.pop() {
                            drop(guard);
                            if of_a { &mut model_a } else { &mut model_b }.installed.pop();
                        }
                    }
                    _ => {
                        check_reads(&b, &mut model_b, "second state")?;
                    }
                }
                check_reads(&a, &mut model_a, "state")?;
            }
            while let Some((of_a, guard)) = guards.pop() {
                drop(guard);
                if of_a { &mut model_a } else { &mut model_b }.installed.pop();
            }
            check_reads(&a, &mut model_a, "state after uninstall")?;
            // The checkpoint surface round-trips exactly.
            let exported = a.export_signals();
            let fresh = MetaCdnState::new(Schedule::constant(CdnShare::apple_only()));
            fresh.restore_signals(&exported);
            prop_assert_eq!(fresh.export_signals(), exported);
        }
    }
}
