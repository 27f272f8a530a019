//! Shared, mutable Meta-CDN controller state.
//!
//! One [`MetaCdnState`] is shared (via `Arc`) between the DNS mapping
//! policies installed by [`crate::zones`] and the simulation driver: the
//! driver feeds in per-tick load figures (Apple-CDN utilization, third-party
//! pool loads), and the policies read them to make per-query decisions.
//!
//! Two mechanisms live here:
//!
//! * **Reactive overflow** — the schedule gives Apple a commercial selection
//!   weight, but when the demand routed to Apple's CDN exceeds its serving
//!   capacity (utilization > 1), the surplus selection probability spills to
//!   the third-party CDNs in proportion to their weights. This reproduces
//!   the paper's observation that Apple "uses its own CDN first before
//!   offloading" and that its traffic curve flat-tops while third parties
//!   absorb the spike.
//! * **Akamai map activation** — the paper saw `a1015.gi3.akamai.net`
//!   appear for EU requests six hours after the release. The state records
//!   when Akamai's load first crosses [`AKAMAI_OVERLOAD_THRESHOLD`] and
//!   reports the event map active [`A1015_LAG`] later, until load recedes.
//! * **Health-checked failover** — the chaos layer's probe loop publishes
//!   per-CDN health verdicts (hysteresis lives in [`crate::health`]) and
//!   capacity factors (site outages, brownouts, load-coupled degradation).
//!   The effective share ejects unhealthy CDNs, sheds weight away from
//!   capacity-degraded ones onto the next-preferred CDNs, and — when every
//!   signal is lost — freezes onto the last-known-good mapping. With no
//!   signal set, the pipeline is bit-identical to the health-blind one.

use crate::kinds::CdnKind;
use crate::policy::{CdnShare, Schedule, SelectionShare};
use mcdn_cdn::site::fnv64;
use mcdn_geo::{Duration, Region, SimTime};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::marker::PhantomData;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Akamai load (0..1) that triggers spinning up the additional map.
pub const AKAMAI_OVERLOAD_THRESHOLD: f64 = 0.5;
/// Lag between Akamai first overloading and the `a1015` map serving —
/// "it takes six hours for Akamai to increase its number of distributed IP
/// addresses to its load-dependent peak" (§4).
pub const A1015_LAG: Duration = Duration::hours(6);
/// Load below which the event map is retired again.
const A1015_RETIRE_BELOW: f64 = 0.2;
/// Selection decisions re-randomize with the selector TTL.
const SELECT_BUCKET_SECS: u64 = 15;

#[derive(Debug, Default, Clone)]
struct Inner {
    apple_util: HashMap<Region, f64>,
    cdn_load: HashMap<(CdnKind, Region), f64>,
    akamai_overload_since: HashMap<Region, SimTime>,
    /// Health verdicts from the chaos layer's probe loop; absent = healthy.
    cdn_health: HashMap<(CdnKind, Region), bool>,
    /// Remaining serving-capacity fraction per (CDN, region); absent = 1.
    capacity_factor: HashMap<(CdnKind, Region), f64>,
    /// Last share computed while at least one CDN was still reachable —
    /// the mapping the controller freezes onto when every health signal
    /// is lost.
    last_good: HashMap<Region, SelectionShare>,
    /// Apple GSLB sites currently down (by site key); the GSLB skips them.
    down_sites: HashSet<u64>,
}

/// Shared controller state (thread-safe; policies hold `Arc<MetaCdnState>`).
#[derive(Debug)]
pub struct MetaCdnState {
    /// Distinguishes states so an installed [`MappingSnapshot`] can never
    /// serve reads of a *different* state (e.g. two worlds in one test).
    state_id: u64,
    /// Monotonic mutation counter: bumped by every signal write
    /// (`set_*`, [`Self::restore_signals`]). Two reads with equal
    /// versions are guaranteed to observe identical mutable signals,
    /// which is what the incremental resolution engine's version vectors
    /// key on.
    version: AtomicU64,
    schedule: Schedule,
    inner: RwLock<Inner>,
}

static NEXT_STATE_ID: AtomicU64 = AtomicU64::new(1);

/// An immutable point-in-time copy of the controller's mutable mapping
/// inputs (loads, health verdicts, capacity factors, a1015 activation,
/// down sites), captured once per campaign round with
/// [`MetaCdnState::capture`].
///
/// While a snapshot is [installed](install_snapshot) on a thread, every
/// read of the originating state on that thread is served lock-free from
/// the copy — the parallel engine's workers share one `Arc<MappingSnapshot>`
/// per round and never touch the `RwLock`, making their reads race-free by
/// construction. Writes (`set_*`) always go to the live state and become
/// visible only to the *next* captured snapshot, so a round's mapping
/// inputs are frozen no matter how its shards interleave.
#[derive(Debug, Clone)]
pub struct MappingSnapshot {
    state_id: u64,
    inner: Inner,
}

thread_local! {
    /// Stack of installed snapshots (a stack so nested engines — e.g. a
    /// campaign driven from inside another sharded loop — unwind cleanly).
    static INSTALLED: RefCell<Vec<Arc<MappingSnapshot>>> = const { RefCell::new(Vec::new()) };
}

/// Installs `snapshot` on the current thread until the returned guard is
/// dropped; reads of the snapshot's originating [`MetaCdnState`] on this
/// thread are served from the copy instead of the lock. The guard is not
/// `Send` — an installation never leaks onto another thread.
pub fn install_snapshot(snapshot: Arc<MappingSnapshot>) -> SnapshotGuard {
    INSTALLED.with(|s| s.borrow_mut().push(snapshot));
    SnapshotGuard { _not_send: PhantomData }
}

/// RAII guard for an installed [`MappingSnapshot`]; uninstalls on drop.
#[must_use = "dropping the guard immediately uninstalls the snapshot"]
pub struct SnapshotGuard {
    _not_send: PhantomData<*const ()>,
}

impl Drop for SnapshotGuard {
    fn drop(&mut self) {
        INSTALLED.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// The complete mutable controller signal set in canonical (sorted)
/// order — the crash-safety layer's checkpoint/restore surface.
///
/// Unlike [`StateSnapshot`] (a reporting view), this carries *every*
/// `Inner` field, including the Akamai overload timestamps, the
/// last-known-good mappings, and the down-site keys, so that
/// [`MetaCdnState::restore_signals`] can rebuild a state whose future
/// behaviour is bit-identical to the exported one.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SignalState {
    /// Apple candidate utilization per region.
    pub apple_util: Vec<(Region, f64)>,
    /// Third-party pool load per (CDN, region).
    pub cdn_load: Vec<(CdnKind, Region, f64)>,
    /// When Akamai's load first crossed the overload threshold, per region.
    pub akamai_overload_since: Vec<(Region, SimTime)>,
    /// Health verdicts from the chaos probe loop (absent = healthy).
    pub cdn_health: Vec<(CdnKind, Region, bool)>,
    /// Remaining capacity fraction per (CDN, region) (absent = 1).
    pub capacity_factor: Vec<(CdnKind, Region, f64)>,
    /// Last share computed while signals were still live, per region.
    pub last_good: Vec<(Region, Vec<(CdnKind, f64)>)>,
    /// Apple GSLB sites currently down (site keys, sorted).
    pub down_sites: Vec<u64>,
}

/// A point-in-time copy of the controller's view, for logging and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct StateSnapshot {
    /// Apple candidate utilization per region (demand ÷ capacity; may
    /// exceed 1 during the flash crowd).
    pub apple_util: Vec<(Region, f64)>,
    /// Third-party pool loads per (CDN, region).
    pub cdn_load: Vec<(CdnKind, Region, f64)>,
    /// Regions where the Akamai event map is currently active.
    pub a1015_active: Vec<Region>,
}

impl MetaCdnState {
    /// Creates controller state around a weight schedule.
    pub fn new(schedule: Schedule) -> MetaCdnState {
        MetaCdnState {
            state_id: NEXT_STATE_ID.fetch_add(1, Ordering::Relaxed),
            version: AtomicU64::new(0),
            schedule,
            inner: RwLock::new(Inner::default()),
        }
    }

    /// The current mutation version of the controller's signals. Every
    /// `set_*` write (and [`Self::restore_signals`]) advances it, so two
    /// equal readings bracket a window with no signal change.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    fn bump_version(&self) {
        self.version.fetch_add(1, Ordering::Release);
    }

    /// The weight-schedule epoch at `now` (see [`Schedule::epoch_at`]).
    pub fn schedule_epoch(&self, now: SimTime) -> u64 {
        self.schedule.epoch_at(now)
    }

    /// Captures the mutable mapping inputs as an immutable
    /// [`MappingSnapshot`] (one read-lock acquisition for a whole round's
    /// worth of queries).
    pub fn capture(&self) -> MappingSnapshot {
        MappingSnapshot {
            state_id: self.state_id,
            inner: self.inner.read().expect("state lock").clone(),
        }
    }

    /// Exports every mutable controller signal, sorted, for
    /// checkpointing. Always reads the *live* state (never an installed
    /// snapshot): checkpoints are taken between rounds, after the
    /// driver's writes.
    pub fn export_signals(&self) -> SignalState {
        let inner = self.inner.read().expect("state lock");
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

    /// Replaces the controller's mutable signals wholesale with a set
    /// previously captured by [`export_signals`](Self::export_signals).
    ///
    /// Deliberately bypasses the `set_*` entry points: those have
    /// threshold side effects (e.g. [`Self::set_cdn_load`] arming the
    /// a1015 activation timestamp) that must not re-fire when replaying
    /// already-settled history.
    pub fn restore_signals(&self, s: &SignalState) {
        let mut inner = self.inner.write().expect("state lock");
        *inner = Inner {
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
        drop(inner);
        self.bump_version();
    }

    /// Runs `f` over the state's inner view: the thread's innermost
    /// installed snapshot of *this* state if one exists (lock-free),
    /// otherwise the live data under the read lock.
    fn with_inner<R>(&self, f: impl FnOnce(&Inner) -> R) -> R {
        let snap = INSTALLED.with(|s| {
            s.borrow().iter().rev().find(|m| m.state_id == self.state_id).cloned()
        });
        match snap {
            Some(snap) => f(&snap.inner),
            None => f(&self.inner.read().expect("state lock")),
        }
    }

    /// Whether a snapshot of this state is installed on the current thread
    /// (the engine's frozen-round mode).
    fn snapshot_installed(&self) -> bool {
        INSTALLED.with(|s| s.borrow().iter().any(|m| m.state_id == self.state_id))
    }

    /// The schedule's (pre-overflow) share for `region` at `now`.
    pub fn scheduled_share(&self, region: Region, now: SimTime) -> CdnShare {
        self.schedule.share_at(region, now)
    }

    /// Reports Apple's candidate utilization for `region` this tick:
    /// `demand directed at Apple ÷ Apple capacity`, uncapped.
    pub fn set_apple_utilization(&self, region: Region, util: f64) {
        self.inner.write().expect("state lock").apple_util.insert(region, util.max(0.0));
        self.bump_version();
    }

    /// Reports a third-party CDN's pool load (0..1) for `region` at `now`;
    /// drives pool exposure and, for Akamai, the event-map lifecycle.
    pub fn set_cdn_load(&self, kind: CdnKind, region: Region, load: f64, now: SimTime) {
        let load = load.clamp(0.0, 1.0);
        let mut inner = self.inner.write().expect("state lock");
        inner.cdn_load.insert((kind, region), load);
        if kind == CdnKind::Akamai {
            if load >= AKAMAI_OVERLOAD_THRESHOLD {
                inner.akamai_overload_since.entry(region).or_insert(now);
            } else if load < A1015_RETIRE_BELOW {
                inner.akamai_overload_since.remove(&region);
            }
        }
        drop(inner);
        self.bump_version();
    }

    /// The last reported pool load for `(kind, region)`, default 0.
    pub fn cdn_load(&self, kind: CdnKind, region: Region) -> f64 {
        self.with_inner(|inner| *inner.cdn_load.get(&(kind, region)).unwrap_or(&0.0))
    }

    /// Apple's last reported utilization for `region`, default 0.
    pub fn apple_utilization(&self, region: Region) -> f64 {
        self.with_inner(|inner| *inner.apple_util.get(&region).unwrap_or(&0.0))
    }

    /// Whether the `a1015.gi3.akamai.net` event map serves `region` at `now`.
    pub fn a1015_active(&self, region: Region, now: SimTime) -> bool {
        self.with_inner(|inner| {
            inner
                .akamai_overload_since
                .get(&region)
                .is_some_and(|since| now >= *since + A1015_LAG)
        })
    }

    /// Reports a CDN's health verdict for `region`, as decided by the
    /// chaos layer's probe loop (through [`crate::health::HealthTracker`]
    /// hysteresis). Unhealthy CDNs are ejected from the effective share.
    pub fn set_cdn_health(&self, kind: CdnKind, region: Region, healthy: bool) {
        self.inner.write().expect("state lock").cdn_health.insert((kind, region), healthy);
        self.bump_version();
    }

    /// The last health verdict for `(kind, region)`; defaults to healthy.
    pub fn cdn_healthy(&self, kind: CdnKind, region: Region) -> bool {
        self.with_inner(|inner| *inner.cdn_health.get(&(kind, region)).unwrap_or(&true))
    }

    /// Reports the fraction of its modeled capacity a CDN retains in
    /// `region` (site outages, brownouts, load-coupled degradation).
    /// Values are clamped to `[0, 1]`; 1 — the default — is a no-op.
    pub fn set_capacity_factor(&self, kind: CdnKind, region: Region, factor: f64) {
        self.inner
            .write()
            .expect("state lock")
            .capacity_factor
            .insert((kind, region), factor.clamp(0.0, 1.0));
        self.bump_version();
    }

    /// The last reported capacity factor for `(kind, region)`, default 1.
    pub fn capacity_factor(&self, kind: CdnKind, region: Region) -> f64 {
        self.with_inner(|inner| *inner.capacity_factor.get(&(kind, region)).unwrap_or(&1.0))
    }

    /// Marks one Apple GSLB site (by [`mcdn_cdn::site::EdgeSite::site_key`])
    /// up or down; the GSLB answer logic skips down sites.
    pub fn set_site_down(&self, site_key: u64, down: bool) {
        let mut inner = self.inner.write().expect("state lock");
        if down {
            inner.down_sites.insert(site_key);
        } else {
            inner.down_sites.remove(&site_key);
        }
        drop(inner);
        self.bump_version();
    }

    /// Whether the Apple site with `site_key` is currently marked down.
    pub fn site_is_down(&self, site_key: u64) -> bool {
        self.with_inner(|inner| inner.down_sites.contains(&site_key))
    }

    /// Number of Apple sites currently marked down.
    pub fn down_site_count(&self) -> usize {
        self.with_inner(|inner| inner.down_sites.len())
    }

    /// The selection probabilities actually in force: the scheduled share
    /// with Apple's overflow spilled onto the available third parties,
    /// then degraded by the health/capacity signals of the chaos layer
    /// (no-op while no degradation signal is set).
    pub fn effective_share(&self, region: Region, now: SimTime) -> SelectionShare {
        let probs = self.overflow_share(region, now);
        self.degraded_share(region, probs)
    }

    /// The scheduled share with Apple's overflow applied (health-blind).
    fn overflow_share(&self, region: Region, now: SimTime) -> SelectionShare {
        let base = self.schedule.share_at(region, now);
        let mut probs = base.normalized_in(region);
        if probs.is_empty() {
            return probs;
        }
        let util = self.apple_utilization(region);
        if util <= 1.0 {
            return probs;
        }
        // Apple can serve only 1/util of what the schedule directs at it.
        let apple_p = probs
            .iter()
            .find(|(k, _)| *k == CdnKind::Apple)
            .map(|(_, p)| *p)
            .unwrap_or(0.0);
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
            // No third party scheduled: engage every available one equally
            // (the controller's last-resort overflow).
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

    /// Applies the chaos layer's degradation signals to a share vector:
    ///
    /// 1. **Capacity-aware load shedding** — each CDN keeps weight in
    ///    proportion to its remaining capacity factor; the shed weight
    ///    spills onto the surviving CDNs proportionally (the
    ///    next-preferred CDNs absorb it).
    /// 2. **Health ejection** — CDNs voted unhealthy by the probe loop
    ///    contribute nothing.
    /// 3. **Last-known-good fallback** — if every CDN is ejected or at
    ///    factor 0, the controller freezes onto the last share it computed
    ///    while something was still reachable (or the undegraded share if
    ///    degradation struck before anything was recorded).
    ///
    /// With no health verdicts and all factors at 1 the input is returned
    /// untouched, keeping fault-free pipelines bit-identical.
    fn degraded_share(&self, region: Region, probs: SelectionShare) -> SelectionShare {
        if probs.is_empty() {
            return probs;
        }
        match self.with_inner(|inner| degrade_in(inner, region, &probs)) {
            DegradeOutcome::Untouched => probs,
            DegradeOutcome::Frozen(last_good) => last_good.unwrap_or(probs),
            DegradeOutcome::Shed(out) => {
                // Snapshot mode is read-only: the frozen round must not
                // mutate the live state, and the live `last_good` keeps
                // being maintained by the driver's between-round calls.
                if !self.snapshot_installed() {
                    self.inner.write().expect("state lock").last_good.insert(region, out);
                }
                out
            }
        }
    }

    /// Step ② decision: which CDN serves `client_ip` in `region` at `now`.
    /// Deterministic per (client, 15-second bucket); `None` only if the
    /// schedule assigns no weight to any available CDN.
    pub fn select_cdn(&self, region: Region, client_ip: Ipv4Addr, now: SimTime) -> Option<CdnKind> {
        pick_weighted(&self.effective_share(region, now), client_ip, now, 0)
    }

    /// Step ③ decision: which *third-party* CDN serves, given the effective
    /// share restricted to non-Apple CDNs.
    pub fn select_third_party(
        &self,
        region: Region,
        client_ip: Ipv4Addr,
        now: SimTime,
    ) -> Option<CdnKind> {
        let mut probs = self.effective_share(region, now);
        probs.retain(|(k, _)| *k != CdnKind::Apple);
        pick_weighted(&probs, client_ip, now, 0x33)
    }

    /// A copy of the mutable state for inspection.
    pub fn snapshot(&self, now: SimTime) -> StateSnapshot {
        let inner = self.inner.read().expect("state lock");
        let mut apple_util: Vec<_> = inner.apple_util.iter().map(|(r, u)| (*r, *u)).collect();
        apple_util.sort_by_key(|(r, _)| *r);
        let mut cdn_load: Vec<_> =
            inner.cdn_load.iter().map(|((k, r), l)| (*k, *r, *l)).collect();
        cdn_load.sort_by_key(|a| (a.0, a.1));
        let a1015_active = Region::ALL
            .into_iter()
            .filter(|r| {
                inner.akamai_overload_since.get(r).is_some_and(|s| now >= *s + A1015_LAG)
            })
            .collect();
        StateSnapshot { apple_util, cdn_load, a1015_active }
    }
}

/// What the degradation signals did to a share vector (computed against
/// one immutable view of [`Inner`], live or snapshot).
enum DegradeOutcome {
    /// No degradation signal set: the input share stands bit-identically.
    Untouched,
    /// Every CDN ejected or at factor 0 — freeze onto the last-known-good
    /// mapping (`None` when degradation struck before one was recorded).
    Frozen(Option<SelectionShare>),
    /// Shed-and-renormalized share over the surviving CDNs.
    Shed(SelectionShare),
}

/// The pure half of [`MetaCdnState::degraded_share`]: steps 1–3 of the
/// degradation pipeline against a borrowed view, no locking, no writes.
fn degrade_in(inner: &Inner, region: Region, probs: &SelectionShare) -> DegradeOutcome {
    let degraded = probs.iter().any(|(k, _)| {
        !*inner.cdn_health.get(&(*k, region)).unwrap_or(&true)
            || *inner.capacity_factor.get(&(*k, region)).unwrap_or(&1.0) < 1.0
    });
    if !degraded {
        return DegradeOutcome::Untouched;
    }
    let mut kept = *probs;
    for (k, p) in kept.iter_mut() {
        let healthy = *inner.cdn_health.get(&(*k, region)).unwrap_or(&true);
        let factor = (*inner.capacity_factor.get(&(*k, region)).unwrap_or(&1.0)).clamp(0.0, 1.0);
        *p = if healthy { *p * factor } else { 0.0 };
    }
    let total: f64 = probs.iter().map(|(_, p)| p).sum();
    let kept_total: f64 = kept.iter().map(|(_, p)| p).sum();
    if kept_total <= 0.0 {
        // Every health signal lost: graceful degradation to the
        // last-known-good mapping.
        return DegradeOutcome::Frozen(inner.last_good.get(&region).copied());
    }
    kept.retain(|(_, p)| *p > 0.0);
    for (_, p) in kept.iter_mut() {
        *p = *p * total / kept_total;
    }
    DegradeOutcome::Shed(kept)
}

/// Deterministic weighted choice among CDNs for one client at one instant.
///
/// The decision re-randomizes every 15 seconds (the selector TTL) — a client
/// that re-resolves after expiry may land on a different CDN, which is the
/// paper's "quick reroute" property. `salt` decorrelates independent
/// decision points (step ② vs step ③).
pub fn pick_weighted(
    probs: &[(CdnKind, f64)],
    client_ip: Ipv4Addr,
    now: SimTime,
    salt: u8,
) -> Option<CdnKind> {
    let total: f64 = probs.iter().map(|(_, p)| p).sum();
    if total <= 0.0 {
        return None;
    }
    let mut key = [0u8; 13];
    key[..4].copy_from_slice(&client_ip.octets());
    key[4..12].copy_from_slice(&(now.as_secs() / SELECT_BUCKET_SECS).to_be_bytes());
    key[12] = salt;
    let u = (fnv64(&key) % 1_000_000) as f64 / 1_000_000.0;
    let mut acc = 0.0;
    for (k, p) in probs {
        acc += p / total;
        if u < acc {
            return Some(*k);
        }
    }
    probs.last().map(|(k, _)| *k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with(apple: f64, akamai: f64, limelight: f64) -> MetaCdnState {
        MetaCdnState::new(Schedule::constant(CdnShare {
            apple,
            akamai,
            limelight,
            level3: 0.0,
        }))
    }

    fn t0() -> SimTime {
        SimTime::from_ymd_hms(2017, 9, 19, 17, 0, 0)
    }

    #[test]
    fn no_overflow_below_capacity() {
        let s = state_with(0.5, 0.25, 0.25);
        s.set_apple_utilization(Region::Eu, 0.8);
        let share = s.effective_share(Region::Eu, t0());
        let apple = share.iter().find(|(k, _)| *k == CdnKind::Apple).unwrap().1;
        assert!((apple - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overflow_spills_proportionally() {
        let s = state_with(0.5, 0.25, 0.25);
        // Apple-directed demand is twice Apple's capacity.
        s.set_apple_utilization(Region::Eu, 2.0);
        let share = s.effective_share(Region::Eu, t0());
        let get = |k| share.iter().find(|(x, _)| *x == k).unwrap().1;
        assert!((get(CdnKind::Apple) - 0.25).abs() < 1e-12, "kept = 0.5/2");
        // Spill of 0.25 splits evenly between equal-weight third parties.
        assert!((get(CdnKind::Akamai) - 0.375).abs() < 1e-12);
        assert!((get(CdnKind::Limelight) - 0.375).abs() < 1e-12);
        let total: f64 = share.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overflow_with_no_scheduled_third_party_engages_all() {
        let s = state_with(1.0, 0.0, 0.0);
        s.set_apple_utilization(Region::Eu, 4.0);
        let share = s.effective_share(Region::Eu, t0());
        let get = |k| share.iter().find(|(x, _)| *x == k).map(|(_, p)| *p).unwrap_or(0.0);
        assert!((get(CdnKind::Apple) - 0.25).abs() < 1e-12);
        assert!(get(CdnKind::Akamai) > 0.0 && get(CdnKind::Limelight) > 0.0);
        assert_eq!(get(CdnKind::Level3), 0.0, "Level3 stays removed");
    }

    #[test]
    fn selection_follows_weights_statistically() {
        let s = state_with(0.6, 0.2, 0.2);
        let mut counts: HashMap<CdnKind, u32> = HashMap::new();
        for i in 0..4000u32 {
            let ip = Ipv4Addr::from(0x0A00_0000 + i * 97);
            let k = s.select_cdn(Region::Eu, ip, t0()).unwrap();
            *counts.entry(k).or_default() += 1;
        }
        let apple_frac = counts[&CdnKind::Apple] as f64 / 4000.0;
        assert!((apple_frac - 0.6).abs() < 0.05, "got {apple_frac}");
    }

    #[test]
    fn selection_rotates_with_selector_ttl() {
        let s = state_with(0.5, 0.25, 0.25);
        let ip = Ipv4Addr::new(10, 1, 2, 3);
        let picks: std::collections::HashSet<_> = (0..40)
            .map(|i| s.select_cdn(Region::Eu, ip, t0() + Duration::secs(15 * i)).unwrap())
            .collect();
        assert!(picks.len() > 1, "same client re-rolls across TTL buckets");
    }

    #[test]
    fn a1015_lifecycle() {
        let s = state_with(0.4, 0.3, 0.3);
        let release = t0();
        assert!(!s.a1015_active(Region::Eu, release));
        // Akamai overloads at release…
        s.set_cdn_load(CdnKind::Akamai, Region::Eu, 0.9, release);
        assert!(!s.a1015_active(Region::Eu, release + Duration::hours(5)));
        // …the map is active six hours later…
        assert!(s.a1015_active(Region::Eu, release + Duration::hours(6)));
        // …stays active while hot, retires when load recedes.
        s.set_cdn_load(CdnKind::Akamai, Region::Eu, 0.1, release + Duration::days(2));
        assert!(!s.a1015_active(Region::Eu, release + Duration::days(2)));
    }

    #[test]
    fn third_party_selection_excludes_apple() {
        let s = state_with(0.9, 0.05, 0.05);
        for i in 0..100u32 {
            let ip = Ipv4Addr::from(0x0A00_0100 + i);
            let k = s.select_third_party(Region::Eu, ip, t0()).unwrap();
            assert_ne!(k, CdnKind::Apple);
        }
    }

    #[test]
    fn default_signals_leave_share_untouched() {
        let s = state_with(0.5, 0.25, 0.25);
        s.set_apple_utilization(Region::Eu, 2.0);
        let before = s.effective_share(Region::Eu, t0());
        // Publishing all-healthy / factor-1 signals must not change a bit.
        for k in [CdnKind::Apple, CdnKind::Akamai, CdnKind::Limelight] {
            s.set_cdn_health(k, Region::Eu, true);
            s.set_capacity_factor(k, Region::Eu, 1.0);
        }
        assert_eq!(before, s.effective_share(Region::Eu, t0()));
    }

    #[test]
    fn unhealthy_cdn_is_ejected_and_weight_respreads() {
        let s = state_with(0.5, 0.25, 0.25);
        s.set_cdn_health(CdnKind::Limelight, Region::Eu, false);
        let share = s.effective_share(Region::Eu, t0());
        let get = |k| share.iter().find(|(x, _)| *x == k).map(|(_, p)| *p).unwrap_or(0.0);
        assert_eq!(get(CdnKind::Limelight), 0.0);
        // 0.25 of weight respreads proportionally onto Apple and Akamai.
        assert!((get(CdnKind::Apple) - 2.0 / 3.0).abs() < 1e-12);
        assert!((get(CdnKind::Akamai) - 1.0 / 3.0).abs() < 1e-12);
        let total: f64 = share.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Restoration brings the original share back exactly.
        s.set_cdn_health(CdnKind::Limelight, Region::Eu, true);
        let restored = s.effective_share(Region::Eu, t0());
        let get = |k: CdnKind| restored.iter().find(|(x, _)| *x == k).unwrap().1;
        assert!((get(CdnKind::Limelight) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn capacity_factor_sheds_weight_to_survivors() {
        let s = state_with(0.5, 0.25, 0.25);
        s.set_capacity_factor(CdnKind::Apple, Region::Eu, 0.5);
        let share = s.effective_share(Region::Eu, t0());
        let get = |k| share.iter().find(|(x, _)| *x == k).unwrap().1;
        // Apple keeps 0.25 of raw weight; renormalization spreads the shed
        // 0.25 over all survivors proportionally (0.25/0.75 scale-up).
        assert!((get(CdnKind::Apple) - 1.0 / 3.0).abs() < 1e-12);
        assert!((get(CdnKind::Akamai) - 1.0 / 3.0).abs() < 1e-12);
        assert!((get(CdnKind::Limelight) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn all_signals_lost_falls_back_to_last_known_good() {
        let s = state_with(0.5, 0.25, 0.25);
        // Record a degraded-but-alive mapping first.
        s.set_cdn_health(CdnKind::Limelight, Region::Eu, false);
        let good = s.effective_share(Region::Eu, t0());
        assert!(!good.is_empty());
        // Now every CDN goes dark.
        for k in [CdnKind::Apple, CdnKind::Akamai, CdnKind::Level3] {
            s.set_cdn_health(k, Region::Eu, false);
        }
        let frozen = s.effective_share(Region::Eu, t0());
        assert_eq!(frozen, good, "controller freezes onto the last good mapping");
        // Without any recorded good mapping, the undegraded share is used.
        let fresh = state_with(0.5, 0.25, 0.25);
        for k in CdnKind::ALL {
            fresh.set_cdn_health(k, Region::Eu, false);
        }
        let fallback = fresh.effective_share(Region::Eu, t0());
        let total: f64 = fallback.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12, "fallback is still a distribution");
    }

    #[test]
    fn down_site_registry_round_trips() {
        let s = state_with(1.0, 0.0, 0.0);
        assert!(!s.site_is_down(99));
        assert_eq!(s.down_site_count(), 0);
        s.set_site_down(99, true);
        assert!(s.site_is_down(99));
        assert_eq!(s.down_site_count(), 1);
        s.set_site_down(99, false);
        assert!(!s.site_is_down(99));
    }

    #[test]
    fn installed_snapshot_freezes_reads_and_skips_writes() {
        let s = state_with(0.5, 0.25, 0.25);
        s.set_apple_utilization(Region::Eu, 2.0);
        s.set_cdn_load(CdnKind::Akamai, Region::Eu, 0.9, t0());
        let frozen_share = s.effective_share(Region::Eu, t0());
        let snap = Arc::new(s.capture());
        {
            let _g = install_snapshot(snap.clone());
            // Live writes after capture are invisible through the snapshot…
            s.set_apple_utilization(Region::Eu, 0.1);
            s.set_cdn_load(CdnKind::Akamai, Region::Eu, 0.2, t0());
            assert_eq!(s.apple_utilization(Region::Eu), 2.0);
            assert_eq!(s.cdn_load(CdnKind::Akamai, Region::Eu), 0.9);
            assert_eq!(s.effective_share(Region::Eu, t0()), frozen_share);
            // …and degradation under a snapshot never records last_good.
            s.set_capacity_factor(CdnKind::Apple, Region::Eu, 1.0);
        }
        // Guard dropped: reads see the live values again.
        assert_eq!(s.apple_utilization(Region::Eu), 0.1);
        assert_eq!(s.cdn_load(CdnKind::Akamai, Region::Eu), 0.2);
    }

    #[test]
    fn snapshot_of_one_state_never_serves_another() {
        let a = state_with(0.5, 0.25, 0.25);
        let b = state_with(0.5, 0.25, 0.25);
        a.set_apple_utilization(Region::Eu, 1.5);
        b.set_apple_utilization(Region::Eu, 0.5);
        let _g = install_snapshot(Arc::new(a.capture()));
        assert_eq!(a.apple_utilization(Region::Eu), 1.5);
        assert_eq!(b.apple_utilization(Region::Eu), 0.5, "b reads live data");
    }

    #[test]
    fn snapshot_reports_state() {
        let s = state_with(0.5, 0.25, 0.25);
        s.set_apple_utilization(Region::Eu, 1.5);
        s.set_cdn_load(CdnKind::Akamai, Region::Eu, 0.9, t0());
        let snap = s.snapshot(t0() + Duration::hours(7));
        assert_eq!(snap.apple_util, vec![(Region::Eu, 1.5)]);
        assert_eq!(snap.cdn_load, vec![(CdnKind::Akamai, Region::Eu, 0.9)]);
        assert_eq!(snap.a1015_active, vec![Region::Eu]);
    }
}
