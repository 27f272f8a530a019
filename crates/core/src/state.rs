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
use std::collections::HashSet;
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

const REGIONS: usize = Region::ALL.len();
const KINDS: usize = CdnKind::ALL.len();

/// One optional signal per region, indexed by `Region as usize`
/// ([`Region::ALL`] order).
type PerRegion<T> = [Option<T>; REGIONS];
/// One optional signal per (CDN, region), indexed
/// `[CdnKind as usize][Region as usize]` ([`CdnKind::ALL`] order).
type PerCdnRegion<T> = [PerRegion<T>; KINDS];

/// The controller's mutable signals in fixed arrays: a read is an index,
/// not a hash. `None` is "never set", which [`MetaCdnState::export_signals`]
/// keeps apart from a set default (a reported healthy verdict, factor 1),
/// and walking the arrays in index order is the canonical sorted order.
#[derive(Debug, Default, Clone)]
struct Inner {
    apple_util: PerRegion<f64>,
    cdn_load: PerCdnRegion<f64>,
    akamai_overload_since: PerRegion<SimTime>,
    /// Health verdicts from the chaos layer's probe loop; absent = healthy.
    cdn_health: PerCdnRegion<bool>,
    /// Remaining serving-capacity fraction per (CDN, region); absent = 1.
    capacity_factor: PerCdnRegion<f64>,
    /// Last share computed while at least one CDN was still reachable —
    /// the mapping the controller freezes onto when every health signal
    /// is lost.
    last_good: PerRegion<SelectionShare>,
    /// Apple GSLB sites currently down (by site key); the GSLB skips them.
    down_sites: HashSet<u64>,
}

/// The set entries of a per-region array, in [`Region::ALL`] order.
fn per_region<T: Copy>(a: &PerRegion<T>) -> impl Iterator<Item = (Region, T)> + '_ {
    Region::ALL.into_iter().zip(a).filter_map(|(r, v)| v.map(|v| (r, v)))
}

/// The set entries of a per-(CDN, region) array, sorted by (CDN, region).
fn per_cdn_region<T: Copy>(a: &PerCdnRegion<T>) -> impl Iterator<Item = (CdnKind, Region, T)> + '_ {
    CdnKind::ALL
        .into_iter()
        .zip(a)
        .flat_map(|(k, row)| per_region(row).map(move |(r, v)| (k, r, v)))
}

/// Shared controller state (thread-safe; policies hold `Arc<MetaCdnState>`).
#[derive(Debug)]
pub struct MetaCdnState {
    /// Distinguishes states so an installed [`MappingSnapshot`] can never
    /// serve reads of a *different* state (e.g. two worlds in one test).
    state_id: u64,
    schedule: Schedule,
    inner: RwLock<Inner>,
}

static NEXT_STATE_ID: AtomicU64 = AtomicU64::new(1);

/// An immutable point-in-time copy of the controller's mutable mapping
/// inputs (loads, health verdicts, capacity factors, a1015 activation,
/// down sites), captured once per campaign round with
/// [`MetaCdnState::capture`], together with every region's effective
/// selection share at the round's instant.
///
/// While a snapshot is [installed](install_snapshot) on a thread, every
/// read of the originating state on that thread is served lock-free from
/// the copy — the parallel engine's workers share one `Arc<MappingSnapshot>`
/// per round and never touch the `RwLock`, making their reads race-free by
/// construction. Writes (`set_*`) always go to the live state and become
/// visible only to the *next* captured snapshot, so a round's mapping
/// inputs are frozen no matter how its shards interleave.
///
/// The share depends only on the region, the instant and the signals, so
/// the snapshot computes it once per region at capture;
/// [`MetaCdnState::effective_share`] serves a read at that instant from
/// it, and computes a read at any other instant (a retry's backoff) from
/// the copied signals, as a live read would.
#[derive(Debug, Clone)]
pub struct MappingSnapshot {
    state_id: u64,
    inner: Inner,
    /// The instant `shares` hold.
    at: SimTime,
    /// Each region's effective share at `at`, indexed by `Region as usize`.
    shares: [SelectionShare; REGIONS],
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
            schedule,
            inner: RwLock::new(Inner::default()),
        }
    }

    /// Captures the mutable mapping inputs as an immutable
    /// [`MappingSnapshot`] (one read-lock acquisition for a whole round's
    /// worth of queries), with every region's effective share at `now`,
    /// the instant the round's queries are asked at.
    pub fn capture(&self, now: SimTime) -> MappingSnapshot {
        let inner = self.inner.read().expect("state lock").clone();
        let shares = Region::ALL.map(|region| self.share_in(&inner, region, now).0);
        MappingSnapshot { state_id: self.state_id, inner, at: now, shares }
    }

    /// Exports every mutable controller signal, sorted, for
    /// checkpointing. Always reads the *live* state (never an installed
    /// snapshot): checkpoints are taken between rounds, after the
    /// driver's writes.
    pub fn export_signals(&self) -> SignalState {
        let inner = self.inner.read().expect("state lock");
        let mut down_sites: Vec<u64> = inner.down_sites.iter().copied().collect();
        down_sites.sort_unstable();
        SignalState {
            apple_util: per_region(&inner.apple_util).collect(),
            cdn_load: per_cdn_region(&inner.cdn_load).collect(),
            akamai_overload_since: per_region(&inner.akamai_overload_since).collect(),
            cdn_health: per_cdn_region(&inner.cdn_health).collect(),
            capacity_factor: per_cdn_region(&inner.capacity_factor).collect(),
            last_good: per_region(&inner.last_good).map(|(r, share)| (r, share.to_vec())).collect(),
            down_sites,
        }
    }

    /// Replaces the controller's mutable signals wholesale with a set
    /// previously captured by [`export_signals`](Self::export_signals).
    ///
    /// Deliberately bypasses the `set_*` entry points: those have
    /// threshold side effects (e.g. [`Self::set_cdn_load`] arming the
    /// a1015 activation timestamp) that must not re-fire when replaying
    /// already-settled history.
    pub fn restore_signals(&self, s: &SignalState) {
        let mut restored =
            Inner { down_sites: s.down_sites.iter().copied().collect(), ..Inner::default() };
        for &(r, v) in &s.apple_util {
            restored.apple_util[r as usize] = Some(v);
        }
        for &(k, r, v) in &s.cdn_load {
            restored.cdn_load[k as usize][r as usize] = Some(v);
        }
        for &(r, t) in &s.akamai_overload_since {
            restored.akamai_overload_since[r as usize] = Some(t);
        }
        for &(k, r, h) in &s.cdn_health {
            restored.cdn_health[k as usize][r as usize] = Some(h);
        }
        for &(k, r, v) in &s.capacity_factor {
            restored.capacity_factor[k as usize][r as usize] = Some(v);
        }
        for (r, shares) in &s.last_good {
            restored.last_good[*r as usize] = Some(shares.iter().copied().collect());
        }
        *self.inner.write().expect("state lock") = restored;
    }

    /// Runs `f` over the state's inner view: the thread's innermost
    /// installed snapshot of *this* state if one exists (lock-free),
    /// otherwise the live data under the read lock.
    ///
    /// The snapshot is read in place, under the thread-local stack's
    /// shared borrow: `f` only reads, so nothing can install or uninstall
    /// while it runs.
    fn with_inner<R>(&self, f: impl FnOnce(&Inner) -> R) -> R {
        INSTALLED.with(|s| {
            let installed = s.borrow();
            if let Some(snap) = installed.iter().rev().find(|m| m.state_id == self.state_id) {
                return f(&snap.inner);
            }
            drop(installed);
            f(&self.inner.read().expect("state lock"))
        })
    }

    /// The schedule's (pre-overflow) share for `region` at `now`.
    pub fn scheduled_share(&self, region: Region, now: SimTime) -> CdnShare {
        self.schedule.share_at(region, now)
    }

    /// Reports Apple's candidate utilization for `region` this tick:
    /// `demand directed at Apple ÷ Apple capacity`, uncapped.
    pub fn set_apple_utilization(&self, region: Region, util: f64) {
        self.inner.write().expect("state lock").apple_util[region as usize] = Some(util.max(0.0));
    }

    /// Reports a third-party CDN's pool load (0..1) for `region` at `now`;
    /// drives pool exposure and, for Akamai, the event-map lifecycle.
    pub fn set_cdn_load(&self, kind: CdnKind, region: Region, load: f64, now: SimTime) {
        let load = load.clamp(0.0, 1.0);
        let mut inner = self.inner.write().expect("state lock");
        inner.cdn_load[kind as usize][region as usize] = Some(load);
        if kind == CdnKind::Akamai {
            let since = &mut inner.akamai_overload_since[region as usize];
            if load >= AKAMAI_OVERLOAD_THRESHOLD {
                since.get_or_insert(now);
            } else if load < A1015_RETIRE_BELOW {
                *since = None;
            }
        }
    }

    /// The last reported pool load for `(kind, region)`, default 0.
    pub fn cdn_load(&self, kind: CdnKind, region: Region) -> f64 {
        self.with_inner(|inner| inner.cdn_load[kind as usize][region as usize].unwrap_or(0.0))
    }

    /// Apple's last reported utilization for `region`, default 0.
    pub fn apple_utilization(&self, region: Region) -> f64 {
        self.with_inner(|inner| inner.apple_util[region as usize].unwrap_or(0.0))
    }

    /// Whether the `a1015.gi3.akamai.net` event map serves `region` at `now`.
    pub fn a1015_active(&self, region: Region, now: SimTime) -> bool {
        self.with_inner(|inner| a1015_active_in(inner, region, now))
    }

    /// Reports a CDN's health verdict for `region`, as decided by the
    /// chaos layer's probe loop (through [`crate::health::HealthTracker`]
    /// hysteresis). Unhealthy CDNs are ejected from the effective share.
    pub fn set_cdn_health(&self, kind: CdnKind, region: Region, healthy: bool) {
        self.inner.write().expect("state lock").cdn_health[kind as usize][region as usize] =
            Some(healthy);
    }

    /// The last health verdict for `(kind, region)`; defaults to healthy.
    pub fn cdn_healthy(&self, kind: CdnKind, region: Region) -> bool {
        self.with_inner(|inner| healthy_in(inner, kind, region))
    }

    /// Reports the fraction of its modeled capacity a CDN retains in
    /// `region` (site outages, brownouts, load-coupled degradation).
    /// Values are clamped to `[0, 1]`; 1 — the default — is a no-op.
    pub fn set_capacity_factor(&self, kind: CdnKind, region: Region, factor: f64) {
        self.inner.write().expect("state lock").capacity_factor[kind as usize][region as usize] =
            Some(factor.clamp(0.0, 1.0));
    }

    /// The last reported capacity factor for `(kind, region)`, default 1.
    pub fn capacity_factor(&self, kind: CdnKind, region: Region) -> f64 {
        self.with_inner(|inner| factor_in(inner, kind, region))
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
    }

    /// Runs `f` with whether each Apple site (by site key) is currently
    /// marked down, the down set read once from one view of the signals
    /// (the installed snapshot, else the live state). While no site is
    /// down, `f` gets the constant `false` and probes no set.
    pub fn with_down_sites<R>(&self, f: impl FnOnce(&dyn Fn(u64) -> bool) -> R) -> R {
        self.with_inner(|inner| {
            if inner.down_sites.is_empty() {
                f(&|_| false)
            } else {
                f(&|site_key| inner.down_sites.contains(&site_key))
            }
        })
    }

    /// The selection probabilities actually in force: the scheduled share
    /// with Apple's overflow spilled onto the available third parties,
    /// then degraded by the health/capacity signals of the chaos layer
    /// (no-op while no degradation signal is set). Both steps read one
    /// view of the signals; under an installed snapshot, a read at the
    /// snapshot's instant returns the share computed at capture.
    pub fn effective_share(&self, region: Region, now: SimTime) -> SelectionShare {
        let frozen = INSTALLED.with(|s| {
            let installed = s.borrow();
            let snap = installed.iter().rev().find(|m| m.state_id == self.state_id)?;
            Some(if snap.at == now {
                snap.shares[region as usize]
            } else {
                self.share_in(&snap.inner, region, now).0
            })
        });
        if let Some(share) = frozen {
            return share;
        }
        let (share, shed) = self.share_in(&self.inner.read().expect("state lock"), region, now);
        // Only a live read records the last-known-good mapping: snapshot
        // mode is read-only, so a frozen round never mutates the live
        // state, and the driver's between-round calls keep it maintained.
        if shed {
            self.inner.write().expect("state lock").last_good[region as usize] = Some(share);
        }
        share
    }

    /// [`effective_share`](Self::effective_share) against one view of the
    /// signals, without writing: the share, and whether it was shed over
    /// surviving CDNs (a live read records such a share as the
    /// last-known-good mapping).
    fn share_in(&self, inner: &Inner, region: Region, now: SimTime) -> (SelectionShare, bool) {
        let scheduled = self.schedule.share_at(region, now).normalized_in(region);
        let probs = overflow_in(inner, region, scheduled);
        match degrade_in(inner, region, &probs) {
            DegradeOutcome::Untouched => (probs, false),
            DegradeOutcome::Frozen(last_good) => (last_good.unwrap_or(probs), false),
            DegradeOutcome::Shed(out) => (out, true),
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
        StateSnapshot {
            apple_util: per_region(&inner.apple_util).collect(),
            cdn_load: per_cdn_region(&inner.cdn_load).collect(),
            a1015_active: Region::ALL
                .into_iter()
                .filter(|&r| a1015_active_in(&inner, r, now))
                .collect(),
        }
    }
}

/// The normalized scheduled share `probs` with Apple's overflow applied
/// (health-blind), against one view of the signals.
fn overflow_in(inner: &Inner, region: Region, mut probs: SelectionShare) -> SelectionShare {
    if probs.is_empty() {
        return probs;
    }
    let util = inner.apple_util[region as usize].unwrap_or(0.0);
    if util <= 1.0 {
        return probs;
    }
    // Apple can serve only 1/util of what the schedule directs at it.
    let apple_p = probs.iter().find(|(k, _)| *k == CdnKind::Apple).map(|(_, p)| *p).unwrap_or(0.0);
    let kept = apple_p / util;
    let spill = apple_p - kept;
    let third_total: f64 = probs.iter().filter(|(k, _)| *k != CdnKind::Apple).map(|(_, p)| p).sum();
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

/// Whether the a1015 event map serves `region` at `now`, against one view.
fn a1015_active_in(inner: &Inner, region: Region, now: SimTime) -> bool {
    inner.akamai_overload_since[region as usize].is_some_and(|since| now >= since + A1015_LAG)
}

/// The health verdict for `(kind, region)` in one view; absent = healthy.
fn healthy_in(inner: &Inner, kind: CdnKind, region: Region) -> bool {
    inner.cdn_health[kind as usize][region as usize].unwrap_or(true)
}

/// The capacity factor for `(kind, region)` in one view; absent = 1.
fn factor_in(inner: &Inner, kind: CdnKind, region: Region) -> f64 {
    inner.capacity_factor[kind as usize][region as usize].unwrap_or(1.0)
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

/// Applies the chaos layer's degradation signals to a share vector,
/// against a borrowed view (no locking, no writes):
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
/// With no health verdicts and all factors at 1 the input stands
/// untouched, keeping fault-free pipelines bit-identical.
fn degrade_in(inner: &Inner, region: Region, probs: &SelectionShare) -> DegradeOutcome {
    let degraded = probs
        .iter()
        .any(|&(k, _)| !healthy_in(inner, k, region) || factor_in(inner, k, region) < 1.0);
    if !degraded {
        return DegradeOutcome::Untouched;
    }
    let mut kept = *probs;
    for (k, p) in kept.iter_mut() {
        let healthy = healthy_in(inner, *k, region);
        let factor = factor_in(inner, *k, region).clamp(0.0, 1.0);
        *p = if healthy { *p * factor } else { 0.0 };
    }
    let total: f64 = probs.iter().map(|(_, p)| p).sum();
    let kept_total: f64 = kept.iter().map(|(_, p)| p).sum();
    if kept_total <= 0.0 {
        // Every health signal lost: graceful degradation to the
        // last-known-good mapping.
        return DegradeOutcome::Frozen(inner.last_good[region as usize]);
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
    use std::collections::HashMap;

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
        let is_down = |key| s.with_down_sites(|down| down(key));
        assert!(!is_down(99));
        s.set_site_down(99, true);
        assert!(is_down(99) && !is_down(98));
        s.set_site_down(99, false);
        assert!(!is_down(99));
    }

    #[test]
    fn installed_snapshot_freezes_reads_and_skips_writes() {
        let s = state_with(0.5, 0.25, 0.25);
        s.set_apple_utilization(Region::Eu, 2.0);
        s.set_cdn_load(CdnKind::Akamai, Region::Eu, 0.9, t0());
        let frozen_share = s.effective_share(Region::Eu, t0());
        let snap = Arc::new(s.capture(t0()));
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
        let _g = install_snapshot(Arc::new(a.capture(t0())));
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
