//! The infrastructure chaos-sweep harness.
//!
//! Everything before this module injects faults into the *measurement*
//! plane (lost queries, SERVFAILs, NetFlow gaps). This module breaks the
//! *measured* system itself — CDN sites go dark, capacity browns out,
//! authoritative name servers stop answering, a control plane gets killed
//! mid-event — and drives the Meta-CDN's reactive machinery against it:
//!
//! * a **health probe loop** feeding [`HealthTracker`] hysteresis per
//!   (CDN, region), whose verdicts the mapping state turns into ejection
//!   and restoration of whole CDNs;
//! * **capacity factors** (site outages, brownouts, load-coupled Apple
//!   degradation) that shed selection weight onto the surviving CDNs;
//! * **per-site down flags** that make the Apple GSLB answer around dead
//!   sites;
//! * **NS darkness** folded into the campaign fault adapter so resolvers
//!   see timeouts, retry, and fail fast instead of hanging.
//!
//! [`run_chaos`] executes one seeded failure scenario over the traffic
//! window and records a per-tick audit trail; [`check_invariants`] proves
//! the conservation, capacity, liveness, and hysteresis properties over
//! it; [`run_chaos_sweep`] does both across a scenario grid. Every piece
//! is a pure function of `(config, scenario)`, so reruns at the same seed
//! are bit-identical — the determinism gate in `scripts/ci.sh` diffs two
//! full sweep outputs.

use crate::config::ScenarioConfig;
use crate::dnscampaign::InternedCampaignFaults;
use crate::loads::update_loads;
use crate::params;
use crate::world::World;
use mcdn_atlas::Probe;
use mcdn_cdn::site::fnv64;
use mcdn_dnssim::{CompiledNamespace, ResolveScratch};
use mcdn_dnswire::RecordType;
use mcdn_faults::{FaultProfile, RetryPolicy};
use mcdn_geo::{Duration, Region, SimTime};
use metacdn::{CdnKind, HealthParams, HealthTracker, SelectionShare};

/// Pseudo-sites per (third-party CDN, region) that infrastructure fault
/// windows are drawn over. Third-party models expose address pools, not
/// physical sites; four independent failure domains per region is enough
/// granularity for brownouts to be partial rather than all-or-nothing.
const THIRD_PARTY_FAULT_DOMAINS: u32 = 4;

/// The stable fault-layer key of one CDN's control plane (its GSLB / load
/// balancer). [`FaultProfile::with_target_kill`] aimed at this key scripts
/// the "kill the Limelight LB mid-event" scenario.
pub fn control_key(kind: CdnKind) -> u64 {
    fnv64(format!("{kind}-control-plane").as_bytes())
}

/// One fault domain of a third-party CDN in one region (for site-outage
/// and brownout window placement).
fn domain_key(kind: CdnKind, region: Region, i: u32) -> u64 {
    fnv64(format!("{kind}-{region:?}-domain-{i}").as_bytes())
}

/// One health-tracked (CDN, region) pair of a run, with its fault-layer
/// keys formatted and hashed once per run instead of on every probe.
struct Tracked {
    kind: CdnKind,
    region: Region,
    /// [`control_key`] of `kind`.
    control: u64,
    /// [`domain_key`] of each third-party fault domain, in domain order.
    domains: [u64; THIRD_PARTY_FAULT_DOMAINS as usize],
    tracker: HealthTracker,
}

impl Tracked {
    fn new(kind: CdnKind, region: Region) -> Tracked {
        Tracked {
            kind,
            region,
            control: control_key(kind),
            domains: std::array::from_fn(|i| domain_key(kind, region, i as u32)),
            tracker: HealthTracker::new(),
        }
    }
}

/// One named failure scenario of the sweep grid.
#[derive(Debug, Clone, Copy)]
pub struct ChaosScenario {
    /// Scenario name (stable across runs; keys the analysis table).
    pub name: &'static str,
    /// The infrastructure faults in force.
    pub faults: FaultProfile,
    /// Health-check cadence and hysteresis thresholds.
    pub health: HealthParams,
}

/// Outcome of the per-tick DNS liveness probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DnsProbe {
    /// The resolution produced an answer.
    pub ok: bool,
    /// On failure: the error was transient (SERVFAIL/timeout after
    /// exhausting retries) rather than authoritative.
    pub transient: bool,
    /// Attempts spent, including the first.
    pub attempts: u32,
}

/// How one region's demand was split over CDNs in one tick.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandAllocation {
    /// Bits per second served per CDN, each capped by that CDN's
    /// remaining capacity.
    pub served: Vec<(CdnKind, f64)>,
    /// Demand no CDN had capacity for (dropped / queued upstream).
    pub shed_bps: f64,
}

/// Splits `demand_bps` over CDNs by selection share, capping each CDN at
/// its remaining capacity. Shares are consumed as given (the mapping
/// state's job is to have already shifted weight away from degraded
/// CDNs); whatever exceeds a CDN's cap is shed, not re-spilled, so the
/// audit shows exactly what the mapping policy left on the floor.
///
/// Invariants by construction: `served_k ≤ cap_k`, `served_k ≥ 0`, and
/// `Σ served + shed = demand` exactly (shed is the closing difference).
pub fn allocate_demand(
    share: &[(CdnKind, f64)],
    capacity: &[(CdnKind, f64)],
    demand_bps: f64,
) -> DemandAllocation {
    let cap_of = |kind: CdnKind| {
        capacity.iter().find(|(k, _)| *k == kind).map(|(_, c)| c.max(0.0)).unwrap_or(0.0)
    };
    let served: Vec<(CdnKind, f64)> = share
        .iter()
        .map(|(k, p)| (*k, (p.max(0.0) * demand_bps).min(cap_of(*k))))
        .collect();
    let shed_bps = demand_bps - served.iter().map(|(_, s)| s).sum::<f64>();
    DemandAllocation { served, shed_bps }
}

/// The audit record of one (tick, region): everything the invariant
/// checker needs to re-derive conservation and bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct TickAudit {
    /// Tick instant.
    pub t: SimTime,
    /// Region audited.
    pub region: Region,
    /// Offered update demand, bps.
    pub demand_bps: f64,
    /// Selection share in force (post overflow, post degradation).
    pub share: SelectionShare,
    /// Remaining capacity per CDN, bps.
    pub capacity: Vec<(CdnKind, f64)>,
    /// The demand split of this tick.
    pub alloc: DemandAllocation,
    /// The DNS liveness probe of this tick.
    pub dns: DnsProbe,
}

/// Result of one chaos scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRunResult {
    /// The scenario's name.
    pub scenario: &'static str,
    /// The hysteresis parameters the run used.
    pub health: HealthParams,
    /// Per-(tick, region) audit trail, tick-major, region order
    /// [`Region::ALL`].
    pub ticks: Vec<TickAudit>,
    /// Health probes observed per (CDN, region) tracker.
    pub probes_per_tracker: u64,
    /// Eject/restore transitions per (CDN, region), only entries > 0.
    pub transitions: Vec<(CdnKind, Region, u64)>,
}

impl ChaosRunResult {
    /// Fraction of total offered demand that was served (availability).
    pub fn availability(&self) -> f64 {
        let offered: f64 = self.ticks.iter().map(|a| a.demand_bps).sum();
        if offered <= 0.0 {
            return 1.0;
        }
        let shed: f64 = self.ticks.iter().map(|a| a.alloc.shed_bps).sum();
        (offered - shed) / offered
    }

    /// Fraction of *served* traffic carried by third-party CDNs (offload).
    pub fn offload_fraction(&self) -> f64 {
        let mut apple = 0.0;
        let mut third = 0.0;
        for audit in &self.ticks {
            for (k, s) in &audit.alloc.served {
                if *k == CdnKind::Apple {
                    apple += s;
                } else {
                    third += s;
                }
            }
        }
        if apple + third <= 0.0 {
            0.0
        } else {
            third / (apple + third)
        }
    }

    /// Fraction of DNS liveness probes that resolved.
    pub fn dns_success(&self) -> f64 {
        if self.ticks.is_empty() {
            return 1.0;
        }
        self.ticks.iter().filter(|a| a.dns.ok).count() as f64 / self.ticks.len() as f64
    }

    /// Total health transitions across all trackers.
    pub fn total_transitions(&self) -> u64 {
        self.transitions.iter().map(|(_, _, n)| n).sum()
    }

    /// Mean served bps for one CDN across the run (0 if never present).
    pub fn mean_served_bps(&self, kind: CdnKind) -> f64 {
        if self.ticks.is_empty() {
            return 0.0;
        }
        let total: f64 = self
            .ticks
            .iter()
            .flat_map(|a| &a.alloc.served)
            .filter(|(k, _)| *k == kind)
            .map(|(_, s)| s)
            .sum();
        total / self.ticks.len() as f64
    }
}

/// The CDNs that can serve a region under the run's configuration.
fn region_kinds(level3: bool, region: Region) -> Vec<CdnKind> {
    let mut kinds = vec![CdnKind::Apple, CdnKind::Akamai, CdnKind::Limelight];
    if level3 && CdnKind::Level3.available_in(region) {
        kinds.push(CdnKind::Level3);
    }
    kinds
}

/// The fraction of its configured capacity the pair's CDN retains in its
/// region at `now` under `faults` — before any health verdict or load
/// coupling.
fn infra_capacity_factor(
    world: &World,
    pair: &Tracked,
    faults: &FaultProfile,
    now: SimTime,
) -> f64 {
    let region = pair.region;
    match pair.kind {
        CdnKind::Apple => {
            let full = world.apple_capacity_bps(region);
            if full <= 0.0 {
                return 1.0;
            }
            let left: f64 = World::region_continents(region)
                .iter()
                .map(|c| {
                    world
                        .apple
                        .capacity_bps_on_where(*c, |key| faults.site_capacity_factor(key, now))
                })
                .sum();
            left / full
        }
        _ => {
            let n = THIRD_PARTY_FAULT_DOMAINS;
            pair.domains.iter().map(|&key| faults.site_capacity_factor(key, now)).sum::<f64>()
                / n as f64
        }
    }
}

/// Whether one health probe of the pair succeeds at `now`: fails
/// during a telemetry blackout, while the CDN's control plane is killed,
/// or while the CDN retains no capacity in the region.
fn health_probe_ok(world: &World, pair: &Tracked, faults: &FaultProfile, now: SimTime) -> bool {
    if faults.health_blackout(now) {
        return false;
    }
    if faults.target_killed(pair.control, now) {
        return false;
    }
    infra_capacity_factor(world, pair, faults, now) > 0.0
}

/// Runs one chaos scenario over `cfg`'s traffic window against a fresh
/// copy of the world, returning the full audit trail. Deterministic:
/// equal `(cfg, scenario)` gives a bit-identical result.
pub fn run_chaos(cfg: &ScenarioConfig, scenario: &ChaosScenario) -> ChaosRunResult {
    let world = World::build(cfg);
    let faults = &scenario.faults;
    let health = scenario.health;
    let apple_site_keys: Vec<u64> = world.apple.sites().iter().map(|s| s.site_key()).collect();

    let mut tracked: Vec<Tracked> = Region::ALL
        .into_iter()
        .flat_map(|region| {
            let kinds = region_kinds(cfg.enable_level3, region);
            kinds.into_iter().map(move |kind| Tracked::new(kind, region))
        })
        .collect();

    // One DNS liveness probe per region, parked on a representative city.
    // No round memo: without a mapping snapshot, a region's resolution may
    // see state the previous region's share computation just wrote.
    let cns = CompiledNamespace::compile(&world.ns);
    let campaign_faults = InternedCampaignFaults::new(*faults, &world, cns.table());
    let mut scratch = ResolveScratch::new();
    let entry =
        cns.table().get(&metacdn::names::entry()).expect("the entry name is in the namespace");
    let mut dns_probes: Vec<(Region, Probe)> = Region::ALL
        .into_iter()
        .filter_map(|region| {
            world
                .global_probe_specs
                .iter()
                .find(|s| s.city.continent.region() == region)
                .map(|s| (region, Probe::new(9000 + region as u32, *s)))
        })
        .collect();
    let retry = RetryPolicy::standard();

    let mut ticks = Vec::new();
    let mut probes_per_tracker = 0u64;
    let probe_interval = health.probe_interval.max(Duration::secs(1));
    let mut next_probe = cfg.traffic_start;
    let mut t = cfg.traffic_start;
    while t < cfg.traffic_end {
        // --- Health probe loop (may run several probes per tick) --------
        while next_probe <= t {
            probes_per_tracker += 1;
            for pair in tracked.iter_mut() {
                let ok = health_probe_ok(&world, pair, faults, next_probe);
                if pair.tracker.observe(ok, &health).is_some() {
                    world.state.set_cdn_health(pair.kind, pair.region, pair.tracker.is_up());
                }
            }
            next_probe += probe_interval;
        }

        // --- Publish capacity signals into the mapping state ------------
        if faults.has_infrastructure_faults() {
            for key in &apple_site_keys {
                world.state.set_site_down(*key, faults.site_is_down(*key, t));
            }
            for pair in &tracked {
                let mut factor = infra_capacity_factor(&world, pair, faults, t);
                if pair.kind == CdnKind::Apple {
                    // Load-coupled degradation uses the utilization of
                    // the previous controller step (the feedback loop's
                    // one-tick observation delay).
                    factor *= faults.apple_load_factor(world.state.apple_utilization(pair.region));
                }
                world.state.set_capacity_factor(pair.kind, pair.region, factor);
            }
        }

        // --- Controller feedback and the audited demand split -----------
        update_loads(&world, t);
        for region in Region::ALL {
            let demand = world.region_demand_bps(region, t);
            let share = world.state.effective_share(region, t);
            let capacity: Vec<(CdnKind, f64)> = region_kinds(cfg.enable_level3, region)
                .into_iter()
                .map(|kind| {
                    let base = match kind {
                        CdnKind::Apple => world.apple_capacity_bps(region),
                        _ => params::update_capacity(kind, region),
                    };
                    (kind, base * world.state.capacity_factor(kind, region))
                })
                .collect();
            let alloc = allocate_demand(&share, &capacity, demand);

            let dns = match dns_probes.iter_mut().find(|(r, _)| *r == region) {
                Some((_, probe)) => {
                    let (result, attempts) = probe.measure_interned(
                        &cns,
                        &mut scratch,
                        entry,
                        RecordType::A,
                        t,
                        &campaign_faults,
                        &retry,
                        None,
                    );
                    DnsProbe {
                        ok: result.is_ok(),
                        transient: matches!(&result, Err(e) if e.is_transient()),
                        attempts,
                    }
                }
                None => DnsProbe { ok: true, transient: false, attempts: 1 },
            };
            ticks.push(TickAudit { t, region, demand_bps: demand, share, capacity, alloc, dns });
        }
        t += cfg.traffic_tick;
    }

    let mut transitions: Vec<(CdnKind, Region, u64)> = tracked
        .iter()
        .filter(|pair| pair.tracker.transitions() > 0)
        .map(|pair| (pair.kind, pair.region, pair.tracker.transitions()))
        .collect();
    transitions.sort_by_key(|(k, r, _)| (*k as u8, *r as u8));
    ChaosRunResult { scenario: scenario.name, health, ticks, probes_per_tracker, transitions }
}

/// One violated invariant of a chaos run, with enough context to debug it.
#[derive(Debug, Clone, PartialEq)]
pub enum InvariantViolation {
    /// `Σ served + shed ≠ demand` at some tick.
    DemandNotConserved {
        /// Tick instant.
        t: SimTime,
        /// Region.
        region: Region,
        /// Offered demand, bps.
        demand_bps: f64,
        /// `Σ served + shed`, bps.
        accounted_bps: f64,
    },
    /// A CDN was allocated more than its remaining capacity.
    CapacityExceeded {
        /// Tick instant.
        t: SimTime,
        /// Region.
        region: Region,
        /// The over-allocated CDN.
        kind: CdnKind,
        /// Served bps.
        served_bps: f64,
        /// Capacity bps.
        capacity_bps: f64,
    },
    /// Demand was shed while some selected CDN still had headroom left
    /// unused beyond rounding (the mapping failed to use what it chose).
    NegativeShed {
        /// Tick instant.
        t: SimTime,
        /// Region.
        region: Region,
        /// The (negative) shed figure, bps.
        shed_bps: f64,
    },
    /// The selection share was malformed (negative weight or a non-empty
    /// share not summing to one).
    MalformedShare {
        /// Tick instant.
        t: SimTime,
        /// Region.
        region: Region,
        /// Sum of the share weights.
        sum: f64,
    },
    /// The DNS liveness probe broke: a permanent failure (NXDOMAIN-class),
    /// or more attempts than the retry budget allows — either would mean
    /// clients hang or are told the service does not exist.
    DnsLivenessBroken {
        /// Tick instant.
        t: SimTime,
        /// Region.
        region: Region,
        /// The probe outcome.
        probe: DnsProbe,
    },
    /// A health tracker flapped faster than its hysteresis thresholds
    /// permit.
    HysteresisViolated {
        /// The flapping CDN.
        kind: CdnKind,
        /// Region.
        region: Region,
        /// Observed transitions.
        transitions: u64,
        /// Maximum the thresholds allow for the probe count.
        allowed: u64,
    },
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::DemandNotConserved { t, region, demand_bps, accounted_bps } => write!(
                f,
                "demand not conserved at {t} {region:?}: offered {demand_bps:.3e}, accounted {accounted_bps:.3e}"
            ),
            InvariantViolation::CapacityExceeded { t, region, kind, served_bps, capacity_bps } => write!(
                f,
                "{kind} over capacity at {t} {region:?}: served {served_bps:.3e} > cap {capacity_bps:.3e}"
            ),
            InvariantViolation::NegativeShed { t, region, shed_bps } => {
                write!(f, "negative shed {shed_bps:.3e} at {t} {region:?}")
            }
            InvariantViolation::MalformedShare { t, region, sum } => {
                write!(f, "share weights sum to {sum} at {t} {region:?}")
            }
            InvariantViolation::DnsLivenessBroken { t, region, probe } => write!(
                f,
                "DNS liveness broken at {t} {region:?}: ok={} transient={} attempts={}",
                probe.ok, probe.transient, probe.attempts
            ),
            InvariantViolation::HysteresisViolated { kind, region, transitions, allowed } => write!(
                f,
                "{kind} {region:?} flapped {transitions} times, hysteresis allows {allowed}"
            ),
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// Relative tolerance for floating-point conservation checks.
const REL_EPS: f64 = 1e-9;

/// Checks every per-tick and whole-run invariant of a chaos result,
/// returning the first violation found.
pub fn check_invariants(result: &ChaosRunResult) -> Result<(), InvariantViolation> {
    let retry = RetryPolicy::standard();
    for audit in &result.ticks {
        let TickAudit { t, region, demand_bps, share, capacity, alloc, dns } = audit;
        let served_total: f64 = alloc.served.iter().map(|(_, s)| s).sum();
        let accounted = served_total + alloc.shed_bps;
        let scale = demand_bps.abs().max(1.0);
        if (accounted - demand_bps).abs() > REL_EPS * scale {
            return Err(InvariantViolation::DemandNotConserved {
                t: *t,
                region: *region,
                demand_bps: *demand_bps,
                accounted_bps: accounted,
            });
        }
        if alloc.shed_bps < -REL_EPS * scale {
            return Err(InvariantViolation::NegativeShed { t: *t, region: *region, shed_bps: alloc.shed_bps });
        }
        for (kind, served) in &alloc.served {
            let cap = capacity.iter().find(|(k, _)| k == kind).map(|(_, c)| *c).unwrap_or(0.0);
            if *served > cap * (1.0 + REL_EPS) + REL_EPS {
                return Err(InvariantViolation::CapacityExceeded {
                    t: *t,
                    region: *region,
                    kind: *kind,
                    served_bps: *served,
                    capacity_bps: cap,
                });
            }
        }
        if !share.is_empty() {
            let sum: f64 = share.iter().map(|(_, p)| p).sum();
            let negative = share.iter().any(|(_, p)| *p < -REL_EPS);
            if negative || (sum - 1.0).abs() > 1e-6 {
                return Err(InvariantViolation::MalformedShare { t: *t, region: *region, sum });
            }
        }
        let permanent_failure = !dns.ok && !dns.transient;
        if permanent_failure || dns.attempts == 0 || dns.attempts > retry.max_attempts {
            return Err(InvariantViolation::DnsLivenessBroken { t: *t, region: *region, probe: *dns });
        }
    }
    // Hysteresis bound: one eject+restore cycle (2 transitions) consumes
    // at least `eject_after + restore_after` probes, so transitions are
    // capped at two per cycle (plus one for a trailing half-cycle).
    let cycle = (result.health.eject_after.max(1) + result.health.restore_after.max(1)).max(1) as u64;
    let allowed = 2 * (result.probes_per_tracker / cycle) + 1;
    for (kind, region, transitions) in &result.transitions {
        if *transitions > allowed {
            return Err(InvariantViolation::HysteresisViolated {
                kind: *kind,
                region: *region,
                transitions: *transitions,
                allowed,
            });
        }
    }
    Ok(())
}

/// The standard seeded scenario grid: a clean baseline plus one scenario
/// per fault family, and two composites scripted around the release.
pub fn standard_grid(seed: u64) -> Vec<ChaosScenario> {
    let health = HealthParams::standard();
    let release = params::release();
    let base = FaultProfile::none().with_seed(seed);
    vec![
        ChaosScenario { name: "baseline", faults: base, health },
        ChaosScenario {
            name: "site-outages",
            faults: FaultProfile {
                site_outage_every_hours: 48,
                site_outage_hours: 3,
                ..base
            },
            health,
        },
        ChaosScenario {
            name: "brownouts",
            faults: FaultProfile {
                brownout_every_hours: 24,
                brownout_hours: 4,
                brownout_depth: 0.5,
                ..base
            },
            health,
        },
        ChaosScenario {
            name: "ns-outages",
            faults: FaultProfile { ns_outage_every_hours: 72, ns_outage_hours: 2, ..base },
            health,
        },
        ChaosScenario {
            name: "apple-degraded",
            faults: FaultProfile { apple_degrade_per_load: 0.3, ..base },
            health,
        },
        ChaosScenario {
            name: "ll-lb-kill",
            faults: base.with_target_kill(
                control_key(CdnKind::Limelight),
                release + Duration::hours(1),
                release + Duration::hours(7),
            ),
            health,
        },
        ChaosScenario {
            name: "total-dark",
            faults: FaultProfile::infrastructure(seed).with_blackout(
                release + Duration::hours(2),
                release + Duration::hours(5),
            ),
            health,
        },
    ]
}

/// The grid's harshest scenario — every fault family active plus a full
/// blackout spanning hours 2–5 after release. Exposed by name so tests and
/// benchmarks stressing the engine under maximal chaos do not have to
/// index into [`standard_grid`] positionally.
pub fn total_dark_scenario(seed: u64) -> ChaosScenario {
    let grid = standard_grid(seed);
    grid.into_iter()
        .find(|s| s.name == "total-dark")
        .expect("standard grid always includes total-dark")
}

/// Runs every scenario of `grid` and checks its invariants, returning the
/// results or the first violation (tagged with its scenario).
pub fn run_chaos_sweep(
    cfg: &ScenarioConfig,
    grid: &[ChaosScenario],
) -> Result<Vec<ChaosRunResult>, (&'static str, InvariantViolation)> {
    let mut results = Vec::with_capacity(grid.len());
    for scenario in grid {
        let result = run_chaos(cfg, scenario);
        check_invariants(&result).map_err(|v| (scenario.name, v))?;
        results.push(result);
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep_cfg() -> ScenarioConfig {
        let mut cfg = ScenarioConfig::fast();
        // A tight window around the release keeps unit runs quick; the
        // integration sweep covers the full traffic window.
        cfg.traffic_start = params::release() - Duration::hours(6);
        cfg.traffic_end = params::release() + Duration::hours(12);
        cfg
    }

    #[test]
    fn allocation_conserves_demand_and_respects_caps() {
        let share = vec![(CdnKind::Apple, 0.5), (CdnKind::Akamai, 0.3), (CdnKind::Limelight, 0.2)];
        let caps = vec![(CdnKind::Apple, 40.0), (CdnKind::Akamai, 100.0), (CdnKind::Limelight, 5.0)];
        let alloc = allocate_demand(&share, &caps, 100.0);
        let served: f64 = alloc.served.iter().map(|(_, s)| s).sum();
        assert!((served + alloc.shed_bps - 100.0).abs() < 1e-9);
        // Apple capped at 40, Limelight at 5, Akamai takes its full slice.
        assert_eq!(alloc.served, vec![(CdnKind::Apple, 40.0), (CdnKind::Akamai, 30.0), (CdnKind::Limelight, 5.0)]);
        assert!((alloc.shed_bps - 25.0).abs() < 1e-9);
    }

    #[test]
    fn baseline_scenario_holds_invariants_and_sheds_nothing_quietly() {
        let cfg = sweep_cfg();
        let grid = standard_grid(7);
        let result = run_chaos(&cfg, &grid[0]);
        check_invariants(&result).expect("baseline invariants");
        assert_eq!(result.total_transitions(), 0, "no faults, no health churn");
        assert!(result.dns_success() == 1.0, "quiet DNS always resolves");
    }

    #[test]
    fn control_keys_are_distinct() {
        let keys: std::collections::HashSet<u64> =
            CdnKind::ALL.into_iter().map(control_key).collect();
        assert_eq!(keys.len(), CdnKind::ALL.len());
        assert_ne!(control_key(CdnKind::Limelight), domain_key(CdnKind::Limelight, Region::Eu, 0));
    }

    #[test]
    fn runs_are_bit_identical_at_equal_seed() {
        let cfg = sweep_cfg();
        let scen = &standard_grid(11)[6]; // total-dark: the richest scenario
        let a = run_chaos(&cfg, scen);
        let b = run_chaos(&cfg, scen);
        assert_eq!(a, b, "same seed must reproduce the run bit-identically");
        let other = run_chaos(&cfg, &standard_grid(12)[6]);
        assert_ne!(a.ticks, other.ticks, "different seed must move the fault windows");
    }
}
