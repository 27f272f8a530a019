//! The calibrated iOS 11 rollout scenario.
//!
//! This crate assembles every substrate into the world the paper measured,
//! and drives the three measurements over it: [`run_dns`] runs the global
//! or the in-ISP DNS campaign ([`Campaign`]), [`run_dns_journaled`] runs
//! one crash-safe through a checkpoint journal, and [`run_traffic`] runs
//! the border telemetry. The modules:
//!
//! * [`sites`] — Apple's 34 delivery-site locations with per-site server
//!   counts (the ground truth Figure 3 rediscovers by scanning).
//! * [`params`] — every calibrated constant (capacities, pool sizes, weight
//!   schedule, baselines) with the paper observation each one encodes.
//!   **Mechanism vs. input:** the schedule and pool sizes are exogenous
//!   commercial decisions in reality too; everything downstream (traffic
//!   split, unique-IP counts, overflow, saturation) is computed.
//! * [`world`] — the AS topology (Eyeball ISP, Apple, Akamai, Limelight,
//!   transits A–D, off-net cache ASes, ~40 small handover ASes), the CDNs,
//!   the Meta-CDN namespace, probe fleets and vantage VMs.
//! * [`loads`] — the per-tick feedback loop: continent demand → scheduled
//!   shares → Apple utilization → effective shares → third-party pool loads.
//! * [`dnscampaign`] — the RIPE-Atlas-style DNS campaigns (global and
//!   in-ISP) producing unique-IP series and the DNS-observed IP↔CDN map.
//! * [`chaos`] — the infrastructure chaos-sweep harness: seeded CDN/NS
//!   failure scenarios driven against the health-checked failover of the
//!   mapping state, with per-tick invariant audits.
//! * [`poisoning`] — the poisoning-resistance sweep: a Byzantine upstream
//!   forging answers against bailiwick-enforcing resolvers, with routing,
//!   cache, and wire-level audits per tick.
//! * [`traffic`] — the ISP border telemetry simulation: flows over BGP
//!   paths onto capacity-limited peering links, NetFlow sampling, SNMP.
//! * [`compat`] — the older campaign entry-point names the benchmark
//!   still imports, each one call of a runner below.
//! * [`timeline()`] — the Figure 1 measurement calendar.
//! * [`classes`] — the CDN classification used in every figure legend
//!   (Akamai / Akamai other AS / Limelight / Limelight other AS / Apple /
//!   other), derived per the paper's method: DNS attribution for the CDN,
//!   BGP origin for the "other AS" split.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bgpfeed;
pub mod chaos;
pub mod checkpoint;
pub mod classes;
pub mod compat;
pub mod config;
pub mod dnscampaign;
pub mod loads;
pub mod params;
pub mod poisoning;
pub mod sites;
pub mod timeline;
pub mod tracecampaign;
pub mod traffic;
pub mod world;

pub use chaos::{
    allocate_demand, check_invariants, control_key, run_chaos, run_chaos_sweep, standard_grid,
    total_dark_scenario, ChaosRunResult, ChaosScenario, DemandAllocation, InvariantViolation,
    TickAudit,
};
pub use checkpoint::{CampaignError, CampaignRun, ResumeOptions};
pub use classes::CdnClass;
pub use compat::{
    run_global_dns_resumable_with_observed, run_global_dns_threads,
    run_global_dns_threads_observed, run_global_dns_threads_timed_observed,
    run_isp_dns_threads_observed, run_isp_dns_threads_timed_observed, run_isp_traffic_threads,
    run_isp_traffic_threads_timed,
};
pub use config::{LinkSelection, ScenarioConfig};
pub use dnscampaign::{
    bailiwick_policy, run_dns, run_dns_journaled, Campaign, CampaignReport, DnsCampaignResult,
    InternedCampaignFaults, InternedCampaignMutations, IpClassLedger, POISON_TTL,
};
pub use poisoning::{
    check_poison_invariants, poison_grid, run_poison, run_poison_sweep, PoisonRunResult,
    PoisonScenario, PoisonViolation,
};
pub use timeline::{timeline, TimelineEntry};
pub use tracecampaign::{run_traceroutes, TracerouteCampaignResult};
pub use traffic::{run_traffic, TrafficResult, TRAFFIC_BATCH_TICKS};
pub use world::{World, WorldBuildError};
