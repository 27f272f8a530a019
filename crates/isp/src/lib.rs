//! Eyeball-ISP telemetry: the §5 measurement pipeline.
//!
//! The paper gathers **BGP, Netflow and SNMP data directly on all border
//! routers** of a Tier-1 European Eyeball ISP, then estimates per-CDN
//! traffic by (1) matching flow source addresses to CDN server IPs seen in
//! the RIPE Atlas measurements, (2) finding each flow's *Source AS* via BGP,
//! (3) classifying its *Handover AS* from the ingress link, and (4) scaling
//! sampled Netflow volumes by exact SNMP octet counters. All four steps are
//! reproduced here over the same artifacts:
//!
//! * [`netflow`] — real NetFlow v5 wire format (24-byte header, 48-byte
//!   records including the `src_as`/`dst_as` fields) plus the packet
//!   sampler that makes Netflow volumes noisy in the first place.
//! * [`snmp`] — per-link octet counters polled every five minutes; exact,
//!   but blind to *who* sent the bytes.
//! * [`classify`] — the §5.1 definitions of **offload** (source AS is a
//!   third-party CDN) and **overflow** (source AS ≠ handover AS).
//! * [`estimate`] — the flow table ([`FlowTable`]), which files each
//!   sampled record under its (time bin, ingress link) cell as the record
//!   is collected, and the Netflow×SNMP scaling estimator over its cells.
//! * [`billing`] — 95/5 percentile billing, used to reason about the
//!   AS-D cost impact of the overflow spike (§5.4).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod billing;
pub mod classify;
pub mod estimate;
pub mod netflow;
pub mod snmp;

pub use billing::percentile_95_5;
pub use classify::{classify_flow, FlowClass, TrafficKind};
pub use estimate::{FlowTable, ScaledFlows, ScaledVolume, ScalingCoverage};
pub use netflow::{ExportPacket, FlowRecord, Sampler};
pub use snmp::SnmpCounters;
