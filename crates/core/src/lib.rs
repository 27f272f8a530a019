//! `metacdn` — a self-operated Meta-CDN, modelled after Apple's.
//!
//! This crate is the reproduction of the paper's primary subject: the
//! DNS-based request-mapping system through which a content provider serves
//! traffic from **its own CDN by preference and third-party CDNs on
//! overflow**. It assembles the substrates (`mcdn-dnssim` zones and
//! policies, `mcdn-cdn` cache models) into the exact mapping graph of the
//! paper's Figure 2:
//!
//! ```text
//!  appldnld.apple.com                          (entry, Apple zone)
//!    └─CNAME 21600→ appldnld.apple.com.akadns.net   (① Akamai geo split)
//!         ├─CNAME 120→ {china|india}-lb.itunes-apple.com.akadns.net
//!         └─CNAME 120→ appldnld.g.applimg.com       (② Apple CDN selector, TTL 15)
//!              ├─CNAME 15→ {a|b}.gslb.applimg.com   (④ Apple GSLB → A records)
//!              └─CNAME 15→ ios8-{us|eu|apac}-lb.apple.com.akadns.net (③ 3rd-party selector)
//!                   ├─CNAME 300→ appldnld2.apple.com.edgesuite.net → a1271/a1015.gi3.akamai.net
//!                   └─CNAME 300→ apple{,-dnld}.vo.llnw{i,d}.net     (Limelight)
//! ```
//!
//! The three decision points are [`zone wiring`](zones) around dynamic
//! policies that consult a shared [`MetaCdnState`]:
//!
//! * step ① diverts China/India to dedicated infrastructure,
//! * step ② picks Apple vs third-party per client using the
//!   [`policy::Schedule`] of commercial weights **and** a reactive
//!   overflow mechanism: when Apple's CDN runs beyond capacity, the surplus
//!   selection weight spills to the third parties (§4 of the paper observes
//!   exactly this during the iOS 11 release),
//! * step ③ picks which third-party CDN serves, per region.
//!
//! The event behaviour the paper timestamps — Akamai activating the
//! additional `a1015.gi3.akamai.net` map six hours into the flash crowd — is
//! reproduced mechanically: the state records when Akamai's load first
//! exceeds its activation threshold and switches the extra map on after the
//! configured lag.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod graph;
pub mod health;
pub mod kinds;
pub mod names;
pub mod policy;
pub mod state;
pub mod zones;

pub use graph::{mapping_graph, GraphEdge, Operator};
pub use health::{HealthParams, HealthTracker, HealthTransition};
pub use kinds::CdnKind;
pub use policy::{CdnShare, Schedule, SelectionShare};
pub use state::{
    install_snapshot, pick_weighted, MappingSnapshot, MetaCdnState, SignalState, SnapshotGuard,
    StateSnapshot, A1015_LAG, AKAMAI_OVERLOAD_THRESHOLD,
};
pub use zones::{build_namespace, MetaCdnConfig};
