//! AS-level Internet model.
//!
//! The paper's ISP analysis (Section 5) hinges on three network-layer facts
//! about every traffic flow: which AS *originates* it (the "Source AS", found
//! via BGP), which neighbor AS *hands it over* to the measured ISP (the
//! "Handover AS", found via the ingress interface), and whether the peering
//! link it arrives on is saturated. This crate provides the substrate for
//! all three:
//!
//! * [`ip`] — IPv4 prefixes ([`Ipv4Net`]), a binary trie with
//!   longest-prefix matching ([`PrefixTrie`]) as the mutable BGP RIB, and
//!   its compiled binary-search form ([`FlatLpm`]) for hot lookup paths.
//! * [`topology`] — autonomous systems, business relationships
//!   (customer/provider/peer), and capacity-annotated inter-AS links.
//! * [`routing`] — valley-free (Gao–Rexford) path selection, giving each
//!   flow its AS-level forwarding path and therefore its handover AS.
//! * [`traceroute`] — hop-by-hop path expansion with RTT estimates, used by
//!   the measurement probes.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bgp_wire;
pub mod ip;
pub mod routing;
pub mod topology;
pub mod traceroute;

pub use bgp_wire::Update as BgpUpdate;
pub use ip::{FlatLpm, Ipv4Net, PrefixTrie};
pub use routing::Router;
pub use topology::{AsId, AsInfo, AsKind, DirectedRel, Link, LinkId, Relationship, Topology};
pub use traceroute::{Hop, Traceroute};
