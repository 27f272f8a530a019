//! Autonomous systems, business relationships, and inter-AS links.

use crate::ip::{FlatLpm, Ipv4Net, PrefixTrie};
use mcdn_geo::Coord;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// An autonomous system number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AsId(pub u32);

impl core::fmt::Display for AsId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// Coarse role of an AS in the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AsKind {
    /// Access network with end users (the measured Eyeball ISP, probe hosts).
    Eyeball,
    /// Transit provider.
    Transit,
    /// CDN operator network.
    Cdn,
    /// Content provider network (e.g. Apple's own AS).
    Content,
    /// Public cloud (hosts the AWS-style vantage VMs).
    Cloud,
}

/// Static description of an AS.
#[derive(Debug, Clone)]
pub struct AsInfo {
    /// AS number.
    pub id: AsId,
    /// Operator name for display ("Akamai", "AS D", …).
    pub name: String,
    /// Role.
    pub kind: AsKind,
    /// Representative location (used for propagation-delay estimates).
    pub location: Coord,
}

/// Business relationship of a link, read in the direction `a` → `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relationship {
    /// `a` is a customer of `b` (pays `b` for transit).
    CustomerToProvider,
    /// Settlement-free peering.
    PeerToPeer,
}

/// Identifier of an inter-AS link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// A physical interconnection between two ASes.
///
/// The paper's overflow analysis (Figure 8) observes a single handover AS
/// ("AS D") connected to the ISP via *four* distinct links, two of which
/// saturate — so links are first-class objects with their own capacity, and
/// an AS pair may be connected by several of them.
#[derive(Debug, Clone)]
pub struct Link {
    /// Link identifier.
    pub id: LinkId,
    /// One endpoint.
    pub a: AsId,
    /// Other endpoint.
    pub b: AsId,
    /// Relationship in `a` → `b` direction.
    pub rel: Relationship,
    /// Capacity in bits per second (per direction).
    pub capacity_bps: f64,
}

impl Link {
    /// The other endpoint, given one of them.
    pub fn other(&self, side: AsId) -> AsId {
        if side == self.a {
            self.b
        } else {
            self.a
        }
    }

    /// Whether this link touches `asn`.
    pub fn touches(&self, asn: AsId) -> bool {
        self.a == asn || self.b == asn
    }
}

/// The AS-level topology: nodes, links, and originated prefixes.
#[derive(Debug, Default, Clone)]
pub struct Topology {
    ases: HashMap<AsId, AsInfo>,
    links: Vec<Link>,
    adjacency: HashMap<AsId, Vec<u32>>, // AsId -> indices into `links`
    rib: PrefixTrie<AsId>,              // prefix -> origin AS
    prefixes: HashMap<AsId, Vec<Ipv4Net>>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Topology {
        Topology::default()
    }

    /// Registers an AS. Panics on duplicate id (a scenario construction bug).
    pub fn add_as(&mut self, info: AsInfo) {
        let prev = self.ases.insert(info.id, info);
        assert!(prev.is_none(), "duplicate AS registered");
    }

    /// Adds a link and returns its id.
    pub fn add_link(&mut self, a: AsId, b: AsId, rel: Relationship, capacity_bps: f64) -> LinkId {
        assert!(self.ases.contains_key(&a) && self.ases.contains_key(&b), "unknown AS");
        let id = LinkId(self.links.len() as u32);
        let idx = self.links.len() as u32;
        self.links.push(Link { id, a, b, rel, capacity_bps });
        self.adjacency.entry(a).or_default().push(idx);
        self.adjacency.entry(b).or_default().push(idx);
        id
    }

    /// Pre-sizes the RIB's node storage for `prefix_count` upcoming
    /// [`Topology::announce`] calls, so a bulk build performs one trie
    /// allocation instead of growing node by node. Pair with
    /// [`Topology::compact_rib`] once announcements are done.
    pub fn reserve_routes(&mut self, prefix_count: usize) {
        self.rib.reserve(prefix_count);
    }

    /// Releases the slack left by [`Topology::reserve_routes`]'s
    /// worst-case bound after the build phase.
    pub fn compact_rib(&mut self) {
        self.rib.shrink_to_fit();
    }

    /// Compiles the current RIB into an immutable [`FlatLpm`] for
    /// binary-search longest-prefix lookups on hot paths (per-flow
    /// routing, per-address classification). The table is a snapshot:
    /// recompile after any announce.
    pub fn compiled_rib(&self) -> FlatLpm<AsId> {
        self.rib.compile()
    }

    /// Announces `prefix` as originated by `origin` (installs it in the RIB).
    pub fn announce(&mut self, origin: AsId, prefix: Ipv4Net) {
        assert!(self.ases.contains_key(&origin), "unknown AS");
        self.rib.insert(prefix, origin);
        self.prefixes.entry(origin).or_default().push(prefix);
    }

    /// The origin AS of `ip` per longest-prefix match, if any.
    pub fn origin_of(&self, ip: Ipv4Addr) -> Option<AsId> {
        self.rib.lookup(ip).map(|(_, asn)| *asn)
    }

    /// AS metadata.
    pub fn as_info(&self, id: AsId) -> Option<&AsInfo> {
        self.ases.get(&id)
    }

    /// All registered ASes.
    pub fn ases(&self) -> impl Iterator<Item = &AsInfo> {
        self.ases.values()
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Link by id.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// Links incident to `asn`.
    pub fn links_of(&self, asn: AsId) -> impl Iterator<Item = &Link> {
        self.adjacency.get(&asn).into_iter().flatten().map(move |&i| &self.links[i as usize])
    }

    /// Links between a specific AS pair (there may be several — AS D has
    /// four to the Eyeball ISP in the reproduction scenario).
    pub fn links_between(&self, x: AsId, y: AsId) -> Vec<&Link> {
        self.links_of(x).filter(|l| l.touches(y)).collect()
    }

    /// Neighbors of `asn` with the directed relationship of stepping from
    /// `asn` onto each link ([`DirectedRel::Up`] means the neighbor is
    /// `asn`'s provider).
    pub fn neighbors(&self, asn: AsId) -> Vec<(AsId, DirectedRel)> {
        self.links_of(asn).map(|l| (l.other(asn), self.directed_rel(l, asn))).collect()
    }

    /// Prefixes originated by `asn`.
    pub fn prefixes_of(&self, asn: AsId) -> &[Ipv4Net] {
        self.prefixes.get(&asn).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Directed relationship of a link traversal, used by the routing layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectedRel {
    /// Moving from a customer up to its provider.
    Up,
    /// Crossing a peering link.
    Peer,
    /// Moving from a provider down to its customer.
    Down,
}

impl Topology {
    /// The directed relationship when traversing `link` from `from`.
    pub fn directed_rel(&self, link: &Link, from: AsId) -> DirectedRel {
        match link.rel {
            Relationship::PeerToPeer => DirectedRel::Peer,
            Relationship::CustomerToProvider => {
                if link.a == from {
                    DirectedRel::Up
                } else {
                    DirectedRel::Down
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coord() -> Coord {
        Coord::new(50.0, 8.0)
    }

    fn base() -> Topology {
        let mut t = Topology::new();
        for (id, name, kind) in [
            (1, "Eyeball", AsKind::Eyeball),
            (2, "TransitA", AsKind::Transit),
            (3, "CdnX", AsKind::Cdn),
        ] {
            t.add_as(AsInfo { id: AsId(id), name: name.into(), kind, location: coord() });
        }
        t
    }

    #[test]
    fn origin_lookup_prefers_longest_prefix() {
        let mut t = base();
        t.announce(AsId(3), Ipv4Net::parse("23.0.0.0/12").unwrap());
        t.announce(AsId(2), Ipv4Net::parse("23.1.0.0/16").unwrap());
        assert_eq!(t.origin_of("23.1.2.3".parse().unwrap()), Some(AsId(2)));
        assert_eq!(t.origin_of("23.2.2.3".parse().unwrap()), Some(AsId(3)));
        assert_eq!(t.origin_of("9.9.9.9".parse().unwrap()), None);
        assert_eq!(t.compiled_rib().len(), 2);
    }

    #[test]
    fn multiple_links_between_pair() {
        let mut t = base();
        let l1 = t.add_link(AsId(1), AsId(2), Relationship::PeerToPeer, 10e9);
        let l2 = t.add_link(AsId(1), AsId(2), Relationship::PeerToPeer, 10e9);
        assert_ne!(l1, l2);
        assert_eq!(t.links_between(AsId(1), AsId(2)).len(), 2);
        assert_eq!(t.links_between(AsId(1), AsId(3)).len(), 0);
    }

    #[test]
    fn directed_relationship() {
        let mut t = base();
        // AS1 is a customer of AS2.
        let l = t.add_link(AsId(1), AsId(2), Relationship::CustomerToProvider, 10e9);
        let link = t.link(l).clone();
        assert_eq!(t.directed_rel(&link, AsId(1)), DirectedRel::Up);
        assert_eq!(t.directed_rel(&link, AsId(2)), DirectedRel::Down);
        let lp = t.add_link(AsId(2), AsId(3), Relationship::PeerToPeer, 10e9);
        let link = t.link(lp).clone();
        assert_eq!(t.directed_rel(&link, AsId(2)), DirectedRel::Peer);
    }

    #[test]
    fn link_other_endpoint() {
        let mut t = base();
        let l = t.add_link(AsId(1), AsId(2), Relationship::PeerToPeer, 1e9);
        let link = t.link(l);
        assert_eq!(link.other(AsId(1)), AsId(2));
        assert_eq!(link.other(AsId(2)), AsId(1));
        assert!(link.touches(AsId(1)) && link.touches(AsId(2)) && !link.touches(AsId(3)));
    }

    #[test]
    #[should_panic(expected = "duplicate AS")]
    fn duplicate_as_panics() {
        let mut t = base();
        t.add_as(AsInfo { id: AsId(1), name: "dup".into(), kind: AsKind::Transit, location: coord() });
    }

    #[test]
    fn compiled_rib_matches_live_rib() {
        let mut t = base();
        t.reserve_routes(3);
        t.announce(AsId(3), Ipv4Net::parse("23.0.0.0/12").unwrap());
        t.announce(AsId(2), Ipv4Net::parse("23.1.0.0/16").unwrap());
        t.announce(AsId(1), Ipv4Net::parse("84.17.0.0/16").unwrap());
        t.compact_rib();
        let flat = t.compiled_rib();
        for p in ["23.1.2.3", "23.2.2.3", "84.17.9.9", "9.9.9.9"] {
            let ip: Ipv4Addr = p.parse().unwrap();
            assert_eq!(flat.lookup(ip).map(|(_, a)| a), t.origin_of(ip), "{p}");
        }
    }

    #[test]
    fn prefixes_of_lists_announcements() {
        let mut t = base();
        let p = Ipv4Net::parse("17.0.0.0/8").unwrap();
        t.announce(AsId(3), p);
        assert_eq!(t.prefixes_of(AsId(3)), &[p]);
        assert!(t.prefixes_of(AsId(1)).is_empty());
    }
}
