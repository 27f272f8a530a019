//! CDN classification of observed addresses — the figure-legend classes.
//!
//! The paper's method (§4): an address is attributed to a CDN by *which DNS
//! name produced it* in the mapping (Apple GSLB, Akamai map, Limelight
//! handover), then split into "other AS" sub-classes by checking whether its
//! BGP origin matches the CDN's own AS. "Cache IPs that are used by Akamai
//! or Limelight but not located within their respective autonomous systems
//! are denoted as 'other AS'."

use mcdn_dnssim::{IRData, ITrace};
use mcdn_intern::{NameId, NameTable};
use mcdn_netsim::{AsId, Topology};
use std::net::Ipv4Addr;

/// The six legend classes of Figures 4 and 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CdnClass {
    /// Akamai addresses inside Akamai's AS.
    Akamai,
    /// Akamai-attributed addresses in other ASes.
    AkamaiOtherAs,
    /// Limelight addresses inside Limelight's AS.
    Limelight,
    /// Limelight-attributed addresses in other ASes.
    LimelightOtherAs,
    /// Apple's own CDN.
    Apple,
    /// Anything else (e.g. the dedicated China/India pools, Level3).
    Other,
}

impl CdnClass {
    /// All classes in legend order.
    pub const ALL: [CdnClass; 6] = [
        CdnClass::Akamai,
        CdnClass::AkamaiOtherAs,
        CdnClass::Limelight,
        CdnClass::LimelightOtherAs,
        CdnClass::Apple,
        CdnClass::Other,
    ];

    /// Legend label as printed in the paper.
    pub fn label(&self) -> &'static str {
        match self {
            CdnClass::Akamai => "Akamai",
            CdnClass::AkamaiOtherAs => "Akamai other AS",
            CdnClass::Limelight => "Limelight",
            CdnClass::LimelightOtherAs => "Limelight other AS",
            CdnClass::Apple => "Apple",
            CdnClass::Other => "other",
        }
    }

    /// The coarse CDN (merging the "other AS" split), for traffic figures.
    pub fn cdn(&self) -> CdnClass {
        match self {
            CdnClass::AkamaiOtherAs => CdnClass::Akamai,
            CdnClass::LimelightOtherAs => CdnClass::Limelight,
            other => *other,
        }
    }
}

impl core::fmt::Display for CdnClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which CDN a resolution trace went through, judged from the DNS names in
/// its CNAME chain (the paper's attribution signal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnsAttribution {
    /// Terminated at Apple's GSLB.
    Apple,
    /// Went through an `akamai.net` map.
    Akamai,
    /// Went through a Limelight handover name.
    Limelight,
    /// Anything else (China/India pools, Level3, unknown).
    Other,
}

impl DnsAttribution {
    /// All attributions in declaration order.
    pub const ALL: [DnsAttribution; 4] = [
        DnsAttribution::Apple,
        DnsAttribution::Akamai,
        DnsAttribution::Limelight,
        DnsAttribution::Other,
    ];
}

/// The CDN family a name itself names, judged from its display form:
/// `gslb.applimg.com` is Apple's GSLB, `akamai.net` an Akamai map,
/// `llnwi.net` / `llnwd.net` a Limelight handover.
fn family_of(name: &mcdn_dnswire::Name) -> Option<DnsAttribution> {
    let s = name.to_string();
    if s.ends_with("gslb.applimg.com") {
        Some(DnsAttribution::Apple)
    } else if s.ends_with("akamai.net") {
        Some(DnsAttribution::Akamai)
    } else if s.ends_with("llnwi.net") || s.ends_with("llnwd.net") {
        Some(DnsAttribution::Limelight)
    } else {
        None
    }
}

/// Per-[`NameId`] CDN families, precomputed once per campaign so the
/// per-trace scan does no string formatting or matching at all.
#[derive(Debug, Clone)]
pub struct AttributionTable {
    families: Vec<Option<DnsAttribution>>,
}

impl AttributionTable {
    /// Precomputes the CDN family of every interned name.
    pub fn build(table: &NameTable) -> AttributionTable {
        AttributionTable { families: table.iter().map(|(_, name)| family_of(name)).collect() }
    }

    fn family(&self, id: NameId) -> Option<DnsAttribution> {
        self.families[id.index()]
    }
}

/// Attributes a trace to a CDN from the names it visited: the last CDN
/// family named in the sequence of step qnames followed by CNAME
/// targets, scanned from its end. Consults precomputed families instead
/// of rendered strings.
pub fn attribute_interned(trace: &ITrace, attr: &AttributionTable) -> DnsAttribution {
    // The combined list is [qnames..., cname targets...]; reversed, the
    // targets come first (last step's last record first), then the
    // qnames (last step first).
    for step in trace.steps().iter().rev() {
        for record in trace.records_of(step).iter().rev() {
            if let IRData::Cname(target) = record.rdata {
                if let Some(found) = attr.family(target) {
                    return found;
                }
            }
        }
    }
    for step in trace.steps().iter().rev() {
        if let Some(found) = attr.family(step.qname) {
            return found;
        }
    }
    DnsAttribution::Other
}

/// Final classification of one answered address: DNS attribution refined by
/// BGP origin.
pub fn classify_ip(
    attribution: DnsAttribution,
    ip: Ipv4Addr,
    topo: &Topology,
    akamai_as: AsId,
    limelight_as: AsId,
    apple_as: AsId,
) -> CdnClass {
    classify_ip_from_origin(attribution, topo.origin_of(ip), akamai_as, limelight_as, apple_as)
}

/// [`classify_ip`] with the BGP origin already looked up — the form the
/// campaign engine uses with a compiled
/// [`FlatLpm`](mcdn_netsim::FlatLpm) RIB instead of the live trie.
pub fn classify_ip_from_origin(
    attribution: DnsAttribution,
    origin: Option<AsId>,
    akamai_as: AsId,
    limelight_as: AsId,
    apple_as: AsId,
) -> CdnClass {
    match attribution {
        DnsAttribution::Apple => {
            if origin == Some(apple_as) {
                CdnClass::Apple
            } else {
                CdnClass::Other
            }
        }
        DnsAttribution::Akamai => {
            if origin == Some(akamai_as) {
                CdnClass::Akamai
            } else {
                CdnClass::AkamaiOtherAs
            }
        }
        DnsAttribution::Limelight => {
            if origin == Some(limelight_as) {
                CdnClass::Limelight
            } else {
                CdnClass::LimelightOtherAs
            }
        }
        DnsAttribution::Other => CdnClass::Other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdn_dnssim::{
        CompiledNamespace, InternedResolver, Namespace, NoInternedFaults, QueryContext,
        ResolveScratch, Zone,
    };
    use mcdn_dnswire::{Name, RData, RecordType, ResourceRecord};
    use mcdn_geo::{Continent, Coord, Locode, SimTime};

    /// Resolves a namespace holding exactly the CNAME hops `chain` from
    /// its first owner and attributes the resulting trace.
    fn attribute_chain(chain: &[(&str, &str)]) -> DnsAttribution {
        let mut com = Zone::new(Name::parse("com").unwrap());
        let mut net = Zone::new(Name::parse("net").unwrap());
        for (from, to) in chain {
            let zone = if from.ends_with(".com") { &mut com } else { &mut net };
            let target = RData::Cname(Name::parse(to).unwrap());
            zone.add(ResourceRecord::new(Name::parse(from).unwrap(), 60, target));
        }
        let mut ns = Namespace::new();
        ns.add_zone(com);
        ns.add_zone(net);
        let cns = CompiledNamespace::compile(&ns);
        let attr = AttributionTable::build(cns.table());
        let mut scratch = ResolveScratch::new();
        let entry = cns.table().get(&Name::parse(chain[0].0).unwrap()).unwrap();
        let ctx = QueryContext {
            client_ip: Ipv4Addr::new(198, 51, 100, 1),
            locode: Locode::parse("defra").unwrap(),
            coord: Coord::new(50.1, 8.7),
            continent: Continent::Europe,
            now: SimTime::from_ymd(2017, 9, 19),
        };
        // The chain's last target has no records (NXDOMAIN); the trace
        // still holds every hop.
        let _ = InternedResolver::new().resolve(
            &cns,
            &mut scratch,
            entry,
            RecordType::A,
            &ctx,
            &NoInternedFaults,
            0,
            None,
        );
        attribute_interned(scratch.trace(), &attr)
    }

    #[test]
    fn attribution_from_terminal_names() {
        let apple = attribute_chain(&[
            ("appldnld.apple.com", "appldnld.g.applimg.com"),
            ("appldnld.g.applimg.com", "a.gslb.applimg.com"),
        ]);
        assert_eq!(apple, DnsAttribution::Apple);

        let akamai = attribute_chain(&[
            ("appldnld.apple.com", "appldnld2.apple.com.edgesuite.net"),
            ("appldnld2.apple.com.edgesuite.net", "a1271.gi3.akamai.net"),
        ]);
        assert_eq!(akamai, DnsAttribution::Akamai);

        let ll = attribute_chain(&[("ios8-eu-lb.apple.com.akadns.net", "apple.vo.llnwi.net")]);
        assert_eq!(ll, DnsAttribution::Limelight);

        let other = attribute_chain(&[("x.example.com", "y.example.net")]);
        assert_eq!(other, DnsAttribution::Other);
    }

    #[test]
    fn classes_have_unique_labels_and_coarse_merge() {
        let mut labels = std::collections::HashSet::new();
        for c in CdnClass::ALL {
            assert!(labels.insert(c.label()));
        }
        assert_eq!(CdnClass::AkamaiOtherAs.cdn(), CdnClass::Akamai);
        assert_eq!(CdnClass::LimelightOtherAs.cdn(), CdnClass::Limelight);
        assert_eq!(CdnClass::Apple.cdn(), CdnClass::Apple);
    }
}
