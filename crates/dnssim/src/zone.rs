//! Authoritative zones with static records and dynamic mapping policies.

use crate::context::QueryContext;
use mcdn_dnswire::{Name, RData, RecordType, ResourceRecord};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// What a [`MappingPolicy`] decided for one query — a `Copy` value, not
/// records. Every record it stands for is owned by the queried name; the
/// zone ([`Zone::answer`], read by the wire server) and the compiled
/// namespace (the resolver) each build their own record form from it, so
/// one policy logic serves both readers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyAnswer {
    /// No records: a NODATA answer (the observed behaviour of Apple's
    /// mapping for AAAA queries).
    Empty,
    /// One CNAME to a target the policy declared when it was registered.
    Cname {
        /// Index into the policy's declared targets.
        target: u16,
        /// Record TTL, seconds.
        ttl: u32,
    },
    /// One A record per address the policy appended to the caller's
    /// buffer (none appended: an empty answer).
    A {
        /// TTL of every record, seconds.
        ttl: u32,
    },
}

/// A dynamic record source attached to a name in a zone.
///
/// This is the extension point through which the Meta-CDN is built: the CDN
/// selector at `appldnld.g.applimg.com`, the geo split at
/// `appldnld.apple.com.akadns.net`, and the GSLBs at
/// `{a|b}.gslb.applimg.com` are all `MappingPolicy` implementations
/// registered by the `metacdn` crate.
///
/// The contract: a policy names CNAME targets only by index into the list
/// declared at registration ([`Zone::set_policy`]), and writes A-record
/// addresses into the caller-owned `addrs` buffer, which arrives empty. It
/// never builds a [`Name`] or a record per query.
pub trait MappingPolicy: Send + Sync {
    /// Decides the answer for `qtype` under `ctx`.
    fn respond(
        &self,
        qtype: RecordType,
        ctx: &QueryContext,
        addrs: &mut Vec<Ipv4Addr>,
    ) -> PolicyAnswer;
}

impl<F> MappingPolicy for F
where
    F: Fn(RecordType, &QueryContext, &mut Vec<Ipv4Addr>) -> PolicyAnswer + Send + Sync,
{
    fn respond(
        &self,
        qtype: RecordType,
        ctx: &QueryContext,
        addrs: &mut Vec<Ipv4Addr>,
    ) -> PolicyAnswer {
        self(qtype, ctx, addrs)
    }
}

/// A registered policy: the hook, its declared CNAME targets, and the
/// declared scope of its answers.
struct PolicyEntry {
    policy: Arc<dyn MappingPolicy>,
    targets: Vec<Name>,
    scope: PolicyScope,
}

/// How much of the [`QueryContext`] a name's answer actually depends on —
/// the contract that makes per-round answer memoization sound.
///
/// Static records depend on nothing and are implicitly
/// [`Global`](PolicyScope::Global). Dynamic policies default to the conservative
/// [`Client`](PolicyScope::Client) (never memoized); a policy registered
/// through [`Zone::set_policy_scoped`] *declares* a broader scope, promising
/// that two queries agreeing on the scope's inputs (and on `now`, which is
/// fixed within a round) receive identical records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyScope {
    /// The answer is the same for every client (static records, fixed
    /// CNAMEs, the China/India divert targets).
    Global,
    /// The answer depends only on the client's city (`ctx.locode`), not on
    /// its address — e.g. the Akamai geo split.
    City,
    /// The answer may depend on the full context, including `client_ip`
    /// (selectors, GSLBs, load-balancer rotations). Never memoized.
    Client,
}

/// Key for the static record map: owner name + record type wire value.
type RecordKey = (Name, u16);

/// One authoritative zone.
pub struct Zone {
    origin: Name,
    records: HashMap<RecordKey, Vec<ResourceRecord>>,
    names: HashMap<Name, ()>,
    policies: HashMap<Name, PolicyEntry>,
}

impl std::fmt::Debug for Zone {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Zone")
            .field("origin", &self.origin)
            .field("static_records", &self.records.values().map(Vec::len).sum::<usize>())
            .field("policies", &self.policies.len())
            .finish()
    }
}

impl Zone {
    /// An empty zone rooted at `origin`.
    pub fn new(origin: Name) -> Zone {
        Zone { origin, records: HashMap::new(), names: HashMap::new(), policies: HashMap::new() }
    }

    /// The zone origin.
    pub fn origin(&self) -> &Name {
        &self.origin
    }

    /// Adds a static record. The owner must lie within the zone.
    pub fn add(&mut self, rr: ResourceRecord) {
        assert!(rr.name.is_within(&self.origin), "{} outside zone {}", rr.name, self.origin);
        self.names.insert(rr.name.clone(), ());
        self.records.entry((rr.name.clone(), rr.rtype().to_u16())).or_default().push(rr);
    }

    /// Convenience: adds a static A record.
    pub fn add_a(&mut self, owner: &str, addr: std::net::Ipv4Addr, ttl: u32) {
        let owner = Name::parse(owner).expect("valid owner name");
        self.add(ResourceRecord::new(owner, ttl, RData::A(addr)));
    }

    /// Attaches a dynamic policy at `owner` (replacing any previous one).
    /// `targets` are the CNAME targets the policy may answer with, which
    /// its [`PolicyAnswer::Cname`] decisions index. The policy gets the
    /// conservative [`PolicyScope::Client`] scope.
    pub fn set_policy(&mut self, owner: Name, targets: Vec<Name>, policy: Arc<dyn MappingPolicy>) {
        self.set_policy_scoped(owner, targets, policy, PolicyScope::Client);
    }

    /// Attaches a dynamic policy at `owner` declaring how much of the
    /// query context its answers depend on (see [`PolicyScope`]). Declaring
    /// anything broader than `Client` is a promise the caller must keep:
    /// the per-round memo will replay one client's answer to another.
    pub fn set_policy_scoped(
        &mut self,
        owner: Name,
        targets: Vec<Name>,
        policy: Arc<dyn MappingPolicy>,
        scope: PolicyScope,
    ) {
        assert!(owner.is_within(&self.origin), "{} outside zone {}", owner, self.origin);
        self.names.insert(owner.clone(), ());
        self.policies.insert(owner, PolicyEntry { policy, targets, scope });
    }

    /// The declared scope of answers at `qname`: the policy's declared
    /// scope if a policy is attached, otherwise [`PolicyScope::Global`]
    /// (static records and existence facts depend on no context).
    pub fn scope_of(&self, qname: &Name) -> PolicyScope {
        self.policies.get(qname).map_or(PolicyScope::Global, |p| p.scope)
    }

    /// Whether any record or policy exists at `name` (for NXDOMAIN vs NODATA).
    fn name_exists(&self, name: &Name) -> bool {
        self.names.contains_key(name)
    }

    /// Public form of the existence check, for snapshot compilers that
    /// replicate the zone's NXDOMAIN/NODATA split outside this module.
    pub fn contains_name(&self, name: &Name) -> bool {
        self.name_exists(name)
    }

    /// Iterates the static record sets as `(owner, wire qtype, records)`.
    /// Iteration order is unspecified (callers that need determinism sort
    /// by the key, as [`Zone::static_records`] does).
    pub fn record_sets(&self) -> impl Iterator<Item = (&Name, u16, &[ResourceRecord])> {
        self.records.iter().map(|((name, qtype), rrs)| (name, *qtype, rrs.as_slice()))
    }

    /// Iterates `(owner, policy, declared CNAME targets)` for every dynamic
    /// mapping policy, in unspecified order.
    pub fn policy_entries(&self) -> impl Iterator<Item = (&Name, &dyn MappingPolicy, &[Name])> {
        self.policies.iter().map(|(owner, p)| (owner, &*p.policy, p.targets.as_slice()))
    }

    /// All static records, in deterministic (name, type) order.
    pub fn static_records(&self) -> Vec<&ResourceRecord> {
        let mut keys: Vec<&RecordKey> = self.records.keys().collect();
        keys.sort();
        keys.iter().flat_map(|k| self.records[k].iter()).collect()
    }

    /// Names carrying dynamic policies, sorted.
    pub fn policy_names(&self) -> Vec<&Name> {
        let mut names: Vec<&Name> = self.policies.keys().collect();
        names.sort();
        names
    }

    /// Renders a zone-file-style listing: static records in master-file
    /// syntax, dynamic mapping policies as annotated comments (they have no
    /// static representation — which is rather the point of a Meta-CDN).
    pub fn to_zonefile(&self) -> String {
        let mut out = String::new();
        self.write_zonefile(&mut out).expect("fmt::Write to String cannot fail");
        out
    }

    /// Streams the zone-file listing into `out`. Each record renders
    /// directly through the writer, so callers with a reusable buffer pay
    /// no intermediate per-line allocations.
    pub fn write_zonefile<W: core::fmt::Write>(&self, out: &mut W) -> core::fmt::Result {
        writeln!(out, "$ORIGIN {}.", self.origin)?;
        for rr in self.static_records() {
            writeln!(out, "{rr}")?;
        }
        for name in self.policy_names() {
            writeln!(out, "; {name} -> [dynamic mapping policy]")?;
        }
        Ok(())
    }

    /// Answers a question this zone is authoritative for.
    pub fn answer(&self, qname: &Name, qtype: RecordType, ctx: &QueryContext) -> ZoneAnswer {
        // Dynamic policy takes precedence: it is the zone's mapping function.
        if let Some(p) = self.policies.get(qname) {
            let mut addrs = Vec::new();
            let records = match p.policy.respond(qtype, ctx, &mut addrs) {
                PolicyAnswer::Empty => Vec::new(),
                PolicyAnswer::Cname { target, ttl } => vec![ResourceRecord::new(
                    qname.clone(),
                    ttl,
                    RData::Cname(p.targets[usize::from(target)].clone()),
                )],
                PolicyAnswer::A { ttl } => addrs
                    .into_iter()
                    .map(|a| ResourceRecord::new(qname.clone(), ttl, RData::A(a)))
                    .collect(),
            };
            return ZoneAnswer::Records(records);
        }
        if let Some(rrs) = self.records.get(&(qname.clone(), qtype.to_u16())) {
            return ZoneAnswer::Records(rrs.clone());
        }
        // CNAME applies to every type except itself.
        if qtype != RecordType::Cname {
            if let Some(cnames) = self.records.get(&(qname.clone(), RecordType::Cname.to_u16())) {
                return ZoneAnswer::Records(cnames.clone());
            }
        }
        if self.name_exists(qname) {
            ZoneAnswer::NoData
        } else {
            ZoneAnswer::NxDomain
        }
    }
}

/// Outcome of asking a zone one question.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneAnswer {
    /// Records to return (possibly a CNAME redirect; possibly empty, which
    /// callers should treat as NODATA).
    Records(Vec<ResourceRecord>),
    /// The name exists but has no records of the asked type.
    NoData,
    /// The name does not exist in the zone.
    NxDomain,
}

/// The collection of all authoritative zones in the simulated Internet.
#[derive(Debug, Default)]
pub struct Namespace {
    zones: Vec<Zone>,
}

impl Namespace {
    /// An empty namespace.
    pub fn new() -> Namespace {
        Namespace::default()
    }

    /// Installs a zone.
    pub fn add_zone(&mut self, zone: Zone) {
        self.zones.push(zone);
    }

    /// The most specific zone containing `name`, mirroring DNS delegation.
    pub fn authority_for(&self, name: &Name) -> Option<&Zone> {
        self.zones
            .iter()
            .filter(|z| name.is_within(z.origin()))
            .max_by_key(|z| z.origin().label_count())
    }

    /// Answers `qname`/`qtype`, also reporting which zone answered.
    pub fn query(
        &self,
        qname: &Name,
        qtype: RecordType,
        ctx: &QueryContext,
    ) -> (ZoneAnswer, Option<&Name>) {
        match self.authority_for(qname) {
            Some(zone) => (zone.answer(qname, qtype, ctx), Some(zone.origin())),
            None => (ZoneAnswer::NxDomain, None),
        }
    }

    /// The installed zones, in installation order (the order
    /// [`Namespace::authority_for`] breaks label-count ties in).
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }
}

#[cfg(test)]
impl Zone {
    /// Adds a static CNAME (the crate's tests build their chains with it).
    pub(crate) fn add_cname(&mut self, owner: &str, target: &str, ttl: u32) {
        let owner = Name::parse(owner).expect("valid owner name");
        let target = Name::parse(target).expect("valid target name");
        self.add(ResourceRecord::new(owner, ttl, RData::Cname(target)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdn_geo::{Continent, Coord, Locode, SimTime};
    use std::net::Ipv4Addr;

    fn ctx() -> QueryContext {
        QueryContext {
            client_ip: Ipv4Addr::new(198, 51, 100, 7),
            locode: Locode::parse("defra").unwrap(),
            coord: Coord::new(50.1, 8.7),
            continent: Continent::Europe,
            now: SimTime::from_ymd(2017, 9, 15),
        }
    }

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn static_records_and_nodata_nxdomain() {
        let mut z = Zone::new(n("apple.com"));
        z.add_cname("appldnld.apple.com", "appldnld.apple.com.akadns.net", 21600);
        // A query hits the CNAME.
        match z.answer(&n("appldnld.apple.com"), RecordType::A, &ctx()) {
            ZoneAnswer::Records(rrs) => {
                assert_eq!(rrs.len(), 1);
                assert_eq!(rrs[0].ttl, 21600);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The name exists, so an unsupported type at it that has a CNAME
        // still follows the CNAME; a name without records is NXDOMAIN.
        assert_eq!(z.answer(&n("nothere.apple.com"), RecordType::A, &ctx()), ZoneAnswer::NxDomain);
    }

    #[test]
    fn nodata_for_typed_miss_without_cname() {
        let mut z = Zone::new(n("apple.com"));
        z.add_a("mesu.apple.com", Ipv4Addr::new(17, 1, 1, 1), 300);
        assert_eq!(z.answer(&n("mesu.apple.com"), RecordType::Txt, &ctx()), ZoneAnswer::NoData);
    }

    #[test]
    fn cname_query_returns_cname_itself() {
        let mut z = Zone::new(n("apple.com"));
        z.add_cname("appldnld.apple.com", "x.akadns.net", 100);
        match z.answer(&n("appldnld.apple.com"), RecordType::Cname, &ctx()) {
            ZoneAnswer::Records(rrs) => assert_eq!(rrs[0].rtype(), RecordType::Cname),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "outside zone")]
    fn record_outside_zone_rejected() {
        let mut z = Zone::new(n("apple.com"));
        z.add_cname("example.org", "x.akadns.net", 100);
    }

    #[test]
    fn policy_overrides_statics_and_sees_context() {
        let mut z = Zone::new(n("applimg.com"));
        z.add_a("appldnld.g.applimg.com", Ipv4Addr::new(9, 9, 9, 9), 15);
        z.set_policy(
            n("appldnld.g.applimg.com"),
            vec![n("a.gslb.applimg.com"), n("b.gslb.applimg.com")],
            Arc::new(|qtype: RecordType, ctx: &QueryContext, _: &mut Vec<Ipv4Addr>| {
                if qtype != RecordType::A {
                    return PolicyAnswer::Empty; // IPv4-only mapping, like the paper observed
                }
                let target = match ctx.continent {
                    Continent::Europe => 0,
                    _ => 1,
                };
                PolicyAnswer::Cname { target, ttl: 15 }
            }),
        );
        match z.answer(&n("appldnld.g.applimg.com"), RecordType::A, &ctx()) {
            ZoneAnswer::Records(rrs) => {
                assert_eq!(
                    rrs,
                    vec![ResourceRecord::new(
                        n("appldnld.g.applimg.com"),
                        15,
                        RData::Cname(n("a.gslb.applimg.com"))
                    )]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        // AAAA yields an empty (NODATA-like) answer through the policy.
        match z.answer(&n("appldnld.g.applimg.com"), RecordType::Aaaa, &ctx()) {
            ZoneAnswer::Records(rrs) => assert!(rrs.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_decision_becomes_records_owned_by_the_queried_name() {
        let mut z = Zone::new(n("applimg.com"));
        z.set_policy(
            n("a.gslb.applimg.com"),
            Vec::new(),
            Arc::new(|_: RecordType, _: &QueryContext, addrs: &mut Vec<Ipv4Addr>| {
                addrs.extend([Ipv4Addr::new(17, 253, 1, 1), Ipv4Addr::new(17, 253, 1, 2)]);
                PolicyAnswer::A { ttl: 20 }
            }),
        );
        let want: Vec<_> = [Ipv4Addr::new(17, 253, 1, 1), Ipv4Addr::new(17, 253, 1, 2)]
            .into_iter()
            .map(|a| ResourceRecord::new(n("a.gslb.applimg.com"), 20, RData::A(a)))
            .collect();
        assert_eq!(
            z.answer(&n("a.gslb.applimg.com"), RecordType::A, &ctx()),
            ZoneAnswer::Records(want)
        );
    }

    #[test]
    fn namespace_picks_most_specific_zone() {
        let mut ns = Namespace::new();
        ns.add_zone(Zone::new(n("apple.com")));
        let mut akadns = Zone::new(n("apple.com.akadns.net"));
        akadns.add_cname("appldnld.apple.com.akadns.net", "appldnld.g.applimg.com", 120);
        ns.add_zone(akadns);
        let (ans, origin) = ns.query(&n("appldnld.apple.com.akadns.net"), RecordType::A, &ctx());
        assert_eq!(origin, Some(&n("apple.com.akadns.net")));
        assert!(matches!(ans, ZoneAnswer::Records(_)));
        // Unknown TLD → NXDOMAIN with no zone.
        let (ans, origin) = ns.query(&n("nowhere.invalid"), RecordType::A, &ctx());
        assert_eq!(ans, ZoneAnswer::NxDomain);
        assert_eq!(origin, None);
    }
}

#[cfg(test)]
mod zonefile_tests {
    use super::*;
    use mcdn_dnswire::Name;
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    #[test]
    fn zonefile_lists_statics_and_policies() {
        let mut z = Zone::new(Name::parse("applimg.com").unwrap());
        z.add_a("a.gslb.applimg.com", Ipv4Addr::new(17, 253, 1, 1), 20);
        z.add_cname("alias.applimg.com", "a.gslb.applimg.com", 60);
        z.set_policy(
            Name::parse("appldnld.g.applimg.com").unwrap(),
            Vec::new(),
            Arc::new(|_: mcdn_dnswire::RecordType, _: &QueryContext, _: &mut Vec<Ipv4Addr>| {
                PolicyAnswer::Empty
            }),
        );
        let text = z.to_zonefile();
        assert!(text.starts_with("$ORIGIN applimg.com.\n"));
        assert!(text.contains("a.gslb.applimg.com 20 IN A 17.253.1.1"));
        assert!(text.contains("alias.applimg.com 60 IN CNAME a.gslb.applimg.com"));
        assert!(text.contains("; appldnld.g.applimg.com -> [dynamic mapping policy]"));
    }

    #[test]
    fn write_zonefile_reuses_caller_buffer() {
        let mut z = Zone::new(Name::parse("applimg.com").unwrap());
        z.add_a("a.gslb.applimg.com", Ipv4Addr::new(17, 253, 1, 1), 20);
        let mut buf = String::with_capacity(256);
        z.write_zonefile(&mut buf).unwrap();
        assert_eq!(buf, z.to_zonefile());
        // A second render into the same buffer appends after the first —
        // the writer owns placement, the zone never allocates a String.
        let first_len = buf.len();
        z.write_zonefile(&mut buf).unwrap();
        assert_eq!(buf.len(), 2 * first_len);
    }

    #[test]
    fn rendering_is_deterministic() {
        let build = || {
            let mut z = Zone::new(Name::parse("x.test").unwrap());
            for i in 0..20u8 {
                z.add_a(&format!("h{i}.x.test"), Ipv4Addr::new(10, 0, 0, i), 60);
            }
            z.to_zonefile()
        };
        assert_eq!(build(), build());
    }
}
