//! Resolution traces: the name-spelled record of one resolution.
//!
//! [`InternedResolver`](crate::InternedResolver) writes every step of a
//! resolution into an id-keyed [`ITrace`](crate::ITrace) arena;
//! [`CompiledNamespace::materialize_trace`](crate::CompiledNamespace::materialize_trace)
//! spells one out as the [`ResolutionTrace`] defined here — the form the
//! quickstart report, the Atlas JSON export and the tests read.

use mcdn_dnswire::{Name, RData, RecordType, ResourceRecord};
use std::net::Ipv4Addr;

/// Longest CNAME chain we will follow. The Apple mapping chain of Figure 2
/// has at most five edges; real resolvers commonly cap around 8–16.
pub const MAX_CHAIN: usize = 16;

/// One step of a resolution: a single question asked of one zone (or served
/// from cache).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStep {
    /// The name asked.
    pub qname: Name,
    /// The type asked.
    pub qtype: RecordType,
    /// Records received (empty = NODATA).
    pub records: Vec<ResourceRecord>,
    /// Whether this step was answered from the resolver cache.
    pub from_cache: bool,
    /// Origin of the answering zone (`None` if cached or NXDOMAIN'd at root).
    pub zone: Option<Name>,
}

/// The complete record of one recursive resolution.
///
/// The sequence of CNAME edges with their TTLs in `steps` is the measured
/// object behind Figure 2; [`ResolutionTrace::addresses`] are the cache IPs
/// counted in Figures 4 and 5.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResolutionTrace {
    /// Steps in order.
    pub steps: Vec<TraceStep>,
}

impl ResolutionTrace {
    /// All terminal A-record addresses.
    pub fn addresses(&self) -> Vec<Ipv4Addr> {
        let mut out = Vec::new();
        for step in &self.steps {
            for rr in &step.records {
                if let RData::A(a) = rr.rdata {
                    out.push(a);
                }
            }
        }
        out
    }

    /// The CNAME chain as `(owner, target, ttl)` edges, in resolution order.
    pub fn cname_edges(&self) -> Vec<(Name, Name, u32)> {
        let mut out = Vec::new();
        for step in &self.steps {
            for rr in &step.records {
                if let RData::Cname(target) = &rr.rdata {
                    out.push((rr.name.clone(), target.clone(), rr.ttl));
                }
            }
        }
        out
    }

}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::QueryContext;
    use crate::faults::UpstreamFault;
    use crate::interned::{
        CompiledNamespace, IResolutionError, IRoundMemo, InternedFaultModel, InternedResolver,
        NoInternedFaults, ResolveScratch,
    };
    use crate::mutation::{
        attacker_ns, attacker_owner, BailiwickPolicy, ITamper, InternedMutationModel,
        NoInternedMutations,
    };
    use crate::zone::{Namespace, Zone};
    use mcdn_geo::{Continent, Coord, Duration, Locode, SimTime};
    use mcdn_intern::NameId;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn ctx_at(now: SimTime) -> QueryContext {
        QueryContext {
            client_ip: Ipv4Addr::new(198, 51, 100, 1),
            locode: Locode::parse("defra").unwrap(),
            coord: Coord::new(50.1, 8.7),
            continent: Continent::Europe,
            now,
        }
    }

    /// A miniature three-zone chain mirroring the Apple mapping shape.
    fn namespace() -> Namespace {
        let mut ns = Namespace::new();
        let mut apple = Zone::new(n("apple.com"));
        apple.add_cname("appldnld.apple.com", "appldnld.apple.com.akadns.net", 21600);
        ns.add_zone(apple);
        let mut akadns = Zone::new(n("akadns.net"));
        akadns.add_cname("appldnld.apple.com.akadns.net", "appldnld.g.applimg.com", 120);
        ns.add_zone(akadns);
        let mut applimg = Zone::new(n("applimg.com"));
        applimg.add_cname("appldnld.g.applimg.com", "a.gslb.applimg.com", 15);
        applimg.add_a("a.gslb.applimg.com", Ipv4Addr::new(17, 253, 37, 16), 20);
        ns.add_zone(applimg);
        ns
    }

    /// One client's resolver over a compiled namespace: the cache lives
    /// as long as the probe, and every call returns the materialized trace.
    struct Probe<'c, 'n> {
        ns: &'c CompiledNamespace<'n>,
        scratch: ResolveScratch,
        resolver: InternedResolver,
    }

    impl<'c, 'n> Probe<'c, 'n> {
        fn new(ns: &'c CompiledNamespace<'n>) -> Probe<'c, 'n> {
            Probe { ns, scratch: ResolveScratch::new(), resolver: InternedResolver::new() }
        }

        fn id(&self, name: &str) -> NameId {
            self.ns.table().get(&n(name)).expect("name in the compiled table")
        }

        fn resolve(
            &mut self,
            qname: &str,
            qtype: RecordType,
            ctx: &QueryContext,
        ) -> (ResolutionTrace, Result<(), IResolutionError>) {
            self.resolve_adversarial(
                qname,
                qtype,
                ctx,
                &NoInternedFaults,
                &NoInternedMutations,
                BailiwickPolicy::Enforce,
                None,
            )
        }

        #[allow(clippy::too_many_arguments)] // mirrors InternedResolver::resolve_adversarial
        fn resolve_adversarial(
            &mut self,
            qname: &str,
            qtype: RecordType,
            ctx: &QueryContext,
            faults: &dyn InternedFaultModel,
            mutations: &dyn InternedMutationModel,
            bailiwick: BailiwickPolicy,
            memo: Option<&mut IRoundMemo>,
        ) -> (ResolutionTrace, Result<(), IResolutionError>) {
            let id = self.id(qname);
            let result = self.resolver.resolve_adversarial(
                self.ns,
                &mut self.scratch,
                id,
                qtype,
                ctx,
                faults,
                mutations,
                bailiwick,
                0,
                memo,
            );
            (self.ns.materialize_trace(self.scratch.trace()), result)
        }
    }

    #[test]
    fn follows_full_chain() {
        let ns = namespace();
        let cns = CompiledNamespace::compile(&ns);
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let (trace, res) =
            Probe::new(&cns).resolve("appldnld.apple.com", RecordType::A, &ctx_at(t0));
        res.unwrap();
        assert_eq!(trace.addresses(), vec![Ipv4Addr::new(17, 253, 37, 16)]);
        let edges = trace.cname_edges();
        assert_eq!(edges.len(), 3);
        assert_eq!(edges[0].2, 21600);
        assert_eq!(edges[1].2, 120);
        assert_eq!(edges[2].2, 15);
        assert_eq!(trace.steps.last().map(|s| &s.qname), Some(&n("a.gslb.applimg.com")));
        assert!(trace.steps.iter().all(|s| !s.from_cache));
    }

    #[test]
    fn second_resolution_hits_cache_selectively() {
        let ns = namespace();
        let cns = CompiledNamespace::compile(&ns);
        let mut p = Probe::new(&cns);
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let _ = p.resolve("appldnld.apple.com", RecordType::A, &ctx_at(t0));
        // 30 s later: entry (21600) and akadns (120) CNAMEs still cached;
        // the 15 s selector and the 20 s A record have expired.
        let (trace, res) =
            p.resolve("appldnld.apple.com", RecordType::A, &ctx_at(t0 + Duration::secs(30)));
        res.unwrap();
        let cached: Vec<bool> = trace.steps.iter().map(|s| s.from_cache).collect();
        assert_eq!(cached, vec![true, true, false, false]);
    }

    #[test]
    fn nxdomain_reported_with_trace() {
        let ns = namespace();
        let extra = [n("missing.apple.com"), n("www.example.org")];
        let cns = CompiledNamespace::compile_with_extra(&ns, &extra);
        let mut p = Probe::new(&cns);
        let t0 = SimTime::from_ymd(2017, 9, 15);
        // The zone authoritative for the name answers NXDOMAIN, and the
        // step records it.
        let (trace, res) = p.resolve("missing.apple.com", RecordType::A, &ctx_at(t0));
        assert_eq!(res, Err(IResolutionError::NxDomain(p.id("missing.apple.com"))));
        assert_eq!(trace.steps.len(), 1);
        assert_eq!(trace.steps[0].zone, Some(n("apple.com")));
        // No zone is authoritative for the name: NXDOMAIN at the root.
        let (trace, res) = p.resolve("www.example.org", RecordType::A, &ctx_at(t0));
        assert_eq!(res, Err(IResolutionError::NxDomain(p.id("www.example.org"))));
        assert_eq!(trace.steps.len(), 1);
        assert_eq!(trace.steps[0].zone, None);
    }

    #[test]
    fn chain_loop_detected() {
        let mut ns = Namespace::new();
        let mut z = Zone::new(n("loop.test"));
        z.add_cname("a.loop.test", "b.loop.test", 60);
        z.add_cname("b.loop.test", "a.loop.test", 60);
        ns.add_zone(z);
        let cns = CompiledNamespace::compile(&ns);
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let (_, res) = Probe::new(&cns).resolve("a.loop.test", RecordType::A, &ctx_at(t0));
        assert_eq!(res, Err(IResolutionError::ChainTooLong));
    }

    #[test]
    fn aaaa_returns_nodata_not_error() {
        let ns = namespace();
        let cns = CompiledNamespace::compile(&ns);
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let (trace, res) =
            Probe::new(&cns).resolve("appldnld.apple.com", RecordType::Aaaa, &ctx_at(t0));
        res.unwrap();
        // The chain is followed, but no AAAA exists at the end.
        assert!(trace.addresses().is_empty());
    }

    /// Faults every upstream query to one zone (cache hits unaffected).
    struct ZoneDown {
        origin: NameId,
        fault: UpstreamFault,
    }

    impl InternedFaultModel for ZoneDown {
        fn upstream_fault(
            &self,
            zone: NameId,
            _zone_fnv: u64,
            _qname: NameId,
            _qname_fnv: u64,
            _ctx: &QueryContext,
            _attempt: u32,
        ) -> Option<UpstreamFault> {
            (zone == self.origin).then_some(self.fault)
        }
    }

    #[test]
    fn servfail_zone_fails_resolution_with_trace() {
        let ns = namespace();
        let cns = CompiledNamespace::compile(&ns);
        let mut p = Probe::new(&cns);
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let down = ZoneDown { origin: p.id("akadns.net"), fault: UpstreamFault::ServFail };
        let (trace, res) = p.resolve_adversarial(
            "appldnld.apple.com",
            RecordType::A,
            &ctx_at(t0),
            &down,
            &NoInternedMutations,
            BailiwickPolicy::Enforce,
            None,
        );
        assert_eq!(res, Err(IResolutionError::ServFail(p.id("appldnld.apple.com.akadns.net"))));
        assert!(res.unwrap_err().is_transient());
        // The apple.com hop succeeded before the faulted akadns hop.
        assert_eq!(trace.steps.len(), 2);
        assert_eq!(trace.steps[1].zone, Some(n("akadns.net")));
        assert!(trace.steps[1].records.is_empty());
    }

    #[test]
    fn timeouts_are_transient_and_nxdomain_is_not() {
        let ns = namespace();
        let cns = CompiledNamespace::compile_with_extra(&ns, &[n("x.y")]);
        let mut p = Probe::new(&cns);
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let down = ZoneDown { origin: p.id("apple.com"), fault: UpstreamFault::Timeout };
        let (_, res) = p.resolve_adversarial(
            "appldnld.apple.com",
            RecordType::A,
            &ctx_at(t0),
            &down,
            &NoInternedMutations,
            BailiwickPolicy::Enforce,
            None,
        );
        let err = res.unwrap_err();
        assert_eq!(err, IResolutionError::Timeout(p.id("appldnld.apple.com")));
        assert!(err.is_transient());
        assert!(!IResolutionError::NxDomain(p.id("x.y")).is_transient());
        assert!(!IResolutionError::ChainTooLong.is_transient());
    }

    #[test]
    fn cached_chain_survives_total_zone_outage() {
        // A warm cache masks an authoritative outage until TTLs expire —
        // the graceful-degradation property real resolvers provide.
        let ns = namespace();
        let cns = CompiledNamespace::compile(&ns);
        let mut p = Probe::new(&cns);
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let (_, res) = p.resolve("appldnld.apple.com", RecordType::A, &ctx_at(t0));
        res.unwrap();
        let down = ZoneDown { origin: p.id("akadns.net"), fault: UpstreamFault::ServFail };
        // 10 s later every hop is still cached: resolution succeeds even
        // though akadns.net is down.
        let (trace, res) = p.resolve_adversarial(
            "appldnld.apple.com",
            RecordType::A,
            &ctx_at(t0 + Duration::secs(10)),
            &down,
            &NoInternedMutations,
            BailiwickPolicy::Enforce,
            None,
        );
        res.unwrap();
        assert!(!trace.addresses().is_empty());
        // After the akadns TTL (120 s) expires, the outage becomes visible.
        let (_, res) = p.resolve_adversarial(
            "appldnld.apple.com",
            RecordType::A,
            &ctx_at(t0 + Duration::secs(300)),
            &down,
            &NoInternedMutations,
            BailiwickPolicy::Enforce,
            None,
        );
        assert!(matches!(res, Err(IResolutionError::ServFail(_))));
    }

    #[test]
    fn memoized_resolution_is_bit_identical_and_replays_scoped_answers() {
        use crate::zone::{PolicyAnswer, PolicyScope};
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        // A namespace whose akadns hop is a City-scoped policy that counts
        // how often the authoritative side is actually asked.
        let authoritative_queries = Arc::new(AtomicU64::new(0));
        let counter = authoritative_queries.clone();
        let mut ns = Namespace::new();
        let mut apple = Zone::new(n("apple.com"));
        apple.add_cname("appldnld.apple.com", "appldnld.apple.com.akadns.net", 21600);
        ns.add_zone(apple);
        let mut akadns = Zone::new(n("akadns.net"));
        akadns.set_policy_scoped(
            n("appldnld.apple.com.akadns.net"),
            vec![n("a.gslb.applimg.com")],
            Arc::new(move |_: RecordType, _: &QueryContext, _: &mut Vec<Ipv4Addr>| {
                counter.fetch_add(1, Ordering::Relaxed);
                PolicyAnswer::Cname { target: 0, ttl: 120 }
            }),
            PolicyScope::City,
        );
        ns.add_zone(akadns);
        let mut applimg = Zone::new(n("applimg.com"));
        applimg.add_a("a.gslb.applimg.com", Ipv4Addr::new(17, 253, 37, 16), 20);
        ns.add_zone(applimg);
        let cns = CompiledNamespace::compile(&ns);
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let client = |i: u8| {
            let mut ctx = ctx_at(t0);
            ctx.client_ip = Ipv4Addr::new(198, 51, 100, i);
            ctx
        };

        // Plain resolution for reference (fresh resolver per client).
        let plain: Vec<_> = (0..4u8)
            .map(|i| Probe::new(&cns).resolve("appldnld.apple.com", RecordType::A, &client(i)))
            .collect();
        let before = authoritative_queries.load(Ordering::Relaxed);

        // Memoized resolution: same city → the City-scoped hop is asked
        // authoritatively once, replayed three times, bit-identically.
        let mut memo = IRoundMemo::new();
        let memoized: Vec<_> = (0..4u8)
            .map(|i| {
                Probe::new(&cns).resolve_adversarial(
                    "appldnld.apple.com",
                    RecordType::A,
                    &client(i),
                    &NoInternedFaults,
                    &NoInternedMutations,
                    BailiwickPolicy::Enforce,
                    Some(&mut memo),
                )
            })
            .collect();
        assert_eq!(plain, memoized, "memo on/off must not change any resolution");
        let after = authoritative_queries.load(Ordering::Relaxed);
        assert_eq!(before, 4, "plain: every client walks the policy");
        assert_eq!(after - before, 1, "memoized: one walk, three replays");
        assert!(memo.hits() > 0);
        // Global statics (entry CNAME, terminal A) memoize too: 3 keys.
        assert_eq!(memo.len(), 3);
        assert_eq!(memo.lookups(), 12);
        assert_eq!(memo.hits(), 9);
    }

    #[test]
    fn spoofed_records_are_dropped_under_enforce_and_land_under_accept() {
        let ns = namespace();
        let cns = CompiledNamespace::compile_with_extra(&ns, &[attacker_owner(), attacker_ns()]);
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let owner = cns.table().get(&attacker_owner()).unwrap();
        let akadns = cns.table().get(&n("akadns.net")).unwrap();
        let attacker_addr = Ipv4Addr::new(198, 18, 0, 9);
        let spoof = move |zone: NameId, _: u64, _: NameId, _: u64, _: &QueryContext, _: u32| {
            (zone == akadns).then_some(ITamper::SpoofA { owner, addr: attacker_addr, ttl: 600 })
        };
        // Enforce drops the out-of-bailiwick record before anything sees
        // it: the whole resolution is bit-identical to the clean one.
        let clean = Probe::new(&cns).resolve("appldnld.apple.com", RecordType::A, &ctx_at(t0));
        let enforced = Probe::new(&cns).resolve_adversarial(
            "appldnld.apple.com",
            RecordType::A,
            &ctx_at(t0),
            &NoInternedFaults,
            &spoof,
            BailiwickPolicy::Enforce,
            None,
        );
        assert_eq!(clean, enforced, "enforcement must neutralize the spoof exactly");
        // Accept: the attacker A record satisfies the terminal check at
        // the tampered hop, so the chase halts there mis-mapped.
        let (trace, res) = Probe::new(&cns).resolve_adversarial(
            "appldnld.apple.com",
            RecordType::A,
            &ctx_at(t0),
            &NoInternedFaults,
            &spoof,
            BailiwickPolicy::Accept,
            None,
        );
        res.unwrap();
        assert!(trace.addresses().contains(&attacker_addr));
        let attacker = attacker_owner();
        assert!(trace.steps.iter().any(|s| s.records.iter().any(|rr| rr.name == attacker)));
    }

    #[test]
    fn truncation_fails_transiently_with_trace() {
        let ns = namespace();
        let cns = CompiledNamespace::compile(&ns);
        let mut p = Probe::new(&cns);
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let applimg = p.id("applimg.com");
        let trunc = move |zone: NameId, _: u64, _: NameId, _: u64, _: &QueryContext, _: u32| {
            (zone == applimg).then_some(ITamper::Truncate)
        };
        let (trace, res) = p.resolve_adversarial(
            "appldnld.apple.com",
            RecordType::A,
            &ctx_at(t0),
            &NoInternedFaults,
            &trunc,
            BailiwickPolicy::Enforce,
            None,
        );
        let err = res.unwrap_err();
        assert_eq!(err, IResolutionError::Truncated(p.id("appldnld.g.applimg.com")));
        assert!(err.is_transient());
        let last = trace.steps.last().unwrap();
        assert_eq!(last.zone, Some(n("applimg.com")));
        assert!(last.records.is_empty());
    }

    #[test]
    fn tampered_queries_bypass_the_round_memo() {
        let ns = namespace();
        let cns = CompiledNamespace::compile(&ns);
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let mut clean_memo = IRoundMemo::new();
        let _ = Probe::new(&cns).resolve_adversarial(
            "appldnld.apple.com",
            RecordType::A,
            &ctx_at(t0),
            &NoInternedFaults,
            &NoInternedMutations,
            BailiwickPolicy::Enforce,
            Some(&mut clean_memo),
        );
        assert_eq!(clean_memo.len(), 4, "all four chain hops memoize cleanly");
        let akadns = cns.table().get(&n("akadns.net")).unwrap();
        let inflate = move |zone: NameId, _: u64, _: NameId, _: u64, _: &QueryContext, _: u32| {
            (zone == akadns).then_some(ITamper::InflateTtl { factor: 1000 })
        };
        let mut memo = IRoundMemo::new();
        let _ = Probe::new(&cns).resolve_adversarial(
            "appldnld.apple.com",
            RecordType::A,
            &ctx_at(t0),
            &NoInternedFaults,
            &inflate,
            BailiwickPolicy::Enforce,
            Some(&mut memo),
        );
        assert_eq!(memo.len(), 3, "the tampered hop must not enter the memo");
    }

    #[test]
    fn cname_query_does_not_chase() {
        let ns = namespace();
        let cns = CompiledNamespace::compile(&ns);
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let (trace, res) =
            Probe::new(&cns).resolve("appldnld.apple.com", RecordType::Cname, &ctx_at(t0));
        res.unwrap();
        assert_eq!(trace.steps.len(), 1);
    }
}
