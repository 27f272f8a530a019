//! Recursive resolution with CNAME chasing and full tracing.

use crate::cache::Cache;
use crate::context::QueryContext;
use crate::faults::{FaultModel, NoFaults, UpstreamFault};
use crate::memo::{MemoScope, RoundMemo};
use crate::mutation::{apply_tamper, AnswerTamper, BailiwickPolicy, MutationModel, NoMutations};
use crate::zone::{Namespace, ZoneAnswer};
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

    /// The final name that produced the terminal records (last qname).
    pub fn terminal_name(&self) -> Option<&Name> {
        self.steps.last().map(|s| &s.qname)
    }
}

/// Why a resolution failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolutionError {
    /// A name in the chain does not exist.
    NxDomain(Name),
    /// The CNAME chain exceeded [`MAX_CHAIN`] hops.
    ChainTooLong,
    /// An authoritative zone answered SERVFAIL while resolving this name
    /// (injected via a [`crate::faults::FaultModel`]; transient —
    /// retryable).
    ServFail(Name),
    /// An upstream query for this name timed out (injected via a
    /// [`crate::faults::FaultModel`]; transient — retryable).
    Timeout(Name),
    /// The authoritative answer for this name arrived truncated or garbled
    /// beyond use (injected via a [`crate::mutation::MutationModel`];
    /// transient — retryable, like a real resolver falling back after a
    /// malformed UDP response).
    Truncated(Name),
}

impl ResolutionError {
    /// Whether this failure is transient, i.e. a retry may succeed.
    /// NXDOMAIN and over-long chains are authoritative facts; SERVFAIL and
    /// timeouts are weather.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ResolutionError::ServFail(_)
                | ResolutionError::Timeout(_)
                | ResolutionError::Truncated(_)
        )
    }
}

impl core::fmt::Display for ResolutionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ResolutionError::NxDomain(n) => write!(f, "NXDOMAIN for {n}"),
            ResolutionError::ChainTooLong => write!(f, "CNAME chain too long"),
            ResolutionError::ServFail(n) => write!(f, "SERVFAIL while resolving {n}"),
            ResolutionError::Timeout(n) => write!(f, "upstream timeout while resolving {n}"),
            ResolutionError::Truncated(n) => {
                write!(f, "truncated/malformed answer while resolving {n}")
            }
        }
    }
}

impl std::error::Error for ResolutionError {}

/// A recursive resolver with its own cache, as run by each probe.
#[derive(Debug, Clone, Default)]
pub struct RecursiveResolver {
    cache: Cache,
}

impl RecursiveResolver {
    /// A resolver with a cold cache.
    pub fn new() -> RecursiveResolver {
        RecursiveResolver::default()
    }

    /// Resolves `qname`/`qtype` against `ns`, chasing CNAMEs, consulting and
    /// filling the cache. Returns the trace even on failure (callers log
    /// what the probe saw before the error). Equivalent to
    /// [`RecursiveResolver::resolve_with`] under [`NoFaults`].
    pub fn resolve(
        &mut self,
        ns: &Namespace,
        qname: &Name,
        qtype: RecordType,
        ctx: &QueryContext,
    ) -> (ResolutionTrace, Result<(), ResolutionError>) {
        self.resolve_with(ns, qname, qtype, ctx, &NoFaults, 0)
    }

    /// Like [`RecursiveResolver::resolve`], but consults `faults` before
    /// every upstream query (cache hits are never faulted — caches mask
    /// authoritative outages, as in the real DNS). `attempt` is the
    /// caller's 0-based retry counter, passed through so the fault model
    /// can redraw per attempt. A faulted step is recorded in the trace
    /// with no records before the error is returned.
    pub fn resolve_with(
        &mut self,
        ns: &Namespace,
        qname: &Name,
        qtype: RecordType,
        ctx: &QueryContext,
        faults: &dyn FaultModel,
        attempt: u32,
    ) -> (ResolutionTrace, Result<(), ResolutionError>) {
        self.resolve_inner(
            ns,
            qname,
            qtype,
            ctx,
            faults,
            &NoMutations,
            BailiwickPolicy::Enforce,
            attempt,
            None,
        )
    }

    /// Like [`RecursiveResolver::resolve_with`], additionally consulting a
    /// per-round [`RoundMemo`] for answers whose zone declared a
    /// memoizable [`crate::PolicyScope`]. The fault hook runs *before* the
    /// memo, so a perturbed query bypasses memoization; replayed answers
    /// are byte-for-byte what the authoritative query produced, so the
    /// resolution (trace, cache effects and all) is bit-identical with the
    /// memo on or off.
    #[allow(clippy::too_many_arguments)] // the memo-bearing superset of resolve_with
    pub fn resolve_memoized(
        &mut self,
        ns: &Namespace,
        qname: &Name,
        qtype: RecordType,
        ctx: &QueryContext,
        faults: &dyn FaultModel,
        attempt: u32,
        memo: &mut RoundMemo,
    ) -> (ResolutionTrace, Result<(), ResolutionError>) {
        self.resolve_inner(
            ns,
            qname,
            qtype,
            ctx,
            faults,
            &NoMutations,
            BailiwickPolicy::Enforce,
            attempt,
            Some(memo),
        )
    }

    /// The full adversarial entry point: a fault model, an answer-mutation
    /// model, an explicit [`BailiwickPolicy`], and an optional round memo.
    /// Every other entry point is this with [`NoMutations`] and
    /// [`BailiwickPolicy::Enforce`]. A tampered query bypasses the memo
    /// (like faulted queries do), so replayed answers are always the
    /// untampered authoritative ones.
    #[allow(clippy::too_many_arguments)] // the superset of every entry point
    pub fn resolve_adversarial(
        &mut self,
        ns: &Namespace,
        qname: &Name,
        qtype: RecordType,
        ctx: &QueryContext,
        faults: &dyn FaultModel,
        mutations: &dyn MutationModel,
        bailiwick: BailiwickPolicy,
        attempt: u32,
        memo: Option<&mut RoundMemo>,
    ) -> (ResolutionTrace, Result<(), ResolutionError>) {
        self.resolve_inner(ns, qname, qtype, ctx, faults, mutations, bailiwick, attempt, memo)
    }

    #[allow(clippy::too_many_arguments)] // private driver behind the entry points
    fn resolve_inner(
        &mut self,
        ns: &Namespace,
        qname: &Name,
        qtype: RecordType,
        ctx: &QueryContext,
        faults: &dyn FaultModel,
        mutations: &dyn MutationModel,
        bailiwick: BailiwickPolicy,
        attempt: u32,
        mut memo: Option<&mut RoundMemo>,
    ) -> (ResolutionTrace, Result<(), ResolutionError>) {
        let mut trace = ResolutionTrace::default();
        let mut current = qname.clone();
        for _ in 0..MAX_CHAIN {
            // Cache first.
            let (records, from_cache, zone) = match self.cache.get(&current, qtype, ctx.now) {
                Some(cached) => (cached, true, None),
                None => {
                    let authority = ns.authority_for(&current);
                    let faulted = authority
                        .and_then(|z| faults.upstream_fault(z.origin(), &current, ctx, attempt));
                    if let Some(fault) = faulted {
                        trace.steps.push(TraceStep {
                            qname: current.clone(),
                            qtype,
                            records: Vec::new(),
                            from_cache: false,
                            zone: authority.map(|z| z.origin().clone()),
                        });
                        let err = match fault {
                            UpstreamFault::ServFail => ResolutionError::ServFail(current),
                            UpstreamFault::Timeout => ResolutionError::Timeout(current),
                        };
                        return (trace, Err(err));
                    }
                    // The mutation hook runs after the fault hook: a query
                    // that never reaches the zone cannot see a tampered
                    // answer.
                    let tamper = authority
                        .and_then(|z| mutations.answer_mutation(z.origin(), &current, ctx, attempt));
                    if matches!(tamper, Some(AnswerTamper::Truncate)) {
                        trace.steps.push(TraceStep {
                            qname: current.clone(),
                            qtype,
                            records: Vec::new(),
                            from_cache: false,
                            zone: authority.map(|z| z.origin().clone()),
                        });
                        return (trace, Err(ResolutionError::Truncated(current)));
                    }
                    // Tampered queries bypass the memo entirely: the memo
                    // must only ever hold clean authoritative answers.
                    let memo_key = match (&memo, &tamper) {
                        (Some(_), None) => MemoScope::for_query(ns.scope_of(&current), ctx.locode)
                            .map(|scope| (current.clone(), qtype, scope, ctx.now)),
                        _ => None,
                    };
                    let replayed = match (memo.as_deref_mut(), &memo_key) {
                        (Some(m), Some(key)) => m.replay(key),
                        _ => None,
                    };
                    if let Some((rrs, zone)) = replayed {
                        // Replay the authoritative answer with identical
                        // cache side effects.
                        self.cache.put(current.clone(), qtype, rrs.clone(), ctx.now);
                        (rrs, false, zone)
                    } else {
                        match ns.query(&current, qtype, ctx) {
                            (ZoneAnswer::Records(mut rrs), zone) => {
                                if let Some(t) = &tamper {
                                    apply_tamper(&mut rrs, t);
                                }
                                // Bailiwick enforcement: drop records whose
                                // owner lies outside the answering zone
                                // before anything downstream (trace, cache,
                                // memo) can see them. A no-op for every
                                // well-formed answer.
                                if bailiwick == BailiwickPolicy::Enforce {
                                    if let Some(origin) = zone {
                                        rrs.retain(|rr| rr.name.is_within(origin));
                                    }
                                }
                                self.cache.put(current.clone(), qtype, rrs.clone(), ctx.now);
                                if let (Some(m), Some(key)) = (memo.as_deref_mut(), memo_key) {
                                    m.store(key, rrs.clone(), zone.cloned());
                                }
                                (rrs, false, zone.cloned())
                            }
                            (ZoneAnswer::NoData, zone) => {
                                self.cache.put(current.clone(), qtype, Vec::new(), ctx.now);
                                if let (Some(m), Some(key)) = (memo.as_deref_mut(), memo_key) {
                                    m.store(key, Vec::new(), zone.cloned());
                                }
                                (Vec::new(), false, zone.cloned())
                            }
                            (ZoneAnswer::NxDomain, _) => {
                                trace.steps.push(TraceStep {
                                    qname: current.clone(),
                                    qtype,
                                    records: Vec::new(),
                                    from_cache: false,
                                    zone: None,
                                });
                                return (trace, Err(ResolutionError::NxDomain(current)));
                            }
                        }
                    }
                }
            };
            let next = records.iter().find_map(|rr| match &rr.rdata {
                RData::Cname(target) if qtype != RecordType::Cname => Some(target.clone()),
                _ => None,
            });
            let terminal = records.iter().any(|rr| rr.rtype() == qtype);
            trace.steps.push(TraceStep {
                qname: current.clone(),
                qtype,
                records,
                from_cache,
                zone,
            });
            match next {
                Some(target) if !terminal => current = target,
                _ => return (trace, Ok(())),
            }
        }
        (trace, Err(ResolutionError::ChainTooLong))
    }

    /// Cache statistics `(hits, misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Empties the cache.
    pub fn flush(&mut self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::Zone;
    use mcdn_geo::{Continent, Coord, Duration, Locode, SimTime};

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

    #[test]
    fn follows_full_chain() {
        let ns = namespace();
        let mut r = RecursiveResolver::new();
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let (trace, res) = r.resolve(&ns, &n("appldnld.apple.com"), RecordType::A, &ctx_at(t0));
        res.unwrap();
        assert_eq!(trace.addresses(), vec![Ipv4Addr::new(17, 253, 37, 16)]);
        let edges = trace.cname_edges();
        assert_eq!(edges.len(), 3);
        assert_eq!(edges[0].2, 21600);
        assert_eq!(edges[1].2, 120);
        assert_eq!(edges[2].2, 15);
        assert_eq!(trace.terminal_name(), Some(&n("a.gslb.applimg.com")));
        assert!(trace.steps.iter().all(|s| !s.from_cache));
    }

    #[test]
    fn second_resolution_hits_cache_selectively() {
        let ns = namespace();
        let mut r = RecursiveResolver::new();
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let _ = r.resolve(&ns, &n("appldnld.apple.com"), RecordType::A, &ctx_at(t0));
        // 30 s later: entry (21600) and akadns (120) CNAMEs still cached;
        // the 15 s selector and the 20 s A record have expired.
        let (trace, res) =
            r.resolve(&ns, &n("appldnld.apple.com"), RecordType::A, &ctx_at(t0 + Duration::secs(30)));
        res.unwrap();
        let cached: Vec<bool> = trace.steps.iter().map(|s| s.from_cache).collect();
        assert_eq!(cached, vec![true, true, false, false]);
    }

    #[test]
    fn nxdomain_reported_with_trace() {
        let ns = namespace();
        let mut r = RecursiveResolver::new();
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let (trace, res) = r.resolve(&ns, &n("missing.apple.com"), RecordType::A, &ctx_at(t0));
        assert_eq!(res, Err(ResolutionError::NxDomain(n("missing.apple.com"))));
        assert_eq!(trace.steps.len(), 1);
    }

    #[test]
    fn chain_loop_detected() {
        let mut ns = Namespace::new();
        let mut z = Zone::new(n("loop.test"));
        z.add_cname("a.loop.test", "b.loop.test", 60);
        z.add_cname("b.loop.test", "a.loop.test", 60);
        ns.add_zone(z);
        let mut r = RecursiveResolver::new();
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let (_, res) = r.resolve(&ns, &n("a.loop.test"), RecordType::A, &ctx_at(t0));
        assert_eq!(res, Err(ResolutionError::ChainTooLong));
    }

    #[test]
    fn aaaa_returns_nodata_not_error() {
        let ns = namespace();
        let mut r = RecursiveResolver::new();
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let (trace, res) = r.resolve(&ns, &n("appldnld.apple.com"), RecordType::Aaaa, &ctx_at(t0));
        res.unwrap();
        // The chain is followed, but no AAAA exists at the end.
        assert!(trace.addresses().is_empty());
    }

    /// Faults every upstream query to one zone (cache hits unaffected).
    struct ZoneDown {
        origin: Name,
        fault: UpstreamFault,
    }

    impl FaultModel for ZoneDown {
        fn upstream_fault(
            &self,
            zone: &Name,
            _qname: &Name,
            _ctx: &QueryContext,
            _attempt: u32,
        ) -> Option<UpstreamFault> {
            (*zone == self.origin).then_some(self.fault)
        }
    }

    #[test]
    fn servfail_zone_fails_resolution_with_trace() {
        let ns = namespace();
        let mut r = RecursiveResolver::new();
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let down = ZoneDown { origin: n("akadns.net"), fault: UpstreamFault::ServFail };
        let (trace, res) =
            r.resolve_with(&ns, &n("appldnld.apple.com"), RecordType::A, &ctx_at(t0), &down, 0);
        assert_eq!(
            res,
            Err(ResolutionError::ServFail(n("appldnld.apple.com.akadns.net")))
        );
        assert!(res.unwrap_err().is_transient());
        // The apple.com hop succeeded before the faulted akadns hop.
        assert_eq!(trace.steps.len(), 2);
        assert_eq!(trace.steps[1].zone, Some(n("akadns.net")));
        assert!(trace.steps[1].records.is_empty());
    }

    #[test]
    fn timeouts_are_transient_and_nxdomain_is_not() {
        let ns = namespace();
        let mut r = RecursiveResolver::new();
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let down = ZoneDown { origin: n("apple.com"), fault: UpstreamFault::Timeout };
        let (_, res) =
            r.resolve_with(&ns, &n("appldnld.apple.com"), RecordType::A, &ctx_at(t0), &down, 0);
        let err = res.unwrap_err();
        assert_eq!(err, ResolutionError::Timeout(n("appldnld.apple.com")));
        assert!(err.is_transient());
        assert!(!ResolutionError::NxDomain(n("x.y")).is_transient());
        assert!(!ResolutionError::ChainTooLong.is_transient());
    }

    #[test]
    fn cached_chain_survives_total_zone_outage() {
        // A warm cache masks an authoritative outage until TTLs expire —
        // the graceful-degradation property real resolvers provide.
        let ns = namespace();
        let mut r = RecursiveResolver::new();
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let (_, res) = r.resolve(&ns, &n("appldnld.apple.com"), RecordType::A, &ctx_at(t0));
        res.unwrap();
        let down = ZoneDown { origin: n("akadns.net"), fault: UpstreamFault::ServFail };
        // 10 s later every hop is still cached: resolution succeeds even
        // though akadns.net is down.
        let (trace, res) = r.resolve_with(
            &ns,
            &n("appldnld.apple.com"),
            RecordType::A,
            &ctx_at(t0 + Duration::secs(10)),
            &down,
            0,
        );
        res.unwrap();
        assert!(!trace.addresses().is_empty());
        // After the akadns TTL (120 s) expires, the outage becomes visible.
        let (_, res) = r.resolve_with(
            &ns,
            &n("appldnld.apple.com"),
            RecordType::A,
            &ctx_at(t0 + Duration::secs(300)),
            &down,
            0,
        );
        assert!(matches!(res, Err(ResolutionError::ServFail(_))));
    }

    #[test]
    fn memoized_resolution_is_bit_identical_and_replays_scoped_answers() {
        use crate::zone::PolicyScope;
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        // A namespace whose akadns hop is a City-scoped policy that counts
        // how often the authoritative side is actually asked.
        let authoritative_queries = Arc::new(AtomicU64::new(0));
        let build_ns = |counter: Arc<AtomicU64>| {
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
                    crate::zone::PolicyAnswer::Cname { target: 0, ttl: 120 }
                }),
                PolicyScope::City,
            );
            ns.add_zone(akadns);
            let mut applimg = Zone::new(n("applimg.com"));
            applimg.add_a("a.gslb.applimg.com", Ipv4Addr::new(17, 253, 37, 16), 20);
            ns.add_zone(applimg);
            ns
        };
        let ns = build_ns(authoritative_queries.clone());
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let q = n("appldnld.apple.com");

        // Plain resolution for reference (fresh resolver per client).
        let plain: Vec<_> = (0..4u8)
            .map(|i| {
                let mut ctx = ctx_at(t0);
                ctx.client_ip = Ipv4Addr::new(198, 51, 100, i);
                RecursiveResolver::new().resolve(&ns, &q, RecordType::A, &ctx)
            })
            .collect();
        let before = authoritative_queries.load(Ordering::Relaxed);

        // Memoized resolution: same city → the City-scoped hop is asked
        // authoritatively once, replayed three times, bit-identically.
        let mut memo = RoundMemo::new();
        let memoized: Vec<_> = (0..4u8)
            .map(|i| {
                let mut ctx = ctx_at(t0);
                ctx.client_ip = Ipv4Addr::new(198, 51, 100, i);
                RecursiveResolver::new()
                    .resolve_memoized(&ns, &q, RecordType::A, &ctx, &NoFaults, 0, &mut memo)
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
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let attacker = crate::mutation::attacker_owner();
        let attacker_addr = Ipv4Addr::new(198, 18, 0, 9);
        let spoof = {
            let attacker = attacker.clone();
            move |zone: &Name, _q: &Name, _c: &QueryContext, _a: u32| {
                (*zone == n("akadns.net")).then(|| AnswerTamper::SpoofA {
                    owner: attacker.clone(),
                    addr: attacker_addr,
                    ttl: 600,
                })
            }
        };
        // Enforce drops the out-of-bailiwick record before anything sees
        // it: the whole resolution is bit-identical to the clean one.
        let clean =
            RecursiveResolver::new().resolve(&ns, &n("appldnld.apple.com"), RecordType::A, &ctx_at(t0));
        let enforced = RecursiveResolver::new().resolve_adversarial(
            &ns,
            &n("appldnld.apple.com"),
            RecordType::A,
            &ctx_at(t0),
            &NoFaults,
            &spoof,
            BailiwickPolicy::Enforce,
            0,
            None,
        );
        assert_eq!(clean, enforced, "enforcement must neutralize the spoof exactly");
        // Accept: the attacker A record satisfies the terminal check at
        // the tampered hop, so the chase halts there mis-mapped.
        let (trace, res) = RecursiveResolver::new().resolve_adversarial(
            &ns,
            &n("appldnld.apple.com"),
            RecordType::A,
            &ctx_at(t0),
            &NoFaults,
            &spoof,
            BailiwickPolicy::Accept,
            0,
            None,
        );
        res.unwrap();
        assert!(trace.addresses().contains(&attacker_addr));
        assert!(trace.steps.iter().any(|s| s.records.iter().any(|rr| rr.name == attacker)));
    }

    #[test]
    fn truncation_fails_transiently_with_trace() {
        let ns = namespace();
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let trunc = |zone: &Name, _q: &Name, _c: &QueryContext, _a: u32| {
            (*zone == n("applimg.com")).then_some(AnswerTamper::Truncate)
        };
        let (trace, res) = RecursiveResolver::new().resolve_adversarial(
            &ns,
            &n("appldnld.apple.com"),
            RecordType::A,
            &ctx_at(t0),
            &NoFaults,
            &trunc,
            BailiwickPolicy::Enforce,
            0,
            None,
        );
        let err = res.unwrap_err();
        assert_eq!(err, ResolutionError::Truncated(n("appldnld.g.applimg.com")));
        assert!(err.is_transient());
        let last = trace.steps.last().unwrap();
        assert_eq!(last.zone, Some(n("applimg.com")));
        assert!(last.records.is_empty());
    }

    #[test]
    fn tampered_queries_bypass_the_round_memo() {
        let ns = namespace();
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let q = n("appldnld.apple.com");
        let mut clean_memo = RoundMemo::new();
        let _ = RecursiveResolver::new().resolve_adversarial(
            &ns,
            &q,
            RecordType::A,
            &ctx_at(t0),
            &NoFaults,
            &NoMutations,
            BailiwickPolicy::Enforce,
            0,
            Some(&mut clean_memo),
        );
        assert_eq!(clean_memo.len(), 4, "all four chain hops memoize cleanly");
        let inflate = |zone: &Name, _q: &Name, _c: &QueryContext, _a: u32| {
            (*zone == n("akadns.net")).then_some(AnswerTamper::InflateTtl { factor: 1000 })
        };
        let mut memo = RoundMemo::new();
        let _ = RecursiveResolver::new().resolve_adversarial(
            &ns,
            &q,
            RecordType::A,
            &ctx_at(t0),
            &NoFaults,
            &inflate,
            BailiwickPolicy::Enforce,
            0,
            Some(&mut memo),
        );
        assert_eq!(memo.len(), 3, "the tampered hop must not enter the memo");
    }

    #[test]
    fn cname_query_does_not_chase() {
        let ns = namespace();
        let mut r = RecursiveResolver::new();
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let (trace, res) =
            r.resolve(&ns, &n("appldnld.apple.com"), RecordType::Cname, &ctx_at(t0));
        res.unwrap();
        assert_eq!(trace.steps.len(), 1);
    }
}
