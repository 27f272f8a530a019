//! Measurement probes: located clients with their own caching resolvers.

use mcdn_dnssim::{
    BailiwickPolicy, CompiledNamespace, ICacheExportEntry, IRecord, IResolutionError, IRoundMemo,
    InternedFaultModel, InternedMutationModel, InternedResolver, NoInternedMutations,
    QueryContext, ResolveScratch,
};
use mcdn_dnswire::RecordType;
use mcdn_faults::RetryPolicy;
use mcdn_intern::NameId;
use mcdn_geo::{City, Duration, SimTime};
use mcdn_netsim::AsId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;

/// Where one probe lives: its city, host AS, and client address.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSpec {
    /// Host city (fixes coordinates and continent).
    pub city: &'static City,
    /// The access network hosting the probe.
    pub as_id: AsId,
    /// The probe's client address (inside the host AS's prefix).
    pub ip: Ipv4Addr,
}

/// A measurement probe. Each probe owns a resolver cache, so the TTL
/// dynamics of the mapping chain shape what it re-resolves each round —
/// exactly like a RIPE Atlas probe using its local resolver.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Fleet-unique id.
    pub id: u32,
    /// Placement.
    pub spec: ProbeSpec,
    resolver: InternedResolver,
}

impl Probe {
    /// Creates a probe.
    pub fn new(id: u32, spec: ProbeSpec) -> Probe {
        Probe { id, spec, resolver: InternedResolver::new() }
    }

    /// The query context this probe presents at `now`.
    pub fn context(&self, now: SimTime) -> QueryContext {
        QueryContext {
            client_ip: self.spec.ip,
            locode: self.spec.city.locode,
            coord: self.spec.city.coord,
            continent: self.spec.city.continent,
            now,
        }
    }

    /// Runs one DNS measurement under a fault model, retrying transient
    /// failures (SERVFAIL, timeout) per `retry` with capped exponential
    /// backoff. Each retry happens later in simulated time by the
    /// accumulated backoff, so TTL expiry during backoff behaves
    /// faithfully. Permanent failures (NXDOMAIN, over-long chains) are
    /// never retried. With a per-round `memo`, scope-stable zone answers
    /// are replayed rather than re-derived (faulted queries bypass it).
    /// Returns the final attempt's outcome and the attempts spent; the
    /// final attempt's trace is left in `scratch.trace()`, and the probe's
    /// cache persists across rounds. Zero steady-state allocations.
    #[allow(clippy::too_many_arguments)] // the fault-aware measurement entry point
    pub fn measure_interned(
        &mut self,
        ns: &CompiledNamespace<'_>,
        scratch: &mut ResolveScratch,
        qname: NameId,
        qtype: RecordType,
        now: SimTime,
        faults: &dyn InternedFaultModel,
        retry: &RetryPolicy,
        memo: Option<&mut IRoundMemo>,
    ) -> (Result<(), IResolutionError>, u32) {
        self.measure_interned_adversarial(
            ns,
            scratch,
            qname,
            qtype,
            now,
            faults,
            &NoInternedMutations,
            BailiwickPolicy::Enforce,
            retry,
            memo,
        )
    }

    /// [`Probe::measure_interned`] with an answer-mutation model and an
    /// explicit [`BailiwickPolicy`] threaded through every attempt.
    /// Truncated answers are transient, so they burn retry budget exactly
    /// like timeouts.
    #[allow(clippy::too_many_arguments)] // the adversarial superset of measure_interned
    pub fn measure_interned_adversarial(
        &mut self,
        ns: &CompiledNamespace<'_>,
        scratch: &mut ResolveScratch,
        qname: NameId,
        qtype: RecordType,
        now: SimTime,
        faults: &dyn InternedFaultModel,
        mutations: &dyn InternedMutationModel,
        bailiwick: BailiwickPolicy,
        retry: &RetryPolicy,
        mut memo: Option<&mut IRoundMemo>,
    ) -> (Result<(), IResolutionError>, u32) {
        let mut wait = Duration::secs(0);
        let max = retry.max_attempts.max(1);
        for attempt in 0..max {
            wait = wait + retry.backoff_before(attempt);
            let ctx = self.context(now + wait);
            let result = self.resolver.resolve_adversarial(
                ns,
                scratch,
                qname,
                qtype,
                &ctx,
                faults,
                mutations,
                bailiwick,
                attempt,
                memo.as_deref_mut(),
            );
            let retryable = matches!(&result, Err(e) if e.is_transient());
            if !retryable || attempt + 1 == max {
                return (result, attempt + 1);
            }
        }
        unreachable!("loop always returns on the last attempt")
    }

    /// Resolver cache statistics `(hits, misses)`.
    pub fn interned_cache_stats(&self) -> (u64, u64) {
        self.resolver.cache_stats()
    }

    /// Exports the resolver cache for checkpointing: sorted
    /// entries plus `(hits, misses)` counters. See
    /// [`InternedResolver::cache_export`].
    pub fn interned_cache_export(&self) -> (Vec<ICacheExportEntry>, u64, u64) {
        self.resolver.cache_export()
    }

    /// The records held in the resolver cache, borrowed. See
    /// [`InternedResolver::cached_records`].
    pub fn interned_cached_records(&self) -> impl Iterator<Item = &[IRecord]> {
        self.resolver.cached_records()
    }

    /// Restores the resolver cache captured by
    /// [`interned_cache_export`](Self::interned_cache_export), making a
    /// rebuilt probe's TTL behaviour bit-identical to the original's.
    pub fn interned_cache_restore(
        &mut self,
        entries: Vec<ICacheExportEntry>,
        hits: u64,
        misses: u64,
    ) {
        self.resolver.cache_restore(entries, hits, misses);
    }
}

/// Builds probes from specs, ids assigned in order.
pub fn build_fleet(specs: Vec<ProbeSpec>) -> Vec<Probe> {
    specs.into_iter().enumerate().map(|(i, s)| Probe::new(i as u32, s)).collect()
}

/// Spreads `n` probe specs across weighted cities, deterministically under
/// `seed`. `place` maps a city to its host AS and a fresh client address.
pub fn spread_specs(
    n: usize,
    cities: &[(&'static City, f64)],
    seed: u64,
    mut place: impl FnMut(&'static City, usize) -> (AsId, Ipv4Addr),
) -> Vec<ProbeSpec> {
    assert!(!cities.is_empty(), "need at least one city");
    let total: f64 = cities.iter().map(|(_, w)| w).sum();
    assert!(total > 0.0, "weights must be positive");
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let mut pick = rng.gen_range(0.0..total);
            let mut chosen = cities[0].0;
            for (city, w) in cities {
                if pick < *w {
                    chosen = city;
                    break;
                }
                pick -= w;
            }
            let (as_id, ip) = place(chosen, i);
            ProbeSpec { city: chosen, as_id, ip }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdn_dnssim::{Namespace, NoInternedFaults, UpstreamFault, Zone};
    use mcdn_dnswire::Name;
    use mcdn_geo::{Continent, Locode, Registry};

    fn city(code: &str) -> &'static City {
        Registry::by_locode(Locode::parse(code).unwrap()).unwrap()
    }

    fn tiny_ns() -> Namespace {
        let mut ns = Namespace::new();
        let mut z = Zone::new(Name::parse("apple.com").unwrap());
        z.add_a("appldnld.apple.com", Ipv4Addr::new(17, 253, 1, 1), 20);
        ns.add_zone(z);
        ns
    }

    #[test]
    fn probe_context_carries_location() {
        let p = Probe::new(
            0,
            ProbeSpec { city: city("deber"), as_id: AsId(1), ip: Ipv4Addr::new(10, 0, 0, 1) },
        );
        let ctx = p.context(SimTime::from_ymd(2017, 9, 12));
        assert_eq!(ctx.continent, Continent::Europe);
        assert_eq!(ctx.locode.as_str(), "deber");
    }

    /// Times out the first `failures` attempts of every query, then heals.
    struct FlakyUpstream {
        failures: u32,
    }

    impl InternedFaultModel for FlakyUpstream {
        fn upstream_fault(
            &self,
            _zone: NameId,
            _zone_fnv: u64,
            _qname: NameId,
            _qname_fnv: u64,
            _ctx: &QueryContext,
            attempt: u32,
        ) -> Option<UpstreamFault> {
            (attempt < self.failures).then_some(UpstreamFault::Timeout)
        }
    }

    fn probe() -> Probe {
        Probe::new(
            0,
            ProbeSpec { city: city("deber"), as_id: AsId(1), ip: Ipv4Addr::new(10, 0, 0, 1) },
        )
    }

    /// Measures `name` once on `p` at `now`, returning the outcome, the
    /// attempts spent and the final attempt's addresses.
    fn measure(
        p: &mut Probe,
        ns: &CompiledNamespace<'_>,
        name: &str,
        now: SimTime,
        faults: &dyn InternedFaultModel,
    ) -> (Result<(), IResolutionError>, u32, Vec<Ipv4Addr>) {
        let mut scratch = ResolveScratch::new();
        let id = ns.intern_in(&mut scratch, &Name::parse(name).unwrap());
        let retry = RetryPolicy::standard();
        let (res, attempts) =
            p.measure_interned(ns, &mut scratch, id, RecordType::A, now, faults, &retry, None);
        (res, attempts, scratch.trace().addresses().collect())
    }

    #[test]
    fn probe_measures_and_caches() {
        let ns = tiny_ns();
        let cns = CompiledNamespace::compile(&ns);
        let mut p = probe();
        let t0 = SimTime::from_ymd(2017, 9, 12);
        let (res, _, addrs) = measure(&mut p, &cns, "appldnld.apple.com", t0, &NoInternedFaults);
        res.unwrap();
        assert_eq!(addrs, vec![Ipv4Addr::new(17, 253, 1, 1)]);
        // Re-measure within TTL: cache hit.
        let t1 = t0 + Duration::secs(5);
        let (res, _, _) = measure(&mut p, &cns, "appldnld.apple.com", t1, &NoInternedFaults);
        res.unwrap();
        assert_eq!(p.interned_cache_stats().0, 1);
    }

    #[test]
    fn retries_recover_from_transient_faults() {
        let ns = tiny_ns();
        let cns = CompiledNamespace::compile(&ns);
        let mut p = probe();
        let t0 = SimTime::from_ymd(2017, 9, 12);
        let flaky = FlakyUpstream { failures: 2 };
        let (res, attempts, addrs) = measure(&mut p, &cns, "appldnld.apple.com", t0, &flaky);
        res.unwrap();
        assert_eq!(attempts, 3);
        assert_eq!(addrs, vec![Ipv4Addr::new(17, 253, 1, 1)]);
    }

    #[test]
    fn retry_budget_exhausts_on_persistent_faults() {
        let ns = tiny_ns();
        let cns = CompiledNamespace::compile(&ns);
        let mut p = probe();
        let name = Name::parse("appldnld.apple.com").unwrap();
        let mut scratch = ResolveScratch::new();
        let id = cns.intern_in(&mut scratch, &name);
        let retry = RetryPolicy::standard();
        let (res, attempts) = p.measure_interned(
            &cns,
            &mut scratch,
            id,
            RecordType::A,
            SimTime::from_ymd(2017, 9, 12),
            &FlakyUpstream { failures: u32::MAX },
            &retry,
            None,
        );
        assert_eq!(attempts, retry.max_attempts);
        assert_eq!(res, Err(IResolutionError::Timeout(id)));
        // The failed attempt's trace still records what the probe saw.
        assert_eq!(scratch.trace().len(), 1);
    }

    #[test]
    fn permanent_failures_are_not_retried() {
        let ns = tiny_ns();
        let cns = CompiledNamespace::compile(&ns);
        let mut p = probe();
        let t0 = SimTime::from_ymd(2017, 9, 12);
        let (res, attempts, _) =
            measure(&mut p, &cns, "no.such.name.example", t0, &NoInternedFaults);
        assert_eq!(attempts, 1);
        assert!(matches!(res, Err(IResolutionError::NxDomain(_))));
    }

    #[test]
    fn spread_is_deterministic_and_weighted() {
        let cities = [(city("deber"), 3.0), (city("usnyc"), 1.0)];
        let place = |_: &'static City, i: usize| {
            (AsId(1), Ipv4Addr::from(0x0A00_0000 + i as u32))
        };
        let a = spread_specs(400, &cities, 42, place);
        let b = spread_specs(400, &cities, 42, place);
        assert_eq!(a.len(), 400);
        let berlin_a = a.iter().filter(|s| s.city.name == "Berlin").count();
        let berlin_b = b.iter().filter(|s| s.city.name == "Berlin").count();
        assert_eq!(berlin_a, berlin_b, "same seed, same spread");
        // 3:1 weighting → roughly 300 in Berlin.
        assert!((250..=350).contains(&berlin_a), "got {berlin_a}");
    }

    #[test]
    fn fleet_ids_are_sequential() {
        let cities = [(city("deber"), 1.0)];
        let specs = spread_specs(5, &cities, 7, |_, i| {
            (AsId(1), Ipv4Addr::from(0x0A00_0000 + i as u32))
        });
        let fleet = build_fleet(specs);
        for (i, p) in fleet.iter().enumerate() {
            assert_eq!(p.id, i as u32);
        }
    }
}
