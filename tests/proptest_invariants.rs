//! Cross-crate property tests on structural invariants: the prefix trie
//! against a reference model, resolver-cache TTL behaviour, valley-free
//! routing, the naming scheme, capacity accounting, and selection-share
//! normalization.

use metacdn_suite::cdn::naming::{Function, ServerName, SubFunction};
use metacdn_suite::core::{CdnShare, MetaCdnState, Schedule};
use metacdn_suite::geo::{Duration, Locode, Region, SimTime};
use metacdn_suite::netsim::{
    AsId, AsInfo, AsKind, Ipv4Net, PrefixTrie, Relationship, Router, Topology,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;

// ---------------------------------------------------------------- trie ---

fn arb_prefix() -> impl Strategy<Value = Ipv4Net> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Ipv4Net::new(Ipv4Addr::from(addr), len))
}

proptest! {
    /// Longest-prefix match agrees with a brute-force scan over the inserts.
    #[test]
    fn trie_matches_linear_model(
        prefixes in proptest::collection::vec((arb_prefix(), any::<u16>()), 1..40),
        probes in proptest::collection::vec(any::<u32>(), 1..50),
    ) {
        let mut trie = PrefixTrie::new();
        // Later inserts override earlier ones at the same prefix, so build
        // the reference from the final state.
        let mut model: std::collections::HashMap<Ipv4Net, u16> = Default::default();
        for (p, v) in &prefixes {
            trie.insert(*p, *v);
            model.insert(*p, *v);
        }
        for ip in probes.iter().map(|x| Ipv4Addr::from(*x)) {
            let expect = model
                .iter()
                .filter(|(p, _)| p.contains(ip))
                .max_by_key(|(p, _)| p.prefix_len())
                .map(|(p, v)| (p.prefix_len(), *v));
            let got = trie.lookup(ip).map(|(len, v)| (len, *v));
            prop_assert_eq!(got, expect);
        }
    }

    /// A cached RRset never outlives its minimum TTL and never reports a
    /// larger TTL than it was stored with: every lookup the resolver
    /// serves from its cache is younger than the TTL, with the remaining
    /// lifetime as its TTL, and every miss comes at or after expiry.
    #[test]
    fn cache_ttl_monotonicity(ttl in 1u32..10_000, mut probe_offsets in proptest::collection::vec(0u64..20_000, 1..20)) {
        use metacdn_suite::dnssim::{
            CompiledNamespace, InternedResolver, Namespace, NoInternedFaults, QueryContext,
            ResolveScratch, Zone,
        };
        use metacdn_suite::dnswire::{Name, RecordType};
        let mut ns = Namespace::new();
        let mut zone = Zone::new(Name::parse("apple.com").unwrap());
        zone.add_a("x.apple.com", Ipv4Addr::new(17, 0, 0, 1), ttl);
        ns.add_zone(zone);
        let ns = CompiledNamespace::compile(&ns);
        let mut scratch = ResolveScratch::new();
        let name = ns.table().get(&Name::parse("x.apple.com").unwrap()).unwrap();
        let t0 = SimTime::from_ymd(2017, 9, 1);
        let locode = Locode::parse("deber").unwrap();
        let mut ctx = QueryContext {
            client_ip: Ipv4Addr::new(198, 51, 100, 1),
            locode,
            coord: metacdn_suite::geo::Coord::new(52.5, 13.4),
            continent: metacdn_suite::geo::Continent::Europe,
            now: t0,
        };
        let mut cache = InternedResolver::new();
        cache
            .resolve(&ns, &mut scratch, name, RecordType::A, &ctx, &NoInternedFaults, 0, None)
            .unwrap();
        // Simulation time is monotonic; probe in order. A miss stores the
        // answer afresh, so ages count from the latest store.
        probe_offsets.sort_unstable();
        let mut stored = t0;
        for off in probe_offsets {
            ctx.now = t0 + Duration::secs(off);
            cache
                .resolve(&ns, &mut scratch, name, RecordType::A, &ctx, &NoInternedFaults, 0, None)
                .unwrap();
            let step = scratch.trace().steps()[0];
            let rr = scratch.trace().records_of(&step)[0];
            let age = ctx.now.since(stored).as_secs();
            if step.from_cache {
                prop_assert!(age < ttl as u64, "hit after expiry at +{off}s (ttl {ttl})");
                prop_assert!(rr.ttl <= ttl);
                prop_assert!(rr.ttl as u64 <= ttl as u64 - age);
            } else {
                prop_assert!(age >= ttl as u64, "miss before expiry at +{off}s (ttl {ttl})");
                stored = ctx.now;
            }
        }
    }

    /// Every path the router returns is valley-free: once the walk starts
    /// descending (provider→customer) or crosses a peering link, it never
    /// climbs again and never crosses a second peering link.
    #[test]
    fn router_paths_are_valley_free(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let n = 12u32;
        let mut topo = Topology::new();
        for i in 0..n {
            topo.add_as(AsInfo {
                id: AsId(i),
                name: format!("AS{i}"),
                kind: AsKind::Transit,
                location: metacdn_suite::geo::Coord::new(0.0, 0.0),
            });
        }
        // Random sparse economy: each AS gets 1-3 links.
        for i in 1..n {
            let peers = rng.gen_range(1..=3).min(i);
            for _ in 0..peers {
                let j = rng.gen_range(0..i);
                let rel = if rng.gen_bool(0.7) {
                    Relationship::CustomerToProvider
                } else {
                    Relationship::PeerToPeer
                };
                topo.add_link(AsId(i), AsId(j), rel, 1e9);
            }
        }
        let mut router = Router::new();
        for src in 0..n {
            for dst in 0..n {
                if let Some(path) = router.path(&topo, AsId(src), AsId(dst)) {
                    prop_assert_eq!(*path.first().unwrap(), AsId(src));
                    prop_assert_eq!(*path.last().unwrap(), AsId(dst));
                    // A pair of ASes may be connected by parallel links with
                    // different relationships; the path is valley-free if
                    // *some* consistent stage assignment exists. Track the
                    // set of reachable stages (0 = climbing, 1 = peered,
                    // 2 = descending).
                    let mut stages: std::collections::HashSet<u8> = [0u8].into();
                    for w in path.windows(2) {
                        let mut next: std::collections::HashSet<u8> = Default::default();
                        for link in topo.links_of(w[0]).filter(|l| l.touches(w[1])) {
                            for &s in &stages {
                                match (s, topo.directed_rel(link, w[0])) {
                                    (0, metacdn_suite::netsim::DirectedRel::Up) => {
                                        next.insert(0);
                                    }
                                    (0, metacdn_suite::netsim::DirectedRel::Peer) => {
                                        next.insert(1);
                                    }
                                    (_, metacdn_suite::netsim::DirectedRel::Down) => {
                                        next.insert(2);
                                    }
                                    _ => {}
                                }
                            }
                        }
                        prop_assert!(!next.is_empty(), "valley in {path:?}");
                        stages = next;
                    }
                }
            }
        }
    }

    /// Naming scheme: every syntactically valid ServerName round-trips
    /// through its FQDN.
    #[test]
    fn server_names_roundtrip(
        site in 1u8..30,
        func_i in 0usize..6,
        sub_i in 0usize..3,
        index in 1u16..999,
        city_i in 0usize..60,
    ) {
        let cities = metacdn_suite::geo::Registry::cities();
        let city = &cities[city_i % cities.len()];
        let name = ServerName::new(
            metacdn_suite::geo::Registry::apple_alias(city.locode),
            site,
            Function::ALL[func_i],
            [SubFunction::Bx, SubFunction::Lx, SubFunction::Sx][sub_i],
            index,
        );
        prop_assert_eq!(ServerName::parse(&name.fqdn()), Some(name));
    }

    /// Effective selection shares always form a probability distribution,
    /// and Apple's effective share never exceeds its scheduled share when
    /// over capacity.
    #[test]
    fn effective_shares_are_distributions(
        apple in 0.0f64..2.0,
        akamai in 0.0f64..2.0,
        limelight in 0.0f64..2.0,
        util in 0.0f64..5.0,
    ) {
        let share = CdnShare { apple, akamai, limelight, level3: 0.0 };
        let state = MetaCdnState::new(Schedule::constant(share));
        state.set_apple_utilization(Region::Eu, util);
        let eff = state.effective_share(Region::Eu, SimTime::from_ymd(2017, 9, 19));
        let total: f64 = eff.iter().map(|(_, p)| p).sum();
        if !eff.is_empty() {
            prop_assert!((total - 1.0).abs() < 1e-9, "not normalized: {total}");
            for (_, p) in &eff {
                prop_assert!(*p >= 0.0);
            }
            if util > 1.0 && apple > 0.0 {
                let scheduled = share.normalized_in(Region::Eu)
                    .iter()
                    .find(|(k, _)| *k == metacdn_suite::core::CdnKind::Apple)
                    .map(|(_, p)| *p)
                    .unwrap_or(0.0);
                let effective = eff
                    .iter()
                    .find(|(k, _)| *k == metacdn_suite::core::CdnKind::Apple)
                    .map(|(_, p)| *p)
                    .unwrap_or(0.0);
                prop_assert!(effective <= scheduled + 1e-9);
            }
        }
    }

    /// Chaos demand allocation conserves demand exactly and never serves a
    /// CDN past its capacity or a negative amount, for arbitrary (even
    /// denormalized) shares, capacities, and demand.
    #[test]
    fn chaos_allocation_conserves_demand(
        weights in proptest::collection::vec(-0.5f64..2.0, 4),
        caps in proptest::collection::vec(-1e9f64..1e12, 4),
        demand in 0.0f64..1e12,
    ) {
        use metacdn_suite::core::CdnKind;
        use metacdn_suite::scenario::allocate_demand;
        let share: Vec<(CdnKind, f64)> =
            CdnKind::ALL.into_iter().zip(weights).collect();
        let capacity: Vec<(CdnKind, f64)> =
            CdnKind::ALL.into_iter().zip(caps).collect();
        let alloc = allocate_demand(&share, &capacity, demand);
        let served: f64 = alloc.served.iter().map(|(_, s)| s).sum();
        prop_assert!(
            (served + alloc.shed_bps - demand).abs() <= 1e-9 * demand.max(1.0),
            "conservation: served {served} + shed {} != demand {demand}",
            alloc.shed_bps
        );
        for (kind, s) in &alloc.served {
            prop_assert!(*s >= 0.0, "{kind} served a negative amount");
            let cap = capacity.iter().find(|(k, _)| k == kind).map(|(_, c)| c.max(0.0)).unwrap();
            prop_assert!(*s <= cap + 1e-9 * cap.max(1.0), "{kind} over capacity");
        }
    }

    /// LOCODE parse/format round trip for arbitrary five-letter codes.
    #[test]
    fn locode_roundtrip(s in "[a-z]{5}") {
        let code = Locode::parse(&s).unwrap();
        prop_assert_eq!(code.as_str(), &s);
        prop_assert_eq!(Locode::parse(&s.to_uppercase()), Some(code));
    }

    /// Merging per-shard histograms is order-independent and associative,
    /// and the merged result equals observing every sample into one
    /// histogram — the property that makes the canonical shard-order merge
    /// in `CampaignObs::absorb` produce thread-count-independent exports.
    #[test]
    fn obs_histogram_merge_is_shard_order_independent(
        shards in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 0..50),
            1..8,
        ),
        order in any::<u64>(),
    ) {
        use metacdn_suite::obs::Hist;
        let per_shard: Vec<Hist> = shards
            .iter()
            .map(|samples| {
                let mut h = Hist::new();
                for &s in samples {
                    h.observe(s);
                }
                h
            })
            .collect();

        // Reference: all samples observed into a single histogram.
        let mut reference = Hist::new();
        for s in shards.iter().flatten() {
            reference.observe(*s);
        }

        // Canonical order merge.
        let mut canonical = Hist::new();
        for h in &per_shard {
            canonical.merge(h);
        }

        // A shuffled merge order, derived deterministically from `order`.
        let mut indices: Vec<usize> = (0..per_shard.len()).collect();
        let mut state = order | 1;
        for i in (1..indices.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            indices.swap(i, (state >> 33) as usize % (i + 1));
        }
        let mut shuffled = Hist::new();
        for &i in &indices {
            shuffled.merge(&per_shard[i]);
        }

        // Associativity: left-fold of pairwise-merged halves.
        let mid = per_shard.len() / 2;
        let mut left = Hist::new();
        for h in &per_shard[..mid] {
            left.merge(h);
        }
        let mut right = Hist::new();
        for h in &per_shard[mid..] {
            right.merge(h);
        }
        let mut grouped = left;
        grouped.merge(&right);

        prop_assert_eq!(canonical.buckets(), reference.buckets());
        prop_assert_eq!(canonical.count(), reference.count());
        prop_assert_eq!(canonical.sum(), reference.sum());
        prop_assert_eq!(canonical.buckets(), shuffled.buckets());
        prop_assert_eq!(canonical.buckets(), grouped.buckets());
        prop_assert_eq!(canonical.sum(), grouped.sum());
    }
}
