//! Third-party CDN models: load-dependent cache pools with off-net caches.
//!
//! The paper's measurements show two behaviours of the third-party CDNs that
//! the reproduction must generate mechanically:
//!
//! 1. **Pool widening under load** — the number of unique cache IPs a CDN
//!    exposes in DNS answers grows with its offered load (Europe jumped from
//!    an average of 191 unique IPs to 977 within an hour of the release,
//!    Figure 4), and shrinks back afterwards.
//! 2. **Off-net caches** — both Akamai and Limelight answer with addresses
//!    located in *other* ASes ("Akamai other AS" / "Limelight other AS" in
//!    Figures 4/5). When Limelight activates off-net caches behind a transit
//!    AS the ISP barely peers with, the result is the overflow of Figure 8.
//!
//! A [`ThirdPartyCdn`] owns per-region pools of three kinds: `base`
//! (always advertised), `surge` (progressively exposed as load grows), and
//! `offnet` pools (engaged only above a load threshold). Exposure is a pure
//! function of `(region, load)`, so measurement runs are reproducible.

use crate::site::fnv64;
use mcdn_geo::{Region, SimTime};
use mcdn_netsim::{AsId, Ipv4Net};
use std::net::Ipv4Addr;

/// A pool of caches homed in a foreign AS.
#[derive(Debug, Clone)]
pub struct OffNetPool {
    /// The AS hosting these caches.
    pub host_as: AsId,
    /// Cache addresses (announced by `host_as` in the topology).
    pub ips: Vec<Ipv4Addr>,
    /// Load (0..1) above which this pool is engaged.
    pub engage_at: f64,
}

/// How often the answer rotation advances (seconds).
const ROTATION_SECS: u64 = 60;

/// One region's pools.
#[derive(Debug, Clone, Default)]
struct RegionPools {
    base: Vec<Ipv4Addr>,
    surge: Vec<Ipv4Addr>,
    offnet: Vec<OffNetPool>,
}

/// A third-party CDN participating in the Meta-CDN.
#[derive(Debug, Clone)]
pub struct ThirdPartyCdn {
    /// Operator name ("Akamai", "Limelight", "Level3").
    pub name: String,
    /// The CDN's own AS.
    pub as_id: AsId,
    /// Pools indexed by `Region as usize` (the order of [`Region::ALL`]).
    pools: [RegionPools; 3],
    /// Exponent shaping how fast the surge pool is exposed with load.
    surge_exponent: f64,
}

impl ThirdPartyCdn {
    /// A CDN with empty pools.
    pub fn new(name: &str, as_id: AsId) -> ThirdPartyCdn {
        ThirdPartyCdn {
            name: name.to_string(),
            as_id,
            pools: Default::default(),
            surge_exponent: 1.0,
        }
    }

    fn pools(&self, region: Region) -> &RegionPools {
        &self.pools[region as usize]
    }

    /// The exposed set at `load` as the slices whose concatenation it is:
    /// `base`, the exposed prefix of `surge`, then every engaged off-net
    /// pool in insertion order.
    fn exposed_parts(
        &self,
        region: Region,
        load: f64,
    ) -> impl Iterator<Item = &[Ipv4Addr]> + Clone + '_ {
        let load = load.clamp(0.0, 1.0);
        let pools = self.pools(region);
        let n = (pools.surge.len() as f64 * load.powf(self.surge_exponent)).round() as usize;
        let surge = &pools.surge[..n.min(pools.surge.len())];
        [pools.base.as_slice(), surge].into_iter().chain(
            pools.offnet.iter().filter(move |p| load >= p.engage_at).map(|p| p.ips.as_slice()),
        )
    }

    /// Generates `count` addresses from `prefix` starting at `offset`
    /// (helper for building pools from a CDN's address space).
    pub fn ips_from_prefix(prefix: Ipv4Net, offset: u64, count: usize) -> Vec<Ipv4Addr> {
        (0..count as u64)
            .map(|i| prefix.nth(offset + i).expect("pool fits in prefix"))
            .collect()
    }

    /// Sets the always-advertised pool for `region`.
    pub fn with_base(mut self, region: Region, ips: Vec<Ipv4Addr>) -> Self {
        self.pools[region as usize].base = ips;
        self
    }

    /// Sets the load-proportional surge pool for `region`.
    pub fn with_surge(mut self, region: Region, ips: Vec<Ipv4Addr>) -> Self {
        self.pools[region as usize].surge = ips;
        self
    }

    /// Adds an off-net pool for `region`.
    pub fn with_offnet(mut self, region: Region, pool: OffNetPool) -> Self {
        self.pools[region as usize].offnet.push(pool);
        self
    }

    /// Sets the surge-exposure exponent (`<1` exposes aggressively early,
    /// `>1` lazily).
    pub fn with_surge_exponent(mut self, e: f64) -> Self {
        assert!(e > 0.0);
        self.surge_exponent = e;
        self
    }

    /// The set of addresses the CDN exposes in `region` at `load ∈ [0,1]`.
    /// Deterministic and monotone in `load`.
    pub fn exposed(&self, region: Region, load: f64) -> Vec<Ipv4Addr> {
        self.exposed_parts(region, load).flatten().copied().collect()
    }

    /// Every address the CDN could ever expose in `region`.
    pub fn full_pool(&self, region: Region) -> Vec<Ipv4Addr> {
        self.exposed(region, 1.0)
    }

    /// Total number of addresses configured for `region` across all pool
    /// kinds. The world builder rejects schedules that send weight to a
    /// CDN whose regional pool is empty (such answers would NXDOMAIN).
    pub fn pool_size(&self, region: Region) -> usize {
        let pools = self.pools(region);
        pools.base.len()
            + pools.surge.len()
            + pools.offnet.iter().map(|p| p.ips.len()).sum::<usize>()
    }

    /// The DNS answer for one client: `k` addresses drawn from the exposed
    /// set, rotated per client and per minute — the pattern that makes a
    /// probe fleet's unique-IP union grow with the exposed set size.
    ///
    /// Appends the addresses to `out`. The exposed set is indexed in place,
    /// as the concatenation [`ThirdPartyCdn::exposed`] would build, so no
    /// pool is copied.
    pub fn answer(
        &self,
        region: Region,
        load: f64,
        client_ip: Ipv4Addr,
        now: SimTime,
        k: usize,
        out: &mut Vec<Ipv4Addr>,
    ) {
        let parts = self.exposed_parts(region, load);
        let len: usize = parts.clone().map(<[Ipv4Addr]>::len).sum();
        if len == 0 {
            return;
        }
        let salt =
            fnv64(&client_ip.octets()) ^ fnv64(&(now.as_secs() / ROTATION_SECS).to_be_bytes());
        for j in 0..k.min(len) {
            let mut i = (salt as usize).wrapping_add(j * 7919) % len;
            for part in parts.clone() {
                if let Some(ip) = part.get(i) {
                    out.push(*ip);
                    break;
                }
                i -= part.len();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn answer_vec(
        c: &ThirdPartyCdn,
        region: Region,
        load: f64,
        client_ip: Ipv4Addr,
        now: SimTime,
        k: usize,
    ) -> Vec<Ipv4Addr> {
        let mut out = Vec::new();
        c.answer(region, load, client_ip, now, k, &mut out);
        out
    }

    /// The answer formula before in-place indexing: materialize the
    /// exposed set, then index it. Kept as the reference the in-place
    /// [`ThirdPartyCdn::answer`] must reproduce.
    fn reference_answer(
        c: &ThirdPartyCdn,
        region: Region,
        load: f64,
        client_ip: Ipv4Addr,
        now: SimTime,
        k: usize,
    ) -> Vec<Ipv4Addr> {
        let pool = c.exposed(region, load);
        if pool.is_empty() {
            return Vec::new();
        }
        let salt =
            fnv64(&client_ip.octets()) ^ fnv64(&(now.as_secs() / ROTATION_SECS).to_be_bytes());
        let k = k.min(pool.len());
        (0..k).map(|j| pool[((salt as usize).wrapping_add(j * 7919)) % pool.len()]).collect()
    }

    /// Two off-net pools with different thresholds, an APAC base-only
    /// pool, and an empty US region.
    fn layered_cdn() -> ThirdPartyCdn {
        let off2 = Ipv4Net::parse("198.19.0.0/24").unwrap();
        let apac = Ipv4Net::parse("192.0.2.0/24").unwrap();
        cdn()
            .with_offnet(
                Region::Eu,
                OffNetPool {
                    host_as: AsId(64501),
                    ips: ThirdPartyCdn::ips_from_prefix(off2, 0, 7),
                    engage_at: 0.9,
                },
            )
            .with_base(Region::Apac, ThirdPartyCdn::ips_from_prefix(apac, 0, 3))
            .with_surge_exponent(1.7)
    }

    proptest! {
        /// Loads below 0, inside [0, 1], above 1 and exactly at (or just
        /// under) each off-net engage threshold; `k` up to beyond the
        /// largest pool; every region, including the empty one.
        #[test]
        fn in_place_answer_matches_materialized_reference(
            region_i in 0usize..3,
            load in prop_oneof![
                -1.0f64..0.0,
                0.0f64..1.0,
                1.0f64..3.0,
                (0usize..4).prop_map(|i| [0.7, 0.9, 0.699_999, 0.899_999][i]),
            ],
            k in 0usize..200,
            ip in any::<u32>(),
            secs in 0u64..1_000_000,
        ) {
            let c = layered_cdn();
            let region = Region::ALL[region_i];
            let client = Ipv4Addr::from(ip);
            let now = SimTime(secs);
            prop_assert_eq!(
                answer_vec(&c, region, load, client, now, k),
                reference_answer(&c, region, load, client, now, k)
            );
        }
    }

    #[test]
    fn answer_appends_to_the_callers_buffer() {
        let c = cdn();
        let client: Ipv4Addr = "10.1.2.3".parse().unwrap();
        let mut out = vec![Ipv4Addr::new(1, 1, 1, 1)];
        c.answer(Region::Eu, 0.5, client, SimTime(60), 3, &mut out);
        assert_eq!(out[0], Ipv4Addr::new(1, 1, 1, 1));
        assert_eq!(out[1..], answer_vec(&c, Region::Eu, 0.5, client, SimTime(60), 3)[..]);
    }

    fn cdn() -> ThirdPartyCdn {
        let p = Ipv4Net::parse("203.0.113.0/24").unwrap();
        let off = Ipv4Net::parse("198.18.0.0/24").unwrap();
        ThirdPartyCdn::new("Limelight", AsId(22822))
            .with_base(Region::Eu, ThirdPartyCdn::ips_from_prefix(p, 0, 10))
            .with_surge(Region::Eu, ThirdPartyCdn::ips_from_prefix(p, 10, 100))
            .with_offnet(
                Region::Eu,
                OffNetPool {
                    host_as: AsId(64500),
                    ips: ThirdPartyCdn::ips_from_prefix(off, 0, 40),
                    engage_at: 0.7,
                },
            )
    }

    #[test]
    fn exposure_grows_with_load() {
        let c = cdn();
        let idle = c.exposed(Region::Eu, 0.0);
        let half = c.exposed(Region::Eu, 0.5);
        let full = c.exposed(Region::Eu, 1.0);
        assert_eq!(idle.len(), 10);
        assert_eq!(half.len(), 60);
        assert_eq!(full.len(), 150);
    }

    #[test]
    fn offnet_engages_at_threshold_only() {
        let c = cdn();
        let below = c.exposed(Region::Eu, 0.69);
        let above = c.exposed(Region::Eu, 0.71);
        let offnet_ip: Ipv4Addr = "198.18.0.5".parse().unwrap();
        assert!(!below.contains(&offnet_ip));
        assert!(above.contains(&offnet_ip));
    }

    #[test]
    fn exposure_is_monotone_and_deterministic() {
        let c = cdn();
        let mut prev = 0;
        for step in 0..=10 {
            let load = step as f64 / 10.0;
            let n = c.exposed(Region::Eu, load).len();
            assert!(n >= prev, "exposure must not shrink with load");
            prev = n;
            assert_eq!(c.exposed(Region::Eu, load), c.exposed(Region::Eu, load));
        }
    }

    #[test]
    fn unknown_region_is_empty() {
        let c = cdn();
        assert!(c.exposed(Region::Apac, 1.0).is_empty());
        assert!(answer_vec(&c, Region::Apac, 1.0, "10.0.0.1".parse().unwrap(), SimTime(0), 2)
            .is_empty());
    }

    #[test]
    fn answers_drawn_from_exposed_set() {
        let c = cdn();
        let exposed = c.exposed(Region::Eu, 0.5);
        let ans = answer_vec(&c, Region::Eu, 0.5, "10.1.2.3".parse().unwrap(), SimTime(1000), 3);
        assert_eq!(ans.len(), 3);
        for ip in ans {
            assert!(exposed.contains(&ip));
        }
    }

    #[test]
    fn fleet_union_tracks_pool_size() {
        // Many clients re-resolving over an hour should collectively see
        // most of the exposed pool — the Figure 4 counting mechanism.
        let c = cdn();
        let mut union = std::collections::HashSet::new();
        for client in 0u8..50 {
            for minute in 0..12 {
                let ip = Ipv4Addr::new(10, 0, 1, client);
                let t = SimTime(minute * 300);
                union.extend(answer_vec(&c, Region::Eu, 1.0, ip, t, 2));
            }
        }
        assert!(union.len() > 100, "union {} should approach pool size 150", union.len());
    }

    #[test]
    fn pool_size_counts_every_kind() {
        let c = cdn();
        assert_eq!(c.pool_size(Region::Eu), 10 + 100 + 40);
        assert_eq!(c.pool_size(Region::Apac), 0);
    }

    #[test]
    fn load_is_clamped() {
        let c = cdn();
        assert_eq!(c.exposed(Region::Eu, 7.0).len(), c.exposed(Region::Eu, 1.0).len());
        assert_eq!(c.exposed(Region::Eu, -1.0).len(), 10);
    }
}
