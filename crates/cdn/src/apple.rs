//! Apple's own CDN: the site inventory, address plan, GSLB answer logic,
//! and the scan/PTR surface that the paper's discovery methodology probes.

use crate::site::{fnv64, EdgeSite};
use crate::naming::{Function, ServerName};
use mcdn_geo::{Continent, Coord, Duration, Locode, Registry, SimTime};
use mcdn_intern::FnvBuildHasher;
use mcdn_netsim::Ipv4Net;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Declarative description of Apple's presence at one location — what
/// Figure 3 renders as `<# of sites>/<total # of cache servers>`.
#[derive(Debug, Clone, Copy)]
pub struct SiteSpec {
    /// Canonical UN/LOCODE of the city (the builder applies Apple's
    /// `uklon` alias automatically).
    pub locode: &'static str,
    /// Number of distinct sites at the location.
    pub sites: u8,
    /// Edge-bx servers per site.
    pub bx_per_site: usize,
}

/// How often the GSLB rotates which vips it hands to a given client.
const GSLB_ROTATION: Duration = Duration::mins(5);

/// Apple's content delivery network.
#[derive(Debug)]
pub struct AppleCdn {
    sites: Vec<EdgeSite>,
    /// Each site's continent, parallel to `sites`, resolved once at build.
    continents: Vec<Option<Continent>>,
    ptr: HashMap<Ipv4Addr, ServerName>,
    per_server_bps: f64,
}

impl AppleCdn {
    /// The delivery-server prefix the paper identifies (`17.253.0.0/16`).
    pub fn delivery_prefix() -> Ipv4Net {
        Ipv4Net::parse("17.253.0.0/16").expect("static prefix")
    }

    /// Apple's whole address block, which the paper scans (`17.0.0.0/8`).
    pub fn scan_prefix() -> Ipv4Net {
        Ipv4Net::parse("17.0.0.0/8").expect("static prefix")
    }

    /// Builds the CDN from location specs. Each site instance receives a
    /// /24 inside [`Self::delivery_prefix`]; `per_server_bps` is the serving
    /// capacity of one edge-bx.
    ///
    /// # Panics
    /// Panics if a spec names a city absent from the LOCODE registry or if
    /// more than 255 site instances are requested (address plan exhausted).
    pub fn build(specs: &[SiteSpec], per_server_bps: f64) -> AppleCdn {
        let mut sites = Vec::new();
        let mut ptr = HashMap::new();
        let mut block: u32 = 1; // 17.253.<block>.0 per site
        for spec in specs {
            let canonical = Locode::parse(spec.locode).expect("spec locode is valid");
            let city = Registry::by_locode(canonical)
                .unwrap_or_else(|| panic!("unknown city {}", spec.locode));
            let apple_code = Registry::apple_alias(canonical);
            for site_id in 1..=spec.sites {
                assert!(block <= 255, "address plan exhausted");
                let base = Ipv4Addr::new(17, 253, block as u8, 1);
                let site = EdgeSite::build(apple_code, site_id, city.coord, spec.bx_per_site, base);
                for (name, ip) in site.all_servers() {
                    ptr.insert(*ip, *name);
                }
                sites.push(site);
                block += 1;
            }
        }
        let continents =
            sites.iter().map(|s| Registry::by_locode(s.locode).map(|c| c.continent)).collect();
        AppleCdn { sites, continents, ptr, per_server_bps }
    }

    /// All sites.
    pub fn sites(&self) -> &[EdgeSite] {
        &self.sites
    }

    /// Mutable site access (the workload drives downloads through sites).
    /// A site's continent is resolved at build, so changing its `locode`
    /// here does not move its capacity to another continent.
    pub fn sites_mut(&mut self) -> &mut [EdgeSite] {
        &mut self.sites
    }

    /// Total number of edge-bx servers across all sites.
    pub fn total_bx(&self) -> usize {
        self.sites.iter().map(EdgeSite::bx_count).sum()
    }

    /// Reverse-DNS lookup, as answered for the simulated PTR scan.
    pub fn ptr_lookup(&self, ip: Ipv4Addr) -> Option<&ServerName> {
        self.ptr.get(&ip)
    }

    /// Availability check: does `ip` answer an HTTP probe for an iOS image?
    /// True for client-facing infrastructure (vips and edge caches), the
    /// signal the paper's 17/8 scan keyed on.
    pub fn serves_ios_images(&self, ip: Ipv4Addr) -> bool {
        matches!(
            self.ptr.get(&ip).map(|n| n.function),
            Some(Function::Vip) | Some(Function::Edge)
        )
    }

    /// Every allocated address (for scan enumeration in tests/benches).
    pub fn all_ips(&self) -> impl Iterator<Item = &Ipv4Addr> {
        self.ptr.keys()
    }

    /// The GSLB answer for a client: two vip addresses from the nearest
    /// site, rotated over time so successive re-resolutions sweep the vip
    /// set (matching the multi-IP answers probes logged). Every fourth
    /// client is mapped to its second-nearest site for load spreading.
    pub fn gslb_answer(&self, client_ip: Ipv4Addr, coord: Coord, now: SimTime) -> Vec<Ipv4Addr> {
        self.gslb_directory().answer(client_ip, coord, now)
    }

    /// An immutable, cheaply clonable snapshot of the data the GSLB needs —
    /// DNS mapping policies hold this instead of the mutable CDN itself.
    pub fn gslb_directory(&self) -> GslbDirectory {
        GslbDirectory {
            sites: self
                .sites
                .iter()
                .map(|s| (s.site_key(), s.coord, s.vip_addrs()))
                .collect(),
            ranks: std::sync::RwLock::new(HashMap::default()),
        }
    }

    /// Aggregate serving capacity of sites on `continent`, in bps.
    pub fn capacity_bps_on(&self, continent: Continent) -> f64 {
        self.capacity_bps_on_where(continent, |_| 1.0)
    }

    /// Aggregate serving capacity of sites on `continent` with each site's
    /// contribution scaled by `factor(site_key)` (clamped to `[0, 1]`) —
    /// how the chaos layer prices site outages and brownouts into the
    /// controller's capacity view.
    pub fn capacity_bps_on_where<F: Fn(u64) -> f64>(&self, continent: Continent, factor: F) -> f64 {
        self.sites
            .iter()
            .zip(&self.continents)
            .filter(|(_, c)| **c == Some(continent))
            .map(|(s, _)| {
                s.bx_count() as f64 * self.per_server_bps * factor(s.site_key()).clamp(0.0, 1.0)
            })
            .sum()
    }

    /// Aggregate worldwide capacity in bps.
    pub fn capacity_bps_total(&self) -> f64 {
        self.total_bx() as f64 * self.per_server_bps
    }
}

/// Immutable GSLB answer data: per-site keys, coordinates, and vip
/// addresses.
///
/// Built by [`AppleCdn::gslb_directory`]; shared with the `metacdn` DNS
/// policies so they can answer `{a|b}.gslb.applimg.com` queries while the
/// simulation separately mutates cache state inside the [`AppleCdn`].
#[derive(Debug)]
pub struct GslbDirectory {
    sites: Vec<(u64, Coord, Vec<Ipv4Addr>)>,
    /// Full nearest-site rank order per client coordinate, built lazily.
    /// Ranking by `(distance, site index)` commutes with the down-filter
    /// (dropping elements of a sorted sequence leaves it sorted), so
    /// walking a cached full order and skipping down sites answers
    /// exactly like filter-then-sort — without the per-query sort that
    /// dominated the resolution hot path.
    ranks: std::sync::RwLock<HashMap<(u64, u64), Vec<u16>, FnvBuildHasher>>,
}

impl Clone for GslbDirectory {
    fn clone(&self) -> Self {
        GslbDirectory {
            sites: self.sites.clone(),
            ranks: std::sync::RwLock::new(HashMap::default()),
        }
    }
}

impl GslbDirectory {
    /// See [`AppleCdn::gslb_answer`].
    pub fn answer(&self, client_ip: Ipv4Addr, coord: Coord, now: SimTime) -> Vec<Ipv4Addr> {
        let mut out = Vec::new();
        self.answer_filtered(client_ip, coord, now, &|_| false, &mut out);
        out
    }

    /// The GSLB answer with down sites skipped: sites whose key makes
    /// `down` return true are excluded before nearest-site ranking, so
    /// clients of a dead site silently fail over to the next-nearest one.
    /// With a never-true filter this is exactly [`GslbDirectory::answer`].
    /// Appends the addresses to `out` (nothing when every site is down).
    pub fn answer_filtered(
        &self,
        client_ip: Ipv4Addr,
        coord: Coord,
        now: SimTime,
        down: &dyn Fn(u64) -> bool,
        out: &mut Vec<Ipv4Addr>,
    ) {
        let key = (coord.lat.to_bits(), coord.lon.to_bits());
        {
            let ranks = self.ranks.read().expect("rank cache poisoned");
            if let Some(order) = ranks.get(&key) {
                return self.answer_ranked(order, client_ip, now, down, out);
            }
        }
        let mut ranked: Vec<(f64, usize)> = self
            .sites
            .iter()
            .enumerate()
            .map(|(i, (_, c, _))| (coord.distance_km(c), i))
            .collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let order: Vec<u16> = ranked.iter().map(|&(_, i)| i as u16).collect();
        self.answer_ranked(&order, client_ip, now, down, out);
        self.ranks.write().expect("rank cache poisoned").insert(key, order);
    }

    /// Answers from a precomputed full rank order, skipping down sites.
    fn answer_ranked(
        &self,
        order: &[u16],
        client_ip: Ipv4Addr,
        now: SimTime,
        down: &dyn Fn(u64) -> bool,
        out: &mut Vec<Ipv4Addr>,
    ) {
        let mut nearest = None;
        let mut next = None;
        for &i in order {
            if down(self.sites[i as usize].0) {
                continue;
            }
            if nearest.is_none() {
                nearest = Some(i as usize);
            } else {
                next = Some(i as usize);
                break;
            }
        }
        let Some(nearest) = nearest else {
            return;
        };
        let client_hash = fnv64(&client_ip.octets());
        let pick = match next {
            Some(next) if client_hash.is_multiple_of(4) => next,
            _ => nearest,
        };
        let vips = &self.sites[pick].2;
        let rot = (client_hash ^ (now.as_secs() / GSLB_ROTATION.as_secs())) as usize;
        let k = 2.min(vips.len());
        out.extend((0..k).map(|j| vips[(rot + j) % vips.len()]));
    }

    /// Keys of every site in the directory, in site order.
    pub fn site_keys(&self) -> Vec<u64> {
        self.sites.iter().map(|(k, _, _)| *k).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> AppleCdn {
        AppleCdn::build(
            &[
                SiteSpec { locode: "defra", sites: 2, bx_per_site: 32 },
                SiteSpec { locode: "usnyc", sites: 1, bx_per_site: 16 },
                SiteSpec { locode: "gblon", sites: 1, bx_per_site: 8 },
            ],
            10e9,
        )
    }

    #[test]
    fn site_and_server_counts() {
        let cdn = small();
        assert_eq!(cdn.sites().len(), 4);
        assert_eq!(cdn.total_bx(), 32 + 32 + 16 + 8);
        assert_eq!(cdn.capacity_bps_total(), 88.0 * 10e9);
    }

    #[test]
    fn addresses_live_in_delivery_prefix_with_ptr() {
        let cdn = small();
        let prefix = AppleCdn::delivery_prefix();
        let mut seen = std::collections::HashSet::new();
        for ip in cdn.all_ips() {
            assert!(prefix.contains(*ip), "{ip} outside 17.253/16");
            assert!(seen.insert(*ip), "duplicate allocation {ip}");
            assert!(cdn.ptr_lookup(*ip).is_some());
        }
    }

    #[test]
    fn london_sites_use_apple_alias() {
        let cdn = small();
        let london = cdn.sites().iter().find(|s| s.locode.as_str() == "uklon");
        assert!(london.is_some(), "gblon spec must become uklon site");
    }

    #[test]
    fn availability_scan_hits_vips_and_edges_only() {
        let cdn = small();
        let mut vips = 0;
        let mut lx = 0;
        for ip in cdn.all_ips() {
            let name = cdn.ptr_lookup(*ip).unwrap();
            match (name.function, name.subfunction) {
                (Function::Vip, _) => {
                    vips += 1;
                    assert!(cdn.serves_ios_images(*ip));
                }
                (Function::Edge, crate::naming::SubFunction::Lx) => {
                    lx += 1;
                    assert!(cdn.serves_ios_images(*ip));
                }
                _ => {}
            }
        }
        assert_eq!(vips, 8 + 8 + 4 + 2);
        assert_eq!(lx, 4 * 2);
        assert!(!cdn.serves_ios_images(Ipv4Addr::new(17, 1, 1, 1)), "non-CDN Apple IP");
    }

    #[test]
    fn gslb_prefers_nearby_site() {
        let cdn = small();
        let fra = Coord::new(50.1, 8.7);
        let answer = cdn.gslb_answer(Ipv4Addr::new(198, 51, 100, 1), fra, SimTime::from_ymd(2017, 9, 15));
        assert_eq!(answer.len(), 2);
        for ip in &answer {
            let name = cdn.ptr_lookup(*ip).unwrap();
            // Frankfurt client lands on a European site (defra or uklon).
            assert!(
                name.locode.as_str() == "defra" || name.locode.as_str() == "uklon",
                "unexpected site {}",
                name.locode
            );
        }
    }

    #[test]
    fn gslb_rotates_over_time() {
        let cdn = small();
        let fra = Coord::new(50.1, 8.7);
        let client = Ipv4Addr::new(198, 51, 100, 1);
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let mut union = std::collections::HashSet::new();
        for i in 0..24 {
            for ip in cdn.gslb_answer(client, fra, t0 + Duration::mins(5 * i)) {
                union.insert(ip);
            }
        }
        assert!(union.len() > 2, "rotation should expose more than one answer-set");
    }

    #[test]
    fn continental_capacity_split() {
        let cdn = small();
        let eu = cdn.capacity_bps_on(Continent::Europe);
        let na = cdn.capacity_bps_on(Continent::NorthAmerica);
        assert_eq!(eu, (32.0 + 32.0 + 8.0) * 10e9);
        assert_eq!(na, 16.0 * 10e9);
    }

    #[test]
    fn factored_capacity_prices_in_site_outages() {
        let cdn = small();
        let keys = cdn.gslb_directory().site_keys();
        assert_eq!(keys.len(), 4);
        // All-ones factor is exactly the unfactored capacity.
        assert_eq!(
            cdn.capacity_bps_on_where(Continent::Europe, |_| 1.0),
            cdn.capacity_bps_on(Continent::Europe)
        );
        // Killing one Frankfurt site removes exactly its 32 servers.
        let dead = cdn
            .sites()
            .iter()
            .find(|s| s.locode.as_str() == "defra" && s.site_id == 1)
            .unwrap()
            .site_key();
        let degraded = cdn.capacity_bps_on_where(Continent::Europe, |k| if k == dead { 0.0 } else { 1.0 });
        assert_eq!(degraded, (32.0 + 8.0) * 10e9);
        // Factors are clamped into [0, 1].
        assert_eq!(
            cdn.capacity_bps_on_where(Continent::Europe, |_| 7.0),
            cdn.capacity_bps_on(Continent::Europe)
        );
    }

    #[test]
    fn filtered_gslb_skips_down_sites() {
        let cdn = small();
        let fra = Coord::new(50.1, 8.7);
        let t = SimTime::from_ymd(2017, 9, 15);
        let dir = cdn.gslb_directory();
        let down: std::collections::HashSet<u64> = cdn
            .sites()
            .iter()
            .filter(|s| s.locode.as_str() == "defra")
            .map(|s| s.site_key())
            .collect();
        // With both Frankfurt sites down, every client fails over to the
        // next-nearest site (London/NYC) — never a dead vip.
        let filtered = |client, down: &dyn Fn(u64) -> bool| {
            let mut out = Vec::new();
            dir.answer_filtered(client, fra, t, down, &mut out);
            out
        };
        for i in 0..64u32 {
            let client = Ipv4Addr::from(0x0A00_0200 + i * 13);
            let ans = filtered(client, &|k| down.contains(&k));
            assert!(!ans.is_empty());
            for ip in ans {
                let name = cdn.ptr_lookup(ip).unwrap();
                assert_ne!(name.locode.as_str(), "defra", "dead site must not answer");
            }
        }
        // A never-true filter is bit-identical to the unfiltered answer.
        for i in 0..64u32 {
            let client = Ipv4Addr::from(0x0A00_0300 + i * 7);
            assert_eq!(dir.answer(client, fra, t), filtered(client, &|_| false));
        }
        // Everything down: the GSLB has no answer (NXDOMAIN upstream).
        assert!(filtered(Ipv4Addr::new(10, 0, 0, 1), &|_| true).is_empty());
    }
}
