//! Apple edge sites: the vip → edge-bx → edge-lx request flow.
//!
//! The paper infers (§3.3) that a client-facing `vip` address load-balances
//! across **four** associated `edge-bx` caches, which on a miss consult an
//! `edge-lx` parent, which in turn fetches through an origin shield. One
//! Apple CDN IP therefore represents the capacity of four servers — the
//! reason Figure 3 counts `edge-bx` nodes rather than advertised IPs.

use crate::http::{HttpRequest, HttpResponse, Verdict, ViaEntry};
use crate::lru::LruSet;
use crate::naming::{Function, ServerName, SubFunction};
use mcdn_geo::{Coord, Locode};
use std::net::Ipv4Addr;

/// Number of `edge-bx` caches behind each `vip` (paper observation).
pub const BX_PER_VIP: usize = 4;
/// Objects one edge-bx cache holds before evicting (LRU).
pub const BX_CACHE_OBJECTS: usize = 64;
/// Objects one edge-lx parent holds before evicting (LRU).
pub const LX_CACHE_OBJECTS: usize = 512;

/// Deterministic FNV-1a 64-bit hash used for load-balancing decisions.
/// (Std's SipHash is seeded per process, which would break reproducibility.)
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// What happened while serving one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOutcome {
    /// The vip that fronted the request.
    pub vip: ServerName,
    /// The edge-bx that served it.
    pub bx: ServerName,
    /// Whether the bx had the object.
    pub bx_hit: bool,
    /// Whether the lx tier was consulted and hit.
    pub lx_hit: Option<bool>,
    /// Whether the origin shield was reached.
    pub origin_fetch: bool,
}

/// One Apple CDN delivery site.
#[derive(Debug, Clone)]
pub struct EdgeSite {
    /// Location code (Apple spelling).
    pub locode: Locode,
    /// Site id at the location.
    pub site_id: u8,
    /// Site coordinates.
    pub coord: Coord,
    vips: Vec<(ServerName, Ipv4Addr)>,
    edge_bx: Vec<(ServerName, Ipv4Addr)>,
    edge_lx: Vec<(ServerName, Ipv4Addr)>,
    bx_cache: Vec<LruSet>,
    lx_cache: Vec<LruSet>,
}

impl EdgeSite {
    /// Builds a site with `n_bx` edge-bx caches, `n_bx / 4` vips (rounded
    /// up), and two edge-lx parents, allocating addresses sequentially from
    /// the site block starting at `base`.
    pub fn build(locode: Locode, site_id: u8, coord: Coord, n_bx: usize, base: Ipv4Addr) -> EdgeSite {
        assert!(n_bx >= 1, "a site needs at least one edge-bx");
        let n_vip = n_bx.div_ceil(BX_PER_VIP);
        let n_lx = 2usize;
        let base = u32::from(base);
        let mut next = base;
        let mut alloc = |_: usize| {
            let ip = Ipv4Addr::from(next);
            next += 1;
            ip
        };
        let name = |f, sub, i: usize| ServerName::new(locode, site_id, f, sub, (i + 1) as u16);
        let vips = (0..n_vip)
            .map(|i| (name(Function::Vip, SubFunction::Bx, i), alloc(i)))
            .collect();
        let edge_bx: Vec<_> = (0..n_bx)
            .map(|i| (name(Function::Edge, SubFunction::Bx, i), alloc(i)))
            .collect();
        let edge_lx: Vec<_> = (0..n_lx)
            .map(|i| (name(Function::Edge, SubFunction::Lx, i), alloc(i)))
            .collect();
        EdgeSite {
            locode,
            site_id,
            coord,
            vips,
            bx_cache: vec![LruSet::new(BX_CACHE_OBJECTS); n_bx],
            lx_cache: vec![LruSet::new(LX_CACHE_OBJECTS); n_lx],
            edge_bx,
            edge_lx,
        }
    }

    /// The client-facing vip addresses — what the GSLB hands out.
    pub fn vip_addrs(&self) -> Vec<Ipv4Addr> {
        self.vips.iter().map(|(_, ip)| *ip).collect()
    }

    /// A stable 64-bit key identifying this site (location + site id) —
    /// the handle the fault layer hashes to place per-site outage and
    /// brownout windows.
    pub fn site_key(&self) -> u64 {
        // FNV-1a over the five locode bytes then the site id, hashed from
        // a stack buffer: the controller keys every site on every step.
        let mut bytes = [0u8; 6];
        bytes[..5].copy_from_slice(self.locode.as_str().as_bytes());
        bytes[5] = self.site_id;
        fnv64(&bytes)
    }

    /// Number of edge-bx servers (the per-site count shown in Figure 3).
    pub fn bx_count(&self) -> usize {
        self.edge_bx.len()
    }

    /// Every (name, address) pair at the site, all tiers.
    pub fn all_servers(&self) -> impl Iterator<Item = &(ServerName, Ipv4Addr)> {
        self.vips.iter().chain(&self.edge_bx).chain(&self.edge_lx)
    }

    /// Serves `req` for cache object `object` through the vip → bx → lx
    /// hierarchy, mutating cache state, and returns the response with the
    /// forensic headers plus the structured outcome.
    pub fn serve(&mut self, req: &HttpRequest, object: &str, size: u64) -> (HttpResponse, ServeOutcome) {
        // Vip choice: hash of client only (connection-level balancing).
        let vip_i = (fnv64(&req.client.octets()) % self.vips.len() as u64) as usize;
        let vip = self.vips[vip_i].0;
        // Bx choice: the vip's group of four, selected by client+object.
        // `group < n_bx` holds because n_vip = ceil(n_bx / BX_PER_VIP).
        let group = vip_i * BX_PER_VIP;
        let group_size = BX_PER_VIP.min(self.edge_bx.len() - group);
        let mut key = req.client.octets().to_vec();
        key.extend_from_slice(object.as_bytes());
        let bx_i = group + (fnv64(&key) % group_size as u64) as usize;
        let bx = self.edge_bx[bx_i].0;

        let bx_hit = self.bx_cache[bx_i].touch(object);
        let mut via = Vec::new();
        let mut x_cache = Vec::new();
        let mut lx_hit = None;
        let mut origin_fetch = false;
        if bx_hit {
            x_cache.push(Verdict::HitFresh);
        } else {
            self.bx_cache[bx_i].insert(object);
            x_cache.push(Verdict::Miss);
            // Parent selection by object, so one parent collects each object.
            let lx_i = (fnv64(object.as_bytes()) % self.edge_lx.len() as u64) as usize;
            let hit = self.lx_cache[lx_i].touch(object);
            lx_hit = Some(hit);
            if hit {
                x_cache.push(Verdict::HitFresh);
            } else {
                self.lx_cache[lx_i].insert(object);
                x_cache.push(Verdict::Miss);
                origin_fetch = true;
                x_cache.push(Verdict::HitOrigin);
                via.push(ViaEntry::origin_shield(&format!("{:032x}", fnv64(object.as_bytes()) as u128)));
            }
            via.push(ViaEntry::traffic_server(&format!(
                "{}.ts.apple.com",
                self.edge_lx[lx_i].0.fqdn().trim_end_matches(".aaplimg.com")
            )));
        }
        via.push(ViaEntry::traffic_server(&format!(
            "{}.ts.apple.com",
            self.edge_bx[bx_i].0.fqdn().trim_end_matches(".aaplimg.com")
        )));
        (
            HttpResponse { status: 200, content_length: size, via, x_cache },
            ServeOutcome { vip, bx, bx_hit, lx_hit, origin_fetch },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site() -> EdgeSite {
        EdgeSite::build(
            Locode::parse("defra").unwrap(),
            1,
            Coord::new(50.1, 8.7),
            32,
            Ipv4Addr::new(17, 253, 5, 0),
        )
    }

    fn req(last_octet: u8) -> HttpRequest {
        HttpRequest {
            host: "appldnld.apple.com".into(),
            path: "/ios/iPhone_11.0_Restore.ipsw".into(),
            client: Ipv4Addr::new(198, 51, 100, last_octet),
        }
    }

    #[test]
    fn structure_matches_paper_ratios() {
        let s = site();
        assert_eq!(s.bx_count(), 32);
        assert_eq!(s.vip_addrs().len(), 8, "one vip per four edge-bx");
        assert_eq!(s.all_servers().count(), 32 + 8 + 2);
    }

    #[test]
    fn cold_serve_produces_full_chain() {
        let mut s = site();
        let (resp, out) = s.serve(&req(1), "obj-a", 1000);
        assert_eq!(resp.status, 200);
        assert!(!out.bx_hit);
        assert_eq!(out.lx_hit, Some(false));
        assert!(out.origin_fetch);
        // Via: cloudfront, lx, bx — origin first, like the paper's capture.
        assert_eq!(resp.via.len(), 3);
        assert!(resp.via[0].host.ends_with("cloudfront.net"));
        assert!(resp.via[1].host.contains("edge-lx"));
        assert!(resp.via[2].host.contains("edge-bx"));
    }

    #[test]
    fn second_identical_request_hits_bx() {
        let mut s = site();
        let _ = s.serve(&req(1), "obj-a", 1000);
        let (resp, out) = s.serve(&req(1), "obj-a", 1000);
        assert!(out.bx_hit);
        assert_eq!(out.lx_hit, None);
        assert!(!out.origin_fetch);
        assert_eq!(resp.via.len(), 1);
        assert_eq!(resp.x_cache, vec![Verdict::HitFresh]);
    }

    #[test]
    fn different_client_same_object_hits_lx() {
        let mut s = site();
        let _ = s.serve(&req(1), "obj-a", 1000);
        // Find a client mapped to a different bx: try a few.
        for o in 2u8..200 {
            let (_, probe) = s.clone().serve(&req(o), "obj-a", 1000);
            if !probe.bx_hit && probe.lx_hit == Some(true) {
                let (resp, out) = s.serve(&req(o), "obj-a", 1000);
                assert!(!out.bx_hit);
                assert_eq!(out.lx_hit, Some(true));
                assert!(!out.origin_fetch, "lx already has the object");
                assert_eq!(resp.via.len(), 2);
                return;
            }
        }
        panic!("no client found hashing to a different bx group");
    }

    #[test]
    fn vip_is_stable_per_client() {
        let mut s = site();
        let (_, a) = s.serve(&req(7), "obj-a", 1);
        let (_, b) = s.serve(&req(7), "obj-b", 1);
        assert_eq!(a.vip, b.vip, "vip choice depends only on the client");
    }

    #[test]
    fn tiny_site_with_fewer_bx_than_group() {
        let mut s = EdgeSite::build(
            Locode::parse("usmia").unwrap(),
            1,
            Coord::new(25.8, -80.2),
            2,
            Ipv4Addr::new(17, 253, 9, 0),
        );
        assert_eq!(s.vip_addrs().len(), 1);
        let (resp, _) = s.serve(&req(3), "obj", 1);
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn fnv_is_deterministic_and_spread() {
        assert_eq!(fnv64(b"abc"), fnv64(b"abc"));
        assert_ne!(fnv64(b"abc"), fnv64(b"abd"));
    }

    #[test]
    fn site_keys_distinguish_sites() {
        let a = site();
        let b = EdgeSite::build(
            Locode::parse("defra").unwrap(),
            2,
            Coord::new(50.1, 8.7),
            32,
            Ipv4Addr::new(17, 253, 6, 0),
        );
        assert_eq!(a.site_key(), site().site_key(), "key is stable");
        assert_ne!(a.site_key(), b.site_key(), "site id distinguishes co-located sites");
    }

    #[test]
    fn site_key_digest_is_pinned() {
        // FNV-1a of b"defra\x01": chaos site-outage draws and the down-site
        // registry key on this value, so it must never drift.
        assert_eq!(site().site_key(), fnv64(b"defra\x01"));
        assert_eq!(site().site_key(), 0x2516_2c0c_bd70_cb40);
    }
}
