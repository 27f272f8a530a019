//! Wiring the Meta-CDN into DNS zones.
//!
//! [`build_namespace`] installs every zone of Figure 2 into a
//! [`Namespace`]: static CNAMEs where the paper found stable records, and
//! [`MappingPolicy`](mcdn_dnssim::MappingPolicy) closures (consulting the
//! shared [`MetaCdnState`]) at
//! the three decision points. The result is a namespace that an
//! [`InternedResolver`](mcdn_dnssim::InternedResolver), over its
//! [`CompiledNamespace`](mcdn_dnssim::CompiledNamespace), can query exactly
//! like the paper's probes queried the real infrastructure.

use crate::kinds::CdnKind;
use crate::names;
use crate::state::MetaCdnState;
use mcdn_cdn::site::fnv64;
use mcdn_cdn::{GslbDirectory, ThirdPartyCdn};
use mcdn_dnssim::{Namespace, PolicyAnswer, PolicyScope, QueryContext, Zone};
use mcdn_dnswire::{Name, RData, RecordType, ResourceRecord};
use mcdn_geo::continent::SpecialMarket;
use mcdn_geo::Region;
use mcdn_intern::FnvBuildHasher;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Everything needed to instantiate the mapping zones.
pub struct MetaCdnConfig {
    /// Shared controller state (schedule + live loads).
    pub state: Arc<MetaCdnState>,
    /// Apple GSLB answer data.
    pub gslb: GslbDirectory,
    /// Akamai model.
    pub akamai: Arc<ThirdPartyCdn>,
    /// Limelight model.
    pub limelight: Arc<ThirdPartyCdn>,
    /// Level3 model, if re-enabled (`None` reproduces the post-June-2017
    /// state the paper measured).
    pub level3: Option<Arc<ThirdPartyCdn>>,
    /// Dedicated China-market delivery addresses.
    pub china_ips: Vec<Ipv4Addr>,
    /// Dedicated India-market delivery addresses.
    pub india_ips: Vec<Ipv4Addr>,
    /// Address of the `mesu.apple.com` manifest host.
    pub mesu_ip: Ipv4Addr,
    /// A records per Akamai answer (Akamai characteristically returns
    /// many; 8 is typical).
    pub akamai_answer_k: usize,
    /// A records per Limelight (and Level3) answer.
    pub limelight_answer_k: usize,
    /// Coordinates of Apple's own edge sites, for the coverage rule.
    pub apple_site_coords: Vec<mcdn_geo::Coord>,
}

/// Distance beyond which a client counts as outside Apple's own footprint.
pub const COVERAGE_KM: f64 = 4000.0;
/// Factor applied to Apple's selection weight outside the footprint.
///
/// §3.2 interprets the mapping design as providing "coverage of areas where
/// Apple has not deployed its own infrastructure": clients far from any
/// Apple site (South America, Africa) are predominantly mapped to
/// third-party CDNs. This multiplicative penalty reproduces that.
pub const COVERAGE_PENALTY: f64 = 0.15;

fn cname(owner: &Name, target: &Name, ttl: u32) -> ResourceRecord {
    ResourceRecord::new(owner.clone(), ttl, RData::Cname(target.clone()))
}

fn a_records(owner: &Name, ttl: u32, addrs: &[Ipv4Addr]) -> Vec<ResourceRecord> {
    addrs.iter().map(|ip| ResourceRecord::new(owner.clone(), ttl, RData::A(*ip))).collect()
}

/// IPv4-only guard: the paper found the mapping entry points answer no AAAA.
fn only_a(qtype: RecordType, f: impl FnOnce() -> PolicyAnswer) -> PolicyAnswer {
    if qtype == RecordType::A {
        f()
    } else {
        PolicyAnswer::Empty
    }
}

/// The continent whose demand dominates a routing region.
fn primary_continent(region: Region) -> mcdn_geo::Continent {
    match region {
        Region::Us => mcdn_geo::Continent::NorthAmerica,
        Region::Eu => mcdn_geo::Continent::Europe,
        Region::Apac => mcdn_geo::Continent::Asia,
    }
}

/// CDN load balancers widen their pools where the demand actually is:
/// clients on a region's secondary continents (Africa within EU, South
/// America within US) keep being served from the stable footprint, which is
/// why the paper's Figure 4 shows the unique-IP spike in Europe but not in
/// Africa even though both resolve through `ios8-eu-lb`.
fn client_load(region: Region, client_continent: mcdn_geo::Continent, load: f64) -> f64 {
    if client_continent == primary_continent(region) {
        load
    } else {
        load * 0.15
    }
}

/// Builds the complete mapping namespace.
pub fn build_namespace(cfg: &MetaCdnConfig) -> Namespace {
    let mut ns = Namespace::new();
    ns.add_zone(apple_com_zone(cfg));
    ns.add_zone(akadns_zone(cfg));
    ns.add_zone(applimg_zone(cfg));
    ns.add_zone(edgesuite_zone(cfg));
    ns.add_zone(akamai_net_zone(cfg));
    ns.add_zone(llnwi_zone(cfg));
    ns.add_zone(llnwd_zone(cfg));
    if cfg.level3.is_some() {
        ns.add_zone(level3_zone(cfg));
    }
    ns
}

/// `apple.com`: the static entry CNAME and the manifest host.
fn apple_com_zone(cfg: &MetaCdnConfig) -> Zone {
    let mut z = Zone::new(Name::parse("apple.com").expect("static"));
    z.add(cname(&names::entry(), &names::geo_split(), names::TTL_ENTRY));
    z.add(ResourceRecord::new(names::mesu(), 300, RData::A(cfg.mesu_ip)));
    z
}

/// `akadns.net`: step ① (geo split) and step ③ (third-party selector).
fn akadns_zone(cfg: &MetaCdnConfig) -> Zone {
    let mut z = Zone::new(Name::parse("akadns.net").expect("static"));

    // Step ①: China/India diversion, everything else back to Apple.
    // The answer depends only on the client's city (its special-market
    // membership), never its address — declared City-scoped so the
    // engine's per-round memo can replay it across a city's probes.
    z.set_policy_scoped(
        names::geo_split(),
        vec![
            names::selector(),
            names::special_lb(SpecialMarket::China.label()),
            names::special_lb(SpecialMarket::India.label()),
        ],
        Arc::new(|qtype: RecordType, ctx: &QueryContext, _: &mut Vec<Ipv4Addr>| {
            only_a(qtype, || {
                let target = match ctx.locode.special_market() {
                    None => 0,
                    Some(SpecialMarket::China) => 1,
                    Some(SpecialMarket::India) => 2,
                };
                PolicyAnswer::Cname { target, ttl: names::TTL_GEO }
            })
        }),
        PolicyScope::City,
    );

    // Dedicated market pools (terminal A records).
    for (market, ips) in [("china", &cfg.china_ips), ("india", &cfg.india_ips)] {
        let owner = names::special_lb(market);
        for rr in a_records(&owner, names::TTL_SPECIAL_A, ips) {
            z.add(rr);
        }
    }

    // Step ③: one selector per region, choosing among third-party CDNs.
    for region in Region::ALL {
        let state = Arc::clone(&cfg.state);
        let has_level3 = cfg.level3.is_some();
        // Level3's handover is declared (and picked) only when re-enabled.
        let mut targets = vec![names::akamai_edgesuite(), names::limelight_lb(region)];
        if has_level3 {
            targets.push(names::level3_lb());
        }
        z.set_policy(
            names::region_lb(region),
            targets,
            Arc::new(move |qtype: RecordType, ctx: &QueryContext, _: &mut Vec<Ipv4Addr>| {
                only_a(qtype, || {
                    let pick = state
                        .select_third_party(region, ctx.client_ip, ctx.now)
                        .unwrap_or(CdnKind::Akamai);
                    let target = match pick {
                        CdnKind::Akamai | CdnKind::Apple => 0,
                        CdnKind::Limelight => 1,
                        CdnKind::Level3 if has_level3 => 2,
                        CdnKind::Level3 => 0,
                    };
                    PolicyAnswer::Cname { target, ttl: names::TTL_REGION_LB }
                })
            }),
        );
    }
    z
}

/// `applimg.com`: step ② (the Meta-CDN selector) and step ④ (Apple GSLB).
fn applimg_zone(cfg: &MetaCdnConfig) -> Zone {
    let mut z = Zone::new(Name::parse("applimg.com").expect("static"));

    let state = Arc::clone(&cfg.state);
    let site_coords = cfg.apple_site_coords.clone();
    // Whether a client coordinate is outside Apple's footprint is a pure
    // function of the coordinate; memoize it so the per-query cost is one
    // map probe instead of a distance scan over every site.
    let coverage: std::sync::RwLock<HashMap<(u64, u64), bool, FnvBuildHasher>> =
        std::sync::RwLock::new(HashMap::default());
    z.set_policy(
        names::selector(),
        // 0/1: the two GSLB heads; 2 + `Region as u16`: the regional
        // third-party selectors, in `Region::ALL` order.
        vec![
            names::gslb('a'),
            names::gslb('b'),
            names::region_lb(Region::Us),
            names::region_lb(Region::Eu),
            names::region_lb(Region::Apac),
        ],
        Arc::new(move |qtype: RecordType, ctx: &QueryContext, _: &mut Vec<Ipv4Addr>| {
            only_a(qtype, || {
                let region = ctx.region();
                let mut probs = state.effective_share(region, ctx.now);
                // Coverage rule: clients far from every Apple site are
                // mostly mapped to third parties.
                let ckey = (ctx.coord.lat.to_bits(), ctx.coord.lon.to_bits());
                let cached = coverage.read().expect("coverage cache poisoned").get(&ckey).copied();
                let remote = cached.unwrap_or_else(|| {
                    let nearest_km = site_coords
                        .iter()
                        .map(|c| ctx.coord.distance_km(c))
                        .fold(f64::INFINITY, f64::min);
                    let remote = nearest_km > COVERAGE_KM;
                    coverage.write().expect("coverage cache poisoned").insert(ckey, remote);
                    remote
                });
                if remote {
                    for (k, p) in probs.iter_mut() {
                        if *k == CdnKind::Apple {
                            *p *= COVERAGE_PENALTY;
                        }
                    }
                }
                let pick = crate::state::pick_weighted(&probs, ctx.client_ip, ctx.now, 0)
                    .unwrap_or(CdnKind::Apple);
                let target = match pick {
                    // Two interchangeable GSLB heads, split per client.
                    CdnKind::Apple => (fnv64(&ctx.client_ip.octets()) & 1) as u16,
                    _ => 2 + region as u16,
                };
                PolicyAnswer::Cname { target, ttl: names::TTL_SELECTOR }
            })
        }),
    );

    for which in ['a', 'b'] {
        let gslb = cfg.gslb.clone();
        let state = Arc::clone(&cfg.state);
        z.set_policy(
            names::gslb(which),
            Vec::new(),
            Arc::new(move |qtype: RecordType, ctx: &QueryContext, addrs: &mut Vec<Ipv4Addr>| {
                only_a(qtype, || {
                    // Health-checked mapping: sites the controller marked
                    // down are skipped, so clients fail over to the next
                    // nearest site instead of receiving dead vips. The
                    // down set is read once per answer.
                    state.with_down_sites(|down| {
                        gslb.answer_filtered(ctx.client_ip, ctx.coord, ctx.now, down, addrs)
                    });
                    PolicyAnswer::A { ttl: names::TTL_APPLE_A }
                })
            }),
        );
    }
    z
}

/// `edgesuite.net`: Akamai's handover, switching to the event map when
/// the controller reports it active.
fn edgesuite_zone(cfg: &MetaCdnConfig) -> Zone {
    let mut z = Zone::new(Name::parse("edgesuite.net").expect("static"));
    let state = Arc::clone(&cfg.state);
    z.set_policy(
        names::akamai_edgesuite(),
        vec![names::akamai_map_baseline(), names::akamai_map_event()],
        Arc::new(move |qtype: RecordType, ctx: &QueryContext, _: &mut Vec<Ipv4Addr>| {
            only_a(qtype, || {
                // When the event map is live, it takes the bulk (~70 %) of
                // clients; assignment re-randomizes every five minutes, as
                // Akamai's mapping continuously re-decides.
                let mut key = [0u8; 12];
                key[..4].copy_from_slice(&ctx.client_ip.octets());
                key[4..].copy_from_slice(&(ctx.now.as_secs() / 300).to_be_bytes());
                let event = state.a1015_active(ctx.region(), ctx.now) && fnv64(&key) % 10 < 7;
                PolicyAnswer::Cname { target: u16::from(event), ttl: names::TTL_EDGESUITE }
            })
        }),
    );
    z
}

/// `akamai.net`: the two maps answering with edge addresses. The baseline
/// map exposes at most the on-net half of Akamai's ramp; the event map
/// answers from the fully widened pool, including off-net caches.
fn akamai_net_zone(cfg: &MetaCdnConfig) -> Zone {
    let mut z = Zone::new(Name::parse("akamai.net").expect("static"));
    for (owner, full_pool) in
        [(names::akamai_map_baseline(), false), (names::akamai_map_event(), true)]
    {
        let akamai = Arc::clone(&cfg.akamai);
        let state = Arc::clone(&cfg.state);
        let k = cfg.akamai_answer_k;
        z.set_policy(
            owner,
            Vec::new(),
            Arc::new(move |qtype: RecordType, ctx: &QueryContext, addrs: &mut Vec<Ipv4Addr>| {
                only_a(qtype, || {
                    let region = ctx.region();
                    let load = state.cdn_load(CdnKind::Akamai, region);
                    // The baseline map never exposes more than half the
                    // ramp; the a1015 event map is pre-provisioned for the
                    // event and answers from the full widened pool
                    // (including off-net caches) for as long as it exists.
                    let load = if full_pool { load.max(0.8) } else { load.min(0.5) };
                    let load = client_load(region, ctx.continent, load);
                    akamai.answer(region, load, ctx.client_ip, ctx.now, k, addrs);
                    PolicyAnswer::A { ttl: names::TTL_AKAMAI_A }
                })
            }),
        );
    }
    z
}

fn limelight_policy_zone(cfg: &MetaCdnConfig, origin: &str, owner: Name) -> Zone {
    let mut z = Zone::new(Name::parse(origin).expect("static"));
    let limelight = Arc::clone(&cfg.limelight);
    let state = Arc::clone(&cfg.state);
    let k = cfg.limelight_answer_k;
    z.set_policy(
        owner,
        Vec::new(),
        Arc::new(move |qtype: RecordType, ctx: &QueryContext, addrs: &mut Vec<Ipv4Addr>| {
            only_a(qtype, || {
                let region = ctx.region();
                let load = state.cdn_load(CdnKind::Limelight, region);
                let load = client_load(region, ctx.continent, load);
                limelight.answer(region, load, ctx.client_ip, ctx.now, k, addrs);
                PolicyAnswer::A { ttl: names::TTL_LIMELIGHT_A }
            })
        }),
    );
    z
}

/// `llnwi.net`: Limelight's US/EU handover.
fn llnwi_zone(cfg: &MetaCdnConfig) -> Zone {
    limelight_policy_zone(cfg, "llnwi.net", names::limelight_lb(Region::Us))
}

/// `llnwd.net`: Limelight's APAC handover.
fn llnwd_zone(cfg: &MetaCdnConfig) -> Zone {
    limelight_policy_zone(cfg, "llnwd.net", names::limelight_lb(Region::Apac))
}

/// `lvl3.net`: only installed when Level3 is re-enabled.
fn level3_zone(cfg: &MetaCdnConfig) -> Zone {
    let mut z = Zone::new(Name::parse("lvl3.net").expect("static"));
    let level3 = Arc::clone(cfg.level3.as_ref().expect("level3 configured"));
    let state = Arc::clone(&cfg.state);
    let k = cfg.limelight_answer_k;
    z.set_policy(
        names::level3_lb(),
        Vec::new(),
        Arc::new(move |qtype: RecordType, ctx: &QueryContext, addrs: &mut Vec<Ipv4Addr>| {
            only_a(qtype, || {
                let region = ctx.region();
                let load = state.cdn_load(CdnKind::Level3, region);
                level3.answer(region, load, ctx.client_ip, ctx.now, k, addrs);
                PolicyAnswer::A { ttl: 60 }
            })
        }),
    );
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CdnShare, Schedule};
    use mcdn_cdn::{AppleCdn, SiteSpec};
    use mcdn_dnssim::{resolve_cold, CompiledNamespace};
    use mcdn_geo::{Continent, Locode, SimTime};
    use mcdn_netsim::{AsId, Ipv4Net};

    fn apple() -> AppleCdn {
        AppleCdn::build(
            &[
                SiteSpec { locode: "defra", sites: 1, bx_per_site: 32 },
                SiteSpec { locode: "usnyc", sites: 1, bx_per_site: 32 },
            ],
            10e9,
        )
    }

    fn config(apple_w: f64) -> MetaCdnConfig {
        let apple = apple();
        let ak_net = Ipv4Net::parse("23.0.0.0/16").unwrap();
        let ll_net = Ipv4Net::parse("68.232.0.0/16").unwrap();
        let akamai = ThirdPartyCdn::new("Akamai", AsId(20940))
            .with_base(Region::Eu, ThirdPartyCdn::ips_from_prefix(ak_net, 0, 20))
            .with_surge(Region::Eu, ThirdPartyCdn::ips_from_prefix(ak_net, 20, 80));
        let limelight = ThirdPartyCdn::new("Limelight", AsId(22822))
            .with_base(Region::Eu, ThirdPartyCdn::ips_from_prefix(ll_net, 0, 20))
            .with_surge(Region::Eu, ThirdPartyCdn::ips_from_prefix(ll_net, 20, 200));
        let share = CdnShare { apple: apple_w, akamai: 0.5, limelight: 0.5, level3: 0.0 };
        let apple_site_coords = apple.sites().iter().map(|s| s.coord).collect();
        MetaCdnConfig {
            state: Arc::new(MetaCdnState::new(Schedule::constant(share))),
            gslb: apple.gslb_directory(),
            akamai: Arc::new(akamai),
            limelight: Arc::new(limelight),
            level3: None,
            china_ips: vec![Ipv4Addr::new(17, 200, 1, 1)],
            india_ips: vec![Ipv4Addr::new(17, 200, 2, 1)],
            mesu_ip: Ipv4Addr::new(17, 110, 229, 10),
            akamai_answer_k: 2,
            limelight_answer_k: 2,
            apple_site_coords,
        }
    }

    fn ctx(city: &str, cont: Continent, ip: u32) -> QueryContext {
        let locode = Locode::parse(city).unwrap();
        let c = mcdn_geo::Registry::by_locode(locode).unwrap();
        QueryContext {
            client_ip: Ipv4Addr::from(ip),
            locode,
            coord: c.coord,
            continent: cont,
            now: SimTime::from_ymd_hms(2017, 9, 15, 12, 0, 0),
        }
    }

    #[test]
    fn apple_branch_resolves_to_delivery_prefix() {
        let cfg = config(1000.0); // overwhelmingly Apple
        let ns = build_namespace(&cfg);
        let cns = CompiledNamespace::compile(&ns);
        let c = ctx("defra", Continent::Europe, 0x0A00_0001);
        let (trace, res) = resolve_cold(&cns, &names::entry(), RecordType::A, &c);
        res.unwrap();
        let addrs = trace.addresses();
        assert!(!addrs.is_empty());
        for ip in addrs {
            assert!(AppleCdn::delivery_prefix().contains(ip), "{ip} not Apple");
        }
        // Chain: entry → geo split → selector → gslb.
        let edges = trace.cname_edges();
        assert_eq!(edges.len(), 3);
        assert_eq!(edges[0].2, names::TTL_ENTRY);
        assert_eq!(edges[1].2, names::TTL_GEO);
        assert_eq!(edges[2].2, names::TTL_SELECTOR);
        let terminal = trace.steps.last().unwrap().qname.to_string();
        assert!(terminal == "a.gslb.applimg.com" || terminal == "b.gslb.applimg.com");
    }

    #[test]
    fn third_party_branch_goes_through_region_lb() {
        let cfg = config(0.0); // never Apple
        let ns = build_namespace(&cfg);
        let cns = CompiledNamespace::compile(&ns);
        let c = ctx("defra", Continent::Europe, 0x0A00_0002);
        let (trace, res) = resolve_cold(&cns, &names::entry(), RecordType::A, &c);
        res.unwrap();
        let chain: Vec<String> =
            trace.cname_edges().iter().map(|(_, t, _)| t.to_string()).collect();
        assert!(chain.contains(&"ios8-eu-lb.apple.com.akadns.net".to_string()), "{chain:?}");
        assert!(!trace.addresses().is_empty());
    }

    #[test]
    fn china_diversion() {
        let cfg = config(1.0);
        let ns = build_namespace(&cfg);
        let cns = CompiledNamespace::compile(&ns);
        let c = ctx("cnsha", Continent::Asia, 0x0A00_0003);
        let (trace, res) = resolve_cold(&cns, &names::entry(), RecordType::A, &c);
        res.unwrap();
        let chain: Vec<String> =
            trace.cname_edges().iter().map(|(_, t, _)| t.to_string()).collect();
        assert!(chain.contains(&"china-lb.itunes-apple.com.akadns.net".to_string()));
        assert_eq!(trace.addresses(), vec![Ipv4Addr::new(17, 200, 1, 1)]);
    }

    #[test]
    fn india_diversion() {
        let cfg = config(1.0);
        let ns = build_namespace(&cfg);
        let cns = CompiledNamespace::compile(&ns);
        let c = ctx("inbom", Continent::Asia, 0x0A00_0004);
        let (trace, _) = resolve_cold(&cns, &names::entry(), RecordType::A, &c);
        assert_eq!(trace.addresses(), vec![Ipv4Addr::new(17, 200, 2, 1)]);
    }

    #[test]
    fn mapping_is_ipv4_only() {
        let cfg = config(1.0);
        let ns = build_namespace(&cfg);
        let cns = CompiledNamespace::compile(&ns);
        let c = ctx("defra", Continent::Europe, 0x0A00_0005);
        let (trace, res) = resolve_cold(&cns, &names::entry(), RecordType::Aaaa, &c);
        res.unwrap();
        assert!(trace.addresses().is_empty(), "no AAAA should ever be served");
        assert!(!trace
            .steps
            .iter()
            .any(|s| s.records.iter().any(|rr| rr.rtype() == RecordType::Aaaa)));
    }

    #[test]
    fn event_map_appears_only_after_lag() {
        let cfg = config(0.0);
        let ns = build_namespace(&cfg);
        let cns = CompiledNamespace::compile(&ns);
        let release = SimTime::from_ymd_hms(2017, 9, 19, 17, 0, 0);
        cfg.state.set_cdn_load(CdnKind::Akamai, Region::Eu, 0.9, release);

        // Find a client that the edgesuite policy maps to the event map and
        // whose third-party pick is Akamai.
        let hits = |now: SimTime| -> bool {
            let mut any = false;
            for i in 0..64u32 {
                let mut c = ctx("defra", Continent::Europe, 0x0A00_1000 + i);
                c.now = now;
                let (trace, _) = resolve_cold(&cns, &names::entry(), RecordType::A, &c);
                if trace
                    .cname_edges()
                    .iter()
                    .any(|(_, t, _)| t.to_string() == "a1015.gi3.akamai.net")
                {
                    any = true;
                }
            }
            any
        };
        assert!(!hits(release + mcdn_geo::Duration::hours(1)));
        assert!(hits(release + mcdn_geo::Duration::hours(7)));
    }

    #[test]
    fn mesu_manifest_host_resolves_statically() {
        let cfg = config(1.0);
        let ns = build_namespace(&cfg);
        let cns = CompiledNamespace::compile(&ns);
        let c = ctx("usnyc", Continent::NorthAmerica, 0x0A00_0006);
        let (trace, res) = resolve_cold(&cns, &names::mesu(), RecordType::A, &c);
        res.unwrap();
        assert_eq!(trace.addresses(), vec![cfg.mesu_ip]);
        assert_eq!(trace.steps.len(), 1, "no CNAME indirection for mesu");
    }

    #[test]
    fn coverage_rule_penalizes_remote_clients() {
        // Equal Apple/third-party weight; Akamai pool also in the US region
        // so South American clients (region Us) get answers.
        let mut cfg = config(1.0);
        let ak_net = Ipv4Net::parse("23.64.0.0/16").unwrap();
        cfg.akamai = Arc::new(
            ThirdPartyCdn::new("Akamai", AsId(20940))
                .with_base(Region::Us, ThirdPartyCdn::ips_from_prefix(ak_net, 0, 20)),
        );
        cfg.limelight = Arc::new(
            ThirdPartyCdn::new("Limelight", AsId(22822))
                .with_base(Region::Us, ThirdPartyCdn::ips_from_prefix(ak_net, 100, 20)),
        );
        let ns = build_namespace(&cfg);
        let cns = CompiledNamespace::compile(&ns);
        let mut apple_hits_sa = 0;
        let mut apple_hits_us = 0;
        for i in 0..200u32 {
            for (city, cont, counter) in [
                ("brsao", Continent::SouthAmerica, &mut apple_hits_sa),
                ("usnyc", Continent::NorthAmerica, &mut apple_hits_us),
            ] {
                let c = ctx(city, cont, 0x0A01_0000 + i * 3);
                let (trace, _) = resolve_cold(&cns, &names::entry(), RecordType::A, &c);
                if trace
                    .addresses()
                    .iter()
                    .any(|ip| AppleCdn::delivery_prefix().contains(*ip))
                {
                    *counter += 1;
                }
            }
        }
        // Both use the Us schedule, but São Paulo is >4000 km from every
        // Apple site, so it sees far fewer Apple answers than New York.
        assert!(
            apple_hits_sa * 3 < apple_hits_us,
            "coverage rule should bite: SA {apple_hits_sa} vs US {apple_hits_us}"
        );
    }

    /// Both consumers of a policy decision agree: for every policy
    /// `build_namespace` installs, the compiled namespace's interned
    /// records equal the string zone's `Zone::answer` records over a city
    /// × client × time × qtype grid — Level3 re-enabled, one Apple site
    /// down, Akamai's event map live, China and India cities included.
    #[test]
    fn interned_and_string_answers_agree_for_every_policy() {
        use mcdn_dnssim::{
            CompiledNamespace, InternedResolver, NoInternedFaults, ResolveScratch, ZoneAnswer,
        };
        let mut cfg = config(0.4);
        let l3_net = Ipv4Net::parse("4.23.0.0/16").unwrap();
        cfg.level3 = Some(Arc::new(
            ThirdPartyCdn::new("Level3", AsId(3356))
                .with_base(Region::Eu, ThirdPartyCdn::ips_from_prefix(l3_net, 0, 10))
                .with_base(Region::Us, ThirdPartyCdn::ips_from_prefix(l3_net, 100, 10)),
        ));
        cfg.state = Arc::new(MetaCdnState::new(Schedule::constant(CdnShare {
            apple: 0.4,
            akamai: 0.2,
            limelight: 0.2,
            level3: 0.2,
        })));
        let release = SimTime::from_ymd_hms(2017, 9, 19, 17, 0, 0);
        cfg.state.set_cdn_load(CdnKind::Akamai, Region::Eu, 0.9, release);
        cfg.state.set_cdn_load(CdnKind::Limelight, Region::Eu, 0.6, release);
        cfg.state.set_site_down(apple().sites()[0].site_key(), true);
        let ns = build_namespace(&cfg);
        let cns = CompiledNamespace::compile(&ns);
        let mut scratch = ResolveScratch::new();
        let cities = [
            ("defra", Continent::Europe),
            ("gblon", Continent::Europe),
            ("usnyc", Continent::NorthAmerica),
            ("brsao", Continent::SouthAmerica),
            ("cnsha", Continent::Asia),
            ("inbom", Continent::Asia),
        ];
        let mut policies = 0;
        let mut records = 0;
        for zone in ns.zones() {
            for owner in zone.policy_names() {
                policies += 1;
                let id = cns.table().get(owner).expect("policy owners are compiled");
                for (city, continent) in cities {
                    for client in 0..6u32 {
                        for hours in [0, 3, 7, 30] {
                            for qtype in [RecordType::A, RecordType::Aaaa, RecordType::Cname] {
                                let mut c = ctx(city, continent, 0x0A00_2000 + client * 37);
                                c.now = release + mcdn_geo::Duration::hours(hours);
                                let ZoneAnswer::Records(want) = zone.answer(owner, qtype, &c)
                                else {
                                    panic!("a policy always answers with records");
                                };
                                InternedResolver::new()
                                    .resolve(
                                        &cns,
                                        &mut scratch,
                                        id,
                                        qtype,
                                        &c,
                                        &NoInternedFaults,
                                        0,
                                        None,
                                    )
                                    .expect("policy names resolve");
                                let got = cns.materialize_trace(scratch.trace());
                                assert_eq!(
                                    got.steps[0].records, want,
                                    "{owner} {qtype:?} from {city} client {client} at +{hours}h"
                                );
                                records += want.len();
                            }
                        }
                    }
                }
            }
        }
        // Geo split, selector, 3 region selectors, 2 GSLBs, edgesuite,
        // 2 Akamai maps, 2 Limelight handovers, Level3.
        assert_eq!(policies, 13);
        assert!(records > 0);
    }

    #[test]
    fn level3_branch_when_reenabled() {
        let mut cfg = config(0.0);
        let l3_net = Ipv4Net::parse("4.23.0.0/16").unwrap();
        cfg.level3 = Some(Arc::new(
            ThirdPartyCdn::new("Level3", AsId(3356))
                .with_base(Region::Eu, ThirdPartyCdn::ips_from_prefix(l3_net, 0, 10)),
        ));
        // Give Level3 all third-party weight.
        cfg.state = Arc::new(MetaCdnState::new(Schedule::constant(CdnShare {
            apple: 0.0,
            akamai: 0.0,
            limelight: 0.0,
            level3: 1.0,
        })));
        let ns = build_namespace(&cfg);
        let cns = CompiledNamespace::compile(&ns);
        let c = ctx("defra", Continent::Europe, 0x0A00_0007);
        let (trace, res) = resolve_cold(&cns, &names::entry(), RecordType::A, &c);
        res.unwrap();
        let chain: Vec<String> =
            trace.cname_edges().iter().map(|(_, t, _)| t.to_string()).collect();
        assert!(chain.contains(&"apple.download.lvl3.net".to_string()), "{chain:?}");
        for ip in trace.addresses() {
            assert!(l3_net.contains(ip));
        }
    }
}
