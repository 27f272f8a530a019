//! Building the measured world: topology, CDNs, Meta-CDN namespace, probes.

use crate::classes::{classify_ip, CdnClass, DnsAttribution};
use crate::config::ScenarioConfig;
use crate::params;
use crate::sites::APPLE_SITES;
use mcdn_atlas::{spread_specs, ProbeSpec, VantageVm};
use mcdn_cdn::{AppleCdn, GslbDirectory, OffNetPool, ThirdPartyCdn};
use mcdn_dnssim::Namespace;
use mcdn_geo::{City, Continent, Locode, Region, Registry, SimTime};
use mcdn_netsim::{AsId, AsInfo, AsKind, Ipv4Net, LinkId, Relationship, Topology};
use mcdn_workload::{AdoptionModel, Population, UpdateEvent};
use metacdn::{build_namespace, MetaCdnConfig, MetaCdnState};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// The assembled scenario world.
pub struct World {
    /// AS-level topology with the full BGP RIB.
    pub topo: Topology,
    /// Apple's CDN (sites, address plan, PTR surface).
    pub apple: AppleCdn,
    /// Apple GSLB data.
    pub gslb: GslbDirectory,
    /// Akamai model.
    pub akamai: Arc<ThirdPartyCdn>,
    /// Limelight model.
    pub limelight: Arc<ThirdPartyCdn>,
    /// Shared Meta-CDN controller state.
    pub state: Arc<MetaCdnState>,
    /// The complete mapping namespace.
    pub ns: Namespace,
    /// The demand model.
    pub adoption: AdoptionModel,
    /// Global probe placements.
    pub global_probe_specs: Vec<ProbeSpec>,
    /// In-ISP probe placements.
    pub isp_probe_specs: Vec<ProbeSpec>,
    /// The nine vantage VMs.
    pub vms: Vec<VantageVm>,
    /// The four ISP↔AS-D link ids (Figure 8 saturation watch-list).
    pub isp_d_links: Vec<LinkId>,
    /// Apple vips serving the ISP's footprint (nearest EU sites).
    pub apple_isp_vips: Vec<Ipv4Addr>,
}

/// Why a [`World`] could not be assembled from a configuration.
///
/// Every lookup the builder performs against static data (city registry,
/// prefix literals) is checked; a typo in [`crate::params`] or
/// [`crate::sites`] surfaces as one of these instead of a panic deep in
/// the build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorldBuildError {
    /// A UN/LOCODE literal failed to parse.
    BadLocode(String),
    /// A locode parsed but names no city in the registry.
    UnknownCity(String),
    /// An IPv4 prefix literal failed to parse.
    BadPrefix(String),
    /// A continent needed for probe or cache placement has no registered
    /// cities.
    EmptyContinent(Continent),
    /// The weight schedule can send clients to a CDN that has no serving
    /// addresses in the region — those answers would NXDOMAIN at runtime.
    EmptyCdnPool {
        /// The scheduled CDN.
        kind: metacdn::CdnKind,
        /// The region whose pool is empty.
        region: Region,
    },
}

impl std::fmt::Display for WorldBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorldBuildError::BadLocode(s) => write!(f, "invalid UN/LOCODE {s:?}"),
            WorldBuildError::UnknownCity(s) => write!(f, "locode {s:?} is not in the city registry"),
            WorldBuildError::BadPrefix(s) => write!(f, "invalid IPv4 prefix {s:?}"),
            WorldBuildError::EmptyContinent(c) => write!(f, "no registered cities on {c}"),
            WorldBuildError::EmptyCdnPool { kind, region } => {
                write!(f, "schedule sends {region:?} clients to {kind:?}, which has no addresses there")
            }
        }
    }
}

impl std::error::Error for WorldBuildError {}

/// Checks that every CDN the schedule can ever select in a region has at
/// least one serving address there. `pool_size` reports the configured
/// address count per (kind, region).
fn validate_cdn_pools(
    schedule: &metacdn::Schedule,
    pool_size: impl Fn(metacdn::CdnKind, Region) -> usize,
) -> Result<(), WorldBuildError> {
    for region in [Region::Us, Region::Eu, Region::Apac] {
        for kind in metacdn::CdnKind::ALL {
            if schedule.ever_uses_in(region, kind) && pool_size(kind, region) == 0 {
                return Err(WorldBuildError::EmptyCdnPool { kind, region });
            }
        }
    }
    Ok(())
}

fn city(code: &str) -> Result<&'static City, WorldBuildError> {
    let loc = Locode::parse(code).ok_or_else(|| WorldBuildError::BadLocode(code.to_string()))?;
    Registry::by_locode(loc).ok_or_else(|| WorldBuildError::UnknownCity(code.to_string()))
}

fn net(s: &str) -> Result<Ipv4Net, WorldBuildError> {
    Ipv4Net::parse(s).ok_or_else(|| WorldBuildError::BadPrefix(s.to_string()))
}

fn info(id: AsId, name: &str, kind: AsKind, loc: &'static City) -> AsInfo {
    AsInfo { id, name: name.to_string(), kind, location: loc.coord }
}

impl World {
    /// Builds the calibrated world for `cfg`, panicking on inconsistent
    /// static data. Thin wrapper over [`World::try_build`] for callers
    /// (tests, binaries) where a broken world is unrecoverable anyway.
    pub fn build(cfg: &ScenarioConfig) -> World {
        World::try_build(cfg).unwrap_or_else(|e| panic!("world build failed: {e}"))
    }

    /// Builds the calibrated world for `cfg`, surfacing bad static data
    /// (unknown locodes, malformed prefixes, empty continents) as a typed
    /// [`WorldBuildError`] instead of panicking.
    pub fn try_build(cfg: &ScenarioConfig) -> Result<World, WorldBuildError> {
        let mut topo = Topology::new();
        // The build announces a few dozen prefixes; pre-size the RIB so
        // insertion never re-hashes mid-build, then compact it at the end.
        topo.reserve_routes(64);
        let eyeball = params::EYEBALL_AS;

        // --- Core ASes -----------------------------------------------------
        topo.add_as(info(eyeball, "Eyeball ISP", AsKind::Eyeball, city("defra")?));
        topo.add_as(info(params::APPLE_AS, "Apple", AsKind::Content, city("ussjc")?));
        topo.add_as(info(params::AKAMAI_AS, "Akamai", AsKind::Cdn, city("usbos")?));
        topo.add_as(info(params::LIMELIGHT_AS, "Limelight", AsKind::Cdn, city("usphx")?));
        topo.add_as(info(params::AWS_AS, "AWS", AsKind::Cloud, city("ussea")?));
        topo.add_as(info(params::TRANSIT_A, "AS A", AsKind::Transit, city("nlams")?));
        topo.add_as(info(params::TRANSIT_B, "AS B", AsKind::Transit, city("sesto")?));
        topo.add_as(info(params::TRANSIT_C, "AS C", AsKind::Transit, city("frpar")?));
        topo.add_as(info(params::TRANSIT_D, "AS D", AsKind::Transit, city("plwaw")?));
        topo.add_as(info(params::AKAMAI_OFFNET_AS, "Akamai off-net host", AsKind::Eyeball, city("czprg")?));
        topo.add_as(info(params::LL_CACHE_A_AS, "LL cache east", AsKind::Eyeball, city("atvie")?));
        topo.add_as(info(params::LL_CACHE_B_AS, "LL cache north", AsKind::Eyeball, city("dkcph")?));
        topo.add_as(info(params::LL_CACHE_C_AS, "LL cache west", AsKind::Eyeball, city("esmad")?));
        topo.add_as(info(params::LL_SURGE_D_AS, "LL surge host", AsKind::Eyeball, city("hubud")?));

        // Prefix announcements.
        topo.announce(eyeball, net("84.17.0.0/16")?);
        topo.announce(params::APPLE_AS, net("17.0.0.0/8")?);
        topo.announce(params::AKAMAI_AS, net("23.0.0.0/12")?);
        topo.announce(params::LIMELIGHT_AS, net("68.232.0.0/16")?);
        topo.announce(params::AWS_AS, net("52.0.0.0/12")?);
        topo.announce(params::AKAMAI_OFFNET_AS, net("96.6.0.0/20")?);
        topo.announce(params::LL_CACHE_A_AS, net("69.28.0.0/24")?);
        topo.announce(params::LL_CACHE_B_AS, net("69.28.1.0/24")?);
        topo.announce(params::LL_CACHE_C_AS, net("69.28.2.0/24")?);
        topo.announce(params::LL_SURGE_D_AS, net("69.28.64.0/22")?);

        // --- Links ---------------------------------------------------------
        let (apple_bps, akamai_bps, ll_bps) = params::ISP_CDN_LINK_BPS;
        topo.add_link(params::APPLE_AS, eyeball, Relationship::PeerToPeer, apple_bps);
        topo.add_link(params::AKAMAI_AS, eyeball, Relationship::PeerToPeer, akamai_bps);
        topo.add_link(params::LIMELIGHT_AS, eyeball, Relationship::PeerToPeer, ll_bps);
        for t in [params::TRANSIT_A, params::TRANSIT_B, params::TRANSIT_C] {
            topo.add_link(t, eyeball, Relationship::PeerToPeer, params::ISP_TRANSIT_LINK_BPS);
        }
        let mut isp_d_links = Vec::new();
        for _ in 0..params::ISP_D_LINK_COUNT {
            isp_d_links.push(topo.add_link(
                params::TRANSIT_D,
                eyeball,
                Relationship::PeerToPeer,
                params::ISP_D_LINK_BPS,
            ));
        }
        // CDNs buy transit for reach beyond their peerings.
        topo.add_link(params::APPLE_AS, params::TRANSIT_A, Relationship::CustomerToProvider, 8e12);
        topo.add_link(params::APPLE_AS, params::TRANSIT_B, Relationship::CustomerToProvider, 8e12);
        topo.add_link(params::AKAMAI_AS, params::TRANSIT_B, Relationship::CustomerToProvider, 8e12);
        topo.add_link(params::AKAMAI_AS, params::TRANSIT_C, Relationship::CustomerToProvider, 8e12);
        topo.add_link(params::LIMELIGHT_AS, params::TRANSIT_A, Relationship::CustomerToProvider, 4e12);
        topo.add_link(params::LIMELIGHT_AS, params::TRANSIT_C, Relationship::CustomerToProvider, 4e12);
        topo.add_link(params::AWS_AS, params::TRANSIT_B, Relationship::CustomerToProvider, 4e12);
        topo.add_link(params::AWS_AS, params::TRANSIT_C, Relationship::CustomerToProvider, 4e12);
        // Off-net cache hosts hang behind their transit.
        topo.add_link(params::AKAMAI_OFFNET_AS, params::TRANSIT_B, Relationship::CustomerToProvider, 1e12);
        topo.add_link(params::LL_CACHE_A_AS, params::TRANSIT_A, Relationship::CustomerToProvider, 5e11);
        topo.add_link(params::LL_CACHE_B_AS, params::TRANSIT_B, Relationship::CustomerToProvider, 5e11);
        topo.add_link(params::LL_CACHE_C_AS, params::TRANSIT_C, Relationship::CustomerToProvider, 5e11);
        topo.add_link(params::LL_SURGE_D_AS, params::TRANSIT_D, Relationship::CustomerToProvider, 5e11);

        // --- Small "other" handover transits + LL caches behind them -------
        let eu_cities: Vec<&'static City> = Registry::on_continent(Continent::Europe).collect();
        if eu_cities.is_empty() {
            return Err(WorldBuildError::EmptyContinent(Continent::Europe));
        }
        for i in 0..params::SMALL_TRANSIT_COUNT {
            let id = AsId(params::SMALL_TRANSIT_AS_BASE + i);
            let loc = eu_cities[i as usize % eu_cities.len()];
            topo.add_as(info(id, &format!("small transit {i}"), AsKind::Transit, loc));
            topo.add_link(id, eyeball, Relationship::PeerToPeer, params::ISP_SMALL_LINK_BPS);
        }
        for j in 0..params::LL_OTHER_CACHE_COUNT {
            let id = AsId(params::LL_CACHE_OTHER_AS_BASE + j);
            let loc = eu_cities[j as usize % eu_cities.len()];
            topo.add_as(info(id, &format!("LL cache other {j}"), AsKind::Eyeball, loc));
            topo.add_link(
                id,
                AsId(params::SMALL_TRANSIT_AS_BASE + j),
                Relationship::CustomerToProvider,
                2e11,
            );
            topo.announce(id, Ipv4Net::new(Ipv4Addr::new(69, 29, j as u8, 0), 24));
        }

        // --- Probe host networks (one eyeball AS per continent) ------------
        // Each continent keeps its enumeration index alongside the AS so
        // the probe-address closure below needs no fallible lookups.
        let mut probe_as_by_continent: HashMap<Continent, (AsId, u8)> = HashMap::new();
        for (k, cont) in Continent::ALL.into_iter().enumerate() {
            let id = AsId(65000 + k as u32);
            let loc = Registry::on_continent(cont)
                .next()
                .ok_or(WorldBuildError::EmptyContinent(cont))?;
            topo.add_as(info(id, &format!("{cont} eyeball"), AsKind::Eyeball, loc));
            topo.add_link(id, params::TRANSIT_A, Relationship::CustomerToProvider, 1e12);
            topo.add_link(id, params::TRANSIT_B, Relationship::CustomerToProvider, 1e12);
            topo.announce(id, Ipv4Net::new(Ipv4Addr::new(100, 64 + k as u8, 0, 0), 16));
            probe_as_by_continent.insert(cont, (id, k as u8));
        }

        // --- CDNs ------------------------------------------------------------
        let apple = AppleCdn::build(APPLE_SITES, params::PER_SERVER_BPS);
        let gslb = apple.gslb_directory();

        let ak_net = net("23.0.0.0/12")?;
        let (ak_base, ak_surge, ak_offnet) = params::AKAMAI_EU_POOL;
        let akamai = ThirdPartyCdn::new("Akamai", params::AKAMAI_AS)
            .with_base(Region::Eu, ThirdPartyCdn::ips_from_prefix(ak_net, 0, ak_base))
            .with_surge(Region::Eu, ThirdPartyCdn::ips_from_prefix(ak_net, 1000, ak_surge))
            .with_offnet(
                Region::Eu,
                OffNetPool {
                    host_as: params::AKAMAI_OFFNET_AS,
                    ips: ThirdPartyCdn::ips_from_prefix(
                        net("96.6.0.0/20")?,
                        0,
                        ak_offnet,
                    ),
                    engage_at: params::AKAMAI_OFFNET_ENGAGE,
                },
            )
            .with_base(
                Region::Us,
                ThirdPartyCdn::ips_from_prefix(ak_net, 2000, params::THIRD_PARTY_OTHER_REGION_BASE),
            )
            .with_base(
                Region::Apac,
                ThirdPartyCdn::ips_from_prefix(ak_net, 3000, params::THIRD_PARTY_OTHER_REGION_BASE),
            );

        let ll_net = net("68.232.0.0/16")?;
        let (ll_base, ll_surge) = params::LIMELIGHT_EU_POOL;
        let (ra, rb, rc, rother) = params::LL_REGIONAL_POOL;
        let mut limelight = ThirdPartyCdn::new("Limelight", params::LIMELIGHT_AS)
            .with_base(Region::Eu, ThirdPartyCdn::ips_from_prefix(ll_net, 0, ll_base))
            .with_surge(Region::Eu, ThirdPartyCdn::ips_from_prefix(ll_net, 1000, ll_surge))
            .with_base(
                Region::Us,
                ThirdPartyCdn::ips_from_prefix(ll_net, 8000, params::THIRD_PARTY_OTHER_REGION_BASE),
            )
            .with_base(
                Region::Apac,
                ThirdPartyCdn::ips_from_prefix(ll_net, 9000, params::THIRD_PARTY_OTHER_REGION_BASE),
            );
        // Regional off-net caches: always engaged (engage_at 0) — they are
        // part of Limelight's normal EU serving and produce the stable
        // overflow mix of quiet days.
        for (host, prefix, n) in [
            (params::LL_CACHE_A_AS, "69.28.0.0/24", ra),
            (params::LL_CACHE_B_AS, "69.28.1.0/24", rb),
            (params::LL_CACHE_C_AS, "69.28.2.0/24", rc),
        ] {
            limelight = limelight.with_offnet(
                Region::Eu,
                OffNetPool {
                    host_as: host,
                    ips: ThirdPartyCdn::ips_from_prefix(net(prefix)?, 1, n),
                    engage_at: 0.0,
                },
            );
        }
        for j in 0..params::LL_OTHER_CACHE_COUNT {
            limelight = limelight.with_offnet(
                Region::Eu,
                OffNetPool {
                    host_as: AsId(params::LL_CACHE_OTHER_AS_BASE + j),
                    ips: ThirdPartyCdn::ips_from_prefix(
                        Ipv4Net::new(Ipv4Addr::new(69, 29, j as u8, 0), 24),
                        1,
                        rother.div_ceil(params::LL_OTHER_CACHE_COUNT as usize),
                    ),
                    engage_at: 0.0,
                },
            );
        }
        // The surge pool behind AS D: engaged only under event load.
        limelight = limelight.with_offnet(
            Region::Eu,
            OffNetPool {
                host_as: params::LL_SURGE_D_AS,
                ips: ThirdPartyCdn::ips_from_prefix(
                    net("69.28.64.0/22")?,
                    1,
                    params::LL_SURGE_D_POOL,
                ),
                engage_at: params::LL_SURGE_D_ENGAGE,
            },
        );

        let akamai = Arc::new(akamai);
        let limelight = Arc::new(limelight);

        // Level3 (pre-June-2017 configuration only): its own AS, a direct
        // peering, a prefix, and a base-only pool.
        let level3 = if cfg.enable_level3 {
            topo.add_as(info(params::LEVEL3_AS, "Level3", AsKind::Cdn, city("usden")?));
            topo.announce(params::LEVEL3_AS, net("4.23.0.0/16")?);
            topo.add_link(params::LEVEL3_AS, eyeball, Relationship::PeerToPeer, 1e12);
            topo.add_link(params::LEVEL3_AS, params::TRANSIT_B, Relationship::CustomerToProvider, 4e12);
            let l3_net = net("4.23.0.0/16")?;
            let mut l3 = ThirdPartyCdn::new("Level3", params::LEVEL3_AS);
            for region in [Region::Us, Region::Eu] {
                let offset = if region == Region::Us { 0 } else { 500 };
                l3 = l3.with_base(region, ThirdPartyCdn::ips_from_prefix(l3_net, offset, 30));
            }
            Some(Arc::new(l3))
        } else {
            None
        };

        // --- Meta-CDN namespace ---------------------------------------------
        let schedule = if cfg.enable_level3 {
            params::weight_schedule_with_level3()
        } else {
            params::weight_schedule()
        };
        validate_cdn_pools(&schedule, |kind, region| match kind {
            metacdn::CdnKind::Apple => apple.sites().len(),
            metacdn::CdnKind::Akamai => akamai.pool_size(region),
            metacdn::CdnKind::Limelight => limelight.pool_size(region),
            metacdn::CdnKind::Level3 => level3.as_ref().map_or(0, |l| l.pool_size(region)),
        })?;
        let state = Arc::new(MetaCdnState::new(schedule));
        let meta_cfg = MetaCdnConfig {
            state: Arc::clone(&state),
            gslb: gslb.clone(),
            akamai: Arc::clone(&akamai),
            limelight: Arc::clone(&limelight),
            level3: level3.clone(),
            china_ips: net("17.200.1.0/28")?
                .iter()
                .skip(1)
                .take(8)
                .collect(),
            india_ips: net("17.200.2.0/28")?
                .iter()
                .skip(1)
                .take(8)
                .collect(),
            mesu_ip: Ipv4Addr::new(17, 110, 229, 10),
            akamai_answer_k: params::AKAMAI_ANSWER_K,
            limelight_answer_k: params::LIMELIGHT_ANSWER_K,
            apple_site_coords: apple.sites().iter().map(|s| s.coord).collect(),
        };
        let ns = build_namespace(&meta_cfg);

        // --- Workload ---------------------------------------------------------
        let adoption = AdoptionModel::new(UpdateEvent::ios_11(), Population::world_2017())
            .with_followups(vec![
                UpdateEvent::ios_11_0_1(),
                UpdateEvent::ios_11_0_2(),
                UpdateEvent::ios_11_1(),
            ]);

        // --- Probe fleets ------------------------------------------------------
        let continent_weight = |c: Continent| match c {
            Continent::Europe | Continent::NorthAmerica => 0.30,
            Continent::Asia => 0.15,
            Continent::SouthAmerica => 0.10,
            Continent::Oceania | Continent::Africa => 0.075,
        };
        let global_cities: Vec<(&'static City, f64)> = Registry::cities()
            .iter()
            .map(|c| {
                (c, continent_weight(c.continent) / Registry::on_continent(c.continent).count() as f64)
            })
            .collect();
        let global_probe_specs = spread_specs(cfg.global_probes, &global_cities, cfg.seed, |c, i| {
            let (asn, k) = probe_as_by_continent[&c.continent];
            (asn, Ipv4Addr::new(100, 64 + k, (i / 250) as u8, (i % 250) as u8 + 1))
        });

        let isp_cities: Vec<(&'static City, f64)> =
            vec![(city("defra")?, 1.0), (city("deber")?, 1.0), (city("demuc")?, 1.0)];
        let isp_probe_specs = spread_specs(cfg.isp_probes, &isp_cities, cfg.seed ^ 0xA77A5, |_, i| {
            (eyeball, Ipv4Addr::new(84, 17, (i / 250) as u8, (i % 250) as u8 + 1))
        });

        // --- Vantage VMs (9 AWS regions, all continents except Africa) --------
        let vm_cities = ["usnyc", "ussjc", "iedub", "defra", "sgsin", "jptyo", "ausyd", "inbom", "brsao"];
        let mut vms = Vec::with_capacity(vm_cities.len());
        for (i, c) in vm_cities.iter().enumerate() {
            vms.push(VantageVm::new(city(c)?, params::AWS_AS, Ipv4Addr::new(52, 1, i as u8, 10)));
        }

        // Apple vips serving the ISP: sites within reach of the German
        // footprint (≤ 600 km of Frankfurt/Berlin/Munich).
        let anchors = [city("defra")?, city("deber")?, city("nlams")?];
        let apple_isp_vips = apple
            .sites()
            .iter()
            .filter(|s| anchors.iter().any(|a| a.coord.distance_km(&s.coord) < 300.0))
            .flat_map(|s| s.vip_addrs())
            .collect();

        topo.compact_rib();

        Ok(World {
            topo,
            apple,
            gslb,
            akamai,
            limelight,
            state,
            ns,
            adoption,
            global_probe_specs,
            isp_probe_specs,
            vms,
            isp_d_links,
            apple_isp_vips,
        })
    }

    /// Classifies an observed address into the figure-legend classes.
    pub fn classify(&self, attribution: DnsAttribution, ip: Ipv4Addr) -> CdnClass {
        classify_ip(
            attribution,
            ip,
            &self.topo,
            params::AKAMAI_AS,
            params::LIMELIGHT_AS,
            params::APPLE_AS,
        )
    }

    /// The continents a Meta-CDN region aggregates (demand-wise).
    pub fn region_continents(region: Region) -> &'static [Continent] {
        match region {
            Region::Us => &[Continent::NorthAmerica, Continent::SouthAmerica],
            Region::Eu => &[Continent::Europe, Continent::Africa],
            Region::Apac => &[Continent::Asia, Continent::Oceania],
        }
    }

    /// Total non-diverted update demand for a region, bps.
    pub fn region_demand_bps(&self, region: Region, t: SimTime) -> f64 {
        Self::region_continents(region)
            .iter()
            .map(|c| {
                let d = mcdn_workload::demand_bps(&self.adoption, *c, t);
                if *c == Continent::Asia {
                    d * (1.0 - params::ASIA_DIVERTED_FRACTION)
                } else {
                    d
                }
            })
            .sum()
    }

    /// Apple's serving capacity available to a region, bps.
    pub fn apple_capacity_bps(&self, region: Region) -> f64 {
        Self::region_continents(region)
            .iter()
            .map(|c| self.apple.capacity_bps_on(*c))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::build(&ScenarioConfig::fast())
    }

    #[test]
    fn builds_and_reaches_everything() {
        let w = world();
        // 34 locations, six of which host two sites → 40 site instances.
        assert_eq!(w.apple.sites().len(), 40);
        assert!(w.topo.compiled_rib().len() >= 18, "RIB has every announced prefix");
        assert_eq!(w.isp_d_links.len(), 4);
        assert_eq!(w.vms.len(), 9);
    }

    #[test]
    fn routing_produces_expected_handover_ases() {
        let w = world();
        let mut router = mcdn_netsim::Router::new();
        // LL surge cache → ISP must hand over via AS D.
        let src = w.topo.origin_of("69.28.64.5".parse().expect("ip")).expect("origin");
        assert_eq!(src, params::LL_SURGE_D_AS);
        let path = router.path(&w.topo, src, params::EYEBALL_AS).expect("path");
        assert_eq!(mcdn_netsim::Router::handover(&path), Some(params::TRANSIT_D));
        // Akamai off-net → via AS B.
        let src = w.topo.origin_of("96.6.1.1".parse().expect("ip")).expect("origin");
        let path = router.path(&w.topo, src, params::EYEBALL_AS).expect("path");
        assert_eq!(mcdn_netsim::Router::handover(&path), Some(params::TRANSIT_B));
        // On-net Limelight → direct peering.
        let src = w.topo.origin_of("68.232.0.5".parse().expect("ip")).expect("origin");
        let path = router.path(&w.topo, src, params::EYEBALL_AS).expect("path");
        assert_eq!(mcdn_netsim::Router::handover(&path), Some(params::LIMELIGHT_AS));
    }

    #[test]
    fn classification_uses_dns_plus_bgp() {
        let w = world();
        // Limelight-attributed, announced by the surge host → "other AS".
        let c = w.classify(DnsAttribution::Limelight, "69.28.64.9".parse().expect("ip"));
        assert_eq!(c, CdnClass::LimelightOtherAs);
        let c = w.classify(DnsAttribution::Limelight, "68.232.0.9".parse().expect("ip"));
        assert_eq!(c, CdnClass::Limelight);
        let c = w.classify(DnsAttribution::Akamai, "96.6.0.9".parse().expect("ip"));
        assert_eq!(c, CdnClass::AkamaiOtherAs);
        let c = w.classify(DnsAttribution::Apple, "17.253.1.1".parse().expect("ip"));
        assert_eq!(c, CdnClass::Apple);
    }

    #[test]
    fn probe_fleets_have_requested_sizes_and_homes() {
        let cfg = ScenarioConfig::fast();
        let w = World::build(&cfg);
        assert_eq!(w.global_probe_specs.len(), cfg.global_probes);
        assert_eq!(w.isp_probe_specs.len(), cfg.isp_probes);
        for s in &w.isp_probe_specs {
            assert_eq!(s.as_id, params::EYEBALL_AS);
            assert_eq!(s.city.continent, Continent::Europe);
        }
        // The global fleet covers every continent.
        let continents: std::collections::HashSet<_> =
            w.global_probe_specs.iter().map(|s| s.city.continent).collect();
        assert_eq!(continents.len(), 6);
    }

    #[test]
    fn eu_demand_peaks_above_apple_capacity_at_release() {
        let w = world();
        let release = params::release();
        let peak = w.region_demand_bps(Region::Eu, release + mcdn_geo::Duration::mins(30));
        let cap = w.apple_capacity_bps(Region::Eu);
        // The EU flash crowd must exceed what Apple's EU sites can serve
        // even before the selector splits it — offload is inevitable.
        assert!(peak > cap, "demand {peak:.2e} vs capacity {cap:.2e}");
        // But the scheduled Apple slice (33%) is near capacity (flat-top).
        let apple_directed = 0.33 * peak;
        let util = apple_directed / cap;
        assert!((0.8..2.0).contains(&util), "day-0 Apple utilization {util}");
    }

    #[test]
    fn try_build_succeeds_on_the_shipped_configs() {
        for cfg in [ScenarioConfig::fast(), ScenarioConfig::paper()] {
            let w = World::try_build(&cfg).expect("shipped static data is consistent");
            assert_eq!(w.vms.len(), 9);
        }
    }

    #[test]
    fn bad_static_data_surfaces_as_typed_errors() {
        assert_eq!(city("zz").unwrap_err(), WorldBuildError::BadLocode("zz".into()));
        assert_eq!(city("zzzzz").unwrap_err(), WorldBuildError::UnknownCity("zzzzz".into()));
        assert_eq!(net("300.0.0.0/8").unwrap_err(), WorldBuildError::BadPrefix("300.0.0.0/8".into()));
        let msg = WorldBuildError::UnknownCity("zzzzz".into()).to_string();
        assert!(msg.contains("zzzzz"), "error display names the offending code: {msg}");
    }

    #[test]
    fn scheduled_cdn_with_empty_pool_is_rejected() {
        use metacdn::{CdnKind, CdnShare, Schedule};
        let share = CdnShare { apple: 0.5, akamai: 0.3, limelight: 0.2, level3: 0.0 };
        let sizes = |kind: CdnKind, _region: Region| match kind {
            CdnKind::Apple => 40,
            CdnKind::Akamai => 100,
            CdnKind::Limelight => 0, // scheduled but has no addresses
            CdnKind::Level3 => 0,
        };
        let err = validate_cdn_pools(&Schedule::constant(share), sizes).unwrap_err();
        assert_eq!(err, WorldBuildError::EmptyCdnPool { kind: CdnKind::Limelight, region: Region::Us });
        assert!(err.to_string().contains("Limelight"));
        // Zero weight for the empty CDN passes — the pool is never asked.
        let quiet = CdnShare { apple: 0.8, akamai: 0.2, limelight: 0.0, level3: 0.0 };
        assert!(validate_cdn_pools(&Schedule::constant(quiet), sizes).is_ok());
        // A breakpoint that later turns Limelight on is also caught.
        let s = Schedule::constant(quiet).with(
            Region::Eu,
            params::release(),
            CdnShare { limelight: 0.4, ..quiet },
        );
        let err = validate_cdn_pools(&s, sizes).unwrap_err();
        assert_eq!(err, WorldBuildError::EmptyCdnPool { kind: CdnKind::Limelight, region: Region::Eu });
        // The shipped schedules validate against the real pool sizes.
        let w = world();
        assert!(w.akamai.pool_size(Region::Eu) > 0 && w.limelight.pool_size(Region::Apac) > 0);
    }

    #[test]
    fn apple_isp_vips_are_nearby_and_nonempty() {
        let w = world();
        assert!(!w.apple_isp_vips.is_empty());
        for ip in &w.apple_isp_vips {
            let name = w.apple.ptr_lookup(*ip).expect("vip has ptr");
            assert!(
                ["defra", "deber", "nlams"].contains(&name.locode.as_str()),
                "unexpected site {}",
                name.locode
            );
        }
    }
}
