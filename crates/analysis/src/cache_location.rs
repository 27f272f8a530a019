//! Cache-location inference from traceroute RTTs.
//!
//! The paper's Figure 3 places caches geographically using the naming
//! scheme, "consistent with the UN/LOCODE scheme". Traceroute RTTs provide
//! the independent confirmation: a cache should be closest (RTT-wise) to
//! probes in its own city. This module runs that cross-check — infer each
//! cache's location as the city of the minimum-RTT probe, then compare
//! against the naming-scheme ground truth.

use mcdn_atlas::ProbeSpec;
use mcdn_geo::Registry;
use mcdn_scenario::tracecampaign::run_traceroutes;
use mcdn_scenario::World;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Result of locating one cache address.
#[derive(Debug, Clone, PartialEq)]
pub struct LocatedCache {
    /// The cache address.
    pub ip: Ipv4Addr,
    /// City inferred from the minimum-RTT probe.
    pub inferred_city: String,
    /// City from the naming scheme (ground truth), if the address has one.
    pub named_city: Option<String>,
    /// The minimum RTT observed, ms.
    pub min_rtt_ms: f64,
}

/// Locates each target by minimum RTT across a geographically diverse
/// probe set.
pub fn locate_caches(
    world: &World,
    probes: &[ProbeSpec],
    targets: &[Ipv4Addr],
) -> Vec<LocatedCache> {
    let campaign = run_traceroutes(world, probes, targets);
    // Per target: the probe with the lowest final-hop RTT.
    let mut best: HashMap<Ipv4Addr, (usize, f64)> = HashMap::new();
    for (probe_i, target, tr) in &campaign.traces {
        if let Some(last) = tr.hops.last() {
            let e = best.entry(*target).or_insert((*probe_i, f64::INFINITY));
            if last.rtt_ms < e.1 {
                *e = (*probe_i, last.rtt_ms);
            }
        }
    }
    targets
        .iter()
        .filter_map(|ip| {
            let (probe_i, rtt) = best.get(ip)?;
            let named_city = world.apple.ptr_lookup(*ip).and_then(|n| {
                Registry::by_locode(Registry::canonicalize(n.locode)).map(|c| c.name.to_string())
            });
            Some(LocatedCache {
                ip: *ip,
                inferred_city: probes[*probe_i].city.name.to_string(),
                named_city,
                min_rtt_ms: *rtt,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdn_scenario::ScenarioConfig;

    /// Locates one Apple vip per site from one probe per distinct probe
    /// city, over the sites whose city hosts a probe (the inference can
    /// only name cities it has a vantage point in).
    #[test]
    fn rtt_inference_agrees_with_naming_scheme() {
        let world = World::build(&ScenarioConfig::fast());
        let mut by_city: HashMap<&str, ProbeSpec> = HashMap::new();
        for p in &world.global_probe_specs {
            by_city.entry(p.city.name).or_insert(*p);
        }
        let probes: Vec<ProbeSpec> = by_city.into_values().collect();
        let targets: Vec<Ipv4Addr> = world
            .apple
            .sites()
            .iter()
            .filter(|s| {
                Registry::by_locode(Registry::canonicalize(s.locode))
                    .is_some_and(|c| probes.iter().any(|p| p.city.name == c.name))
            })
            .filter_map(|s| s.vip_addrs().first().copied())
            .collect();
        let located = locate_caches(&world, &probes, &targets);
        let total = located.len();
        let agree =
            located.iter().filter(|l| l.named_city.as_deref() == Some(l.inferred_city.as_str())).count();
        assert!(total >= 10, "enough co-located sites to test ({total})");
        assert!(agree * 10 >= total * 8, "≥80% agreement expected, got {agree}/{total}");
        assert!(located.iter().all(|l| l.min_rtt_ms > 0.0 && l.min_rtt_ms < 500.0));
    }
}
