//! Vantage VMs: full recursive resolution with chain capture.
//!
//! Nine AWS VMs (all continents except Africa) performed full recursive
//! resolutions and availability checks in the paper's setup. Their role in
//! the reproduction is to crawl the complete mapping graph (every CNAME edge
//! with its TTL) from different regions — the raw data of Figure 2.

use mcdn_dnssim::{resolve_cold, CompiledNamespace, QueryContext};
use mcdn_dnswire::{Name, RecordType};
use mcdn_geo::{City, SimTime};
use mcdn_netsim::AsId;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// A cloud vantage point doing uncached full resolutions.
#[derive(Debug)]
pub struct VantageVm {
    /// Hosting city (AWS region location).
    pub city: &'static City,
    /// The cloud AS.
    pub as_id: AsId,
    /// The VM's address.
    pub ip: Ipv4Addr,
}

impl VantageVm {
    /// Creates a vantage VM.
    pub fn new(city: &'static City, as_id: AsId, ip: Ipv4Addr) -> VantageVm {
        VantageVm { city, as_id, ip }
    }

    fn context(&self, now: SimTime) -> QueryContext {
        QueryContext {
            client_ip: self.ip,
            locode: self.city.locode,
            coord: self.city.coord,
            continent: self.city.continent,
            now,
        }
    }

    /// Crawls the mapping from this vantage point: repeats `rounds` full
    /// (cold-cache) resolutions of `qname` spaced `spacing_secs` apart,
    /// collecting the union of CNAME edges `(owner, target, ttl)` and of
    /// terminal addresses. Repetition is what surfaces the probabilistic
    /// branches (selector → Apple vs third party; a/b GSLB heads).
    pub fn crawl_mapping(
        &self,
        ns: &CompiledNamespace<'_>,
        qname: &Name,
        start: SimTime,
        rounds: u32,
        spacing_secs: u64,
    ) -> CrawlResult {
        let mut edges = BTreeSet::new();
        let mut addrs = BTreeSet::new();
        for round in 0..rounds {
            // A fresh resolver per round: AWS measurements were full
            // recursive resolutions, never cache-assisted.
            let now = start + mcdn_geo::Duration::secs(round as u64 * spacing_secs);
            let (trace, _) = resolve_cold(ns, qname, RecordType::A, &self.context(now));
            for (from, to, ttl) in trace.cname_edges() {
                edges.insert((from.to_string(), to.to_string(), ttl));
            }
            addrs.extend(trace.addresses());
        }
        CrawlResult { edges: edges.into_iter().collect(), addrs: addrs.into_iter().collect() }
    }
}

/// Output of [`VantageVm::crawl_mapping`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrawlResult {
    /// Distinct CNAME edges seen, sorted.
    pub edges: Vec<(String, String, u32)>,
    /// Distinct terminal addresses seen, sorted.
    pub addrs: Vec<Ipv4Addr>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdn_dnssim::{Namespace, Zone};
    use mcdn_geo::{Locode, Registry};

    fn city(code: &str) -> &'static City {
        Registry::by_locode(Locode::parse(code).unwrap()).unwrap()
    }

    fn chain_ns() -> Namespace {
        let mut ns = Namespace::new();
        let mut z = Zone::new(Name::parse("apple.com").unwrap());
        z.add_cname("appldnld.apple.com", "lb.apple.com", 21600);
        z.add_a("lb.apple.com", Ipv4Addr::new(17, 253, 1, 1), 20);
        z.add_a("lb.apple.com", Ipv4Addr::new(17, 253, 1, 2), 20);
        ns.add_zone(z);
        ns
    }

    #[test]
    fn crawl_collects_edges_and_addresses() {
        let vm = VantageVm::new(city("defra"), AsId(16509), Ipv4Addr::new(52, 1, 2, 3));
        let ns = chain_ns();
        let result = vm.crawl_mapping(
            &CompiledNamespace::compile(&ns),
            &Name::parse("appldnld.apple.com").unwrap(),
            SimTime::from_ymd(2017, 9, 15),
            5,
            300,
        );
        assert_eq!(result.edges.len(), 1);
        assert_eq!(result.edges[0].0, "appldnld.apple.com");
        assert_eq!(result.edges[0].2, 21600);
        assert_eq!(result.addrs.len(), 2);
    }

    #[test]
    fn crawl_is_deterministic() {
        let vm = VantageVm::new(city("usnyc"), AsId(16509), Ipv4Addr::new(52, 9, 9, 9));
        let q = Name::parse("appldnld.apple.com").unwrap();
        let t = SimTime::from_ymd(2017, 9, 15);
        let ns = chain_ns();
        let a = vm.crawl_mapping(&CompiledNamespace::compile(&ns), &q, t, 3, 60);
        let b = vm.crawl_mapping(&CompiledNamespace::compile(&ns), &q, t, 3, 60);
        assert_eq!(a, b);
    }
}
