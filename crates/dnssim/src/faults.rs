//! Upstream faults the resolver can be told to suffer.
//!
//! Real recursive resolution fails in ways the clean simulator never shows:
//! an authoritative server times out, SERVFAILs under load, or serves a
//! lame delegation. [`InternedFaultModel`](crate::InternedFaultModel) is
//! the resolver's injection point for those conditions —
//! [`InternedResolver`](crate::InternedResolver) consults it before every
//! *upstream* query (cache hits are never faulted, which is exactly how
//! caches mask authoritative outages in the real DNS) and turns the
//! [`UpstreamFault`] it returns into a transient resolution error.
//!
//! This crate only defines the hook; concrete deterministic fault sources
//! (hash-based loss rates, load-coupled SERVFAIL, lame windows) live in
//! `mcdn-faults` and are adapted to it by the campaign layer.

/// A transient failure of one upstream query to an authoritative zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpstreamFault {
    /// The zone answered SERVFAIL.
    ServFail,
    /// The query or answer was lost; the resolver gives up on this attempt
    /// after its timeout.
    Timeout,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::QueryContext;
    use crate::interned::{InternedFaultModel, NoInternedFaults};
    use mcdn_geo::{Continent, Coord, Locode, SimTime};
    use mcdn_intern::NameId;
    use std::net::Ipv4Addr;

    #[test]
    fn closures_are_fault_models() {
        let zone = NameId(3);
        let other = NameId(4);
        let q = NameId(7);
        let ctx = QueryContext {
            client_ip: Ipv4Addr::new(198, 51, 100, 1),
            locode: Locode::parse("deber").unwrap(),
            coord: Coord::new(52.5, 13.4),
            continent: Continent::Europe,
            now: SimTime::from_ymd(2017, 9, 19),
        };
        let model = move |z: NameId, _: u64, _: NameId, _: u64, _: &QueryContext, _: u32| {
            (z == zone).then_some(UpstreamFault::Timeout)
        };
        assert_eq!(model.upstream_fault(zone, 0, q, 0, &ctx, 0), Some(UpstreamFault::Timeout));
        assert_eq!(model.upstream_fault(other, 0, q, 0, &ctx, 0), None);
        assert_eq!(NoInternedFaults.upstream_fault(zone, 0, q, 0, &ctx, 0), None);
    }
}
