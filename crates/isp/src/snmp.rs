//! SNMP interface octet counters, polled every five minutes.
//!
//! SNMP `ifInOctets` is exact but anonymous: it says how many bytes crossed
//! a peering link, not whose they were. The paper combines it with sampled
//! Netflow (which knows *who* but miscounts *how much*) — see
//! [`crate::estimate`]. Counters here are modelled faithfully as monotonic
//! 64-bit octet counts read by a periodic poller.

use mcdn_geo::{Duration, SimTime};
use mcdn_netsim::LinkId;
use std::collections::{BTreeMap, HashMap};

/// The standard polling interval.
pub const POLL_INTERVAL: Duration = Duration::mins(5);

/// Monotonic per-link octet counters plus the polled time series.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SnmpCounters {
    counters: HashMap<LinkId, u64>,
    last_polled: HashMap<LinkId, u64>,
    series: BTreeMap<(SimTime, LinkId), u64>,
}

impl SnmpCounters {
    /// Fresh counters.
    pub fn new() -> SnmpCounters {
        SnmpCounters::default()
    }

    /// Accounts `bytes` arriving on `link` (called by the traffic driver).
    pub fn account(&mut self, link: LinkId, bytes: u64) {
        *self.counters.entry(link).or_insert(0) += bytes;
    }

    /// Polls all counters at `now`, recording the delta since the previous
    /// poll per link into the series (keyed by poll time).
    pub fn poll(&mut self, now: SimTime) {
        self.poll_filtered(now, |_| true);
    }

    /// Polls at `now`, but only the links for which `keep` returns true —
    /// the others miss this cycle, leaving no series entry for their bin.
    /// Counters stay monotonic, so a skipped link's next successful poll
    /// reports a delta covering the whole gap (exactly how real SNMP
    /// collectors see missed cycles). With an always-true predicate this
    /// is identical to [`SnmpCounters::poll`].
    pub fn poll_filtered(&mut self, now: SimTime, mut keep: impl FnMut(LinkId) -> bool) {
        let bin = now.floor_to(POLL_INTERVAL);
        let mut polled = Vec::new();
        for (link, total) in &self.counters {
            if !keep(*link) {
                continue;
            }
            let last = self.last_polled.get(link).copied().unwrap_or(0);
            let delta = total - last;
            self.series.insert((bin, *link), delta);
            polled.push(*link);
        }
        for link in polled {
            self.last_polled.insert(link, self.counters[&link]);
        }
    }

    /// The polled delta for `(bin, link)`, zero if never polled.
    pub fn delta(&self, bin: SimTime, link: LinkId) -> u64 {
        self.series.get(&(bin, link)).copied().unwrap_or(0)
    }

    /// Whether `(bin, link)` has a real poll sample. Distinguishes "the
    /// poll was missed" from "the poll saw zero bytes", which
    /// [`SnmpCounters::delta`] conflates.
    pub fn has_poll(&self, bin: SimTime, link: LinkId) -> bool {
        self.series.contains_key(&(bin, link))
    }

    /// All polled samples, time-ordered.
    pub fn samples(&self) -> impl Iterator<Item = (SimTime, LinkId, u64)> + '_ {
        self.series.iter().map(|((t, l), v)| (*t, *l, *v))
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_reflect_traffic_between_polls() {
        let mut s = SnmpCounters::new();
        let t0 = SimTime::from_ymd(2017, 9, 19);
        s.account(LinkId(1), 1000);
        s.poll(t0);
        s.account(LinkId(1), 250);
        s.poll(t0 + POLL_INTERVAL);
        assert_eq!(s.delta(t0, LinkId(1)), 1000);
        assert_eq!(s.delta(t0 + POLL_INTERVAL, LinkId(1)), 250);
        assert_eq!(s.counters[&LinkId(1)], 1250);
    }

    #[test]
    fn unpolled_link_reads_zero() {
        let s = SnmpCounters::new();
        assert_eq!(s.delta(SimTime(0), LinkId(9)), 0);
        assert!(!s.counters.contains_key(&LinkId(9)));
    }

    #[test]
    fn missed_poll_accumulates_into_next_delta() {
        let mut s = SnmpCounters::new();
        let t0 = SimTime::from_ymd(2017, 9, 19);
        s.account(LinkId(1), 100);
        s.poll(t0);
        // Cycle 2 is missed for link 1: no sample, counter keeps running.
        s.account(LinkId(1), 40);
        s.poll_filtered(t0 + POLL_INTERVAL, |l| l != LinkId(1));
        assert!(!s.has_poll(t0 + POLL_INTERVAL, LinkId(1)));
        // Cycle 3 succeeds and its delta covers the whole gap.
        s.account(LinkId(1), 60);
        s.poll(t0 + POLL_INTERVAL + POLL_INTERVAL);
        assert_eq!(s.delta(t0 + POLL_INTERVAL + POLL_INTERVAL, LinkId(1)), 100);
        assert_eq!(s.counters[&LinkId(1)], 200);
    }

    #[test]
    fn has_poll_distinguishes_gap_from_zero_traffic() {
        let mut s = SnmpCounters::new();
        let t0 = SimTime::from_ymd(2017, 9, 19);
        s.account(LinkId(1), 0);
        s.poll(t0);
        assert!(s.has_poll(t0, LinkId(1)));
        assert_eq!(s.delta(t0, LinkId(1)), 0);
        assert!(!s.has_poll(t0 + POLL_INTERVAL, LinkId(1)));
        assert_eq!(s.delta(t0 + POLL_INTERVAL, LinkId(1)), 0);
    }

    #[test]
    fn poll_filtered_with_true_predicate_matches_poll() {
        let t0 = SimTime::from_ymd(2017, 9, 19);
        let mut a = SnmpCounters::new();
        let mut b = SnmpCounters::new();
        for s in [&mut a, &mut b] {
            s.account(LinkId(1), 500);
            s.account(LinkId(2), 700);
        }
        a.poll(t0);
        b.poll_filtered(t0, |_| true);
        assert_eq!(a.samples().collect::<Vec<_>>(), b.samples().collect::<Vec<_>>());
    }

    #[test]
    fn multiple_links_independent() {
        let mut s = SnmpCounters::new();
        let t0 = SimTime::from_ymd(2017, 9, 19);
        s.account(LinkId(1), 10);
        s.account(LinkId(2), 20);
        s.poll(t0);
        assert_eq!(s.delta(t0, LinkId(1)), 10);
        assert_eq!(s.delta(t0, LinkId(2)), 20);
    }
}
