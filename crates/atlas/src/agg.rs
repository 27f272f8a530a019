//! Unique-IP aggregation: the counting machine behind Figures 4 and 5.
//!
//! Each DNS answer observed by a probe contributes `(time, group, label,
//! address)` tuples — group being the probe's continent (Figure 4) or the
//! single ISP fleet (Figure 5), label the CDN classification of the address.
//! The aggregator maintains, per time bin, the *set* of distinct addresses
//! per (group, label); the figure series are the set sizes.

use mcdn_geo::{Duration, SimTime};
use mcdn_intern::FnvBuildHasher;
use std::collections::{BTreeMap, HashSet};
use std::net::Ipv4Addr;

/// One cell's distinct addresses. Membership is only ever counted or
/// exported sorted, so the map's iteration order never reaches output.
type IpSet = HashSet<Ipv4Addr, FnvBuildHasher>;

/// Counts unique addresses per (time bin, group, label).
///
/// `G` is the spatial grouping (e.g. [`mcdn_geo::Continent`]), `L` the CDN
/// class label. Both must be orderable so series iterate deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniqueIpAggregator<G, L> {
    bin: Duration,
    sets: BTreeMap<(SimTime, G, L), IpSet>,
}

impl<G, L> UniqueIpAggregator<G, L>
where
    G: Ord + Copy,
    L: Ord + Copy,
{
    /// An aggregator with the given bin width.
    pub fn new(bin: Duration) -> Self {
        assert!(bin.as_secs() > 0, "bin must be positive");
        UniqueIpAggregator { bin, sets: BTreeMap::new() }
    }

    /// Records one observed address.
    pub fn record(&mut self, t: SimTime, group: G, label: L, ip: Ipv4Addr) {
        let bin = t.floor_to(self.bin);
        self.sets.entry((bin, group, label)).or_default().insert(ip);
    }

    /// Records many addresses into one cell with a single cell lookup;
    /// equal to [`record`](Self::record) for each address in turn (an
    /// empty `ips` creates no cell).
    pub fn record_all<I: IntoIterator<Item = Ipv4Addr>>(
        &mut self,
        t: SimTime,
        group: G,
        label: L,
        ips: I,
    ) {
        let mut ips = ips.into_iter().peekable();
        if ips.peek().is_none() {
            return;
        }
        let bin = t.floor_to(self.bin);
        self.sets.entry((bin, group, label)).or_default().extend(ips);
    }

    /// The unique-IP count for one cell.
    pub fn count(&self, bin_start: SimTime, group: G, label: L) -> usize {
        self.sets.get(&(bin_start, group, label)).map(IpSet::len).unwrap_or(0)
    }

    /// All cells as `(bin_start, group, label, unique_count)`, in time order.
    pub fn series(&self) -> impl Iterator<Item = (SimTime, G, L, usize)> + '_ {
        self.sets.iter().map(|((t, g, l), set)| (*t, *g, *l, set.len()))
    }

    /// Total unique addresses for a (group, label) across *all* bins.
    pub fn total_unique(&self, group: G, label: L) -> usize {
        let mut all: HashSet<Ipv4Addr> = HashSet::new();
        for ((_, g, l), set) in &self.sets {
            if *g == group && *l == label {
                all.extend(set);
            }
        }
        all.len()
    }

    /// Every cell with its full membership: `((bin start, group, label),
    /// sorted addresses)` in key order — the checkpoint export of the
    /// aggregator. Set *sizes* alone cannot reconstruct the dedup state,
    /// so the members themselves are the serialized form; feeding them
    /// back through [`record`](Self::record) (bin starts are fixed points
    /// of the bin floor) rebuilds an identical aggregator.
    pub fn cells(&self) -> Vec<((SimTime, G, L), Vec<Ipv4Addr>)> {
        self.sets
            .iter()
            .map(|(key, set)| {
                let mut members: Vec<Ipv4Addr> = set.iter().copied().collect();
                members.sort_unstable();
                (*key, members)
            })
            .collect()
    }

    /// Merges another aggregator's observations into this one. Set union
    /// per cell is commutative and associative, so merging shard-local
    /// aggregates — in any order — equals recording every observation into
    /// one aggregator. Both sides must use the same bin width.
    pub fn merge(&mut self, other: UniqueIpAggregator<G, L>) {
        assert_eq!(self.bin, other.bin, "cannot merge aggregators with different bins");
        for (key, set) in other.sets {
            self.sets.entry(key).or_default().extend(set);
        }
    }

    /// The configured bin width.
    pub fn bin(&self) -> Duration {
        self.bin
    }

    /// Number of populated cells.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(n: u32) -> Ipv4Addr {
        Ipv4Addr::from(0x1100_0000 + n)
    }

    #[test]
    fn duplicates_within_bin_count_once() {
        let mut agg: UniqueIpAggregator<u8, u8> = UniqueIpAggregator::new(Duration::hours(1));
        let t = SimTime::from_ymd_hms(2017, 9, 19, 17, 10, 0);
        agg.record(t, 0, 0, ip(1));
        agg.record(t + Duration::mins(5), 0, 0, ip(1));
        agg.record(t + Duration::mins(10), 0, 0, ip(2));
        assert_eq!(agg.count(t.floor_to(Duration::hours(1)), 0, 0), 2);
    }

    #[test]
    fn bins_are_separate() {
        let mut agg: UniqueIpAggregator<u8, u8> = UniqueIpAggregator::new(Duration::hours(1));
        let t = SimTime::from_ymd_hms(2017, 9, 19, 17, 59, 0);
        agg.record(t, 0, 0, ip(1));
        agg.record(t + Duration::mins(2), 0, 0, ip(1));
        assert_eq!(agg.len(), 2, "observation crossed a bin edge");
    }

    #[test]
    fn groups_and_labels_are_independent() {
        let mut agg: UniqueIpAggregator<u8, u8> = UniqueIpAggregator::new(Duration::hours(1));
        let t = SimTime::from_ymd(2017, 9, 19);
        agg.record(t, 0, 0, ip(1));
        agg.record(t, 1, 0, ip(1));
        agg.record(t, 0, 1, ip(1));
        assert_eq!(agg.count(t, 0, 0), 1);
        assert_eq!(agg.count(t, 1, 0), 1);
        assert_eq!(agg.count(t, 0, 1), 1);
        assert_eq!(agg.count(t, 1, 1), 0);
    }

    #[test]
    fn series_is_time_ordered() {
        let mut agg: UniqueIpAggregator<u8, u8> = UniqueIpAggregator::new(Duration::hours(2));
        let t0 = SimTime::from_ymd(2017, 9, 19);
        agg.record(t0 + Duration::hours(5), 0, 0, ip(3));
        agg.record(t0, 0, 0, ip(1));
        agg.record(t0 + Duration::hours(3), 0, 0, ip(2));
        let times: Vec<SimTime> = agg.series().map(|(t, ..)| t).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
        assert_eq!(times.len(), 3);
    }

    #[test]
    fn total_unique_across_bins() {
        let mut agg: UniqueIpAggregator<u8, u8> = UniqueIpAggregator::new(Duration::hours(1));
        let t0 = SimTime::from_ymd(2017, 9, 19);
        agg.record(t0, 0, 0, ip(1));
        agg.record(t0 + Duration::hours(1), 0, 0, ip(1));
        agg.record(t0 + Duration::hours(2), 0, 0, ip(2));
        assert_eq!(agg.total_unique(0, 0), 2);
        assert_eq!(agg.total_unique(0, 1), 0);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let t = SimTime::from_ymd(2017, 9, 19);
        let obs = [(0u8, 0u8, 1u32), (0, 0, 2), (1, 0, 1), (0, 1, 3), (0, 0, 1)];
        let mut whole: UniqueIpAggregator<u8, u8> = UniqueIpAggregator::new(Duration::hours(1));
        for (g, l, n) in obs {
            whole.record(t, g, l, ip(n));
        }
        for split in 0..obs.len() {
            let mut left: UniqueIpAggregator<u8, u8> = UniqueIpAggregator::new(Duration::hours(1));
            let mut right: UniqueIpAggregator<u8, u8> =
                UniqueIpAggregator::new(Duration::hours(1));
            for (i, (g, l, n)) in obs.iter().enumerate() {
                let target = if i < split { &mut left } else { &mut right };
                target.record(t, *g, *l, ip(*n));
            }
            left.merge(right);
            assert_eq!(left, whole, "split at {split}");
        }
    }

    mod props {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        proptest! {
            /// One `record_all` per batch equals `record` per address,
            /// including empty batches (which create no cell).
            #[test]
            fn record_all_equals_repeated_record(
                batches in vec((0u64..300, 0u8..3, 0u8..3, vec(0u32..40, 0..12)), 0..16),
            ) {
                let t0 = SimTime::from_ymd(2017, 9, 19);
                let mut all: UniqueIpAggregator<u8, u8> =
                    UniqueIpAggregator::new(Duration::hours(1));
                let mut each = all.clone();
                for (mins, g, l, ns) in batches {
                    let t = t0 + Duration::mins(mins);
                    all.record_all(t, g, l, ns.iter().map(|&n| ip(n)));
                    for n in ns {
                        each.record(t, g, l, ip(n));
                    }
                }
                prop_assert_eq!(&all, &each);
                prop_assert_eq!(all.cells(), each.cells());
            }
        }
    }

    #[test]
    fn record_all_shortcut() {
        let mut agg: UniqueIpAggregator<u8, u8> = UniqueIpAggregator::new(Duration::hours(1));
        let t = SimTime::from_ymd(2017, 9, 19);
        agg.record_all(t, 0, 0, [ip(1), ip(2), ip(3)]);
        assert_eq!(agg.count(t, 0, 0), 3);
    }
}
