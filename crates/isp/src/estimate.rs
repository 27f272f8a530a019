//! Netflow × SNMP traffic estimation.
//!
//! "We scale the Netflow traffic on the peering links by the byte counters
//! from SNMP to minimize Netflow sampling errors" (§5.3). Concretely: for
//! each (link, time bin), all sampled Netflow bytes on that link are scaled
//! by a common factor so their sum equals the exact SNMP delta; the scaled
//! per-flow volumes are then attributed to their Source AS.

use crate::netflow::FlowRecord;
use crate::snmp::SnmpCounters;
use mcdn_geo::SimTime;
use mcdn_netsim::LinkId;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

/// One scaled traffic contribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaledVolume {
    /// Time bin the volume belongs to.
    pub bin: SimTime,
    /// Ingress link.
    pub link: LinkId,
    /// Flow source address.
    pub src: Ipv4Addr,
    /// Source AS (16-bit, as carried in NetFlow v5).
    pub src_as: u16,
    /// Estimated true bytes.
    pub bytes: f64,
}

/// How many (bin, link) cells the SNMP-scaling pass could actually scale.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScalingCoverage {
    /// Cells with both Netflow records and an SNMP poll sample.
    pub covered_cells: usize,
    /// Cells whose SNMP poll was missed; their volumes fall back to
    /// sampling-rate inversion.
    pub gapped_cells: usize,
    /// The gapped cells themselves, time-ordered.
    pub gapped: Vec<(SimTime, LinkId)>,
}

impl ScalingCoverage {
    /// Fraction of cells scaled against real SNMP data, in `[0, 1]`; no
    /// cells counts as full coverage.
    pub fn fraction(&self) -> f64 {
        let total = self.covered_cells + self.gapped_cells;
        if total == 0 {
            1.0
        } else {
            self.covered_cells as f64 / total as f64
        }
    }
}

/// The (bin, link) cell table of one SNMP-scaling pass over a flow table.
///
/// Built in one pass over the flows: every flow gets the id of its cell,
/// every cell its sampled byte total, and every cell with sampled bytes
/// one SNMP lookup and one scale factor. [`CellTable::volumes`] then hands
/// the scaled volumes out in flow order without materializing them.
///
/// For a cell with a real poll sample ([`SnmpCounters::has_poll`]), the
/// factor scales the cell's sampled bytes to the exact SNMP delta. For a
/// cell whose poll was missed, the sampled bytes are instead multiplied
/// by the packet `sampling` rate — the estimate the collector would
/// publish with only Netflow in hand — and the cell is reported in
/// [`CellTable::coverage`] so figure builders can annotate it. Cells
/// whose records sampled zero bytes contribute nothing. Flows may come in
/// any order; consecutive flows of one cell, as the traffic simulation
/// emits them, cost no table lookup.
#[derive(Debug)]
pub struct CellTable<'a> {
    flows: &'a [(SimTime, LinkId, FlowRecord)],
    /// The cell id of each flow, in flow order.
    cell_of: Vec<u32>,
    /// Per cell id: the factor its flows' sampled bytes are multiplied by,
    /// `None` when the cell sampled zero bytes.
    factor: Vec<Option<f64>>,
    coverage: ScalingCoverage,
}

impl<'a> CellTable<'a> {
    /// Builds the cell table of `flows`, which pair each record with its
    /// bin and ingress link (bins must match the SNMP poll bins).
    pub fn build(
        flows: &'a [(SimTime, LinkId, FlowRecord)],
        snmp: &SnmpCounters,
        sampling: u32,
    ) -> CellTable<'a> {
        let mut ids: HashMap<(SimTime, LinkId), u32> = HashMap::new();
        let mut cells: Vec<((SimTime, LinkId), u64)> = Vec::new();
        let mut cell_of = Vec::with_capacity(flows.len());
        let mut last: Option<((SimTime, LinkId), u32)> = None;
        for (bin, link, rec) in flows {
            let key = (*bin, *link);
            let id = match last {
                Some((k, id)) if k == key => id,
                _ => {
                    let id = *ids.entry(key).or_insert_with(|| {
                        cells.push((key, 0));
                        u32::try_from(cells.len() - 1).expect("fewer than 2^32 cells")
                    });
                    last = Some((key, id));
                    id
                }
            };
            cells[id as usize].1 += rec.bytes as u64;
            cell_of.push(id);
        }
        let mut coverage = ScalingCoverage::default();
        let factor = cells
            .iter()
            .map(|&((bin, link), sampled)| {
                if sampled == 0 {
                    None
                } else if snmp.has_poll(bin, link) {
                    coverage.covered_cells += 1;
                    Some(snmp.delta(bin, link) as f64 / sampled as f64)
                } else {
                    coverage.gapped.push((bin, link));
                    Some(sampling.max(1) as f64)
                }
            })
            .collect();
        coverage.gapped.sort_unstable();
        coverage.gapped_cells = coverage.gapped.len();
        CellTable { flows, cell_of, factor, coverage }
    }

    /// How many cells were scaled against SNMP and which fell back.
    pub fn coverage(&self) -> &ScalingCoverage {
        &self.coverage
    }

    /// The scaled volumes, one per flow in a cell with sampled bytes, in
    /// flow order.
    pub fn volumes(&self) -> impl Iterator<Item = ScaledVolume> + '_ {
        self.flows.iter().zip(&self.cell_of).filter_map(|((bin, link, rec), &id)| {
            let factor = self.factor[id as usize]?;
            Some(ScaledVolume {
                bin: *bin,
                link: *link,
                src: rec.src,
                src_as: rec.src_as,
                bytes: rec.bytes as f64 * factor,
            })
        })
    }
}

/// Scales sampled flow records by SNMP deltas, degrading gracefully when
/// SNMP polls were missed: the volumes of [`CellTable::volumes`] collected
/// in flow order, with the table's coverage.
pub fn scale_by_snmp_with_coverage(
    flows: &[(SimTime, LinkId, FlowRecord)],
    snmp: &SnmpCounters,
    sampling: u32,
) -> (Vec<ScaledVolume>, ScalingCoverage) {
    let table = CellTable::build(flows, snmp, sampling);
    (table.volumes().collect(), table.coverage)
}

/// Aggregates scaled volumes into bytes per (bin, source AS).
pub fn by_source_as(volumes: &[ScaledVolume]) -> BTreeMap<(SimTime, u16), f64> {
    let mut out = BTreeMap::new();
    for v in volumes {
        *out.entry((v.bin, v.src_as)).or_insert(0.0) += v.bytes;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rec(src_last: u8, bytes: u32, src_as: u16) -> FlowRecord {
        FlowRecord {
            src: Ipv4Addr::new(23, 0, 0, src_last),
            dst: Ipv4Addr::new(84, 17, 0, 1),
            input_if: 1,
            packets: bytes / 1400,
            bytes,
            src_as,
            dst_as: 3320,
        }
    }

    /// The per-flow `BTreeMap` scaler the cell table replaced, kept as the
    /// reference the property test below compares against.
    fn reference_scale(
        flows: &[(SimTime, LinkId, FlowRecord)],
        snmp: &SnmpCounters,
        sampling: u32,
    ) -> (Vec<ScaledVolume>, ScalingCoverage) {
        let mut cell_sampled: BTreeMap<(SimTime, LinkId), u64> = BTreeMap::new();
        for (bin, link, rec) in flows {
            *cell_sampled.entry((*bin, *link)).or_insert(0) += rec.bytes as u64;
        }
        let mut coverage = ScalingCoverage::default();
        for (&(bin, link), &sampled) in &cell_sampled {
            if sampled == 0 {
                continue;
            }
            if snmp.has_poll(bin, link) {
                coverage.covered_cells += 1;
            } else {
                coverage.gapped_cells += 1;
                coverage.gapped.push((bin, link));
            }
        }
        let mut out = Vec::with_capacity(flows.len());
        for (bin, link, rec) in flows {
            let sampled_total = cell_sampled[&(*bin, *link)];
            if sampled_total == 0 {
                continue;
            }
            let factor = if snmp.has_poll(*bin, *link) {
                snmp.delta(*bin, *link) as f64 / sampled_total as f64
            } else {
                sampling.max(1) as f64
            };
            out.push(ScaledVolume {
                bin: *bin,
                link: *link,
                src: rec.src,
                src_as: rec.src_as,
                bytes: rec.bytes as f64 * factor,
            });
        }
        (out, coverage)
    }

    proptest! {
        /// The cell table scales any flow table exactly as the reference
        /// does — bins out of order, repeated and interleaved cells,
        /// zero-byte records, missed polls, 1-minute bins off the 5-minute
        /// poll grid, any sampling rate: the same volumes in flow order,
        /// bit for bit, and the same coverage with `gapped` time-ordered.
        /// The traffic simulation emits bin-sorted flows; this is what
        /// shows the table does not depend on it.
        #[test]
        fn cell_table_matches_the_reference_scaler(
            records in proptest::collection::vec(
                (0u64..10, 0u32..4, 0u8..5, any::<u32>(), 0u8..6),
                0..160,
            ),
            polls in proptest::collection::vec((0u8..3, any::<u32>(), 0u8..8), 40),
            // Rates 0 and 1 (both meaning "no sampling") a quarter of
            // the time each, else any rate up to 1000.
            sampling in (0u8..4, 0u32..=1000).prop_map(|(k, rate)| match k {
                0 => 0,
                1 => 1,
                _ => rate,
            }),
        ) {
            let base = SimTime::from_ymd(2017, 9, 19);
            let minute = |m: u64| base + mcdn_geo::Duration::mins(m);
            let flows: Vec<(SimTime, LinkId, FlowRecord)> = records
                .iter()
                .map(|&(m, link, kind, raw, src)| {
                    let bytes = match kind {
                        0 | 1 => 0,
                        2 => raw % 5_000,
                        3 => raw,
                        _ => u32::MAX,
                    };
                    (minute(m), LinkId(link), rec(src, bytes, 700 + src as u16))
                })
                .collect();
            // One poll a minute over four links, as with 1-minute ticks;
            // each link misses a poll with probability 1/8.
            let mut snmp = SnmpCounters::new();
            for (m, minute_polls) in polls.chunks(4).enumerate() {
                for (l, &(kind, raw, _)) in minute_polls.iter().enumerate() {
                    snmp.account(LinkId(l as u32), if kind == 0 { 0 } else { raw as u64 });
                }
                snmp.poll_filtered(minute(m as u64), |l| minute_polls[l.0 as usize].2 != 0);
            }

            let (want, want_coverage) = reference_scale(&flows, &snmp, sampling);
            let table = CellTable::build(&flows, &snmp, sampling);
            let got: Vec<ScaledVolume> = table.volumes().collect();
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(
                    (g.bin, g.link, g.src, g.src_as, g.bytes.to_bits()),
                    (w.bin, w.link, w.src, w.src_as, w.bytes.to_bits())
                );
            }
            prop_assert_eq!(table.coverage(), &want_coverage);
            prop_assert!(want_coverage.gapped.windows(2).all(|w| w[0] < w[1]));
            let collected = scale_by_snmp_with_coverage(&flows, &snmp, sampling);
            prop_assert_eq!(collected, (got, want_coverage));
        }
    }

    #[test]
    fn scaling_restores_snmp_total() {
        let bin = SimTime::from_ymd(2017, 9, 19);
        let link = LinkId(1);
        let mut snmp = SnmpCounters::new();
        snmp.account(link, 1_000_000); // exact truth
        snmp.poll(bin);
        // Sampled records only saw 1000 bytes total.
        let flows =
            vec![(bin, link, rec(1, 600, 20940)), (bin, link, rec(2, 400, 22822))];
        let (scaled, _) = scale_by_snmp_with_coverage(&flows, &snmp, 1000);
        let total: f64 = scaled.iter().map(|v| v.bytes).sum();
        assert!((total - 1_000_000.0).abs() < 1e-6);
        // Proportions preserved: 60/40.
        assert!((scaled[0].bytes - 600_000.0).abs() < 1e-6);
        assert!((scaled[1].bytes - 400_000.0).abs() < 1e-6);
    }

    #[test]
    fn cells_scale_independently() {
        let bin = SimTime::from_ymd(2017, 9, 19);
        let mut snmp = SnmpCounters::new();
        snmp.account(LinkId(1), 1000);
        snmp.account(LinkId(2), 9000);
        snmp.poll(bin);
        let flows = vec![
            (bin, LinkId(1), rec(1, 100, 714)),
            (bin, LinkId(2), rec(2, 100, 714)),
        ];
        let (scaled, _) = scale_by_snmp_with_coverage(&flows, &snmp, 1000);
        assert!((scaled[0].bytes - 1000.0).abs() < 1e-9);
        assert!((scaled[1].bytes - 9000.0).abs() < 1e-9);
    }

    #[test]
    fn empty_cells_are_skipped() {
        let bin = SimTime::from_ymd(2017, 9, 19);
        let snmp = SnmpCounters::new();
        let flows = vec![(bin, LinkId(1), rec(1, 0, 714))];
        let (scaled, cov) = scale_by_snmp_with_coverage(&flows, &snmp, 1000);
        assert!(scaled.is_empty());
        assert_eq!((cov.covered_cells, cov.gapped_cells), (0, 0));
    }

    #[test]
    fn polled_cells_scale_to_their_snmp_delta() {
        let bin = SimTime::from_ymd(2017, 9, 19);
        let mut snmp = SnmpCounters::new();
        snmp.account(LinkId(1), 1_000_000);
        snmp.account(LinkId(2), 5_000);
        snmp.poll(bin);
        let flows = vec![
            (bin, LinkId(1), rec(1, 600, 20940)),
            (bin, LinkId(1), rec(2, 400, 22822)),
            (bin, LinkId(2), rec(3, 50, 714)),
        ];
        // With every cell polled, the sampling rate plays no part.
        let (scaled, cov) = scale_by_snmp_with_coverage(&flows, &snmp, 1000);
        let bytes: Vec<f64> = scaled.iter().map(|v| v.bytes).collect();
        assert_eq!(bytes, vec![600_000.0, 400_000.0, 5_000.0]);
        assert_eq!(scaled, scale_by_snmp_with_coverage(&flows, &snmp, 1).0);
        assert_eq!(cov.covered_cells, 2);
        assert_eq!(cov.gapped_cells, 0);
        assert_eq!(cov.fraction(), 1.0);
    }

    #[test]
    fn gapped_cell_falls_back_to_sampling_inversion() {
        let bin = SimTime::from_ymd(2017, 9, 19);
        let snmp = SnmpCounters::new(); // never polled: every cell is a gap
        let flows = vec![(bin, LinkId(1), rec(1, 600, 20940))];
        // The estimate comes from the sampling rate, and the gap is flagged.
        let (scaled, cov) = scale_by_snmp_with_coverage(&flows, &snmp, 1000);
        assert!((scaled[0].bytes - 600_000.0).abs() < 1e-9);
        assert_eq!(cov.gapped, vec![(bin, LinkId(1))]);
        assert_eq!(cov.fraction(), 0.0);
    }

    #[test]
    fn aggregation_by_source_as() {
        let bin = SimTime::from_ymd(2017, 9, 19);
        let link = LinkId(1);
        let mut snmp = SnmpCounters::new();
        snmp.account(link, 1000);
        snmp.poll(bin);
        let flows = vec![
            (bin, link, rec(1, 30, 20940)),
            (bin, link, rec(2, 50, 20940)),
            (bin, link, rec(3, 20, 22822)),
        ];
        let agg = by_source_as(&scale_by_snmp_with_coverage(&flows, &snmp, 1000).0);
        assert!((agg[&(bin, 20940)] - 800.0).abs() < 1e-9);
        assert!((agg[&(bin, 22822)] - 200.0).abs() < 1e-9);
    }
}
