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

/// The sampled NetFlow records of one collection window, in flow order,
/// each filed under the (time bin, ingress link) cell it was exported in.
///
/// [`FlowTable::push`] gives every record the `u32` id of its cell and adds
/// its sampled bytes to the cell's total, so the cell table the SNMP
/// scaling needs is built once, where the records are made, and not again
/// by every consumer. Records may come in any order; consecutive records
/// of one cell, as the traffic simulation emits them, cost no map lookup.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowTable {
    records: Vec<FlowRecord>,
    /// The cell id of each record, in flow order.
    cell_of: Vec<u32>,
    /// Per cell id: its (bin, link) and sampled byte total.
    cells: Vec<Cell>,
    /// The id of each (bin, link) cell.
    ids: HashMap<(SimTime, LinkId), u32>,
}

/// One (bin, link) cell of a [`FlowTable`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cell {
    bin: SimTime,
    link: LinkId,
    sampled: u64,
}

impl FlowTable {
    /// An empty table.
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    /// Appends `record`, exported on `link` in `bin` (bins must match the
    /// SNMP poll bins).
    pub fn push(&mut self, bin: SimTime, link: LinkId, record: FlowRecord) {
        let last = self.cell_of.last().map(|&id| (id, &self.cells[id as usize]));
        let id = match last {
            Some((id, cell)) if cell.bin == bin && cell.link == link => id,
            _ => {
                let cells = &mut self.cells;
                *self.ids.entry((bin, link)).or_insert_with(|| {
                    cells.push(Cell { bin, link, sampled: 0 });
                    u32::try_from(cells.len() - 1).expect("fewer than 2^32 cells")
                })
            }
        };
        self.cells[id as usize].sampled += record.bytes as u64;
        self.cell_of.push(id);
        self.records.push(record);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the table holds no record.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records with their bin and link, in flow order.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, LinkId, &FlowRecord)> + '_ {
        self.records.iter().zip(&self.cell_of).map(|(record, &id)| {
            let cell = &self.cells[id as usize];
            (cell.bin, cell.link, record)
        })
    }

    /// Scales the sampled bytes of every cell by SNMP: one `has_poll` and
    /// `delta` lookup and one factor per cell.
    ///
    /// For a cell with a real poll sample ([`SnmpCounters::has_poll`]), the
    /// factor scales the cell's sampled bytes to the exact SNMP delta. For
    /// a cell whose poll was missed, the sampled bytes are instead
    /// multiplied by the packet `sampling` rate — the estimate the
    /// collector would publish with only Netflow in hand — and the cell is
    /// reported in [`ScaledFlows::coverage`] so figure builders can
    /// annotate it. Cells whose records sampled zero bytes contribute
    /// nothing.
    pub fn scale(&self, snmp: &SnmpCounters, sampling: u32) -> ScaledFlows<'_> {
        let mut coverage = ScalingCoverage::default();
        let factor = self
            .cells
            .iter()
            .map(|&Cell { bin, link, sampled }| {
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
        ScaledFlows { flows: self, factor, coverage }
    }
}

/// One SNMP-scaling pass over a [`FlowTable`] ([`FlowTable::scale`]).
#[derive(Debug)]
pub struct ScaledFlows<'a> {
    flows: &'a FlowTable,
    /// Per cell id: the factor its records' sampled bytes are multiplied
    /// by, `None` when the cell sampled zero bytes.
    factor: Vec<Option<f64>>,
    coverage: ScalingCoverage,
}

impl ScaledFlows<'_> {
    /// How many cells were scaled against SNMP and which fell back.
    pub fn coverage(&self) -> &ScalingCoverage {
        &self.coverage
    }

    /// The scaled volumes, one per record in a cell with sampled bytes, in
    /// flow order.
    pub fn volumes(&self) -> impl Iterator<Item = ScaledVolume> + '_ {
        let flows = self.flows;
        flows.records.iter().zip(&flows.cell_of).filter_map(|(record, &id)| {
            let factor = self.factor[id as usize]?;
            let cell = &flows.cells[id as usize];
            Some(ScaledVolume {
                bin: cell.bin,
                link: cell.link,
                src: record.src,
                src_as: record.src_as,
                bytes: record.bytes as f64 * factor,
            })
        })
    }
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

    fn table(flows: &[(SimTime, LinkId, FlowRecord)]) -> FlowTable {
        let mut table = FlowTable::new();
        for &(bin, link, record) in flows {
            table.push(bin, link, record);
        }
        table
    }

    fn scaled(flows: &FlowTable, snmp: &SnmpCounters, sampling: u32) -> Vec<ScaledVolume> {
        flows.scale(snmp, sampling).volumes().collect()
    }

    #[test]
    fn scaling_restores_snmp_total() {
        let bin = SimTime::from_ymd(2017, 9, 19);
        let link = LinkId(1);
        let mut snmp = SnmpCounters::new();
        snmp.account(link, 1_000_000); // exact truth
        snmp.poll(bin);
        // Sampled records only saw 1000 bytes total.
        let flows = table(&[(bin, link, rec(1, 600, 20940)), (bin, link, rec(2, 400, 22822))]);
        let scaled = scaled(&flows, &snmp, 1000);
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
        let flows =
            table(&[(bin, LinkId(1), rec(1, 100, 714)), (bin, LinkId(2), rec(2, 100, 714))]);
        let scaled = scaled(&flows, &snmp, 1000);
        assert!((scaled[0].bytes - 1000.0).abs() < 1e-9);
        assert!((scaled[1].bytes - 9000.0).abs() < 1e-9);
    }

    #[test]
    fn empty_cells_are_skipped() {
        let bin = SimTime::from_ymd(2017, 9, 19);
        let snmp = SnmpCounters::new();
        let flows = table(&[(bin, LinkId(1), rec(1, 0, 714))]);
        let scaled = flows.scale(&snmp, 1000);
        assert_eq!(scaled.volumes().count(), 0);
        let cov = scaled.coverage();
        assert_eq!((cov.covered_cells, cov.gapped_cells), (0, 0));
    }

    #[test]
    fn polled_cells_scale_to_their_snmp_delta() {
        let bin = SimTime::from_ymd(2017, 9, 19);
        let mut snmp = SnmpCounters::new();
        snmp.account(LinkId(1), 1_000_000);
        snmp.account(LinkId(2), 5_000);
        snmp.poll(bin);
        let flows = table(&[
            (bin, LinkId(1), rec(1, 600, 20940)),
            (bin, LinkId(1), rec(2, 400, 22822)),
            (bin, LinkId(2), rec(3, 50, 714)),
        ]);
        // With every cell polled, the sampling rate plays no part.
        let scaled_at = |sampling| scaled(&flows, &snmp, sampling);
        let bytes: Vec<f64> = scaled_at(1000).iter().map(|v| v.bytes).collect();
        assert_eq!(bytes, vec![600_000.0, 400_000.0, 5_000.0]);
        assert_eq!(scaled_at(1000), scaled_at(1));
        let cov = flows.scale(&snmp, 1000).coverage().clone();
        assert_eq!(cov.covered_cells, 2);
        assert_eq!(cov.gapped_cells, 0);
        assert_eq!(cov.fraction(), 1.0);
    }

    #[test]
    fn gapped_cell_falls_back_to_sampling_inversion() {
        let bin = SimTime::from_ymd(2017, 9, 19);
        let snmp = SnmpCounters::new(); // never polled: every cell is a gap
        let flows = table(&[(bin, LinkId(1), rec(1, 600, 20940))]);
        // The estimate comes from the sampling rate, and the gap is flagged.
        let scaled = flows.scale(&snmp, 1000);
        let volumes: Vec<ScaledVolume> = scaled.volumes().collect();
        assert!((volumes[0].bytes - 600_000.0).abs() < 1e-9);
        assert_eq!(scaled.coverage().gapped, vec![(bin, LinkId(1))]);
        assert_eq!(scaled.coverage().fraction(), 0.0);
    }

    #[test]
    fn aggregation_by_source_as() {
        let bin = SimTime::from_ymd(2017, 9, 19);
        let link = LinkId(1);
        let mut snmp = SnmpCounters::new();
        snmp.account(link, 1000);
        snmp.poll(bin);
        let flows = table(&[
            (bin, link, rec(1, 30, 20940)),
            (bin, link, rec(2, 50, 20940)),
            (bin, link, rec(3, 20, 22822)),
        ]);
        let agg = by_source_as(&scaled(&flows, &snmp, 1000));
        assert!((agg[&(bin, 20940)] - 800.0).abs() < 1e-9);
        assert!((agg[&(bin, 22822)] - 200.0).abs() < 1e-9);
    }
}
