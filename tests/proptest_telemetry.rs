//! Property tests for the telemetry substrate: NetFlow v5 round trips over
//! arbitrary records, sampler aggregate unbiasedness, the flow table's
//! SNMP scaling against a per-record reference, 95/5 billing bounds, BGP
//! UPDATE round trips, and ECS option round trips.

use metacdn_suite::dnswire::ClientSubnet;
use metacdn_suite::geo::{Duration, SimTime};
use metacdn_suite::isp::billing::percentile_95_5;
use metacdn_suite::isp::{
    ExportPacket, FlowRecord, FlowTable, Sampler, ScaledVolume, ScalingCoverage, SnmpCounters,
};
use metacdn_suite::netsim::bgp_wire::Update;
use metacdn_suite::netsim::{AsId, Ipv4Net, LinkId};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

fn arb_record() -> impl Strategy<Value = FlowRecord> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
    )
        .prop_map(|(src, dst, input_if, packets, bytes, src_as, dst_as)| FlowRecord {
            src: Ipv4Addr::from(src),
            dst: Ipv4Addr::from(dst),
            input_if,
            packets,
            bytes,
            src_as,
            dst_as,
        })
}

/// The per-record `BTreeMap` scaler the flow table's cell table replaced,
/// kept as the reference the flow-table property compares against.
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
    /// A flow table scales any push order exactly as the reference does —
    /// bins out of order, repeated and interleaved cells, zero-byte
    /// records, missed polls, 1-minute bins off the 5-minute poll grid,
    /// any sampling rate: `iter` returns the pushed triples in push order,
    /// `scale` gives the same volumes in flow order, bit for bit, and the
    /// same coverage with `gapped` time-ordered. The traffic simulation
    /// pushes bin-sorted records; this is what shows the table does not
    /// depend on it.
    #[test]
    fn flow_table_matches_the_reference_scaler(
        records in proptest::collection::vec(
            (0u64..10, 0u32..4, 0u8..5, any::<u32>(), 0u8..6),
            0..160,
        ),
        polls in proptest::collection::vec((0u8..3, any::<u32>(), 0u8..8), 40),
        // Rates 0 and 1 (both meaning "no sampling") a quarter of the
        // time each, else any rate up to 1000.
        sampling in (0u8..4, 0u32..=1000).prop_map(|(k, rate)| match k {
            0 => 0,
            1 => 1,
            _ => rate,
        }),
    ) {
        let base = SimTime::from_ymd(2017, 9, 19);
        let minute = |m: u64| base + Duration::mins(m);
        let flows: Vec<(SimTime, LinkId, FlowRecord)> = records
            .iter()
            .map(|&(m, link, kind, raw, src)| {
                let bytes = match kind {
                    0 | 1 => 0,
                    2 => raw % 5_000,
                    3 => raw,
                    _ => u32::MAX,
                };
                let rec = FlowRecord {
                    src: Ipv4Addr::new(23, 0, 0, src),
                    dst: Ipv4Addr::new(84, 17, 0, 1),
                    input_if: 1,
                    packets: bytes / 1400,
                    bytes,
                    src_as: 700 + src as u16,
                    dst_as: 3320,
                };
                (minute(m), LinkId(link), rec)
            })
            .collect();
        // One poll a minute over four links, as with 1-minute ticks; each
        // link misses a poll with probability 1/8.
        let mut snmp = SnmpCounters::new();
        for (m, minute_polls) in polls.chunks(4).enumerate() {
            for (l, &(kind, raw, _)) in minute_polls.iter().enumerate() {
                snmp.account(LinkId(l as u32), if kind == 0 { 0 } else { raw as u64 });
            }
            snmp.poll_filtered(minute(m as u64), |l| minute_polls[l.0 as usize].2 != 0);
        }

        let mut table = FlowTable::new();
        for &(bin, link, rec) in &flows {
            table.push(bin, link, rec);
        }
        prop_assert_eq!(table.len(), flows.len());
        let pushed: Vec<(SimTime, LinkId, FlowRecord)> =
            table.iter().map(|(bin, link, rec)| (bin, link, *rec)).collect();
        prop_assert_eq!(pushed, flows.clone());

        let (want, want_coverage) = reference_scale(&flows, &snmp, sampling);
        let scaled = table.scale(&snmp, sampling);
        let got: Vec<ScaledVolume> = scaled.volumes().collect();
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(
                (g.bin, g.link, g.src, g.src_as, g.bytes.to_bits()),
                (w.bin, w.link, w.src, w.src_as, w.bytes.to_bits())
            );
        }
        prop_assert_eq!(scaled.coverage(), &want_coverage);
        prop_assert!(want_coverage.gapped.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn netflow_v5_roundtrip(records in proptest::collection::vec(arb_record(), 0..30),
                            unix_secs in any::<u32>(),
                            seq in any::<u32>(),
                            sampling in 0u16..0x4000) {
        let pkt = ExportPacket { unix_secs, flow_sequence: seq, sampling_interval: sampling, records };
        let bytes = pkt.encode().expect("≤30 records encode");
        let back = ExportPacket::decode(&bytes).expect("decodes");
        prop_assert_eq!(back, pkt);
    }

    #[test]
    fn netflow_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = ExportPacket::decode(&bytes);
    }

    #[test]
    fn sampler_never_overestimates_by_much(bytes in 1u64..100_000_000_000, rate in 1u32..10_000) {
        let s = Sampler::new(rate);
        let key = (Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(5, 6, 7, 8), metacdn_suite::geo::SimTime(42));
        if let Some((sampled_bytes, sampled_packets)) = s.sample(bytes, key) {
            prop_assert!(sampled_packets > 0);
            // The scaled-back estimate is within one packet-quantum × rate
            // of the truth.
            let estimate = sampled_bytes as u64 * rate as u64;
            let quantum = 1400u64 * rate as u64;
            prop_assert!(estimate <= bytes + quantum, "estimate {estimate} vs {bytes}");
        }
    }

    #[test]
    fn billing_is_bounded_by_min_and_max(samples in proptest::collection::vec(0u64..1_000_000_000, 1..500)) {
        let billed = percentile_95_5(&samples);
        let to_bps = |b: u64| b as f64 * 8.0 / 300.0;
        let max = samples.iter().copied().max().unwrap();
        let min = samples.iter().copied().min().unwrap();
        prop_assert!(billed <= to_bps(max) + 1e-9);
        prop_assert!(billed >= to_bps(min) - 1e-9);
    }

    #[test]
    fn billing_is_monotone_in_added_quiet_samples(samples in proptest::collection::vec(1u64..1_000_000, 20..100)) {
        // Appending zero-traffic samples can only lower (or keep) the bill.
        let billed = percentile_95_5(&samples);
        let mut padded = samples.clone();
        padded.extend(std::iter::repeat_n(0, samples.len()));
        let padded_billed = percentile_95_5(&padded);
        prop_assert!(padded_billed <= billed + 1e-9);
    }

    #[test]
    fn bgp_update_roundtrip(
        withdrawn in proptest::collection::vec((any::<u32>(), 0u8..=32), 0..10),
        announced in proptest::collection::vec((any::<u32>(), 0u8..=32), 0..10),
        path in proptest::collection::vec(1u32..65_000, 1..8),
        nh in any::<u32>(),
    ) {
        let u = Update {
            withdrawn: withdrawn.iter().map(|(a, l)| Ipv4Net::new(Ipv4Addr::from(*a), *l)).collect(),
            as_path: path.into_iter().map(AsId).collect(),
            next_hop: Some(Ipv4Addr::from(nh)),
            announced: announced.iter().map(|(a, l)| Ipv4Net::new(Ipv4Addr::from(*a), *l)).collect(),
        };
        let bytes = u.encode().expect("fits in 4096");
        let back = Update::decode(&bytes).expect("decodes");
        prop_assert_eq!(back, u);
    }

    #[test]
    fn bgp_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Update::decode(&bytes);
    }

    #[test]
    fn ecs_roundtrip(addr in any::<u32>(), len in 0u8..=32) {
        let ecs = ClientSubnet::query(Ipv4Addr::from(addr), len);
        let encoded = ecs.encode_option();
        let back = ClientSubnet::decode_option(&encoded[4..]).expect("canonical encodes parse");
        prop_assert_eq!(back, ecs);
    }
}
