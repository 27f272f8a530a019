//! The §5 telemetry pipeline under test: NetFlow sampling error, SNMP
//! scaling accuracy, wire-format round trips at the collector boundary, and
//! end-to-end conservation between generated traffic and estimated traffic.

use metacdn_suite::analysis::coverage::telemetry_coverage;
use metacdn_suite::analysis::{fig7, fig8};
use metacdn_suite::faults::{FaultProfile, Fnv64};
use metacdn_suite::geo::{Duration, SimTime};
use metacdn_suite::isp::estimate::{by_source_as, scale_by_snmp_with_coverage};
use metacdn_suite::isp::{ExportPacket, FlowRecord, Sampler, SnmpCounters};
use metacdn_suite::netsim::LinkId;
use metacdn_suite::scenario::{
    params, run_dns, run_traffic, Campaign, LinkSelection, ScenarioConfig,
    TrafficResult, World,
};
use std::net::Ipv4Addr;

fn small_cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::fast();
    cfg.traffic_start = SimTime::from_ymd(2017, 9, 18);
    cfg.traffic_end = SimTime::from_ymd(2017, 9, 21);
    cfg.traffic_tick = Duration::mins(30);
    cfg
}

#[test]
fn snmp_scaling_recovers_true_volumes_within_percent() {
    // Synthetic ground truth: 200 flows of known size on one link.
    let bin = SimTime::from_ymd(2017, 9, 19);
    let link = LinkId(0);
    let sampler = Sampler::new(1000);
    let mut snmp = SnmpCounters::new();
    let mut flows = Vec::new();
    let mut truth_per_as: std::collections::HashMap<u16, f64> = Default::default();
    for i in 0..200u32 {
        let src = Ipv4Addr::from(0x1700_0000 + i);
        let src_as = if i % 3 == 0 { 714 } else { 22822 };
        let bytes = 40_000_000u64 + (i as u64) * 1_000_000;
        snmp.account(link, bytes);
        *truth_per_as.entry(src_as).or_default() += bytes as f64;
        if let Some(sampled) = sampler.sample(bytes, (src, Ipv4Addr::new(84, 17, 0, 1), bin)) {
            flows.push((
                bin,
                link,
                FlowRecord {
                    src,
                    dst: Ipv4Addr::new(84, 17, 0, 1),
                    input_if: 0,
                    packets: sampled.1,
                    bytes: sampled.0,
                    src_as,
                    dst_as: 3320,
                },
            ));
        }
    }
    snmp.poll(bin);
    let (scaled, coverage) = scale_by_snmp_with_coverage(&flows, &snmp, 1000);
    assert_eq!(coverage.gapped_cells, 0, "the bin was polled");
    let estimated = by_source_as(&scaled);
    for (asn, truth) in truth_per_as {
        let est = estimated.get(&(bin, asn)).copied().unwrap_or(0.0);
        let err = (est - truth).abs() / truth;
        // SNMP scaling corrects the total exactly; the per-AS split retains
        // some sampling noise but stays within a few percent at this size.
        assert!(err < 0.10, "AS{asn}: error {err:.3} too large ({est:.3e} vs {truth:.3e})");
    }
}

#[test]
fn netflow_export_packets_roundtrip_from_simulated_records() {
    let cfg = small_cfg();
    let world = World::build(&cfg);
    let result = run_traffic(&world, &cfg, 0).0;
    assert!(result.flows.len() > 100);
    // Pack records 30-at-a-time into v5 export packets and decode them back
    // — the collector boundary a real deployment would cross.
    let records: Vec<FlowRecord> = result.flows.iter().map(|(_, _, r)| *r).collect();
    let mut sequence = 0u32;
    for chunk in records.chunks(30).take(50) {
        let pkt = ExportPacket {
            unix_secs: 1_505_000_000,
            flow_sequence: sequence,
            sampling_interval: result.sampling as u16,
            records: chunk.to_vec(),
        };
        let bytes = pkt.encode().expect("encodes");
        let back = ExportPacket::decode(&bytes).expect("decodes");
        assert_eq!(back, pkt);
        sequence += chunk.len() as u32;
    }
}

#[test]
fn snmp_totals_match_generated_traffic_modulo_drops() {
    let cfg = small_cfg();
    let world = World::build(&cfg);
    let result = run_traffic(&world, &cfg, 0).0;
    // Everything SNMP counted entered via a link that touches the ISP, and
    // drops happen only when parallel links fill — on the uncongested big
    // CDN links, SNMP must never exceed capacity.
    for (t, link, bytes) in result.snmp.samples() {
        let l = world.topo.link(link);
        assert!(l.touches(params::EYEBALL_AS), "SNMP on a non-border link at {t}");
        let cap_bytes = l.capacity_bps * cfg.traffic_tick.as_secs() as f64 / 8.0;
        assert!(
            bytes as f64 <= cap_bytes * 1.0001,
            "link {link:?} overfilled: {bytes} vs cap {cap_bytes}"
        );
    }
}

#[test]
fn sampled_flows_estimate_true_link_volume() {
    let cfg = small_cfg();
    let world = World::build(&cfg);
    let result = run_traffic(&world, &cfg, 0).0;
    // Pick the busiest link; the SNMP-scaled flow sum equals the SNMP
    // total by construction, and the *unscaled* sampled sum times the
    // sampling rate should land within ~5% (law of large numbers).
    let busiest = {
        let mut per_link: std::collections::HashMap<LinkId, u64> = Default::default();
        for (_, link, b) in result.snmp.samples() {
            *per_link.entry(link).or_default() += b;
        }
        *per_link.iter().max_by_key(|(_, v)| **v).unwrap().0
    };
    let snmp_total: u64 =
        result.snmp.samples().filter(|(_, l, _)| *l == busiest).map(|(_, _, b)| b).sum();
    let sampled_total: u64 = result
        .flows
        .iter()
        .filter(|(_, l, _)| *l == busiest)
        .map(|(_, _, r)| r.bytes as u64)
        .sum();
    let estimated = sampled_total * result.sampling as u64;
    let err = (estimated as f64 - snmp_total as f64).abs() / snmp_total as f64;
    assert!(err < 0.05, "sampling estimate off by {err:.3}");
}

#[test]
fn source_as_fields_match_bgp_origin() {
    let cfg = small_cfg();
    let world = World::build(&cfg);
    let result = run_traffic(&world, &cfg, 0).0;
    for (_, _, rec) in result.flows.iter().take(2000) {
        let origin = world.topo.origin_of(rec.src).expect("flow sources are routable");
        assert_eq!(
            rec.src_as,
            (origin.0 & 0xFFFF) as u16,
            "NetFlow src_as must carry the BGP origin for {}",
            rec.src
        );
    }
}

/// A short border-telemetry window at the `border_telemetry` benchmark's
/// knobs — 1-minute ticks, 1-in-100 sampling, 2% NetFlow export loss and
/// 3% SNMP poll gaps — so gapped cells, export losses and spills across
/// AS D's parallel links all occur.
fn pinned_cfg(selection: LinkSelection) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::fast();
    cfg.global_probes = 40;
    cfg.global_dns_interval = Duration::hours(2);
    cfg.global_start = SimTime::from_ymd_hms(2017, 9, 18, 21, 0, 0);
    cfg.global_end = SimTime::from_ymd_hms(2017, 9, 20, 1, 0, 0);
    cfg.isp_start = SimTime::from_ymd(2017, 9, 18);
    cfg.isp_end = SimTime::from_ymd(2017, 9, 21);
    cfg.traffic_start = cfg.global_start;
    cfg.traffic_end = cfg.global_end;
    cfg.traffic_tick = Duration::mins(1);
    cfg.flows_per_cdn = 10;
    cfg.netflow_sampling = 100;
    cfg.faults = FaultProfile {
        netflow_export_loss: 0.02,
        snmp_gap: 0.03,
        ..FaultProfile::none().with_seed(5)
    };
    cfg.link_selection = selection;
    cfg
}

/// FNV-64 over every field of a traffic result: each flow tuple, each
/// SNMP sample, and the drop, sampling, export-loss and missed-poll counts.
fn traffic_digest(r: &TrafficResult) -> u64 {
    let mut h = Fnv64::new();
    for (t, link, rec) in &r.flows {
        h.update(&t.0.to_be_bytes());
        h.update(&link.0.to_be_bytes());
        h.update(&rec.src.octets());
        h.update(&rec.dst.octets());
        h.update(&rec.input_if.to_be_bytes());
        h.update(&rec.packets.to_be_bytes());
        h.update(&rec.bytes.to_be_bytes());
        h.update(&rec.src_as.to_be_bytes());
        h.update(&rec.dst_as.to_be_bytes());
    }
    for (t, link, bytes) in r.snmp.samples() {
        h.update(&t.0.to_be_bytes());
        h.update(&link.0.to_be_bytes());
        h.update(&bytes.to_be_bytes());
    }
    for n in [r.dropped_bytes, r.sampling as u64, r.export_losses, r.polls_missed] {
        h.update(&n.to_be_bytes());
    }
    h.finish()
}

/// The border telemetry and every §5 table built from it are pinned under
/// both link-selection policies: the whole `TrafficResult`, the rendered
/// Figure 7 and 8 tables with the coverage table, and the AS D peak share
/// at full precision. A mismatch is a behaviour change; the pins move
/// only with an intended output change (together with `tests/goldens/`
/// and `results/`).
#[test]
fn telemetry_output_is_pinned_under_both_link_selections() {
    // (selection, traffic digest, tables digest, d_peak_share bits)
    let pins = [
        (
            LinkSelection::FillOrder,
            0x1683_5c9c_f3e5_31cc,
            0x4059_ae7f_75cf_fa9f,
            0x3fe2_adb4_7c6e_c227,
        ),
        (
            LinkSelection::Ecmp,
            0x5386_4565_b3cd_6e7b,
            0x4c47_0050_809b_799f,
            0x3fe2_be2e_6ec3_951c,
        ),
    ];
    for (selection, traffic_pin, tables_pin, share_pin) in pins {
        let cfg = pinned_cfg(selection);
        let world = World::build(&cfg);
        let mut ip_classes = run_dns(&world, &cfg, Campaign::Isp, 0).result.ip_classes;
        ip_classes.extend(run_dns(&world, &cfg, Campaign::Global, 0).result.ip_classes);
        let traffic = run_traffic(&world, &cfg, 0).0;
        assert!(
            traffic.export_losses > 0 && traffic.polls_missed > 0,
            "telemetry loss must bite"
        );

        let release = params::release();
        let mut tables = Fnv64::new();
        for table in [
            fig7::fig7_summary(&traffic, &ip_classes, release),
            fig7::fig7_series(&traffic, &ip_classes, release),
            fig8::fig8_series(&traffic, &ip_classes, &world),
            fig8::fig8_d_link_saturation(&traffic, &world, cfg.traffic_tick),
            telemetry_coverage(&traffic),
        ] {
            tables.update(table.to_string().as_bytes());
        }
        let share = fig8::d_peak_share(&traffic, &ip_classes, &world);
        assert!(share > 0.0, "AS D must carry overflow in the window");
        assert_eq!(traffic_digest(&traffic), traffic_pin, "{selection:?}: traffic output moved");
        assert_eq!(tables.finish(), tables_pin, "{selection:?}: Figure 7/8 tables moved");
        assert_eq!(share.to_bits(), share_pin, "{selection:?}: AS D peak share moved");
    }
}
