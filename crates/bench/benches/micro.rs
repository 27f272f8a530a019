//! Micro-benchmarks of the hot substrate operations: DNS wire codec,
//! recursive resolution, longest-prefix match, valley-free routing,
//! NetFlow codec + sampler, and cache-site serving.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mcdn_bench::micro_world;
use mcdn_dnssim::{
    CompiledNamespace, InternedResolver, NoInternedFaults, QueryContext, ResolveScratch,
};
use mcdn_dnswire::{Message, Name, RData, RecordType, ResourceRecord};
use mcdn_geo::{Continent, Coord, Locode, SimTime};
use mcdn_isp::{ExportPacket, FlowRecord, Sampler};
use mcdn_netsim::{Ipv4Net, PrefixTrie, Router};
use mcdn_scenario::{loads, params};
use std::hint::black_box;
use std::net::Ipv4Addr;

fn sample_message() -> Message {
    let n = |s: &str| Name::parse(s).unwrap();
    let mut m = Message::query(0x4242, n("appldnld.apple.com"), RecordType::A);
    m.answers = vec![
        ResourceRecord::new(n("appldnld.apple.com"), 21600, RData::Cname(n("appldnld.apple.com.akadns.net"))),
        ResourceRecord::new(n("appldnld.apple.com.akadns.net"), 120, RData::Cname(n("appldnld.g.applimg.com"))),
        ResourceRecord::new(n("appldnld.g.applimg.com"), 15, RData::Cname(n("a.gslb.applimg.com"))),
        ResourceRecord::new(n("a.gslb.applimg.com"), 20, RData::A(Ipv4Addr::new(17, 253, 37, 16))),
        ResourceRecord::new(n("a.gslb.applimg.com"), 20, RData::A(Ipv4Addr::new(17, 253, 37, 17))),
    ];
    m
}

fn bench_dns_codec(c: &mut Criterion) {
    let msg = sample_message();
    let bytes = msg.encode().unwrap();
    let mut g = c.benchmark_group("dnswire");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("encode_mapping_answer", |b| b.iter(|| black_box(msg.encode().unwrap())));
    g.bench_function("decode_mapping_answer", |b| {
        b.iter(|| black_box(Message::decode(&bytes).unwrap()))
    });
    g.finish();
}

fn bench_recursive_resolution(c: &mut Criterion) {
    let (_, world) = micro_world();
    let now = SimTime::from_ymd_hms(2017, 9, 19, 18, 0, 0);
    loads::update_loads(&world, now);
    // Compiled once, outside every timed closure, like a campaign does.
    let ns = CompiledNamespace::compile(&world.ns);
    let mut scratch = ResolveScratch::new();
    let entry = ns.table().get(&metacdn::names::entry()).expect("the entry name is compiled");
    let ctx = QueryContext {
        client_ip: Ipv4Addr::new(84, 17, 3, 9),
        locode: Locode::parse("defra").unwrap(),
        coord: Coord::new(50.1, 8.7),
        continent: Continent::Europe,
        now,
    };
    let mut g = c.benchmark_group("resolver");
    let mut resolve = |r: &mut InternedResolver| {
        r.resolve(&ns, &mut scratch, entry, RecordType::A, &ctx, &NoInternedFaults, 0, None)
    };
    g.bench_function("full_chain_cold_cache", |b| {
        b.iter(|| black_box(resolve(&mut InternedResolver::new())))
    });
    let mut warm = InternedResolver::new();
    let _ = resolve(&mut warm);
    g.bench_function("full_chain_warm_cache", |b| b.iter(|| black_box(resolve(&mut warm))));
    g.finish();
}

fn bench_lpm(c: &mut Criterion) {
    let mut trie = PrefixTrie::new();
    // A RIB of ~10k synthetic prefixes.
    for i in 0..10_000u32 {
        let addr = Ipv4Addr::from(i.wrapping_mul(2_654_435_761));
        trie.insert(Ipv4Net::new(addr, 8 + (i % 17) as u8), i);
    }
    let probes: Vec<Ipv4Addr> =
        (0..1000u32).map(|i| Ipv4Addr::from(i.wrapping_mul(40_503))).collect();
    let mut g = c.benchmark_group("bgp_rib");
    g.throughput(Throughput::Elements(probes.len() as u64));
    g.bench_function("lpm_1000_lookups_10k_routes", |b| {
        b.iter(|| {
            for ip in &probes {
                black_box(trie.lookup(*ip));
            }
        })
    });
    g.finish();
}

fn bench_routing(c: &mut Criterion) {
    let (_, world) = micro_world();
    c.bench_function("valley_free_path_uncached", |b| {
        b.iter(|| {
            let mut router = Router::new();
            black_box(router.path(&world.topo, params::LL_SURGE_D_AS, params::EYEBALL_AS))
        })
    });
}

fn bench_netflow(c: &mut Criterion) {
    let rec = FlowRecord {
        src: Ipv4Addr::new(68, 232, 34, 1),
        dst: Ipv4Addr::new(84, 17, 5, 9),
        input_if: 7,
        packets: 120,
        bytes: 168_000,
        src_as: 22822,
        dst_as: 3320,
    };
    let pkt = ExportPacket {
        unix_secs: 1_505_840_400,
        flow_sequence: 0,
        sampling_interval: 1000,
        records: vec![rec; 30],
    };
    let bytes = pkt.encode().unwrap();
    let mut g = c.benchmark_group("netflow");
    g.throughput(Throughput::Elements(30));
    g.bench_function("encode_30_records", |b| b.iter(|| black_box(pkt.encode().unwrap())));
    g.bench_function("decode_30_records", |b| {
        b.iter(|| black_box(ExportPacket::decode(&bytes).unwrap()))
    });
    let sampler = Sampler::new(1000);
    g.bench_function("sample_flow", |b| {
        b.iter(|| {
            black_box(sampler.sample(
                3_000_000,
                (Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(5, 6, 7, 8), SimTime(12345)),
            ))
        })
    });
    g.finish();
}

fn bench_site_serving(c: &mut Criterion) {
    let (_, mut world) = micro_world();
    c.bench_function("edge_site_serve_hit", |b| {
        let site = &mut world.apple.sites_mut()[0];
        let req = mcdn_cdn::HttpRequest {
            host: "appldnld.apple.com".into(),
            path: "/ipsw".into(),
            client: Ipv4Addr::new(84, 17, 0, 1),
        };
        let _ = site.serve(&req, "obj", 1); // warm
        b.iter(|| black_box(site.serve(&req, "obj", 1)))
    });
}

criterion_group!(
    micro,
    bench_dns_codec,
    bench_recursive_resolution,
    bench_lpm,
    bench_routing,
    bench_netflow,
    bench_site_serving,
);
criterion_main!(micro);
