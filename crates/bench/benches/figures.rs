//! One Criterion bench per paper table and figure: each measures the cost
//! of regenerating the artifact from raw simulated measurements at micro
//! scale (and, as a side effect, proves the regeneration code runs).

use criterion::{criterion_group, criterion_main, Criterion};
use mcdn_analysis::{fig1, fig2, fig3, fig4, fig5, fig6, fig7, fig8, table1};
use mcdn_bench::{micro_cfg, micro_world};
use mcdn_scenario::{params, run_dns, run_traffic, Campaign, World};
use std::hint::black_box;

fn bench_fig1_timeline(c: &mut Criterion) {
    c.bench_function("fig1_timeline", |b| b.iter(|| black_box(fig1::fig1())));
}

fn bench_fig2_mapping_graph(c: &mut Criterion) {
    let (_, world) = micro_world();
    let mut g = c.benchmark_group("fig2");
    g.sample_size(10);
    g.bench_function("fig2_mapping_graph_crawl", |b| {
        b.iter(|| black_box(fig2::fig2(&world)))
    });
    g.finish();
}

fn bench_fig3_site_discovery(c: &mut Criterion) {
    let (_, world) = micro_world();
    let mut g = c.benchmark_group("fig3");
    g.sample_size(10);
    g.bench_function("fig3_site_discovery_scan", |b| {
        b.iter(|| {
            let t = fig3::fig3(&world);
            assert_eq!(t.rows.len(), 34);
            black_box(t)
        })
    });
    g.finish();
}

fn bench_table1_naming(c: &mut Criterion) {
    let (_, world) = micro_world();
    let mut g = c.benchmark_group("table1");
    g.sample_size(10);
    g.bench_function("table1_naming_scheme", |b| {
        b.iter(|| black_box(table1::table1(&world)))
    });
    g.finish();
}

fn bench_fig4_unique_ips_global(c: &mut Criterion) {
    let (cfg, world) = micro_world();
    let mut g = c.benchmark_group("fig4");
    g.sample_size(10);
    g.bench_function("fig4_global_campaign_and_summary", |b| {
        b.iter(|| {
            let result = run_dns(&world, &cfg, Campaign::Global, 0).result;
            black_box(fig4::fig4_summary(&result, params::release()))
        })
    });
    g.finish();
}

fn bench_fig5_unique_ips_isp(c: &mut Criterion) {
    let (cfg, world) = micro_world();
    let mut g = c.benchmark_group("fig5");
    g.sample_size(10);
    g.bench_function("fig5_isp_campaign_and_series", |b| {
        b.iter(|| {
            let result = run_dns(&world, &cfg, Campaign::Isp, 0).result;
            black_box((fig5::fig5_series(&result), fig5::fig5_akamai_rise(&result)))
        })
    });
    g.finish();
}

fn bench_fig6_classification(c: &mut Criterion) {
    let (_, world) = micro_world();
    c.bench_function("fig6_classification", |b| b.iter(|| black_box(fig6::fig6(&world))));
}

fn bench_fig7_offload_traffic(c: &mut Criterion) {
    let cfg = micro_cfg();
    let world = World::build(&cfg);
    let dns = run_dns(&world, &cfg, Campaign::Isp, 0).result;
    let traffic = run_traffic(&world, &cfg, 0).0;
    let mut g = c.benchmark_group("fig7");
    g.sample_size(10);
    g.bench_function("fig7_scaling_and_summary", |b| {
        b.iter(|| black_box(fig7::fig7_summary(&traffic, &dns.ip_classes, params::release())))
    });
    g.bench_function("fig7_telemetry_generation", |b| {
        b.iter(|| black_box(run_traffic(&world, &cfg, 0).0))
    });
    g.finish();
}

fn bench_fig8_overflow(c: &mut Criterion) {
    let cfg = micro_cfg();
    let world = World::build(&cfg);
    let dns = run_dns(&world, &cfg, Campaign::Isp, 0).result;
    let traffic = run_traffic(&world, &cfg, 0).0;
    let mut g = c.benchmark_group("fig8");
    g.sample_size(10);
    g.bench_function("fig8_overflow_series", |b| {
        b.iter(|| black_box(fig8::fig8_series(&traffic, &dns.ip_classes, &world)))
    });
    g.bench_function("fig8_d_link_saturation", |b| {
        b.iter(|| black_box(fig8::fig8_d_link_saturation(&traffic, &world, cfg.traffic_tick)))
    });
    g.finish();
}

criterion_group!(
    figures,
    bench_fig1_timeline,
    bench_fig2_mapping_graph,
    bench_fig3_site_discovery,
    bench_table1_naming,
    bench_fig4_unique_ips_global,
    bench_fig5_unique_ips_isp,
    bench_fig6_classification,
    bench_fig7_offload_traffic,
    bench_fig8_overflow,
);
criterion_main!(figures);
