//! Regenerates every table and figure of the paper from the simulated
//! measurement campaigns and prints them.
//!
//! ```text
//! repro [--paper|--fast] [--csv-dir DIR]
//! ```
//!
//! `--fast` (default) runs the reduced configuration (~seconds);
//! `--paper` runs the full 800-probe / 5-minute / multi-month campaigns
//! (use a release build). `--csv-dir` additionally writes each table as CSV.

use mcdn_analysis::{fig1, fig2, fig3, fig4, fig5, fig6, fig7, fig8, table1, via_inference, Table};
use mcdn_scenario::{params, run_dns, run_traffic, Campaign, ScenarioConfig, World};
use std::io::Write;

fn emit(table: &Table, csv_dir: Option<&str>, slug: &str) {
    println!("{table}");
    if let Some(dir) = csv_dir {
        let path = format!("{dir}/{slug}.csv");
        if let Err(e) =
            std::fs::File::create(&path).and_then(|mut f| f.write_all(table.to_csv().as_bytes()))
        {
            eprintln!("warning: could not write {path}: {e}");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paper = args.iter().any(|a| a == "--paper");
    let csv_dir = args
        .iter()
        .position(|a| a == "--csv-dir")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str);
    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
    }
    let cfg = if paper { ScenarioConfig::paper() } else { ScenarioConfig::fast() };
    eprintln!(
        "building world ({} mode: {} global probes, {} ISP probes)…",
        if paper { "paper" } else { "fast" },
        cfg.global_probes,
        cfg.isp_probes
    );
    let mut world = World::build(&cfg);
    let release = params::release();

    emit(&fig1::fig1(), csv_dir, "fig1_timeline");

    eprintln!("crawling mapping graph (fig 2)…");
    let graph = fig2::fig2(&world);
    emit(&graph, csv_dir, "fig2_mapping_graph");
    if let Some(dir) = csv_dir {
        let _ = std::fs::write(format!("{dir}/fig2.dot"), fig2::to_dot(&graph));
    }

    eprintln!("scanning Apple address space (fig 3, table 1)…");
    emit(&fig3::fig3(&world), csv_dir, "fig3_sites");
    emit(&table1::table1(&world), csv_dir, "table1_naming");
    let (parsed, total) = table1::scheme_coverage(&world);
    println!("naming-scheme coverage: {parsed}/{total} scanned names parse\n");

    // §3.3 companion: infer the cache hierarchy from download headers.
    let report = via_inference::infer_hierarchy(&mut world, 0, 800);
    emit(&via_inference::hierarchy_table(&report), csv_dir, "via_hierarchy");

    eprintln!("running global DNS campaign (fig 4)…");
    let global = run_dns(&world, &cfg, Campaign::Global, 0).result;
    println!("global campaign: {} resolutions\n", global.resolutions);
    emit(&fig4::fig4_summary(&global, release), csv_dir, "fig4_summary");
    emit(&fig4::fig4_eu_peak_breakdown(&global, release), csv_dir, "fig4_eu_peak");
    if csv_dir.is_some() {
        emit(&fig4::fig4_series(&global), csv_dir, "fig4_series");
    }

    eprintln!("running in-ISP DNS campaign (fig 5)…");
    let isp = run_dns(&world, &cfg, Campaign::Isp, 0).result;
    println!("ISP campaign: {} resolutions\n", isp.resolutions);
    let (rise, apple_ratio) = fig5::fig5_akamai_rise(&isp);
    println!(
        "Figure 5 headline: Akamai unique IPs Sep 18 → Sep 20: +{rise:.0}% \
(paper: +408%); Apple stability ratio {apple_ratio:.2} (paper: ~stable)\n"
    );
    if csv_dir.is_some() {
        emit(&fig5::fig5_series(&isp), csv_dir, "fig5_series");
    }

    emit(&fig6::fig6(&world), csv_dir, "fig6_classification");

    // Cross-correlation IP set: "all CDN server IPs observed in RIPE Atlas
    // DNS measurements" — the union of both campaigns' observations.
    let mut ip_classes = isp.ip_classes.clone();
    ip_classes.extend(global.ip_classes.iter().map(|(k, v)| (*k, *v)));

    eprintln!("running ISP border telemetry (figs 7, 8)…");
    let (traffic, _) = run_traffic(&world, &cfg, 0);
    println!(
        "telemetry: {} sampled flow records, {} SNMP samples, {} bytes dropped at saturated links\n",
        traffic.flows.len(),
        traffic.snmp.samples().count(),
        traffic.dropped_bytes
    );
    emit(&fig7::fig7_summary(&traffic, &ip_classes, release), csv_dir, "fig7_summary");
    if csv_dir.is_some() {
        emit(&fig7::fig7_series(&traffic, &ip_classes, release), csv_dir, "fig7_series");
    }
    emit(&fig8::fig8_series(&traffic, &ip_classes, &world), csv_dir, "fig8_overflow");
    emit(
        &fig8::fig8_d_link_saturation(&traffic, &world, cfg.traffic_tick),
        csv_dir,
        "fig8_d_links",
    );
    let d_share = fig8::d_peak_share(&traffic, &ip_classes, &world);
    println!(
        "Figure 8 headline: AS D peak overflow share {:.0}% (paper: >40%)",
        d_share * 100.0
    );

    if let Some(dir) = csv_dir {
        let _ = std::fs::write(format!("{dir}/plots.gnuplot"), gnuplot_script());
        eprintln!("wrote {dir}/plots.gnuplot — run `gnuplot plots.gnuplot` inside {dir} for PNGs");
    }
}

/// A gnuplot script rendering the exported CSVs into figure-like PNGs.
fn gnuplot_script() -> &'static str {
    r##"# Renders the repro CSVs into paper-figure-like PNGs.
# Usage: run inside the --csv-dir directory:  gnuplot plots.gnuplot
set datafile separator ","
set terminal pngcairo size 1100,500 font ",10"
set key outside right

# Figure 4: unique IPs, Europe panel.
set output "fig4_europe.png"
set title "Unique CDN cache IPs - Europe (cf. paper Fig. 4)"
set xlabel "hour bin (row index)"
set ylabel "unique IPs"
plot for [cdn in "Akamai Limelight Apple"] \
    "< awk -F, 'NR>1 && $2==\"Europe\" && $3==\"".cdn."\"' fig4_series.csv" \
    using 0:4 with lines lw 2 title cdn

# Figure 5: ISP view, daily unique IPs per CDN.
set output "fig5_isp.png"
set title "Unique CDN cache IPs - Eyeball ISP (cf. paper Fig. 5)"
plot for [cdn in "Akamai Limelight Apple"] \
    "< awk -F, 'NR>1 && $2==\"".cdn."\"' fig5_series.csv" \
    using 0:3 with lines lw 2 title cdn

# Figure 7: traffic ratio per CDN.
set output "fig7_ratio.png"
set title "Update traffic ratio vs pre-update peak (cf. paper Fig. 7)"
set ylabel "ratio %"
plot for [cdn in "Akamai Limelight Apple"] \
    "< awk -F, 'NR>1 && $2==\"".cdn."\"' fig7_series.csv" \
    using 0:3 with lines lw 2 title cdn

# Figure 8: overflow share by handover AS.
set output "fig8_overflow.png"
set title "Limelight overflow share by handover AS (cf. paper Fig. 8)"
set ylabel "share %"
set style data histograms
set style histogram rowstacked
set style fill solid 0.8
plot for [as in "A B C D other"] \
    "< awk -F, 'NR>1 && $2==\"".as."\"' fig8_overflow.csv" \
    using 3:xtic(1) title "AS ".as
"##
}
