//! `mcdn` — the command-line face of the Meta-CDN measurement suite.
//!
//! ```text
//! mcdn resolve <city> [--at "YYYY-MM-DD HH:MM"]   resolve appldnld.apple.com as a client there
//! mcdn crawl                                       crawl the Figure-2 mapping graph
//! mcdn scan                                        scan 17.253/16, rebuild Figure 3 + Table 1
//! mcdn campaign global|isp [--paper] [--journal F] run a DNS campaign, print summaries
//!                                                  (--journal: checkpoint to F and resume
//!                                                   from it after a crash)
//!                          [--metrics F]           export the campaign's metrics snapshot
//!                                                  as self-describing JSON lines to F
//! mcdn traffic [--paper]                           run border telemetry, print Figures 7/8
//! mcdn zones                                       dump the mapping zones as zone files
//! ```
//!
//! Everything is deterministic; re-running a command reproduces its output.

use mcdn_analysis::{fig2, fig3, fig4, fig5, fig7, fig8, table1};
use mcdn_scenario::{
    loads, params, run_dns, run_dns_journaled, run_traffic, Campaign, CampaignRun,
    DnsCampaignResult, ResumeOptions, ScenarioConfig, World,
};
use mcdn_geo::{Locode, Registry, SimTime};

fn usage() -> ! {
    eprintln!(
        "usage: mcdn <resolve CITY [--at 'YYYY-MM-DD HH:MM'] | crawl | scan | \
campaign global|isp [--paper] [--journal FILE] [--metrics FILE] | traffic [--paper] | zones>"
    );
    std::process::exit(2);
}

fn parse_at(args: &[String]) -> SimTime {
    let default = SimTime::from_ymd_hms(2017, 9, 19, 18, 0, 0);
    let Some(i) = args.iter().position(|a| a == "--at") else { return default };
    let Some(spec) = args.get(i + 1) else { usage() };
    let parts: Vec<&str> = spec.split([' ', '-', ':']).collect();
    let num = |i: usize| parts.get(i).and_then(|p| p.parse::<u32>().ok());
    match (num(0), num(1), num(2), num(3), num(4)) {
        (Some(y), Some(m), Some(d), Some(h), Some(min)) => {
            SimTime::from_ymd_hms(y as i64, m, d, h, min, 0)
        }
        (Some(y), Some(m), Some(d), None, None) => SimTime::from_ymd(y as i64, m, d),
        _ => {
            eprintln!("cannot parse --at {spec:?} (want 'YYYY-MM-DD HH:MM')");
            std::process::exit(2);
        }
    }
}

fn cfg_from(args: &[String]) -> ScenarioConfig {
    if args.iter().any(|a| a == "--paper") {
        ScenarioConfig::paper()
    } else {
        ScenarioConfig::fast()
    }
}

fn cmd_resolve(args: &[String]) {
    let Some(city_arg) = args.first().filter(|a| !a.starts_with("--")) else { usage() };
    let city = Registry::cities()
        .iter()
        .find(|c| {
            c.name.eq_ignore_ascii_case(city_arg)
                || Locode::parse(city_arg).is_some_and(|l| Registry::canonicalize(l) == c.locode)
        })
        .unwrap_or_else(|| {
            eprintln!("unknown city {city_arg:?}; use a registry city name or UN/LOCODE");
            std::process::exit(2);
        });
    let now = parse_at(args);
    let world = World::build(&ScenarioConfig::fast());
    loads::update_loads(&world, now);
    let ctx = mcdn_dnssim::QueryContext {
        client_ip: "100.64.0.99".parse().expect("static ip"),
        locode: city.locode,
        coord: city.coord,
        continent: city.continent,
        now,
    };
    // Serve over the wire and show dig-style output.
    let query = mcdn_dnswire::Message::query(
        0x5EED,
        metacdn::names::entry(),
        mcdn_dnswire::RecordType::A,
    );
    let resp_bytes = mcdn_dnssim::serve(&world.ns, &query.encode().expect("encodes"), &ctx)
        .expect("namespace answers");
    let resp = mcdn_dnswire::Message::decode(&resp_bytes).expect("decodes");
    println!(
        "; resolving appldnld.apple.com as a client in {} at {now}\n",
        city.name
    );
    print!("{}", mcdn_dnswire::dig_format(&resp));
}

fn cmd_crawl() {
    let world = World::build(&ScenarioConfig::fast());
    let graph = fig2::fig2(&world);
    println!("{graph}");
    print!("{}", fig2::to_dot(&graph));
}

fn cmd_scan() {
    let world = World::build(&ScenarioConfig::fast());
    println!("{}", fig3::fig3(&world));
    println!("{}", table1::table1(&world));
    let (parsed, total) = table1::scheme_coverage(&world);
    println!("naming-scheme coverage: {parsed}/{total}");
}

/// `--journal FILE`, if present.
fn journal_arg(args: &[String]) -> Option<std::path::PathBuf> {
    path_arg(args, "--journal")
}

/// `--metrics FILE`, if present.
fn metrics_arg(args: &[String]) -> Option<std::path::PathBuf> {
    path_arg(args, "--metrics")
}

fn path_arg(args: &[String], flag: &str) -> Option<std::path::PathBuf> {
    let i = args.iter().position(|a| a == flag)?;
    match args.get(i + 1) {
        Some(path) => Some(std::path::PathBuf::from(path)),
        None => usage(),
    }
}

/// `MCDN_KILL_AFTER_ROUND=N`: run N rounds, checkpoint, then die by
/// SIGKILL — the crash half of the CI crash→resume gate.
fn kill_after_round() -> Option<u64> {
    std::env::var("MCDN_KILL_AFTER_ROUND").ok()?.parse().ok()
}

/// Dies as abruptly as the OS allows: no destructors, no exit handlers.
/// SIGKILL through the `kill` utility when available, `abort` otherwise.
fn die_hard() -> ! {
    let pid = std::process::id().to_string();
    let _ = std::process::Command::new("kill").args(["-9", &pid]).status();
    std::process::abort();
}

/// Runs `campaign`, journaled (`--journal`) or plain. A journaled run
/// that suspends under `MCDN_KILL_AFTER_ROUND` self-kills after its
/// checkpoint is durable and never returns.
fn run_selected_campaign(
    campaign: Campaign,
    world: &World,
    cfg: &ScenarioConfig,
    args: &[String],
) -> (DnsCampaignResult, mcdn_obs::MetricsSnapshot) {
    let Some(path) = journal_arg(args) else {
        let report = run_dns(world, cfg, campaign, 0);
        return (report.result, report.metrics);
    };
    let stop_after = kill_after_round();
    let opts = ResumeOptions { threads: 0, checkpoint_every: 1, stop_after_rounds: stop_after };
    match run_dns_journaled(world, cfg, campaign, &path, opts) {
        Ok((CampaignRun::Complete(result), snapshot)) => (result, snapshot),
        Ok((CampaignRun::Suspended { rounds_done, total_rounds }, _)) => {
            eprintln!("suspending after {rounds_done}/{total_rounds} rounds (checkpoint durable)");
            die_hard();
        }
        Err(e) => {
            eprintln!("campaign failed: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_campaign(args: &[String]) {
    let campaign = match args.first().map(String::as_str) {
        None | Some("global") => Campaign::Global,
        Some("isp") => Campaign::Isp,
        Some(_) => usage(),
    };
    let cfg = cfg_from(args);
    let world = World::build(&cfg);
    let (result, metrics) = run_selected_campaign(campaign, &world, &cfg, args);
    if let Some(path) = metrics_arg(args) {
        if let Err(e) = std::fs::write(&path, metrics.jsonl()) {
            eprintln!("cannot write metrics to {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    println!("{} resolutions", result.resolutions);
    match campaign {
        Campaign::Global => {
            println!("{}", fig4::fig4_summary(&result, params::release()));
            println!("{}", fig4::fig4_eu_peak_breakdown(&result, params::release()));
        }
        Campaign::Isp => {
            let (rise, apple) = fig5::fig5_akamai_rise(&result);
            println!("Akamai unique IPs Sep 18 → 20: {rise:+.0}%  (Apple stability {apple:.2})");
        }
    }
}

fn cmd_traffic(args: &[String]) {
    let cfg = cfg_from(args);
    let world = World::build(&cfg);
    eprintln!("running DNS campaigns for the cross-correlation IP set…");
    let global = run_dns(&world, &cfg, Campaign::Global, 0).result;
    let isp = run_dns(&world, &cfg, Campaign::Isp, 0).result;
    let mut ip_classes = isp.ip_classes;
    ip_classes.extend(global.ip_classes);
    eprintln!("running border telemetry…");
    let (traffic, _) = run_traffic(&world, &cfg, 0);
    println!("{}", fig7::fig7_summary(&traffic, &ip_classes, params::release()));
    println!("{}", fig8::fig8_series(&traffic, &ip_classes, &world));
    println!("{}", fig8::fig8_d_link_saturation(&traffic, &world, cfg.traffic_tick));
}

fn cmd_zones() {
    let world = World::build(&ScenarioConfig::fast());
    for origin in ["apple.com", "akadns.net", "applimg.com", "edgesuite.net", "akamai.net", "llnwi.net", "llnwd.net"] {
        let name = mcdn_dnswire::Name::parse(origin).expect("static");
        if let Some(zone) = world.ns.authority_for(&name) {
            if zone.origin() == &name {
                println!("{}", zone.to_zonefile());
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("resolve") => cmd_resolve(&args[1..]),
        Some("crawl") => cmd_crawl(),
        Some("scan") => cmd_scan(),
        Some("campaign") => cmd_campaign(&args[1..]),
        Some("traffic") => cmd_traffic(&args[1..]),
        Some("zones") => cmd_zones(),
        _ => usage(),
    }
}
