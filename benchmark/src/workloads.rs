//! The four workloads, and what one repetition of each measures.
//!
//! A repetition builds its worlds (set-up, timed apart), then runs the
//! workload's calls in order inside one root span (the timed region).
//! Tables and IP classes are digested after the clock stops.

use crate::digest::Digest;
use crate::stats::{hist_percentile, percentile};
use crate::trace::{self, Span, Tracer};
use mcdn_analysis::{
    chaos::chaos_table, fig1, fig2, fig3, fig4, fig5, fig6, fig7, fig8, poisoning::poisoning_table,
    table1, via_inference, Table,
};
use mcdn_faults::FaultProfile;
use mcdn_geo::{Duration, SimTime};
use mcdn_obs::{ghist, global, id, CampaignObs, Hist, MetricsSnapshot, N_COUNTERS, N_DET};
use mcdn_scenario::{
    params, poison_grid, run_chaos_sweep, run_global_dns_resumable_with_observed,
    run_global_dns_threads, run_global_dns_threads_observed, run_global_dns_threads_timed_observed,
    run_isp_dns_threads_observed, run_isp_dns_threads_timed_observed, run_isp_traffic_threads,
    run_isp_traffic_threads_timed, run_poison_sweep, standard_grid, CampaignRun, CdnClass,
    DnsCampaignResult, ResumeOptions, ScenarioConfig, TrafficResult, World,
};
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperPipeline,
    SparseDns,
    Faulted,
    BorderTelemetry,
}

/// Rounds after which the faulted campaign suspends: half of its
/// 12-hour window at 5-minute rounds, just after the release.
const FAULTED_SUSPEND_AFTER: u64 = 72;

/// Every workload runs serially. On a 2-core host shared with other
/// tenants, a 2-worker campaign's wall time swings by ±15% from run to
/// run (the round barrier waits on whichever core a neighbour takes),
/// which no usable regression bound absorbs; serial walls stay within a
/// few percent.
const THREADS: usize = 1;

fn day(d: u32) -> SimTime {
    SimTime::from_ymd(2017, 9, d)
}

fn noon(d: u32) -> SimTime {
    SimTime::from_ymd_hms(2017, 9, d, 12, 0, 0)
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperPipeline,
        Workload::SparseDns,
        Workload::Faulted,
        Workload::BorderTelemetry,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperPipeline => "paper_pipeline",
            Workload::SparseDns => "sparse_dns",
            Workload::Faulted => "faulted",
            Workload::BorderTelemetry => "border_telemetry",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The scenario: the paper configuration with the workload's
    /// windows and knobs, seeded by `seed`.
    pub fn config(self, seed: u64) -> ScenarioConfig {
        let mut cfg = ScenarioConfig {
            seed,
            ..ScenarioConfig::paper()
        };
        // The in-ISP campaign over the four weeks around the release.
        cfg.isp_start = day(10);
        cfg.isp_end = SimTime::from_ymd(2017, 10, 7);
        match self {
            Workload::PaperPipeline => {
                cfg.global_start = day(19);
                cfg.global_end = day(20);
                cfg.traffic_start = day(18);
                cfg.traffic_end = day(21);
            }
            Workload::SparseDns => {
                cfg.global_probes = 48;
                cfg.global_dns_interval = Duration::mins(1);
                cfg.global_start = day(18);
                cfg.global_end = day(20);
            }
            Workload::Faulted => {
                cfg.global_start = noon(19);
                cfg.global_end = day(20);
                // A fixed fault schedule: lame windows are rare, hours-long
                // events, and which of them fall inside the window would
                // otherwise swing the work done from seed to seed.
                cfg.faults = FaultProfile::realistic(0xFA17);
                // The sweeps run over the traffic window.
                cfg.traffic_start = noon(19);
                cfg.traffic_end = noon(20);
            }
            Workload::BorderTelemetry => {
                // Telemetry loss at the rates of `FaultProfile::realistic`,
                // drawn from the seed: the ISP fleet's cities all resolve
                // alike, so this is what the seed varies here.
                cfg.faults = FaultProfile {
                    netflow_export_loss: 0.02,
                    snmp_gap: 0.03,
                    ..FaultProfile::none().with_seed(seed)
                };
                cfg.traffic_tick = Duration::mins(1);
                cfg.flows_per_cdn = 200;
                cfg.netflow_sampling = 100;
                cfg.traffic_start = day(19);
                cfg.traffic_end = day(21);
            }
        }
        cfg
    }
}

pub type Layers = BTreeMap<&'static str, f64>;

/// One measured repetition.
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub resolutions_per_s: f64,
    /// Per-layer values of this repetition, by metric name.
    pub layers: Layers,
    pub spans: Vec<Span>,
    pub digest: u64,
    /// Broken invariants; empty when the output is correct.
    pub violations: Vec<String>,
}

/// How a repetition runs.
#[derive(Clone, Copy)]
pub struct RepOptions {
    /// Use the `_timed` campaign entry points (per-shard walls).
    pub traced: bool,
    /// `faulted` only: also run the campaign uninterrupted and require
    /// the resumed result to equal it.
    pub verify_resume: bool,
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Process CPU time (all threads), in seconds.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` has the layout of `struct timespec` on 64-bit Linux (two
    // 64-bit fields), is valid for writes and outlives the call; the call
    // writes only through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Counters gathered from the program's metric snapshots.
#[derive(Default)]
struct Obs {
    counters: [u64; N_COUNTERS],
    rounds: Hist,
    checkpoint: Hist,
    checkpoint_writes: u64,
}

impl Obs {
    /// Adds a campaign snapshot. `det` is false for a suspended run whose
    /// deterministic counters the resumed run's snapshot already carries.
    fn absorb(&mut self, s: &MetricsSnapshot, det: bool) {
        let from = if det { 0 } else { N_DET };
        for (i, c) in self.counters.iter_mut().enumerate().skip(from) {
            *c += s.counter(i as u16);
        }
        self.rounds.merge(s.global_hist(ghist::ROUND_WALL_US));
        self.checkpoint
            .merge(s.global_hist(ghist::CHECKPOINT_WALL_US));
        self.checkpoint_writes += s.global(global::CHECKPOINT_WRITES);
    }

    fn c(&self, id: u16) -> f64 {
        self.counters[id as usize] as f64
    }

    fn export(&self, layers: &mut Layers) {
        let res = self.c(id::RESOLUTIONS);
        layers.insert("campaign.rounds", self.c(id::ROUNDS));
        layers.insert(
            "campaign.round_ms.p50",
            hist_percentile(&self.rounds, 50) / 1e3,
        );
        layers.insert(
            "campaign.round_ms.p99",
            hist_percentile(&self.rounds, 99) / 1e3,
        );
        layers.insert(
            "dnssim.cache_puts_per_res",
            ratio(self.c(id::CACHE_PUTS), res),
        );
        layers.insert(
            "dnssim.cache_hits_per_res",
            ratio(self.c(id::CACHE_HITS), res),
        );
        layers.insert(
            "dnssim.cache_expired_share",
            ratio(self.c(id::CACHE_EXPIRED), self.c(id::CACHE_MISSES)),
        );
        layers.insert(
            "dnssim.memo_lookups_per_res",
            ratio(self.c(id::MEMO_LOOKUPS), res),
        );
        layers.insert(
            "dnssim.memo_hit_rate",
            ratio(self.c(id::MEMO_HITS), self.c(id::MEMO_LOOKUPS)),
        );
        layers.insert("dnssim.fault_servfail", self.c(id::FAULT_SERVFAIL));
        layers.insert("dnssim.fault_timeout", self.c(id::FAULT_TIMEOUT));
        layers.insert(
            "dnssim.tamper_total",
            self.c(id::TAMPER_SPOOF_A)
                + self.c(id::TAMPER_INJECT_NS)
                + self.c(id::TAMPER_TRUNCATE)
                + self.c(id::TAMPER_INFLATE_TTL),
        );
        layers.insert("dnssim.bailiwick_drops", self.c(id::BAILIWICK_DROPS));
        layers.insert("reuse.rate", ratio(self.c(id::REUSE_REPLAYS), res));
        layers.insert(
            "reuse.invalidations_per_record",
            ratio(self.c(id::REUSE_INVALIDATIONS), self.c(id::REUSE_RECORDS)),
        );
        layers.insert("health.ejections", self.c(id::HEALTH_EJECTIONS));
        layers.insert("health.restorations", self.c(id::HEALTH_RESTORATIONS));
        layers.insert("obs.trace_dropped", self.c(id::TRACE_DROPPED));
        layers.insert("journal.checkpoint_writes", self.checkpoint_writes as f64);
        layers.insert(
            "checkpoint.wall_us.p50",
            hist_percentile(&self.checkpoint, 50),
        );
        layers.insert(
            "checkpoint.wall_us.p99",
            hist_percentile(&self.checkpoint, 99),
        );
    }
}

/// Campaign wall time outside the per-round critical path through the
/// shards: for each round the slowest shard is on that path, and what is
/// left over is the round driver's own work (dispatch, snapshot capture,
/// merge). `walls` is round-major, `shards_per_round` per round.
pub fn orchestration_s(
    campaign_wall_s: f64,
    walls: &[std::time::Duration],
    shards_per_round: usize,
) -> f64 {
    let critical: f64 = walls
        .chunks(shards_per_round.max(1))
        .map(|round| round.iter().max().map_or(0.0, |d| d.as_secs_f64()))
        .sum();
    campaign_wall_s - critical
}

/// What one repetition accumulates while its workload runs.
struct Acc {
    traced: bool,
    obs: Obs,
    resolutions: u64,
    attempts: u64,
    exhausted: u64,
    dns_wall_s: f64,
    dns_shard_walls: Vec<std::time::Duration>,
    orchestration_s: f64,
    scenarios: u64,
    layers: Layers,
    tables: Vec<Table>,
    /// Counts folded into the output digest.
    digest: Digest,
    violations: Vec<String>,
}

impl Acc {
    fn new(traced: bool) -> Acc {
        Acc {
            traced,
            obs: Obs::default(),
            resolutions: 0,
            attempts: 0,
            exhausted: 0,
            dns_wall_s: 0.0,
            dns_shard_walls: Vec::new(),
            orchestration_s: 0.0,
            scenarios: 0,
            layers: Layers::new(),
            tables: Vec::new(),
            digest: Digest::default(),
            violations: Vec::new(),
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Books a finished DNS campaign of `probes` probes over
    /// `[start, end)` at `interval`.
    fn campaign(
        &mut self,
        label: &str,
        r: &DnsCampaignResult,
        snap: &MetricsSnapshot,
        wall_s: f64,
        probes: usize,
        (start, end, interval): (SimTime, SimTime, Duration),
    ) {
        let rounds = end.since(start).as_secs().div_ceil(interval.as_secs());
        self.check(snap.counter(id::ROUNDS) == rounds, || {
            format!(
                "{label}: {} rounds, expected {rounds}",
                snap.counter(id::ROUNDS)
            )
        });
        self.check(r.resolutions == rounds * probes as u64, || {
            format!(
                "{label}: {} resolutions, expected {}",
                r.resolutions,
                rounds * probes as u64
            )
        });
        self.check(
            r.attempts >= r.resolutions && r.retry_exhausted <= r.resolutions,
            || format!("{label}: attempts or exhausted retries out of range"),
        );
        self.resolutions += r.resolutions;
        self.attempts += r.attempts;
        self.exhausted += r.retry_exhausted;
        self.dns_wall_s += wall_s;
        for (label, v) in [
            ("resolutions", r.resolutions),
            ("attempts", r.attempts),
            ("retry_exhausted", r.retry_exhausted),
            ("memo_lookups", r.memo_lookups),
            ("memo_hits", r.memo_hits),
        ] {
            self.digest.count(label, v);
        }
    }

    fn dns(
        &mut self,
        tr: &mut Tracer,
        world: &World,
        cfg: &ScenarioConfig,
        global: bool,
    ) -> DnsCampaignResult {
        let name = if global {
            "scenario::dnscampaign::global"
        } else {
            "scenario::dnscampaign::isp"
        };
        let traced = self.traced;
        let (r, walls, snap) = tr.span(name, |_| match (global, traced) {
            (true, true) => run_global_dns_threads_timed_observed(world, cfg, THREADS),
            (false, true) => run_isp_dns_threads_timed_observed(world, cfg, THREADS),
            (true, false) => {
                let (r, s) = run_global_dns_threads_observed(world, cfg, THREADS);
                (r, Vec::new(), s)
            }
            (false, false) => {
                let (r, s) = run_isp_dns_threads_observed(world, cfg, THREADS);
                (r, Vec::new(), s)
            }
        });
        let wall_s = tr.last_secs();
        let (probes, window) = if global {
            (
                world.global_probe_specs.len(),
                (cfg.global_start, cfg.global_end, cfg.global_dns_interval),
            )
        } else {
            (
                world.isp_probe_specs.len(),
                (cfg.isp_start, cfg.isp_end, cfg.isp_dns_interval),
            )
        };
        self.campaign(name, &r, &snap, wall_s, probes, window);
        self.obs.absorb(&snap, true);
        self.layers.insert(
            if global {
                "global_dns.wall_s"
            } else {
                "isp_dns.wall_s"
            },
            wall_s,
        );
        if traced {
            let rounds = snap.counter(id::ROUNDS).max(1) as usize;
            self.orchestration_s += orchestration_s(wall_s, &walls, walls.len() / rounds);
            self.dns_shard_walls.extend(walls);
        }
        r
    }

    fn traffic(&mut self, tr: &mut Tracer, world: &World, cfg: &ScenarioConfig) -> TrafficResult {
        let traced = self.traced;
        let (t, walls) = tr.span("scenario::traffic", |_| {
            if traced {
                run_isp_traffic_threads_timed(world, cfg, THREADS)
            } else {
                (run_isp_traffic_threads(world, cfg, THREADS), Vec::new())
            }
        });
        let wall_s = tr.last_secs();
        let flows = t.flows.len() as u64;
        let snmp = t.snmp.samples().count() as u64;
        let ms: Vec<f64> = walls.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        self.check(flows > 0, || "traffic: no flow records".to_string());
        self.layers.insert("traffic.wall_s", wall_s);
        self.layers.insert("traffic.flow_records", flows as f64);
        self.layers.insert("traffic.snmp_samples", snmp as f64);
        self.layers
            .insert("traffic.shard_ms.p50", percentile(&ms, 50));
        self.layers
            .insert("traffic.shard_ms.p99", percentile(&ms, 99));
        self.layers
            .insert("traffic.flow_records_per_s", flows as f64 / wall_s);
        for (label, v) in [
            ("flows", flows),
            ("snmp_samples", snmp),
            ("dropped_bytes", t.dropped_bytes),
            ("export_losses", t.export_losses),
            ("polls_missed", t.polls_missed),
        ] {
            self.digest.count(label, v);
        }
        t
    }

    /// Figures 7 and 8 and the AS D overflow headline.
    fn figures_7_8(
        &mut self,
        tr: &mut Tracer,
        world: &World,
        cfg: &ScenarioConfig,
        traffic: &TrafficResult,
        ip_classes: &HashMap<Ipv4Addr, CdnClass>,
    ) {
        let release = params::release();
        let tables = &mut self.tables;
        tr.span("analysis::fig7", |_| {
            tables.push(fig7::fig7_summary(traffic, ip_classes, release));
            tables.push(fig7::fig7_series(traffic, ip_classes, release));
        });
        self.layers.insert("analysis.fig7_s", tr.last_secs());
        let share = tr.span("analysis::fig8", |_| {
            tables.push(fig8::fig8_series(traffic, ip_classes, world));
            tables.push(fig8::fig8_d_link_saturation(
                traffic,
                world,
                cfg.traffic_tick,
            ));
            fig8::d_peak_share(traffic, ip_classes, world)
        });
        self.layers.insert("analysis.fig8_s", tr.last_secs());
        self.digest.count("d_peak_share", share.to_bits());
    }

    /// Runs a sweep with a metrics accumulator around it, keeping the
    /// health and tamper counters it records.
    fn sweep<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let mut obs = CampaignObs::begin();
        let out = f();
        obs.absorb(mcdn_obs::shard_take());
        let snap = obs.finish();
        for id in [
            id::HEALTH_EJECTIONS,
            id::HEALTH_RESTORATIONS,
            id::TAMPER_SPOOF_A,
            id::TAMPER_INJECT_NS,
            id::TAMPER_TRUNCATE,
            id::TAMPER_INFLATE_TTL,
        ] {
            self.obs.counters[id as usize] += snap.counter(id);
        }
        out
    }
}

/// Runs one repetition of `w`. `origin` anchors span times; `scratch`
/// is a directory for the journal.
pub fn run_rep(w: Workload, seed: u64, opts: RepOptions, origin: Instant, scratch: &Path) -> Rep {
    let cfg = w.config(seed);
    let mut tr = Tracer::new(origin);
    let mut acc = Acc::new(opts.traced);
    let journal = scratch.join(format!("journal-{}.bin", std::process::id()));

    let setup = Instant::now();
    let mut worlds = tr.span("scenario::world", |_| {
        let n = if w == Workload::Faulted { 2 } else { 1 };
        (0..n).map(|_| World::build(&cfg)).collect::<Vec<World>>()
    });
    let _ = std::fs::remove_file(&journal);
    let setup_s = setup.elapsed().as_secs_f64();
    acc.layers
        .insert("world.build_s", tr.last_secs() / worlds.len() as f64);

    let cpu0 = process_cpu_s();
    let start = Instant::now();
    // The campaign results leave the timed region for the digest.
    let results = tr.span(w.name(), |tr| match w {
        Workload::PaperPipeline => paper_pipeline(tr, &mut acc, &mut worlds[0], &cfg),
        Workload::SparseDns => {
            let global = acc.dns(tr, &worlds[0], &cfg, true);
            let tables = &mut acc.tables;
            tr.span("analysis::fig4", |_| {
                tables.push(fig4::fig4_summary(&global, params::release()))
            });
            vec![global]
        }
        Workload::Faulted => faulted(tr, &mut acc, (&worlds[0], &worlds[1]), &cfg, &journal),
        Workload::BorderTelemetry => {
            let isp = acc.dns(tr, &worlds[0], &cfg, false);
            let traffic = acc.traffic(tr, &worlds[0], &cfg);
            acc.figures_7_8(tr, &worlds[0], &cfg, &traffic, &isp.ip_classes);
            vec![isp]
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let _ = std::fs::remove_file(&journal);

    if opts.verify_resume && w == Workload::Faulted {
        let plain = run_global_dns_threads(&World::build(&cfg), &cfg, THREADS);
        let same = results.first() == Some(&plain);
        acc.check(same, || {
            "faulted: resumed campaign differs from the uninterrupted one".to_string()
        });
    }
    for r in &results {
        acc.digest.classes(&r.ip_classes);
    }
    for t in std::mem::take(&mut acc.tables) {
        acc.check(!t.rows.is_empty(), || format!("empty table {:?}", t.title));
        acc.digest.table(&t);
    }
    drop(results);

    let spans = tr.into_spans();
    let self_t = trace::self_times(&spans);
    let root = spans
        .iter()
        .position(|s| s.name == w.name())
        .expect("root span");
    let figures: f64 = spans
        .iter()
        .filter(|s| s.name.starts_with("analysis::"))
        .map(Span::secs)
        .sum();
    let res = acc.resolutions as f64;
    let mut layers = std::mem::take(&mut acc.layers);
    acc.obs.export(&mut layers);
    layers.insert(
        "campaign.retries_per_res",
        ratio(acc.attempts as f64 - res, res),
    );
    layers.insert(
        "campaign.fail_ratio",
        ratio(acc.exhausted as f64, res + acc.scenarios as f64),
    );
    layers.insert("analysis.figures_s", figures);
    layers.insert(
        "bench.layer_share",
        1.0 - ratio(self_t[root], spans[root].secs()),
    );
    if opts.traced {
        let ms: Vec<f64> = acc
            .dns_shard_walls
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        let busy: f64 = acc.dns_shard_walls.iter().map(|d| d.as_secs_f64()).sum();
        layers.insert("exec.shard_ms.p50", percentile(&ms, 50));
        layers.insert("exec.shard_ms.p99", percentile(&ms, 99));
        layers.insert("exec.busy_share", ratio(busy, acc.dns_wall_s));
        layers.insert("exec.orchestration_s", acc.orchestration_s);
    }
    Rep {
        setup_s,
        wall_s,
        cpu_s,
        resolutions_per_s: ratio(res, acc.dns_wall_s),
        layers,
        spans,
        digest: acc.digest.finish(),
        violations: acc.violations,
    }
}

/// `repro --paper`'s stages in order.
fn paper_pipeline(
    tr: &mut Tracer,
    acc: &mut Acc,
    world: &mut World,
    cfg: &ScenarioConfig,
) -> Vec<DnsCampaignResult> {
    let release = params::release();
    let tables = &mut acc.tables;
    tr.span("analysis::fig1", |_| tables.push(fig1::fig1()));
    tr.span("atlas::crawl", |_| tables.push(fig2::fig2(world)));
    acc.layers.insert("atlas.crawl_s", tr.last_secs());
    let tables = &mut acc.tables;
    let (parsed, total) = tr.span("analysis::fig3_table1", |_| {
        tables.push(fig3::fig3(world));
        tables.push(table1::table1(world));
        table1::scheme_coverage(world)
    });
    tr.span("analysis::via_inference", |_| {
        let report = via_inference::infer_hierarchy(world, 0, 800);
        tables.push(via_inference::hierarchy_table(&report));
    });
    acc.digest.count("scheme_parsed", parsed as u64);
    acc.digest.count("scheme_total", total as u64);

    let global = acc.dns(tr, world, cfg, true);
    let tables = &mut acc.tables;
    tr.span("analysis::fig4", |_| {
        tables.push(fig4::fig4_summary(&global, release));
        tables.push(fig4::fig4_eu_peak_breakdown(&global, release));
        tables.push(fig4::fig4_series(&global));
    });

    let isp = acc.dns(tr, world, cfg, false);
    let tables = &mut acc.tables;
    let (rise, apple_ratio) = tr.span("analysis::fig5_fig6", |_| {
        tables.push(fig5::fig5_series(&isp));
        tables.push(fig6::fig6(world));
        fig5::fig5_akamai_rise(&isp)
    });
    acc.digest.count("fig5_rise", rise.to_bits());
    acc.digest.count("fig5_apple_ratio", apple_ratio.to_bits());

    // Figures 7 and 8 classify flows by every address either campaign saw.
    let ip_classes = tr.span("analysis::ip_classes", |_| {
        let mut classes = isp.ip_classes.clone();
        classes.extend(global.ip_classes.iter().map(|(k, v)| (*k, *v)));
        classes
    });
    let traffic = acc.traffic(tr, world, cfg);
    acc.figures_7_8(tr, world, cfg, &traffic, &ip_classes);
    vec![global, isp]
}

/// Journaled global campaign under realistic faults, suspended and
/// resumed in a fresh world, then the chaos and poisoning sweeps.
fn faulted(
    tr: &mut Tracer,
    acc: &mut Acc,
    (world, fresh): (&World, &World),
    cfg: &ScenarioConfig,
    journal: &Path,
) -> Vec<DnsCampaignResult> {
    let mut out = Vec::new();
    let opts = |stop| ResumeOptions {
        threads: THREADS,
        checkpoint_every: 1,
        stop_after_rounds: stop,
    };
    let first = tr.span("scenario::checkpoint::suspend", |_| {
        run_global_dns_resumable_with_observed(
            world,
            cfg,
            journal,
            opts(Some(FAULTED_SUSPEND_AFTER)),
        )
    });
    let suspend_s = tr.last_secs();
    let second = tr.span("scenario::checkpoint::resume", |_| {
        run_global_dns_resumable_with_observed(fresh, cfg, journal, opts(None))
    });
    let resume_s = tr.last_secs();
    acc.layers.insert("faulted.suspend_s", suspend_s);
    acc.layers.insert("faulted.resume_s", resume_s);
    acc.layers.insert(
        "journal.bytes",
        std::fs::metadata(journal).map_or(0, |m| m.len()) as f64,
    );
    match (first, second) {
        (
            Ok((CampaignRun::Suspended { rounds_done, .. }, s1)),
            Ok((CampaignRun::Complete(r), s2)),
        ) => {
            acc.check(rounds_done == FAULTED_SUSPEND_AFTER, || {
                format!("faulted: suspended after {rounds_done} rounds")
            });
            acc.obs.absorb(&s1, false);
            acc.obs.absorb(&s2, true);
            let window = (cfg.global_start, cfg.global_end, cfg.global_dns_interval);
            acc.campaign(
                "faulted",
                &r,
                &s2,
                suspend_s + resume_s,
                world.global_probe_specs.len(),
                window,
            );
            let tables = &mut acc.tables;
            tr.span("analysis::fig4", |_| {
                tables.push(fig4::fig4_summary(&r, params::release()))
            });
            out.push(r);
        }
        (first, second) => acc.violations.push(format!(
            "faulted: suspend and resume ended {:?} / {:?}",
            first.map(|(run, _)| run_kind(&run)),
            second.map(|(run, _)| run_kind(&run)),
        )),
    }

    // The sweeps bring their own fault profiles.
    let sweep_cfg = ScenarioConfig {
        faults: FaultProfile::none(),
        ..*cfg
    };
    let chaos = tr.span("scenario::chaos", |_| {
        acc.sweep(|| run_chaos_sweep(&sweep_cfg, &standard_grid(cfg.seed)))
    });
    acc.layers.insert("chaos.sweep_s", tr.last_secs());
    match chaos {
        Ok(results) => {
            acc.scenarios += results.len() as u64;
            let ticks: usize = results.iter().map(|r| r.ticks.len()).sum();
            acc.layers.insert("chaos.ticks", ticks as f64);
            let tables = &mut acc.tables;
            tr.span("analysis::chaos", |_| tables.push(chaos_table(&results)));
        }
        Err((name, v)) => acc.violations.push(format!("chaos scenario {name}: {v:?}")),
    }
    let poison = tr.span("scenario::poisoning", |_| {
        acc.sweep(|| run_poison_sweep(&sweep_cfg, &poison_grid(cfg.seed)))
    });
    acc.layers.insert("poison.sweep_s", tr.last_secs());
    match poison {
        Ok(results) => {
            acc.scenarios += results.len() as u64;
            let tables = &mut acc.tables;
            tr.span("analysis::poisoning", |_| {
                tables.push(poisoning_table(&results))
            });
        }
        Err((name, v)) => acc
            .violations
            .push(format!("poison scenario {name}: {v:?}")),
    }
    out
}

fn run_kind(run: &CampaignRun) -> &'static str {
    match run {
        CampaignRun::Complete(_) => "complete",
        CampaignRun::Suspended { .. } => "suspended",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration as D;

    fn ms(v: &[u64]) -> Vec<D> {
        v.iter().map(|&m| D::from_millis(m)).collect()
    }

    #[test]
    fn orchestration_is_wall_minus_slowest_shard_per_round() {
        // Two shards per round, three rounds: critical path 5 + 7 + 4 ms.
        let walls = ms(&[5, 3, 2, 7, 4, 4]);
        let o = orchestration_s(0.020, &walls, 2);
        assert!((o - 0.004).abs() < 1e-12, "{o}");
        // One shard per round: every shard is on the critical path.
        let o = orchestration_s(0.030, &walls, 1);
        assert!((o - 0.005).abs() < 1e-12, "{o}");
        assert_eq!(orchestration_s(0.5, &[], 2), 0.5);
    }

    #[test]
    fn configs_keep_paper_scale_fleets() {
        for w in Workload::ALL {
            let cfg = w.config(9);
            assert_eq!(cfg.seed, 9);
            assert!(cfg.global_start < cfg.global_end && cfg.traffic_start < cfg.traffic_end);
        }
        assert_eq!(Workload::Faulted.config(1).global_probes, 800);
        assert!(
            Workload::parse("faulted") == Some(Workload::Faulted) && Workload::parse("x").is_none()
        );
    }
}
