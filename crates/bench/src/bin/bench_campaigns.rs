//! The campaign-engine benchmark trajectory: runs the DNS campaigns and
//! the traffic simulation at several worker counts, checks the outputs
//! are bit-identical, and writes `BENCH_campaigns.json` with wall times,
//! resolution throughput, memo hit rates, and per-thread-count speedups.
//!
//! The simulation is deterministic, so the engine properties that matter
//! are exact counts: at the top thread count a warm pool spawns no
//! worker, every DNS round makes one pool dispatch and traffic one per
//! batch of ticks; a campaign window averages under one heap allocation
//! per resolution, and recording metrics allocates nothing. The bench
//! reports those counts, and `tests/work_counts.rs` holds them under
//! `cargo test`. Walls, speedups and overheads are reported too; the
//! bench fails only when an output differs across thread counts, or when
//! the full run on a host with ≥4 cores misses a speedup gate.
//!
//! Usage: `bench_campaigns [--smoke] [OUT.json]`. `--smoke` shrinks the
//! workload for CI; the default output path is `BENCH_campaigns.json` in
//! the working directory.

use alloc_counter::{AllocCounts, CountingAlloc};
use mcdn_geo::{Duration, SimTime};
use mcdn_scenario::{
    run_dns, run_dns_journaled, run_traffic, Campaign, CampaignRun, ResumeOptions, ScenarioConfig,
    World, TRAFFIC_BATCH_TICKS,
};
use std::fmt::Write as _;
use std::time::Instant;

/// Counts every heap allocation in the process so the allocation audit
/// can price a real campaign window.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Distribution summary of the per-shard wall times of one run — what
/// the schema reports instead of the raw arrays (hundreds of floats of
/// scheduler noise that drowned the signal: where the shard-granularity
/// time actually goes).
struct WallSummary {
    count: usize,
    p50_ms: f64,
    p90_ms: f64,
    max_ms: f64,
}

/// Nearest-rank percentile index into a sorted sample of `len` values:
/// the smallest index whose rank covers `pct` percent of the sample,
/// `ceil(len * pct / 100) - 1` in integer arithmetic. The previous
/// `(len - 1) * pct / 100` floored instead, which at small counts picks
/// the wrong element — p90 of two samples must be the *larger* one.
fn nearest_rank(len: usize, pct: usize) -> usize {
    debug_assert!(len > 0 && (1..=100).contains(&pct));
    (len * pct).div_ceil(100) - 1
}

impl WallSummary {
    /// Nearest-rank percentiles over `walls` (milliseconds).
    fn of(walls: &[std::time::Duration]) -> WallSummary {
        let mut ms: Vec<f64> = walls.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        ms.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
        let at = |pct: usize| {
            if ms.is_empty() {
                0.0
            } else {
                ms[nearest_rank(ms.len(), pct)]
            }
        };
        WallSummary {
            count: ms.len(),
            p50_ms: at(50),
            p90_ms: at(90),
            max_ms: ms.last().copied().unwrap_or(0.0),
        }
    }
}

/// One benched (campaign, worker count) cell: best-of-[`REPS`] wall
/// clock, the shard-wall summary of the best repetition, the pool
/// dispatches and worker spawns of the first repetition, and the
/// estimated dispatch overhead those dispatches paid.
struct Run {
    threads: usize,
    wall_ms: f64,
    per_sec: f64,
    walls: WallSummary,
    dispatches: u64,
    spawned: usize,
    dispatch_overhead_ms: f64,
}

/// Repetitions per (campaign, worker count) cell and per overhead arm;
/// the best wall clock is reported. Three is enough to shed one bad
/// scheduler window without tripling a CI run that executes every
/// cell's output-identity check anyway.
const REPS: usize = 3;

/// Mean wall clock of one `dispatch` call in ms, over `reps` calls timed
/// after `warmup` untimed ones.
fn mean_dispatch_ms(warmup: u32, reps: u32, mut dispatch: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        dispatch();
    }
    let start = Instant::now();
    for _ in 0..reps {
        dispatch();
    }
    start.elapsed().as_secs_f64() * 1e3 / f64::from(reps)
}

/// Per-dispatch cost of waking the pool at `threads` width: the measured
/// wall clock of a no-op `shard_map` over one item per shard, on a pool
/// this call warms to that width. Multiplied by a run's dispatch count
/// this estimates how much of its wall went to orchestration rather than
/// work — the quantity the persistent pool exists to shrink.
fn dispatch_cost_ms(threads: usize) -> f64 {
    if threads <= 1 {
        return 0.0; // inline path: no handshake at all
    }
    mcdn_exec::warm(threads);
    let mut items = vec![0u8; threads];
    mean_dispatch_ms(64, 512, || {
        let shards = mcdn_exec::shard_map(&mut items, threads, |_, _| ());
        std::hint::black_box(shards.expect("no-op shards cannot panic"));
    })
}

/// The same no-op dispatch the way the retired spawn-per-round engine ran
/// it: one scoped thread spawned and joined per shard of
/// [`mcdn_exec::shard_bounds`]. Reported beside the pool's cost as the
/// head-to-head ratio the pool was built for.
fn scoped_dispatch_cost_ms(threads: usize) -> f64 {
    if threads <= 1 {
        return 0.0;
    }
    mean_dispatch_ms(16, 128, || {
        std::thread::scope(|scope| {
            let handles: Vec<_> = mcdn_exec::shard_bounds(threads, threads)
                .into_iter()
                .map(|shard| scope.spawn(move || std::hint::black_box(shard)))
                .collect();
            for handle in handles {
                handle.join().expect("no-op shard");
            }
        })
    })
}

/// One benched campaign: canonical counters, the steps its window spans
/// and the pool dispatches those steps take, plus per-thread-count runs.
struct Bench {
    name: &'static str,
    units: &'static str,
    work: u64,
    /// Rounds (DNS) or ticks (traffic) in the window.
    steps: u64,
    step_units: &'static str,
    /// Pool dispatches a run on more than one worker makes: one per DNS
    /// round, one per [`TRAFFIC_BATCH_TICKS`] traffic ticks.
    expected_dispatches: u64,
    memo_lookups: u64,
    memo_hits: u64,
    runs: Vec<Run>,
    identical: bool,
}

impl Bench {
    /// The serial wall over `run`'s.
    fn speedup(&self, run: &Run) -> f64 {
        let serial = self.runs.first().map(|r| r.wall_ms).unwrap_or(0.0);
        if run.wall_ms > 0.0 {
            serial / run.wall_ms
        } else {
            0.0
        }
    }
}

fn bench_cfg(smoke: bool) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::fast();
    cfg.global_probes = if smoke { 40 } else { 150 };
    cfg.isp_probes = if smoke { 30 } else { 80 };
    cfg.global_dns_interval = if smoke { Duration::hours(2) } else { Duration::mins(30) };
    cfg.global_start = SimTime::from_ymd(2017, 9, 18);
    cfg.global_end = SimTime::from_ymd(2017, 9, if smoke { 20 } else { 21 });
    cfg.isp_start = SimTime::from_ymd(2017, 9, 16);
    cfg.isp_end = SimTime::from_ymd(2017, 9, 22);
    cfg.traffic_start = SimTime::from_ymd(2017, 9, 18);
    cfg.traffic_end = SimTime::from_ymd(2017, 9, if smoke { 19 } else { 21 });
    cfg.traffic_tick = if smoke { Duration::hours(1) } else { Duration::mins(30) };
    cfg
}

/// The steps of length `step` from `start` up to `end`: a campaign's
/// rounds or the traffic window's ticks.
fn steps(start: SimTime, end: SimTime, step: Duration) -> u64 {
    (end.as_secs() - start.as_secs()).div_ceil(step.as_secs())
}

fn thread_counts() -> Vec<usize> {
    let native = mcdn_exec::thread_count();
    let mut counts = vec![1, 2, native.max(4)];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Builds a fresh world from `cfg` — campaigns advance the controller's
/// load history, so sharing one would let an earlier run warm state for
/// a later one — and times `campaign` over it in ms.
fn timed<R>(cfg: &ScenarioConfig, campaign: impl FnOnce(&World) -> R) -> (f64, R) {
    let world = World::build(cfg);
    let start = Instant::now();
    let out = campaign(&world);
    (start.elapsed().as_secs_f64() * 1e3, out)
}

/// Times `run` at each worker count (best of [`REPS`] repetitions per
/// count, each on a fresh world) and counts the pool dispatches and
/// worker spawns of the first repetition, on a pool already warm to the
/// count. Returns the per-count runs, whether every output — of every
/// repetition — matched the serial one, and the serial output.
fn bench_campaign<R, F>(cfg: &ScenarioConfig, counts: &[usize], run: F) -> (Vec<Run>, bool, R)
where
    R: PartialEq,
    F: Fn(&World, usize) -> (u64, R, Vec<std::time::Duration>),
{
    let mut runs = Vec::new();
    let mut outputs: Vec<R> = Vec::new();
    for &threads in counts {
        let per_dispatch_ms = dispatch_cost_ms(threads);
        let mut best: Option<(f64, u64, Vec<std::time::Duration>)> = None;
        let mut pool = None;
        for _ in 0..REPS {
            let before = mcdn_exec::pool_stats();
            let (wall_ms, (work, out, shard_walls)) = timed(cfg, |world| run(world, threads));
            let after = mcdn_exec::pool_stats();
            pool.get_or_insert((
                after.dispatches - before.dispatches,
                after.spawned - before.spawned,
            ));
            if best.as_ref().is_none_or(|(w, ..)| wall_ms < *w) {
                best = Some((wall_ms, work, shard_walls));
            }
            outputs.push(out);
        }
        let (wall_ms, work, shard_walls) = best.expect("REPS >= 1");
        let (dispatches, spawned) = pool.expect("REPS >= 1");
        runs.push(Run {
            threads,
            wall_ms,
            per_sec: if wall_ms > 0.0 { work as f64 / (wall_ms / 1e3) } else { 0.0 },
            walls: WallSummary::of(&shard_walls),
            dispatches,
            spawned,
            dispatch_overhead_ms: per_dispatch_ms * dispatches as f64,
        });
    }
    let identical = outputs.windows(2).all(|w| w[0] == w[1]);
    (runs, identical, outputs.swap_remove(0))
}

/// Heap traffic of one real campaign window, with metrics recording on
/// and off.
struct AllocAudit {
    resolutions: u64,
    enabled: AllocCounts,
    disabled: AllocCounts,
}

impl AllocAudit {
    fn allocs_per_resolution(&self) -> f64 {
        self.enabled.allocs as f64 / self.resolutions.max(1) as f64
    }

    fn bytes_per_resolution(&self) -> f64 {
        self.enabled.bytes as f64 / self.resolutions.max(1) as f64
    }
}

/// Counts the heap allocations of a real campaign window: the serial
/// global campaign of the full bench workload (150 probes, 30-minute
/// rounds over three days, ~21.6 k resolutions — also under `--smoke`, so
/// the campaign's fixed costs stay amortized). Every mapping TTL but the
/// 6-hour entry CNAME expires between rounds, so each round re-asks the
/// Apple selector, the third-party selectors, the GSLBs and the CDN
/// answer policies, and re-stores the expired cache entries. Only the
/// world build sits outside the window: namespace compile, fleet build,
/// per-round snapshots and shard partials, and merges all count, so the
/// per-resolution figure bounds the resolve loop's own cost from above.
///
/// The window is counted twice, with metrics recording on and off
/// ([`mcdn_obs::set_enabled`]); the record path must allocate nothing.
/// Also returns the enabled run's metrics snapshot, which the JSON report
/// embeds.
fn audit_campaign_allocs(cfg: &ScenarioConfig) -> (AllocAudit, mcdn_obs::MetricsSnapshot) {
    let count = || {
        let world = World::build(cfg);
        let before = ALLOC.snapshot();
        let report = run_dns(&world, cfg, Campaign::Global, 1);
        (ALLOC.snapshot().since(before), report)
    };
    let (enabled, report) = count();
    mcdn_obs::set_enabled(false);
    let (disabled, _) = count();
    mcdn_obs::set_enabled(true);
    (AllocAudit { resolutions: report.result.resolutions, enabled, disabled }, report.metrics)
}

/// Wall times of the serial full-scale global campaign three ways: plain
/// with metrics recording on, journaled with every round
/// checkpoint-eligible (the engine's throttle decides which checkpoints
/// are written), and plain with recording off. Best of [`REPS`]
/// interleaved repetitions, so every arm samples the same load windows.
/// Reported, not gated: on a timeshared core a few percent of this is
/// scheduler noise.
struct Overheads {
    plain_ms: f64,
    journaled_ms: f64,
    disabled_ms: f64,
}

impl Overheads {
    /// What journaling adds to the plain run, in percent.
    fn checkpoint_pct(&self) -> f64 {
        pct_over(self.journaled_ms, self.plain_ms)
    }

    /// What metrics recording adds to the disabled run, in percent.
    fn obs_pct(&self) -> f64 {
        pct_over(self.plain_ms, self.disabled_ms)
    }
}

fn pct_over(ms: f64, base_ms: f64) -> f64 {
    if base_ms > 0.0 {
        (ms - base_ms) / base_ms * 100.0
    } else {
        0.0
    }
}

/// Measures [`Overheads`], checking that the journaled and the unrecorded
/// campaigns are bit-identical to the plain one.
fn bench_overheads(cfg: &ScenarioConfig) -> Overheads {
    let mut o = Overheads {
        plain_ms: f64::INFINITY,
        journaled_ms: f64::INFINITY,
        disabled_ms: f64::INFINITY,
    };
    for rep in 0..REPS {
        let (ms, plain) = timed(cfg, |world| run_dns(world, cfg, Campaign::Global, 1).result);
        o.plain_ms = o.plain_ms.min(ms);

        let path = std::env::temp_dir()
            .join(format!("mcdn-bench-journal-{}-{rep}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let opts = ResumeOptions { threads: 1, checkpoint_every: 1, stop_after_rounds: None };
        let (ms, journaled) = timed(cfg, |world| {
            match run_dns_journaled(world, cfg, Campaign::Global, &path, opts)
                .expect("journaled campaign")
                .0
            {
                CampaignRun::Complete(r) => r,
                CampaignRun::Suspended { .. } => unreachable!("no round budget given"),
            }
        });
        let _ = std::fs::remove_file(&path);
        o.journaled_ms = o.journaled_ms.min(ms);

        mcdn_obs::set_enabled(false);
        let (ms, disabled) = timed(cfg, |world| run_dns(world, cfg, Campaign::Global, 1).result);
        mcdn_obs::set_enabled(true);
        o.disabled_ms = o.disabled_ms.min(ms);

        assert_eq!(
            plain, journaled,
            "journaled campaign must be bit-identical to the plain engine"
        );
        assert_eq!(plain, disabled, "metrics recording must never affect campaign output");
    }
    o
}

fn json_escape_free(s: &str) -> &str {
    // Every string we emit is a static identifier; keep the writer honest.
    assert!(s.chars().all(|c| c.is_ascii_alphanumeric() || "_-./".contains(c)));
    s
}

/// The real-parallelism bar of one campaign: its speedup at the top
/// benched thread count. Armed only where [`speedup_gate_armed`].
struct SpeedupGate {
    name: &'static str,
    min_speedup: f64,
}

const SPEEDUP_GATES: [SpeedupGate; 3] = [
    SpeedupGate { name: "global_dns", min_speedup: 1.2 },
    SpeedupGate { name: "isp_dns", min_speedup: 1.0 },
    SpeedupGate { name: "isp_traffic", min_speedup: 1.0 },
];

/// Worker widths this host can truly run concurrently.
fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Whether the speedup gates apply: the full run on a host that can run 4
/// workers at once. A narrower or timeshared host cannot show a real
/// speedup, and a smoke campaign of a few milliseconds is scheduler noise.
fn speedup_gate_armed(smoke: bool) -> bool {
    !smoke && available_parallelism() >= 4
}

/// Head-to-head no-op dispatch cost at the top benched width: the
/// persistent pool versus the retired spawn-per-round reference engine.
struct DispatchMicrobench {
    threads: usize,
    pool_ms: f64,
    scoped_ms: f64,
}

impl DispatchMicrobench {
    /// How many times cheaper a warm-pool wake is than spawning scoped
    /// threads for the same geometry.
    fn scoped_over_pool(&self) -> f64 {
        if self.pool_ms > 0.0 {
            self.scoped_ms / self.pool_ms
        } else {
            f64::INFINITY
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    out: &mut String,
    smoke: bool,
    counts: &[usize],
    benches: &[Bench],
    audit: &AllocAudit,
    overheads: &Overheads,
    dispatch: &DispatchMicrobench,
    metrics: &mcdn_obs::MetricsSnapshot,
) {
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"mcdn-bench-campaigns-v11\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let counts_s: Vec<String> = counts.iter().map(|c| c.to_string()).collect();
    let _ = writeln!(out, "  \"thread_counts\": [{}],", counts_s.join(", "));
    let _ = writeln!(out, "  \"available_parallelism\": {},", available_parallelism());
    let _ = writeln!(out, "  \"traffic_batch_ticks\": {TRAFFIC_BATCH_TICKS},");
    let _ = writeln!(out, "  \"dispatch_microbench\": {{");
    let _ = writeln!(out, "    \"threads\": {},", dispatch.threads);
    let _ = writeln!(out, "    \"pool_ms\": {:.4},", dispatch.pool_ms);
    let _ = writeln!(out, "    \"scoped_ms\": {:.4},", dispatch.scoped_ms);
    let _ = writeln!(out, "    \"scoped_over_pool\": {:.2}", dispatch.scoped_over_pool());
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"speedup_gate\": {{");
    let _ = writeln!(out, "    \"armed\": {},", speedup_gate_armed(smoke));
    for (i, g) in SPEEDUP_GATES.iter().enumerate() {
        let _ = writeln!(
            out,
            "    \"{}\": {:.2}{}",
            json_escape_free(g.name),
            g.min_speedup,
            if i + 1 < SPEEDUP_GATES.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"checkpointing\": {{");
    let _ = writeln!(out, "    \"plain_ms\": {:.3},", overheads.plain_ms);
    let _ = writeln!(out, "    \"journaled_ms\": {:.3},", overheads.journaled_ms);
    let _ = writeln!(out, "    \"checkpoint_overhead_pct\": {:.3}", overheads.checkpoint_pct());
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"observability\": {{");
    let _ = writeln!(out, "    \"enabled_ms\": {:.3},", overheads.plain_ms);
    let _ = writeln!(out, "    \"disabled_ms\": {:.3},", overheads.disabled_ms);
    let _ = writeln!(out, "    \"obs_overhead_pct\": {:.3}", overheads.obs_pct());
    let _ = writeln!(out, "  }},");
    // The enabled serial run's counter registry, by self-describing name.
    // The first N_DET entries are deterministic (identical on any host or
    // worker count); the rest describe how this process computed them.
    let _ = writeln!(out, "  \"metrics\": {{");
    for (i, name) in mcdn_obs::COUNTER_NAMES.iter().enumerate() {
        let _ = writeln!(
            out,
            "    \"{}\": {},",
            json_escape_free(name),
            metrics.counter(i as u16)
        );
    }
    let _ = writeln!(out, "    \"trace_events\": {}", metrics.events().len());
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"alloc_audit\": {{");
    let _ = writeln!(out, "    \"window\": \"serial_global_dns_campaign\",");
    let _ = writeln!(out, "    \"resolutions\": {},", audit.resolutions);
    let _ = writeln!(out, "    \"allocs\": {},", audit.enabled.allocs);
    let _ = writeln!(out, "    \"bytes\": {},", audit.enabled.bytes);
    let _ = writeln!(out, "    \"disabled_allocs\": {},", audit.disabled.allocs);
    let _ = writeln!(out, "    \"disabled_bytes\": {},", audit.disabled.bytes);
    let _ = writeln!(out, "    \"allocs_per_resolution\": {:.4},", audit.allocs_per_resolution());
    let _ = writeln!(out, "    \"bytes_per_resolution\": {:.1}", audit.bytes_per_resolution());
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"campaigns\": [");
    for (i, b) in benches.iter().enumerate() {
        let hit_rate = if b.memo_lookups > 0 {
            b.memo_hits as f64 / b.memo_lookups as f64
        } else {
            0.0
        };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", json_escape_free(b.name));
        let _ = writeln!(out, "      \"units\": \"{}\",", json_escape_free(b.units));
        let _ = writeln!(out, "      \"work\": {},", b.work);
        let _ = writeln!(out, "      \"steps\": {},", b.steps);
        let _ = writeln!(out, "      \"step_units\": \"{}\",", json_escape_free(b.step_units));
        let _ = writeln!(out, "      \"expected_dispatches\": {},", b.expected_dispatches);
        let _ = writeln!(out, "      \"memo_lookups\": {},", b.memo_lookups);
        let _ = writeln!(out, "      \"memo_hits\": {},", b.memo_hits);
        let _ = writeln!(out, "      \"memo_hit_rate\": {hit_rate:.4},");
        let _ = writeln!(out, "      \"identical_across_threads\": {},", b.identical);
        let _ = writeln!(out, "      \"runs\": [");
        for (j, r) in b.runs.iter().enumerate() {
            let _ = write!(
                out,
                "        {{\"threads\": {}, \"wall_ms\": {:.3}, \"{}_per_sec\": {:.1}, \"speedup_vs_serial\": {:.3}, \"dispatches\": {}, \"spawned\": {}, \"dispatch_overhead_ms\": {:.3}, \"shard_walls\": {{\"count\": {}, \"p50_ms\": {:.3}, \"p90_ms\": {:.3}, \"max_ms\": {:.3}}}}}",
                r.threads,
                r.wall_ms,
                json_escape_free(b.units),
                r.per_sec,
                b.speedup(r),
                r.dispatches,
                r.spawned,
                r.dispatch_overhead_ms,
                r.walls.count,
                r.walls.p50_ms,
                r.walls.p90_ms,
                r.walls.max_ms,
            );
            let _ = writeln!(out, "{}", if j + 1 < b.runs.len() { "," } else { "" });
        }
        let _ = writeln!(out, "      ]");
        let _ = writeln!(out, "    }}{}", if i + 1 < benches.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_campaigns.json".to_string());
    let cfg = bench_cfg(smoke);
    let counts = thread_counts();
    let top_threads = *counts.last().expect("at least one thread count");
    eprintln!("bench_campaigns: thread counts {counts:?}, smoke={smoke}");

    let mut benches = Vec::new();
    for (campaign, name, start, end, interval) in [
        (Campaign::Global, "global_dns", cfg.global_start, cfg.global_end, cfg.global_dns_interval),
        (Campaign::Isp, "isp_dns", cfg.isp_start, cfg.isp_end, cfg.isp_dns_interval),
    ] {
        let (runs, identical, serial) = bench_campaign(&cfg, &counts, |world, threads| {
            let report = run_dns(world, &cfg, campaign, threads);
            (report.result.resolutions, report.result, report.shard_walls)
        });
        let rounds = steps(start, end, interval);
        benches.push(Bench {
            name,
            units: "resolutions",
            work: serial.resolutions,
            steps: rounds,
            step_units: "rounds",
            expected_dispatches: rounds,
            memo_lookups: serial.memo_lookups,
            memo_hits: serial.memo_hits,
            runs,
            identical,
        });
    }
    let (runs, identical, serial) = bench_campaign(&cfg, &counts, |world, threads| {
        let (r, walls) = run_traffic(world, &cfg, threads);
        (r.flows.len() as u64, r, walls)
    });
    let ticks = steps(cfg.traffic_start, cfg.traffic_end, cfg.traffic_tick);
    benches.push(Bench {
        name: "isp_traffic",
        units: "flows",
        work: serial.flows.len() as u64,
        steps: ticks,
        step_units: "ticks",
        expected_dispatches: ticks.div_ceil(TRAFFIC_BATCH_TICKS as u64),
        memo_lookups: 0,
        memo_hits: 0,
        runs,
        identical,
    });

    // The overheads and the audit always run the full-scale workload: a
    // percent measured on a ~10 ms run is sub-millisecond jitter, and the
    // audit needs the campaign's fixed costs amortized.
    eprintln!("bench_campaigns: measuring checkpoint and observability overhead");
    let overheads = bench_overheads(&bench_cfg(false));
    eprintln!(
        "  plain={:.1}ms journaled={:.1}ms ({:+.2}%) unrecorded={:.1}ms (recording {:+.2}%), \
         reported, not gated",
        overheads.plain_ms,
        overheads.journaled_ms,
        overheads.checkpoint_pct(),
        overheads.disabled_ms,
        overheads.obs_pct(),
    );

    eprintln!("bench_campaigns: auditing allocations over a real campaign window");
    let (audit, metrics) = audit_campaign_allocs(&bench_cfg(false));
    eprintln!(
        "  alloc_audit resolutions={} allocs={} bytes={} ({:.3} allocs/res, {:.0} bytes/res); \
         recording off: allocs={} bytes={}",
        audit.resolutions,
        audit.enabled.allocs,
        audit.enabled.bytes,
        audit.allocs_per_resolution(),
        audit.bytes_per_resolution(),
        audit.disabled.allocs,
        audit.disabled.bytes,
    );

    let dispatch = DispatchMicrobench {
        threads: top_threads,
        pool_ms: dispatch_cost_ms(top_threads),
        scoped_ms: scoped_dispatch_cost_ms(top_threads),
    };
    eprintln!(
        "  dispatch@{}t pool={:.4}ms scoped={:.4}ms ratio={:.1}x",
        dispatch.threads,
        dispatch.pool_ms,
        dispatch.scoped_ms,
        dispatch.scoped_over_pool(),
    );
    let mut json = String::new();
    write_json(&mut json, smoke, &counts, &benches, &audit, &overheads, &dispatch, &metrics);
    std::fs::write(&out_path, &json).expect("write BENCH json");
    eprintln!("bench_campaigns: wrote {out_path}");

    let mut failures = Vec::new();
    for b in &benches {
        let serial = b.runs.first().map(|r| r.wall_ms).unwrap_or(0.0);
        let top = b.runs.last().expect("every thread count ran");
        eprintln!(
            "  {:<12} work={:<7} serial={:.1}ms top={:.1}ms memo-hit-rate={:.2} identical={} \
             dispatches@{}t={} for {} {} spawned={}",
            b.name,
            b.work,
            serial,
            top.wall_ms,
            if b.memo_lookups > 0 { b.memo_hits as f64 / b.memo_lookups as f64 } else { 0.0 },
            b.identical,
            top.threads,
            top.dispatches,
            b.steps,
            b.step_units,
            top.spawned,
        );
        if !b.identical {
            failures.push(format!("{} output differs across thread counts", b.name));
        }
        let gate = SPEEDUP_GATES.iter().find(|g| g.name == b.name);
        if let Some(gate) = gate.filter(|_| speedup_gate_armed(smoke)) {
            let speedup = b.speedup(top);
            if speedup < gate.min_speedup {
                failures.push(format!(
                    "{} at {} threads ran {speedup:.3}x serial (gate ≥ {:.2}x; see \
                     shard_walls/dispatch_overhead_ms)",
                    b.name, top.threads, gate.min_speedup,
                ));
            }
        }
    }
    for failure in &failures {
        eprintln!("bench_campaigns: FAIL — {failure}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::{nearest_rank, WallSummary};
    use std::time::Duration;

    fn ms(v: &[u64]) -> Vec<Duration> {
        v.iter().map(|&m| Duration::from_millis(m)).collect()
    }

    #[test]
    fn one_shard_every_percentile_is_the_only_value() {
        let s = WallSummary::of(&ms(&[7]));
        assert_eq!(s.count, 1);
        assert_eq!(s.p50_ms, 7.0);
        assert_eq!(s.p90_ms, 7.0);
        assert_eq!(s.max_ms, 7.0);
    }

    #[test]
    fn two_shards_split_the_ranks() {
        // Nearest-rank over two samples: p50 covers the lower half (the
        // smaller value), p90 needs 1.8 ranks and so must take the larger.
        let s = WallSummary::of(&ms(&[10, 30]));
        assert_eq!(s.count, 2);
        assert_eq!(s.p50_ms, 10.0);
        assert_eq!(s.p90_ms, 30.0);
        assert_eq!(s.max_ms, 30.0);
    }

    #[test]
    fn three_shards_median_and_tail_diverge() {
        let s = WallSummary::of(&ms(&[10, 20, 30]));
        assert_eq!(s.count, 3);
        assert_eq!(s.p50_ms, 20.0);
        assert_eq!(s.p90_ms, 30.0);
        assert_eq!(s.max_ms, 30.0);
    }

    #[test]
    fn summary_sorts_before_ranking() {
        let s = WallSummary::of(&ms(&[30, 10, 20]));
        assert_eq!(s.p50_ms, 20.0);
        assert_eq!(s.p90_ms, 30.0);
    }

    #[test]
    fn nearest_rank_is_ceiling_based() {
        assert_eq!(nearest_rank(1, 50), 0);
        assert_eq!(nearest_rank(1, 90), 0);
        assert_eq!(nearest_rank(2, 50), 0);
        assert_eq!(nearest_rank(2, 90), 1);
        assert_eq!(nearest_rank(3, 50), 1);
        assert_eq!(nearest_rank(3, 90), 2);
        assert_eq!(nearest_rank(10, 50), 4);
        assert_eq!(nearest_rank(10, 90), 8);
        assert_eq!(nearest_rank(100, 100), 99);
    }
}
