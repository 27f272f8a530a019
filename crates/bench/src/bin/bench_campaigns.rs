//! The campaign-engine benchmark trajectory: runs the DNS campaigns and
//! the traffic simulation at several worker counts, checks the outputs
//! are bit-identical, and writes `BENCH_campaigns.json` with wall times,
//! resolution throughput, memo hit rates, and per-thread-count speedups.
//!
//! Usage: `bench_campaigns [--smoke] [OUT.json]`. `--smoke` shrinks the
//! workload for CI gating; the default output path is
//! `BENCH_campaigns.json` in the working directory.

use alloc_counter::CountingAlloc;
use mcdn_exec::Recovery;
use mcdn_geo::{Duration, SimTime};
use mcdn_scenario::{
    run_dns, run_dns_journaled, run_traffic, Campaign, CampaignReport, CampaignRun, ResumeOptions,
    ScenarioConfig, World, TRAFFIC_BATCH_TICKS,
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

/// Wall time and throughput of one benched (campaign, worker count)
/// cell: best-of-[`REPS`] wall clock, the shard-wall summary of the best
/// repetition, and the estimated pool-dispatch overhead the run paid.
struct Run {
    threads: usize,
    wall_ms: f64,
    per_sec: f64,
    walls: WallSummary,
    dispatch_overhead_ms: f64,
}

/// Repetitions per (campaign, worker count) cell; the best wall clock is
/// reported. Three is enough to shed one bad scheduler window without
/// tripling a CI run that executes every cell's output-identity check
/// anyway.
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
/// wall clock of a no-op fail-fast `shard_map` over one item per shard,
/// on a warm pool. Multiplied by a run's dispatch count this estimates
/// how much of its wall went to orchestration rather than work — the
/// quantity the persistent pool exists to shrink.
fn dispatch_cost_ms(threads: usize) -> f64 {
    if threads <= 1 {
        return 0.0; // inline path: no handshake at all
    }
    mcdn_exec::warm(threads);
    let mut items = vec![0u8; threads];
    mean_dispatch_ms(64, 512, || {
        let shards = mcdn_exec::shard_map(&mut items, threads, Recovery::FailFast, |_, _| ());
        std::hint::black_box(shards.expect("no-op shards cannot panic"));
    })
}

/// The same no-op dispatch the way the retired spawn-per-round engine ran
/// it: one scoped thread spawned and joined per shard of
/// [`mcdn_exec::shard_bounds`]. The pool-vs-scoped ratio is the one engine
/// property a single-core host can still measure without scheduler noise
/// drowning it (spawn costs tens of microseconds per worker; a warm-pool
/// wake is single-digit), so the degraded gate leans on it where raw
/// speedup cannot discriminate.
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

/// One benched campaign: canonical counters plus per-thread-count runs.
struct Bench {
    name: &'static str,
    units: &'static str,
    work: u64,
    memo_lookups: u64,
    memo_hits: u64,
    runs: Vec<Run>,
    identical: bool,
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

fn thread_counts() -> Vec<usize> {
    let native = mcdn_exec::thread_count();
    let mut counts = vec![1, 2, native.max(4)];
    counts.dedup();
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Times `run` at each worker count against a fresh world (best of
/// [`REPS`] repetitions per count), returning the per-count runs and
/// whether every output — of every repetition — matched the serial one.
fn bench_campaign<R, F>(
    cfg: &ScenarioConfig,
    counts: &[usize],
    run: F,
) -> (Vec<Run>, bool, Vec<R>)
where
    R: PartialEq,
    F: Fn(&World, &ScenarioConfig, usize) -> (u64, R, Vec<std::time::Duration>),
{
    let mut runs = Vec::new();
    let mut outputs: Vec<R> = Vec::new();
    for &threads in counts {
        let per_dispatch_ms = dispatch_cost_ms(threads);
        let mut best: Option<(f64, u64, Vec<std::time::Duration>)> = None;
        for _ in 0..REPS {
            // A fresh world per repetition: campaigns advance the
            // controller's load history, so sharing one would let an
            // earlier run warm state for a later one.
            let world = World::build(cfg);
            let start = Instant::now();
            let (work, out, shard_walls) = run(&world, cfg, threads);
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            if best.as_ref().is_none_or(|(w, ..)| wall_ms < *w) {
                best = Some((wall_ms, work, shard_walls));
            }
            outputs.push(out);
        }
        let (wall_ms, work, shard_walls) = best.expect("REPS >= 1");
        // Shards per dispatch is the thread count (except a possible
        // smaller trailing batch); the executions-per-dispatch quotient
        // recovers the dispatch count well enough for an overhead
        // estimate.
        let dispatches = shard_walls.len().div_ceil(threads.max(1));
        runs.push(Run {
            threads,
            wall_ms,
            per_sec: if wall_ms > 0.0 { work as f64 / (wall_ms / 1e3) } else { 0.0 },
            walls: WallSummary::of(&shard_walls),
            dispatch_overhead_ms: per_dispatch_ms * dispatches as f64,
        });
    }
    let identical = outputs.windows(2).all(|w| w[0] == w[1]);
    (runs, identical, outputs)
}

/// Heap traffic of one real campaign window.
struct AllocAudit {
    resolutions: u64,
    allocs: u64,
    bytes: u64,
}

impl AllocAudit {
    fn allocs_per_resolution(&self) -> f64 {
        self.allocs as f64 / self.resolutions.max(1) as f64
    }

    fn bytes_per_resolution(&self) -> f64 {
        self.bytes as f64 / self.resolutions.max(1) as f64
    }
}

/// The allocation gate: heap allocations per resolution, averaged over
/// the audited campaign window, must stay below this.
const ALLOC_GATE_PER_RESOLUTION: f64 = 1.0;

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
fn audit_campaign_allocs(cfg: &ScenarioConfig) -> AllocAudit {
    let world = World::build(cfg);
    let before = ALLOC.snapshot();
    let result = run_dns(&world, cfg, Campaign::Global, 1).result;
    let delta = ALLOC.snapshot().since(before);
    AllocAudit { resolutions: result.resolutions, allocs: delta.allocs, bytes: delta.bytes }
}

/// Wall-time cost of journaled checkpointing versus the plain engine.
struct CheckpointOverhead {
    plain_ms: f64,
    journaled_ms: f64,
    /// Signed best-of-N delta. A negative value means the journaled run's
    /// best repetition beat the plain run's — physically impossible as a
    /// real cost, so it is scheduler noise and is *flagged*, not gated.
    raw_overhead_pct: f64,
    /// The reported cost: `raw_overhead_pct` clamped at zero.
    overhead_pct: f64,
}

impl CheckpointOverhead {
    /// Whether the measurement hit the noise floor (journaled "faster"
    /// than plain).
    fn noise_floor(&self) -> bool {
        self.raw_overhead_pct < 0.0
    }
}

/// The checkpoint overhead budget: journaled campaigns may cost at most
/// this fraction of the plain engine's wall time.
const CHECKPOINT_OVERHEAD_BUDGET_PCT: f64 = 5.0;

/// Overhead measurements run interleaved best-of-N rounds of this many
/// repetitions; a round that lands under budget stops the measurement.
const OVERHEAD_REPS_PER_ROUND: usize = 9;

/// Ceiling on total overhead repetitions. Minimum statistics only move
/// downward as repetitions accumulate, so extending the measurement can
/// never hide a real cost — it only gives scheduler jitter more chances
/// to get out of the way. A measurement still over budget after this
/// many interleaved repetitions is a genuine regression.
const OVERHEAD_REPS_MAX: usize = 27;

/// Times the global campaign plain and journaled (cadence 1, i.e. every
/// round is checkpoint-eligible; the engine's overhead throttle decides
/// which become durable) at one worker, interleaved best-of-N (both
/// sides sample the same load windows) to damp scheduler noise, and
/// checks the journaled result is bit-identical.
///
/// Always runs the full-scale workload, even under `--smoke`: a percent
/// overhead measured on a ~10ms run is dominated by sub-millisecond
/// scheduler jitter, while at ~200ms the same jitter is <0.5%. On a
/// timeshared single core even best-of-9 occasionally leaves a few
/// percent of one-sided jitter, so when a round finishes over budget the
/// measurement extends itself (up to [`OVERHEAD_REPS_MAX`] repetitions)
/// before the gate is allowed to fail.
fn bench_checkpoint_overhead(cfg: &ScenarioConfig) -> CheckpointOverhead {
    let mut plain_ms = f64::INFINITY;
    let mut journaled_ms = f64::INFINITY;
    let mut plain_result = None;
    let mut journaled_result = None;
    let mut rep = 0;
    loop {
        for _ in 0..OVERHEAD_REPS_PER_ROUND {
            let world = World::build(cfg);
            let start = Instant::now();
            let r = run_dns(&world, cfg, Campaign::Global, 1).result;
            plain_ms = plain_ms.min(start.elapsed().as_secs_f64() * 1e3);
            plain_result = Some(r);

            let path = std::env::temp_dir()
                .join(format!("mcdn-bench-journal-{}-{rep}.bin", std::process::id()));
            let _ = std::fs::remove_file(&path);
            let world = World::build(cfg);
            let opts = ResumeOptions { threads: 1, checkpoint_every: 1, stop_after_rounds: None };
            let start = Instant::now();
            let r = match run_dns_journaled(&world, cfg, Campaign::Global, &path, opts)
                .expect("journaled campaign")
                .0
            {
                CampaignRun::Complete(r) => r,
                CampaignRun::Suspended { .. } => unreachable!("no round budget given"),
            };
            journaled_ms = journaled_ms.min(start.elapsed().as_secs_f64() * 1e3);
            let _ = std::fs::remove_file(&path);
            journaled_result = Some(r);
            rep += 1;
        }
        let raw = (journaled_ms - plain_ms) / plain_ms * 100.0;
        if raw < CHECKPOINT_OVERHEAD_BUDGET_PCT || rep >= OVERHEAD_REPS_MAX {
            break;
        }
        eprintln!(
            "  checkpointing {raw:.2}% over budget after {rep} reps; extending measurement"
        );
    }
    assert_eq!(
        plain_result, journaled_result,
        "journaled campaign must be bit-identical to the plain engine"
    );
    let raw_overhead_pct =
        if plain_ms > 0.0 { (journaled_ms - plain_ms) / plain_ms * 100.0 } else { 0.0 };
    // Both sides are best-of-N over interleaved repetitions, so a negative
    // delta can only be residual scheduler noise; clamp the reported cost
    // at zero rather than publishing a nonsensical negative overhead.
    let overhead_pct = raw_overhead_pct.max(0.0);
    CheckpointOverhead { plain_ms, journaled_ms, raw_overhead_pct, overhead_pct }
}

/// Wall-time cost of the always-on observability layer: the serial global
/// campaign with metrics recording enabled versus runtime-disabled
/// ([`mcdn_obs::set_enabled`]). The registry is compiled in either way
/// (both arms run the same binary), so this measures exactly the hot-path
/// recording cost the `<2%` budget bounds.
struct ObsOverhead {
    enabled_ms: f64,
    disabled_ms: f64,
    /// Signed best-of-N delta; negative means scheduler noise (flagged,
    /// not gated), exactly like [`CheckpointOverhead`].
    raw_overhead_pct: f64,
    overhead_pct: f64,
}

impl ObsOverhead {
    fn noise_floor(&self) -> bool {
        self.raw_overhead_pct < 0.0
    }
}

/// The observability overhead budget: metrics recording may cost at most
/// this fraction of campaign wall time. Measured ~0% here (counter bumps
/// on thread-local cells, amortized over full resolutions), so the gate
/// mostly guards against someone adding an allocating or locking record
/// path later.
const OBS_OVERHEAD_BUDGET_PCT: f64 = 2.0;

/// Times the serial global campaign with metrics enabled and disabled,
/// interleaved best-of-N (same damping — and the same
/// over-budget-extends-the-measurement rule — as
/// [`bench_checkpoint_overhead`], and like it always at full scale — a
/// percent budget needs a run long enough that scheduler jitter sits
/// well under it). Also returns the enabled run's snapshot, which the
/// JSON report embeds. Checks the campaign output is bit-identical with
/// recording on and off.
fn bench_obs_overhead(cfg: &ScenarioConfig) -> (ObsOverhead, mcdn_obs::MetricsSnapshot) {
    let mut enabled_ms = f64::INFINITY;
    let mut disabled_ms = f64::INFINITY;
    let mut snapshot = None;
    let mut enabled_result = None;
    let mut disabled_result = None;
    let mut rep = 0;
    loop {
        for _ in 0..OVERHEAD_REPS_PER_ROUND {
            mcdn_obs::set_enabled(true);
            let world = World::build(cfg);
            let start = Instant::now();
            let CampaignReport { result: r, metrics: snap, .. } =
                run_dns(&world, cfg, Campaign::Global, 1);
            enabled_ms = enabled_ms.min(start.elapsed().as_secs_f64() * 1e3);
            snapshot = Some(snap);
            enabled_result = Some(r);

            mcdn_obs::set_enabled(false);
            let world = World::build(cfg);
            let start = Instant::now();
            let r = run_dns(&world, cfg, Campaign::Global, 1).result;
            disabled_ms = disabled_ms.min(start.elapsed().as_secs_f64() * 1e3);
            mcdn_obs::set_enabled(true);
            disabled_result = Some(r);
            rep += 1;
        }
        let raw = (enabled_ms - disabled_ms) / disabled_ms * 100.0;
        if raw < OBS_OVERHEAD_BUDGET_PCT || rep >= OVERHEAD_REPS_MAX {
            break;
        }
        eprintln!(
            "  observability {raw:.2}% over budget after {rep} reps; extending measurement"
        );
    }
    assert_eq!(
        enabled_result, disabled_result,
        "metrics recording must never affect campaign output"
    );
    let raw_overhead_pct =
        if disabled_ms > 0.0 { (enabled_ms - disabled_ms) / disabled_ms * 100.0 } else { 0.0 };
    let overhead_pct = raw_overhead_pct.max(0.0);
    (
        ObsOverhead { enabled_ms, disabled_ms, raw_overhead_pct, overhead_pct },
        snapshot.expect("9 reps ran"),
    )
}

fn json_escape_free(s: &str) -> &str {
    // Every string we emit is a static identifier; keep the writer honest.
    assert!(s.chars().all(|c| c.is_ascii_alphanumeric() || "_-./".contains(c)));
    s
}

/// The per-campaign speedup gate at the top benched thread count.
///
/// `full` is the real-parallelism bar, armed when the host machine can
/// actually run 4 workers at once; on narrower hosts (CI containers are
/// routinely pinned to one core, where a >1.0 speedup is physically
/// impossible) the gate degrades to `floor` — an overhead-amortization
/// bar that the retired spawn-per-round engine still fails but that
/// passes once dispatch cost is amortized.
///
/// Floor calibration, measured full-scale on a 1-core container: the
/// spawn-per-round engine ran 0.74×/0.85×/0.52× serial; the persistent
/// pool runs 0.75–0.81×/~0.95×/~1.05× across invocations. The residual
/// global_dns gap is not dispatch cost (`dispatch_overhead_ms` ≈ 0.1 ms
/// of a ~200 ms campaign) but duplicated per-shard memo misses — real
/// work that extra cores absorb and a single core serializes — and its
/// run-to-run jitter overlaps the old engine's number, so raw DNS
/// speedup cannot discriminate engines here. The floors therefore only
/// bound pathological overhead; engine discrimination in the floor
/// regime comes from (a) the isp_traffic bar (0.52× old vs ~1.05× pool,
/// far outside noise) and (b) the [`DISPATCH_RATIO_GATE`] head-to-head
/// microbenchmark, which is insensitive to core count. The JSON records
/// which bar was armed.
///
/// Recalibrated for schema v7: the observability layer's hot-path
/// cleanup sped the *serial* run up (194→~230 k res/s on the reference container), which
/// lowers the parallel/serial ratio by the same fraction — the fixed
/// per-round shard overhead now divides a shorter round. Measured
/// 0.66–0.70× across invocations; the global_dns floor drops 0.70→0.62
/// to keep bounding pathological overhead without failing on a serial
/// speedup.
struct SpeedupGate {
    name: &'static str,
    full: f64,
    floor: f64,
}

/// Gate relaxation applied in `--smoke` mode: the smoke campaigns finish
/// in ~10 ms, where a timeshared core adds ±10% run-to-run jitter even
/// under best-of-[`REPS`], so CI enforces a proportionally looser bar.
/// The full-scale run (which produces the committed baseline) keeps the
/// calibrated thresholds.
const SMOKE_GATE_SCALE: f64 = 0.85;

const SPEEDUP_GATES: [SpeedupGate; 3] = [
    SpeedupGate { name: "global_dns", full: 1.2, floor: 0.62 },
    SpeedupGate { name: "isp_dns", full: 1.0, floor: 0.80 },
    SpeedupGate { name: "isp_traffic", full: 1.0, floor: 0.80 },
];

/// The committed schema-v5 baseline: serial full-scale global_dns
/// throughput (resolutions/second) of the v5 engine. The serial gate
/// measures this build's serial run against it.
const V5_SERIAL_GLOBAL_DNS_PER_SEC: f64 = 108_806.8;

/// The v5 baseline for the `--smoke` workload, measured by building the
/// v5 tree and running `bench_campaigns --smoke` on the same single-core
/// container that produced the committed full-scale baseline (best of
/// three invocations: 83.3k / 81.5k / 86.9k). The smoke campaign is a
/// different workload — 40 probes on a 2-hour cadence, so a far larger
/// cold-resolution fraction — which makes its per-resolution throughput
/// incomparable to the full-scale number; it needs its own baseline, not
/// a scaled copy.
const V5_SMOKE_SERIAL_GLOBAL_DNS_PER_SEC: f64 = 86_900.0;

/// The v5 serial baseline the current run is comparable against.
fn v5_serial_baseline(smoke: bool) -> f64 {
    if smoke {
        V5_SMOKE_SERIAL_GLOBAL_DNS_PER_SEC
    } else {
        V5_SERIAL_GLOBAL_DNS_PER_SEC
    }
}

/// The serial-throughput bar on full-strength hosts: serial global_dns
/// must run at ≥2× the v5 baseline throughput. It is a regression
/// tripwire on the serial resolve path as a whole, not a test of any one
/// mechanism: the committed v8 full-scale run measured 396 k res/s,
/// 3.6× v5, on a 2-vCPU host.
const SERIAL_GATE_FULL: f64 = 2.0;

/// Calibrated floor on narrow hosts (`available_parallelism() < 4`,
/// typically one pinned, timeshared core): an absolute-throughput
/// comparison against a committed baseline inherits the host's
/// run-to-run variance on top of the engine's (one build measured
/// 1.86×–2.13× across invocations on a single-core container when the
/// gate was calibrated), so the bar degrades to one that variance
/// cannot trip while a return to v5-era serial speed (~1.0×) still
/// fails.
const SERIAL_GATE_FLOOR: f64 = 1.4;

/// The serial gate threshold for this host/mode.
///
/// The full-scale run gates at [`SERIAL_GATE_FULL`] on full-strength
/// hosts and at [`SERIAL_GATE_FLOOR`] elsewhere. The smoke run always
/// gates at the floor times [`SMOKE_GATE_SCALE`] (≈1.19×) against its
/// own v5 baseline: low enough that scheduler jitter cannot trip it,
/// high enough that falling back to v5-era serial throughput (ratio
/// → ~1.0×) still fails CI.
fn serial_gate_threshold(smoke: bool) -> f64 {
    if smoke {
        SERIAL_GATE_FLOOR * SMOKE_GATE_SCALE
    } else if full_gate_armed() {
        SERIAL_GATE_FULL
    } else {
        SERIAL_GATE_FLOOR
    }
}

/// Worker widths this host can truly run concurrently.
fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Whether the full-strength speedup thresholds apply on this host.
fn full_gate_armed() -> bool {
    available_parallelism() >= 4
}

fn gate_threshold(gate: &SpeedupGate, smoke: bool) -> f64 {
    let bar = if full_gate_armed() { gate.full } else { gate.floor };
    if smoke {
        bar * SMOKE_GATE_SCALE
    } else {
        bar
    }
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

/// The dispatch-cost bar: a warm-pool dispatch must be at least this many
/// times cheaper than the scoped spawn it replaced. Unlike raw campaign
/// speedup, this ratio is insensitive to core count and scheduler jitter
/// (measured ~10–40× here), so it holds the tentpole's claim even on the
/// one-core hosts where the speedup gate degrades to its floors.
const DISPATCH_RATIO_GATE: f64 = 2.0;

#[allow(clippy::too_many_arguments)]
fn write_json(
    out: &mut String,
    smoke: bool,
    counts: &[usize],
    benches: &[Bench],
    audit: &AllocAudit,
    ckpt: &CheckpointOverhead,
    dispatch: &DispatchMicrobench,
    obs: &ObsOverhead,
    metrics: &mcdn_obs::MetricsSnapshot,
) {
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"mcdn-bench-campaigns-v9\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let counts_s: Vec<String> = counts.iter().map(|c| c.to_string()).collect();
    let _ = writeln!(out, "  \"thread_counts\": [{}],", counts_s.join(", "));
    let _ = writeln!(out, "  \"available_parallelism\": {},", available_parallelism());
    let _ = writeln!(out, "  \"traffic_batch_ticks\": {TRAFFIC_BATCH_TICKS},");
    let _ = writeln!(out, "  \"dispatch_microbench\": {{");
    let _ = writeln!(out, "    \"threads\": {},", dispatch.threads);
    let _ = writeln!(out, "    \"pool_ms\": {:.4},", dispatch.pool_ms);
    let _ = writeln!(out, "    \"scoped_ms\": {:.4},", dispatch.scoped_ms);
    let _ = writeln!(out, "    \"scoped_over_pool\": {:.2},", dispatch.scoped_over_pool());
    let _ = writeln!(out, "    \"gate_min_ratio\": {DISPATCH_RATIO_GATE:.2}");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"speedup_gate\": {{");
    let _ = writeln!(out, "    \"full_strength\": {},", full_gate_armed());
    for (i, g) in SPEEDUP_GATES.iter().enumerate() {
        let _ = writeln!(
            out,
            "    \"{}\": {:.2}{}",
            json_escape_free(g.name),
            gate_threshold(g, smoke),
            if i + 1 < SPEEDUP_GATES.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  }},");
    let serial_dns_per_sec = benches
        .iter()
        .find(|b| b.name == "global_dns")
        .and_then(|b| b.runs.first())
        .map(|r| r.per_sec)
        .unwrap_or(0.0);
    let _ = writeln!(out, "  \"serial_gate\": {{");
    let _ = writeln!(out, "    \"v5_serial_resolutions_per_sec\": {:.1},", v5_serial_baseline(smoke));
    let _ = writeln!(out, "    \"serial_resolutions_per_sec\": {serial_dns_per_sec:.1},");
    let _ = writeln!(
        out,
        "    \"ratio_vs_v5\": {:.3},",
        serial_dns_per_sec / v5_serial_baseline(smoke)
    );
    let _ = writeln!(out, "    \"gate_min_ratio\": {:.2}", serial_gate_threshold(smoke));
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"checkpointing\": {{");
    let _ = writeln!(out, "    \"plain_ms\": {:.3},", ckpt.plain_ms);
    let _ = writeln!(out, "    \"journaled_ms\": {:.3},", ckpt.journaled_ms);
    let _ = writeln!(out, "    \"checkpoint_overhead_pct\": {:.3},", ckpt.overhead_pct);
    let _ = writeln!(out, "    \"raw_overhead_pct\": {:.3},", ckpt.raw_overhead_pct);
    let _ = writeln!(out, "    \"noise_floor\": {}", ckpt.noise_floor());
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"observability\": {{");
    let _ = writeln!(out, "    \"enabled_ms\": {:.3},", obs.enabled_ms);
    let _ = writeln!(out, "    \"disabled_ms\": {:.3},", obs.disabled_ms);
    let _ = writeln!(out, "    \"obs_overhead_pct\": {:.3},", obs.overhead_pct);
    let _ = writeln!(out, "    \"raw_overhead_pct\": {:.3},", obs.raw_overhead_pct);
    let _ = writeln!(out, "    \"noise_floor\": {},", obs.noise_floor());
    let _ = writeln!(out, "    \"budget_pct\": {OBS_OVERHEAD_BUDGET_PCT:.1}");
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
    let _ = writeln!(out, "    \"allocs\": {},", audit.allocs);
    let _ = writeln!(out, "    \"bytes\": {},", audit.bytes);
    let _ = writeln!(out, "    \"allocs_per_resolution\": {:.4},", audit.allocs_per_resolution());
    let _ = writeln!(out, "    \"bytes_per_resolution\": {:.1},", audit.bytes_per_resolution());
    let _ = writeln!(
        out,
        "    \"gate_max_allocs_per_resolution\": {ALLOC_GATE_PER_RESOLUTION:.1}"
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"campaigns\": [");
    for (i, b) in benches.iter().enumerate() {
        let serial = b.runs.first().map(|r| r.wall_ms).unwrap_or(0.0);
        let hit_rate = if b.memo_lookups > 0 {
            b.memo_hits as f64 / b.memo_lookups as f64
        } else {
            0.0
        };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", json_escape_free(b.name));
        let _ = writeln!(out, "      \"units\": \"{}\",", json_escape_free(b.units));
        let _ = writeln!(out, "      \"work\": {},", b.work);
        let _ = writeln!(out, "      \"memo_lookups\": {},", b.memo_lookups);
        let _ = writeln!(out, "      \"memo_hits\": {},", b.memo_hits);
        let _ = writeln!(out, "      \"memo_hit_rate\": {hit_rate:.4},");
        let _ = writeln!(out, "      \"identical_across_threads\": {},", b.identical);
        let _ = writeln!(out, "      \"runs\": [");
        for (j, r) in b.runs.iter().enumerate() {
            let speedup = if r.wall_ms > 0.0 { serial / r.wall_ms } else { 0.0 };
            let _ = write!(
                out,
                "        {{\"threads\": {}, \"wall_ms\": {:.3}, \"{}_per_sec\": {:.1}, \"speedup_vs_serial\": {:.3}, \"dispatch_overhead_ms\": {:.3}, \"shard_walls\": {{\"count\": {}, \"p50_ms\": {:.3}, \"p90_ms\": {:.3}, \"max_ms\": {:.3}}}}}",
                r.threads,
                r.wall_ms,
                json_escape_free(b.units),
                r.per_sec,
                speedup,
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
    eprintln!("bench_campaigns: thread counts {counts:?}, smoke={smoke}");

    let mut benches = Vec::new();

    let (runs, identical, outs) = bench_campaign(&cfg, &counts, |world, cfg, threads| {
        let report = run_dns(world, cfg, Campaign::Global, threads);
        (report.result.resolutions, report.result, report.shard_walls)
    });
    let first = &outs[0];
    benches.push(Bench {
        name: "global_dns",
        units: "resolutions",
        work: first.resolutions,
        memo_lookups: first.memo_lookups,
        memo_hits: first.memo_hits,
        runs,
        identical,
    });

    let (runs, identical, outs) = bench_campaign(&cfg, &counts, |world, cfg, threads| {
        let report = run_dns(world, cfg, Campaign::Isp, threads);
        (report.result.resolutions, report.result, report.shard_walls)
    });
    let first = &outs[0];
    benches.push(Bench {
        name: "isp_dns",
        units: "resolutions",
        work: first.resolutions,
        memo_lookups: first.memo_lookups,
        memo_hits: first.memo_hits,
        runs,
        identical,
    });

    let (runs, identical, outs) = bench_campaign(&cfg, &counts, |world, cfg, threads| {
        let (r, walls) = run_traffic(world, cfg, threads);
        (r.flows.len() as u64, r, walls)
    });
    let first = &outs[0];
    benches.push(Bench {
        name: "isp_traffic",
        units: "flows",
        work: first.flows.len() as u64,
        memo_lookups: 0,
        memo_hits: 0,
        runs,
        identical,
    });

    eprintln!("bench_campaigns: measuring checkpoint overhead");
    let ckpt = bench_checkpoint_overhead(&bench_cfg(false));
    eprintln!(
        "  checkpointing plain={:.1}ms journaled={:.1}ms overhead={:.2}%{}",
        ckpt.plain_ms,
        ckpt.journaled_ms,
        ckpt.overhead_pct,
        if ckpt.noise_floor() {
            format!(" (raw {:+.2}% — noise floor, clamped)", ckpt.raw_overhead_pct)
        } else {
            String::new()
        },
    );

    eprintln!("bench_campaigns: measuring observability overhead");
    let (obs, metrics) = bench_obs_overhead(&bench_cfg(false));
    eprintln!(
        "  observability enabled={:.1}ms disabled={:.1}ms overhead={:.2}% (budget < {:.1}%){}",
        obs.enabled_ms,
        obs.disabled_ms,
        obs.overhead_pct,
        OBS_OVERHEAD_BUDGET_PCT,
        if obs.noise_floor() {
            format!(" (raw {:+.2}% — noise floor, clamped)", obs.raw_overhead_pct)
        } else {
            String::new()
        },
    );

    eprintln!("bench_campaigns: auditing allocations over a real campaign window");
    let audit = audit_campaign_allocs(&bench_cfg(false));
    eprintln!(
        "  alloc_audit resolutions={} allocs={} bytes={} ({:.3} allocs/res, {:.0} bytes/res)",
        audit.resolutions,
        audit.allocs,
        audit.bytes,
        audit.allocs_per_resolution(),
        audit.bytes_per_resolution(),
    );

    let all_identical = benches.iter().all(|b| b.identical);
    let top_threads = counts.iter().copied().max().unwrap_or(1);
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
    write_json(&mut json, smoke, &counts, &benches, &audit, &ckpt, &dispatch, &obs, &metrics);
    std::fs::write(&out_path, &json).expect("write BENCH json");
    for b in &benches {
        let serial = b.runs.first().map(|r| r.wall_ms).unwrap_or(0.0);
        let best = b.runs.iter().skip(1).map(|r| r.wall_ms).fold(f64::INFINITY, f64::min);
        eprintln!(
            "  {:<12} work={:<7} serial={:.1}ms best-parallel={:.1}ms memo-hit-rate={:.2} identical={}",
            b.name,
            b.work,
            serial,
            if best.is_finite() { best } else { serial },
            if b.memo_lookups > 0 { b.memo_hits as f64 / b.memo_lookups as f64 } else { 0.0 },
            b.identical,
        );
    }
    // Parallel-performance gate (was a WARN until the persistent pool
    // landed): the top benched thread count must clear its campaign's
    // speedup threshold — the real-parallelism bar on hosts with ≥4
    // cores, the overhead-amortization floor on narrower ones (where a
    // >1× speedup is physically impossible but the retired spawn-per-
    // round engine's 0.74× global / 0.52× traffic walls still fail).
    let mut gate_failed = false;
    for b in &benches {
        let serial = b.runs.first().map(|r| r.wall_ms).unwrap_or(0.0);
        let Some(top) = b.runs.last().filter(|r| r.threads > 1) else { continue };
        let speedup = if top.wall_ms > 0.0 { serial / top.wall_ms } else { 0.0 };
        let Some(gate) = SPEEDUP_GATES.iter().find(|g| g.name == b.name) else { continue };
        let threshold = gate_threshold(gate, smoke);
        if speedup < threshold {
            eprintln!(
                "bench_campaigns: FAIL — {} at {} threads ran {speedup:.3}x serial \
                 (gate ≥ {threshold:.2}x, {}; see shard_walls/dispatch_overhead_ms)",
                b.name,
                top.threads,
                if full_gate_armed() { "full-strength" } else { "overhead floor" },
            );
            gate_failed = true;
        }
    }
    // The serial gate: serial global_dns must clear the calibrated
    // multiple of the committed v5 baseline throughput. Serial, so core
    // *count* is irrelevant; the floor covers per-core speed variance
    // across hosts.
    {
        let serial_per_sec = benches
            .iter()
            .find(|b| b.name == "global_dns")
            .and_then(|b| b.runs.first())
            .map(|r| r.per_sec)
            .unwrap_or(0.0);
        let baseline = v5_serial_baseline(smoke);
        let ratio = serial_per_sec / baseline;
        let threshold = serial_gate_threshold(smoke);
        eprintln!(
            "  serial gate: serial global_dns {serial_per_sec:.0}/s = {ratio:.2}x v5 \
             baseline (gate ≥ {threshold:.2}x)"
        );
        if ratio < threshold {
            eprintln!(
                "bench_campaigns: FAIL — serial global_dns ran {ratio:.3}x the v5 \
                 baseline ({serial_per_sec:.0}/s vs {baseline:.0}/s, \
                 gate ≥ {threshold:.2}x, {})",
                if full_gate_armed() { "full-strength" } else { "single-core floor" },
            );
            gate_failed = true;
        }
    }
    // The hardware-independent half of the gate: the pool must beat the
    // retired spawn-per-round engine head-to-head on dispatch cost.
    if top_threads > 1 && dispatch.scoped_over_pool() < DISPATCH_RATIO_GATE {
        eprintln!(
            "bench_campaigns: FAIL — pool dispatch at {} threads is only {:.1}x cheaper \
             than scoped spawn (gate ≥ {DISPATCH_RATIO_GATE:.1}x)",
            top_threads,
            dispatch.scoped_over_pool(),
        );
        gate_failed = true;
    }
    eprintln!("bench_campaigns: wrote {out_path}");
    if gate_failed {
        std::process::exit(1);
    }
    if !all_identical {
        eprintln!("bench_campaigns: FAIL — outputs differ across thread counts");
        std::process::exit(1);
    }
    if audit.allocs_per_resolution() >= ALLOC_GATE_PER_RESOLUTION {
        eprintln!(
            "bench_campaigns: FAIL — the campaign window allocated {:.3} times per resolution \
             ({} allocs / {} bytes over {} resolutions; gate < {ALLOC_GATE_PER_RESOLUTION:.1})",
            audit.allocs_per_resolution(),
            audit.allocs,
            audit.bytes,
            audit.resolutions
        );
        std::process::exit(1);
    }
    if ckpt.overhead_pct >= CHECKPOINT_OVERHEAD_BUDGET_PCT {
        eprintln!(
            "bench_campaigns: FAIL — per-round checkpointing costs {:.2}% \
             (budget < {CHECKPOINT_OVERHEAD_BUDGET_PCT:.0}%)",
            ckpt.overhead_pct
        );
        std::process::exit(1);
    }
    if obs.overhead_pct >= OBS_OVERHEAD_BUDGET_PCT {
        eprintln!(
            "bench_campaigns: FAIL — metrics recording costs {:.2}% \
             (budget < {OBS_OVERHEAD_BUDGET_PCT:.1}%)",
            obs.overhead_pct
        );
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
