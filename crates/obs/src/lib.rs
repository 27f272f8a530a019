//! Deterministic observability for the meta-CDN campaign engine.
//!
//! `mcdn-obs` is a process-wide metrics registry (monotonic counters,
//! log₂-bucketed histograms, gauges) plus a span-style trace-event
//! channel, built around one non-negotiable property: **the exported
//! campaign snapshot is bit-identical for any worker count and across a
//! kill→resume cycle**. The same discipline the engine applies to its
//! result aggregation (`UniqueIpAggregator::merge`: per-shard collection,
//! canonical shard-order merge) is applied to telemetry.
//!
//! # Architecture
//!
//! Three storage classes, chosen by what each metric may legally depend
//! on:
//!
//! * **Thread-local sinks** (plain `Cell` counters, a fixed-capacity
//!   trace buffer, one TTL histogram). The resolve hot path writes here:
//!   no atomics, no locks, no allocation. A shard closure calls
//!   [`shard_reset`] on entry and [`shard_take`] on exit; the engine
//!   absorbs the taken [`ShardObs`] into a [`CampaignObs`] in canonical
//!   shard order. Because shards partition probes contiguously, the
//!   merged stream is in probe order regardless of which worker ran
//!   which shard.
//! * **Campaign accumulators** ([`CampaignObs`]): counters the engine
//!   adds at its own merge point (memo stats, round events). These are
//!   deterministic by construction.
//! * **Process globals** (atomics): scheduler- and wall-clock-shaped
//!   facts (dispatch counts, shard walls, checkpoint costs) that *must
//!   not* participate in determinism contracts. They are exported
//!   flagged `"det":false` so CI can strip them with one `grep -v`.
//!
//! # Counter classes
//!
//! Counter ids `0..N_DET` (rounds through cache expiries) are the
//! **deterministic class**: equal across thread counts and across
//! kill→resume (the engine checkpoints them).
//! Ids `N_DET..N_COUNTERS` are the **process class**: still collected
//! per-shard and merged canonically, but not checkpointed, so they
//! restart at zero on resume, and some legitimately depend on shard
//! layout (bailiwick drops scale with the fresh-vs-memoized query mix).
//!
//! # Overhead budget
//!
//! The hot-path cost is one relaxed atomic load (the enable gate) plus a
//! handful of `Cell` increments per resolution, well under the 2% budget.
//! `bench_campaigns` reports the measured overhead of the enabled path
//! against the disabled path ([`set_enabled`]), and gates that the
//! record path allocates nothing: a campaign window must count the same
//! heap allocations with recording on and off.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Number of deterministic-class counters (ids `0..N_DET`).
pub const N_DET: usize = 19;
/// Total number of campaign counters (deterministic + process class).
pub const N_COUNTERS: usize = 25;
/// Number of process-global atomic counters.
pub const N_GLOBALS: usize = 3;
/// Number of process-global wall-time histograms.
pub const N_GHISTS: usize = 3;
/// Number of process-global gauges.
pub const N_GAUGES: usize = 1;

/// Capacity of one shard's trace buffer. The buffer saturates (drops the
/// newest events) rather than wrapping: overwrite-oldest would make the
/// surviving window depend on shard sizes and hence on the worker count.
/// Drops are counted in [`id::SHARD_EVENTS_DROPPED`] (process class).
pub const EVENTS_SHARD_CAP: usize = 4096;
/// Capacity of the merged campaign trace. Saturates deterministically in
/// canonical merge order; drops are counted in [`id::TRACE_DROPPED`]
/// (deterministic class — every run drops the same events).
pub const EVENTS_CAMPAIGN_CAP: usize = 16384;

/// Campaign counter ids. `0..N_DET` are deterministic class.
pub mod id {
    /// Campaign rounds completed.
    pub const ROUNDS: u16 = 0;
    /// Probe resolutions performed.
    pub const RESOLUTIONS: u16 = 1;
    /// Resolution attempts including retries.
    pub const ATTEMPTS: u16 = 2;
    /// Resolutions that exhausted the retry budget.
    pub const RETRY_EXHAUSTED: u16 = 3;
    /// Cross-shard memo lookups at the canonical merge.
    pub const MEMO_LOOKUPS: u16 = 4;
    /// Cross-shard memo lookups answered by another probe's work.
    pub const MEMO_HITS: u16 = 5;
    /// Per-probe resolver cache hits.
    pub const CACHE_HITS: u16 = 6;
    /// Per-probe resolver cache misses (absent or expired).
    pub const CACHE_MISSES: u16 = 7;
    /// Per-probe resolver cache insertions (positive and negative).
    pub const CACHE_PUTS: u16 = 8;
    /// Injected SERVFAIL upstream faults observed by the resolver.
    pub const FAULT_SERVFAIL: u16 = 9;
    /// Injected timeout upstream faults observed by the resolver.
    pub const FAULT_TIMEOUT: u16 = 10;
    /// Spoofed-answer tamperings applied to responses.
    pub const TAMPER_SPOOF_A: u16 = 11;
    /// Injected-delegation tamperings applied to responses.
    pub const TAMPER_INJECT_NS: u16 = 12;
    /// Truncation tamperings applied to responses.
    pub const TAMPER_TRUNCATE: u16 = 13;
    /// TTL-inflation tamperings applied to responses.
    pub const TAMPER_INFLATE_TTL: u16 = 14;
    /// CDN health-tracker ejection transitions.
    pub const HEALTH_EJECTIONS: u16 = 15;
    /// CDN health-tracker restoration transitions.
    pub const HEALTH_RESTORATIONS: u16 = 16;
    /// Trace events dropped at the campaign cap (deterministic).
    pub const TRACE_DROPPED: u16 = 17;
    /// Cache misses whose entry was present but expired. Each probe's
    /// cache is consulted before the memo, so the count does not depend
    /// on the shard layout; the miss evicts the entry, and an evicted
    /// entry is not exported, so a later lookup of it is a plain miss in
    /// an uninterrupted run and a resumed one alike.
    pub const CACHE_EXPIRED: u16 = 18;

    /// Out-of-bailiwick records dropped from fresh upstream answers
    /// (process class: memoized answers were filtered before storage, so
    /// the count scales with the fresh-vs-memoized mix per shard).
    pub const BAILIWICK_DROPS: u16 = 19;
    /// Resolver queries answered from the cross-shard memo (process
    /// class: shard-local by nature).
    pub const MEMO_REPLAYS: u16 = 20;
    /// Always 0. The campaign engine recomputes every resolution; this
    /// id and the next two counted the retired cross-round replay
    /// engine's replays, invalidations and records, and stay (with
    /// their export names) while the benchmark still reads them.
    pub const REUSE_REPLAYS: u16 = 21;
    /// Always 0 (see [`REUSE_REPLAYS`]).
    pub const REUSE_INVALIDATIONS: u16 = 22;
    /// Always 0 (see [`REUSE_REPLAYS`]).
    pub const REUSE_RECORDS: u16 = 23;
    /// Trace events dropped at a shard buffer cap.
    pub const SHARD_EVENTS_DROPPED: u16 = 24;
}

/// Trace event kinds.
pub mod event {
    /// One campaign round finished its canonical merge. `key` = round
    /// index, `value` = cumulative resolutions, `t` = round sim-time.
    pub const ROUND_COMPLETED: u16 = 0;
    /// A probe exhausted its retry budget. `key` = probe id.
    pub const RETRY_EXHAUSTED: u16 = 1;
}

/// Process-global counter ids (never part of determinism contracts).
pub mod global {
    /// Closures dispatched to the persistent worker pool.
    pub const DISPATCHES: u16 = 0;
    /// Shard closures that panicked.
    pub const SHARD_PANICS: u16 = 1;
    /// Campaign checkpoints appended to a journal.
    pub const CHECKPOINT_WRITES: u16 = 2;
}

/// Process-global histogram ids (wall-clock shaped).
pub mod ghist {
    /// Wall time of one pool dispatch (µs).
    pub const DISPATCH_WALL_US: u16 = 0;
    /// Wall time of one campaign round (µs).
    pub const ROUND_WALL_US: u16 = 1;
    /// Wall time of one checkpoint encode+append (µs).
    pub const CHECKPOINT_WALL_US: u16 = 2;
}

/// Process-global gauge ids.
pub mod gauge {
    /// Worker threads currently spawned by the persistent pool.
    pub const POOL_WORKERS: u16 = 0;
}

/// Export names for campaign counters, indexed by counter id.
pub const COUNTER_NAMES: [&str; N_COUNTERS] = [
    "campaign.rounds",
    "campaign.resolutions",
    "campaign.attempts",
    "campaign.retry_exhausted",
    "campaign.memo_lookups",
    "campaign.memo_hits",
    "dnssim.cache_hits",
    "dnssim.cache_misses",
    "dnssim.cache_puts",
    "dnssim.fault_servfail",
    "dnssim.fault_timeout",
    "dnssim.tamper_spoof_a",
    "dnssim.tamper_inject_ns",
    "dnssim.tamper_truncate",
    "dnssim.tamper_inflate_ttl",
    "health.ejections",
    "health.restorations",
    "obs.trace_dropped",
    "dnssim.cache_expired",
    "dnssim.bailiwick_drops",
    "dnssim.memo_replays",
    "reuse.replays",
    "reuse.invalidations",
    "reuse.records",
    "obs.shard_events_dropped",
];

/// Export names for trace event kinds.
pub const EVENT_NAMES: [&str; 2] = ["round.completed", "retry.exhausted"];

/// Export names for process-global counters.
pub const GLOBAL_NAMES: [&str; N_GLOBALS] =
    ["exec.dispatches", "exec.shard_panics", "journal.checkpoint_writes"];

/// Export names for process-global histograms.
pub const GHIST_NAMES: [&str; N_GHISTS] =
    ["exec.dispatch_wall_us", "campaign.round_wall_us", "campaign.checkpoint_wall_us"];

/// Export names for process-global gauges.
pub const GAUGE_NAMES: [&str; N_GAUGES] = ["exec.pool_workers"];

/// Name of the thread-local TTL histogram (process class).
pub const TTL_HIST_NAME: &str = "dnssim.put_ttl_secs";

/// One trace event. 24 bytes, `Copy`, no payload allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event kind (see [`event`]).
    pub kind: u16,
    /// Simulation time in seconds.
    pub t: u64,
    /// Kind-specific subject (probe id, round index, ...).
    pub key: u32,
    /// Kind-specific magnitude.
    pub value: u64,
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

const HIST_BUCKETS: usize = 64;

/// Returns the log₂ bucket index of `v`: 0 for 0, otherwise
/// `bit-width of v`, clamped to the last bucket.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// A log₂-bucketed histogram. Merging is element-wise addition, which is
/// commutative and associative — the property the shard-merge proptest
/// pins — so any merge order yields the same histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Hist {
        Hist { buckets: [0; HIST_BUCKETS], count: 0, sum: 0 }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    /// Adds `other` into `self` element-wise.
    pub fn merge(&mut self, other: &Hist) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += *o;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// The histogram of observations made since `earlier` was sampled
    /// (element-wise subtraction; both must share a monotonic origin).
    fn since(&self, earlier: &Hist) -> Hist {
        let mut out = Hist::new();
        for ((o, a), b) in out.buckets.iter_mut().zip(self.buckets.iter()).zip(earlier.buckets.iter()) {
            *o = *a - *b;
        }
        out.count = self.count - earlier.count;
        out.sum = self.sum.wrapping_sub(earlier.sum);
        out
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (wrapping).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The raw bucket array.
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }
}

impl Default for Hist {
    fn default() -> Hist {
        Hist::new()
    }
}

// ---------------------------------------------------------------------------
// Enable gate
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether recording is currently enabled (it starts enabled).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables or disables all recording at runtime. Flip it between
/// campaigns (as the bench's overhead A/B does): a campaign recorded
/// partly disabled exports partial counts.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Thread-local sink
// ---------------------------------------------------------------------------

/// The per-thread sink. Deliberately **plain old data** (`Cell` arrays,
/// no `RefCell<Vec>`): a const-initialized thread-local without a
/// destructor compiles to a direct thread-local access, where one with
/// drop glue pays a registration check on every `with` — measurable on
/// a hot path that records several counters per cache operation.
struct Sink {
    counters: [Cell<u64>; N_COUNTERS],
    ttl_buckets: [Cell<u64>; HIST_BUCKETS],
    ttl_count: Cell<u64>,
    ttl_sum: Cell<u64>,
    events: [Cell<TraceEvent>; EVENTS_SHARD_CAP],
    events_len: Cell<usize>,
}

impl Sink {
    const fn new() -> Sink {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: Cell<u64> = Cell::new(0);
        #[allow(clippy::declare_interior_mutable_const)]
        const NO_EVENT: Cell<TraceEvent> =
            Cell::new(TraceEvent { kind: 0, t: 0, key: 0, value: 0 });
        Sink {
            counters: [ZERO; N_COUNTERS],
            ttl_buckets: [ZERO; HIST_BUCKETS],
            ttl_count: Cell::new(0),
            ttl_sum: Cell::new(0),
            events: [NO_EVENT; EVENTS_SHARD_CAP],
            events_len: Cell::new(0),
        }
    }

    /// Adds `n` to counter `id`.
    #[inline]
    fn bump(&self, id: u16, n: u64) {
        let c = &self.counters[id as usize];
        c.set(c.get() + n);
    }

    /// Observes one TTL sample into the thread-local histogram.
    #[inline]
    fn observe_ttl(&self, secs: u64) {
        let b = &self.ttl_buckets[bucket_of(secs)];
        b.set(b.get() + 1);
        self.ttl_count.set(self.ttl_count.get() + 1);
        self.ttl_sum.set(self.ttl_sum.get().wrapping_add(secs));
    }
}

thread_local! {
    static SINK: Sink = const { Sink::new() };
}

/// Adds `n` to campaign counter `id` in this thread's sink.
#[inline]
pub fn record(id: u16, n: u64) {
    if enabled() {
        SINK.with(|s| s.bump(id, n));
    }
}

/// Appends a trace event to this thread's buffer; saturates at
/// [`EVENTS_SHARD_CAP`], counting drops in [`id::SHARD_EVENTS_DROPPED`].
#[inline]
pub fn trace(kind: u16, t: u64, key: u32, value: u64) {
    if enabled() {
        SINK.with(|s| {
            let len = s.events_len.get();
            if len < EVENTS_SHARD_CAP {
                s.events[len].set(TraceEvent { kind, t, key, value });
                s.events_len.set(len + 1);
            } else {
                s.bump(id::SHARD_EVENTS_DROPPED, 1);
            }
        });
    }
}

/// Records one cache-insertion TTL (seconds) into this thread's
/// histogram.
#[inline]
pub fn ttl_observe(secs: u64) {
    if enabled() {
        SINK.with(|s| s.observe_ttl(secs));
    }
}

/// Records one cache insertion: bumps [`id::CACHE_PUTS`] and observes
/// the effective TTL, in a single sink access — the fused form of
/// `record(CACHE_PUTS, 1)` + [`ttl_observe`] for the put hot path.
#[inline]
pub fn record_put(ttl_secs: u64) {
    if enabled() {
        SINK.with(|s| {
            s.bump(id::CACHE_PUTS, 1);
            s.observe_ttl(ttl_secs);
        });
    }
}

/// Zeroes this thread's sink. Shard closures call this on entry so a
/// pool worker reused across rounds or campaigns starts clean.
pub fn shard_reset() {
    SINK.with(|s| {
        for c in s.counters.iter().chain(&s.ttl_buckets) {
            c.set(0);
        }
        s.ttl_count.set(0);
        s.ttl_sum.set(0);
        s.events_len.set(0);
    });
}

/// Takes this thread's sink contents (counters, trace buffer, TTL
/// histogram) for canonical merging by the engine.
pub fn shard_take() -> ShardObs {
    SINK.with(|s| {
        let mut counters = [0u64; N_COUNTERS];
        for (o, c) in counters.iter_mut().zip(s.counters.iter()) {
            *o = c.get();
        }
        let mut ttl = Hist::new();
        for (o, b) in ttl.buckets.iter_mut().zip(s.ttl_buckets.iter()) {
            *o = b.get();
        }
        ttl.count = s.ttl_count.get();
        ttl.sum = s.ttl_sum.get();
        let events = s.events[..s.events_len.get()].iter().map(Cell::get).collect();
        s.events_len.set(0);
        ShardObs { counters, events, ttl }
    })
}

/// One shard's collected telemetry, produced by [`shard_take`] and
/// absorbed by [`CampaignObs::absorb`] in canonical shard order.
#[derive(Debug, Clone, Default)]
pub struct ShardObs {
    counters: [u64; N_COUNTERS],
    events: Vec<TraceEvent>,
    ttl: Hist,
}

// ---------------------------------------------------------------------------
// Process globals
// ---------------------------------------------------------------------------

#[allow(clippy::declare_interior_mutable_const)]
const ATOMIC_ZERO: AtomicU64 = AtomicU64::new(0);

static GLOBALS: [AtomicU64; N_GLOBALS] = [ATOMIC_ZERO; N_GLOBALS];
static GAUGES: [AtomicU64; N_GAUGES] = [ATOMIC_ZERO; N_GAUGES];

struct AtomicHist {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const ATOMIC_HIST_ZERO: AtomicHist =
    AtomicHist { buckets: [ATOMIC_ZERO; HIST_BUCKETS], count: ATOMIC_ZERO, sum: ATOMIC_ZERO };

static GHISTS: [AtomicHist; N_GHISTS] = [ATOMIC_HIST_ZERO; N_GHISTS];

/// Adds `n` to process-global counter `id` (see [`global`]).
#[inline]
pub fn global_add(id: u16, n: u64) {
    if enabled() {
        GLOBALS[id as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Records one observation into process-global histogram `id`.
#[inline]
pub fn global_hist(id: u16, v: u64) {
    if enabled() {
        let h = &GHISTS[id as usize];
        h.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed);
    }
}

/// Sets process-global gauge `id` to `v`.
#[inline]
pub fn gauge_set(id: u16, v: u64) {
    if enabled() {
        GAUGES[id as usize].store(v, Ordering::Relaxed);
    }
}

fn sample_globals() -> [u64; N_GLOBALS] {
    let mut out = [0u64; N_GLOBALS];
    for (o, g) in out.iter_mut().zip(GLOBALS.iter()) {
        *o = g.load(Ordering::Relaxed);
    }
    out
}

fn sample_ghists() -> [Hist; N_GHISTS] {
    std::array::from_fn(|i| {
        let h = &GHISTS[i];
        let mut out = Hist::new();
        for (o, b) in out.buckets.iter_mut().zip(h.buckets.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out.count = h.count.load(Ordering::Relaxed);
        out.sum = h.sum.load(Ordering::Relaxed);
        out
    })
}

// ---------------------------------------------------------------------------
// Campaign accumulator and snapshot
// ---------------------------------------------------------------------------

/// Accumulates one campaign's telemetry: shard sinks absorbed in
/// canonical order, engine-side deterministic adds, and a baseline of
/// the process globals so the final snapshot reports campaign-relative
/// deltas.
#[derive(Debug)]
pub struct CampaignObs {
    counters: [u64; N_COUNTERS],
    events: Vec<TraceEvent>,
    ttl: Hist,
    g0: [u64; N_GLOBALS],
    h0: [Hist; N_GHISTS],
}

impl CampaignObs {
    /// Starts collection: resets the calling thread's sink (the inline
    /// single-thread engine runs shard closures right here) and samples
    /// the process globals.
    pub fn begin() -> CampaignObs {
        shard_reset();
        CampaignObs {
            counters: [0; N_COUNTERS],
            events: Vec::new(),
            ttl: Hist::new(),
            g0: sample_globals(),
            h0: sample_ghists(),
        }
    }

    /// Absorbs one shard's telemetry. Call in canonical shard order:
    /// counters and histograms are order-free sums, but the trace is a
    /// concatenation and shards partition probes contiguously, so
    /// shard-order absorption yields probe-order events.
    pub fn absorb(&mut self, shard: ShardObs) {
        for (c, s) in self.counters.iter_mut().zip(shard.counters.iter()) {
            *c += *s;
        }
        self.ttl.merge(&shard.ttl);
        for e in shard.events {
            self.push_event(e);
        }
    }

    /// Adds `n` to campaign counter `id` directly (engine-side merge
    /// counters such as memo stats).
    pub fn add(&mut self, id: u16, n: u64) {
        self.counters[id as usize] += n;
    }

    /// Appends a deterministic trace event at the campaign level.
    pub fn event(&mut self, kind: u16, t: u64, key: u32, value: u64) {
        self.push_event(TraceEvent { kind, t, key, value });
    }

    fn push_event(&mut self, e: TraceEvent) {
        if self.events.len() < EVENTS_CAMPAIGN_CAP {
            self.events.push(e);
        } else {
            self.counters[id::TRACE_DROPPED as usize] += 1;
        }
    }

    /// The deterministic counter prefix, for checkpointing.
    pub fn det_counters(&self) -> [u64; N_DET] {
        let mut out = [0u64; N_DET];
        out.copy_from_slice(&self.counters[..N_DET]);
        out
    }

    /// The accumulated trace, for checkpointing.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Restores deterministic state from a checkpoint: the det counter
    /// prefix and the trace. Process-class counters deliberately stay at
    /// zero — they describe the work of the resumed process only.
    pub fn restore(&mut self, det: &[u64], events: Vec<TraceEvent>) {
        let n = det.len().min(N_DET);
        self.counters[..n].copy_from_slice(&det[..n]);
        self.events = events;
    }

    /// Finalizes the campaign: samples the process globals again and
    /// packages everything into an immutable [`MetricsSnapshot`].
    pub fn finish(self) -> MetricsSnapshot {
        let g1 = sample_globals();
        let h1 = sample_ghists();
        let mut globals = [0u64; N_GLOBALS];
        for (i, o) in globals.iter_mut().enumerate() {
            *o = g1[i] - self.g0[i];
        }
        let ghists = std::array::from_fn(|i| h1[i].since(&self.h0[i]));
        let mut gauges = [0u64; N_GAUGES];
        for (o, g) in gauges.iter_mut().zip(GAUGES.iter()) {
            *o = g.load(Ordering::Relaxed);
        }
        MetricsSnapshot { counters: self.counters, events: self.events, ttl: self.ttl, globals, ghists, gauges }
    }
}

/// An immutable end-of-campaign snapshot: campaign counters and trace,
/// the TTL histogram, and campaign-relative deltas of the process
/// globals. Exported as self-describing JSON lines.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    counters: [u64; N_COUNTERS],
    events: Vec<TraceEvent>,
    ttl: Hist,
    globals: [u64; N_GLOBALS],
    ghists: [Hist; N_GHISTS],
    gauges: [u64; N_GAUGES],
}

impl MetricsSnapshot {
    /// Value of campaign counter `id` (deterministic or process class).
    pub fn counter(&self, id: u16) -> u64 {
        self.counters[id as usize]
    }

    /// Campaign-relative value of process-global counter `id`.
    pub fn global(&self, id: u16) -> u64 {
        self.globals[id as usize]
    }

    /// Campaign-relative process-global histogram `id`.
    pub fn global_hist(&self, id: u16) -> &Hist {
        &self.ghists[id as usize]
    }

    /// Current value of process-global gauge `id`.
    pub fn gauge(&self, id: u16) -> u64 {
        self.gauges[id as usize]
    }

    /// The cache-insertion TTL histogram (process class).
    pub fn ttl_hist(&self) -> &Hist {
        &self.ttl
    }

    /// The campaign trace in canonical order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The deterministic export: schema header, deterministic-class
    /// counters in registry order, then the trace. Byte-identical across
    /// worker counts and kill→resume.
    pub fn det_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"schema\":\"mcdn-obs-v1\",\"kind\":\"meta\",\"n_det\":{},\"n_counters\":{}}}\n",
            N_DET, N_COUNTERS
        ));
        for (name, v) in COUNTER_NAMES.iter().zip(self.counters.iter()).take(N_DET) {
            out.push_str(&format!("{{\"kind\":\"counter\",\"name\":\"{name}\",\"value\":{v}}}\n"));
        }
        for e in &self.events {
            out.push_str(&format!(
                "{{\"kind\":\"event\",\"name\":\"{}\",\"t\":{},\"key\":{},\"value\":{}}}\n",
                EVENT_NAMES[e.kind as usize], e.t, e.key, e.value
            ));
        }
        out
    }

    /// The full export: the deterministic lines of [`det_jsonl`](Self::det_jsonl)
    /// followed by process-class counters, process-global counters,
    /// histograms, and gauges, each line flagged `"det":false` so
    /// `grep -v '"det":false'` recovers the deterministic subset.
    pub fn jsonl(&self) -> String {
        let mut out = self.det_jsonl();
        for (name, v) in COUNTER_NAMES.iter().zip(self.counters.iter()).skip(N_DET) {
            out.push_str(&format!(
                "{{\"kind\":\"counter\",\"name\":\"{name}\",\"value\":{v},\"det\":false}}\n"
            ));
        }
        for (name, v) in GLOBAL_NAMES.iter().zip(self.globals.iter()) {
            out.push_str(&format!(
                "{{\"kind\":\"counter\",\"name\":\"{name}\",\"value\":{v},\"det\":false}}\n"
            ));
        }
        out.push_str(&hist_line(TTL_HIST_NAME, &self.ttl));
        for (name, h) in GHIST_NAMES.iter().zip(self.ghists.iter()) {
            out.push_str(&hist_line(name, h));
        }
        for (name, v) in GAUGE_NAMES.iter().zip(self.gauges.iter()) {
            out.push_str(&format!(
                "{{\"kind\":\"gauge\",\"name\":\"{name}\",\"value\":{v},\"det\":false}}\n"
            ));
        }
        out
    }
}

fn hist_line(name: &str, h: &Hist) -> String {
    let mut buckets = String::new();
    for (i, &c) in h.buckets.iter().enumerate() {
        if c != 0 {
            if !buckets.is_empty() {
                buckets.push(',');
            }
            buckets.push_str(&format!("[{i},{c}]"));
        }
    }
    format!(
        "{{\"kind\":\"hist\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"buckets\":[{}],\"det\":false}}\n",
        name,
        h.count(),
        h.sum(),
        buckets
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that toggle the process-global enable gate.
    static GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn bucket_of_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn hist_merge_is_commutative_and_associative() {
        let mk = |vals: &[u64]| {
            let mut h = Hist::new();
            for &v in vals {
                h.observe(v);
            }
            h
        };
        let (a, b, c) = (mk(&[0, 1, 7, 300]), mk(&[2, 2, 9000]), mk(&[u64::MAX, 5]));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
    }

    #[test]
    fn record_and_take_roundtrip() {
        let _g = GATE.lock().unwrap();
        set_enabled(true);
        shard_reset();
        record(id::CACHE_HITS, 2);
        record(id::CACHE_HITS, 3);
        record(id::CACHE_PUTS, 1);
        let taken = shard_take();
        assert_eq!(taken.counters[id::CACHE_HITS as usize], 5);
        assert_eq!(taken.counters[id::CACHE_PUTS as usize], 1);
    }

    #[test]
    fn disabled_gate_suppresses_recording() {
        let _g = GATE.lock().unwrap();
        set_enabled(true);
        shard_reset();
        set_enabled(false);
        record(id::CACHE_HITS, 7);
        trace(event::RETRY_EXHAUSTED, 1, 2, 3);
        ttl_observe(60);
        global_add(global::DISPATCHES, 1);
        set_enabled(true);
        let taken = shard_take();
        assert_eq!(taken.counters, [0; N_COUNTERS]);
        assert!(taken.events.is_empty());
        assert_eq!(taken.ttl.count(), 0);
    }

    #[test]
    fn shard_trace_saturates_with_drop_counter() {
        let _g = GATE.lock().unwrap();
        set_enabled(true);
        shard_reset();
        for i in 0..(EVENTS_SHARD_CAP + 3) {
            trace(event::RETRY_EXHAUSTED, i as u64, 0, 0);
        }
        let taken = shard_take();
        assert_eq!(taken.events.len(), EVENTS_SHARD_CAP);
        assert_eq!(taken.counters[id::SHARD_EVENTS_DROPPED as usize], 3);
    }

    #[test]
    fn campaign_absorb_merges_in_order() {
        let _g = GATE.lock().unwrap();
        set_enabled(true);
        let mut obs = CampaignObs::begin();
        let mut a = ShardObs::default();
        a.counters[id::RESOLUTIONS as usize] = 2;
        a.events.push(TraceEvent { kind: event::RETRY_EXHAUSTED, t: 10, key: 1, value: 0 });
        let mut b = ShardObs::default();
        b.counters[id::RESOLUTIONS as usize] = 3;
        b.events.push(TraceEvent { kind: event::RETRY_EXHAUSTED, t: 10, key: 9, value: 0 });
        obs.absorb(a);
        obs.absorb(b);
        obs.add(id::MEMO_LOOKUPS, 5);
        obs.event(event::ROUND_COMPLETED, 10, 0, 5);
        assert_eq!(obs.det_counters()[id::RESOLUTIONS as usize], 5);
        let snap = obs.finish();
        assert_eq!(snap.counter(id::RESOLUTIONS), 5);
        assert_eq!(snap.counter(id::MEMO_LOOKUPS), 5);
        let keys: Vec<u32> = snap.events().iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![1, 9, 0]);
    }

    #[test]
    fn restore_rehydrates_det_prefix_only() {
        let _g = GATE.lock().unwrap();
        set_enabled(true);
        let mut obs = CampaignObs::begin();
        let mut det = [0u64; N_DET];
        det[id::ROUNDS as usize] = 4;
        det[id::CACHE_HITS as usize] = 99;
        obs.restore(&det, vec![TraceEvent { kind: event::ROUND_COMPLETED, t: 7, key: 3, value: 12 }]);
        let snap = obs.finish();
        assert_eq!(snap.counter(id::ROUNDS), 4);
        assert_eq!(snap.counter(id::CACHE_HITS), 99);
        assert_eq!(snap.counter(id::BAILIWICK_DROPS), 0, "process class restarts at zero");
        assert_eq!(snap.events().len(), 1);
    }

    #[test]
    fn det_export_is_prefix_of_full_export() {
        let _g = GATE.lock().unwrap();
        set_enabled(true);
        let mut obs = CampaignObs::begin();
        obs.add(id::ROUNDS, 2);
        obs.add(id::BAILIWICK_DROPS, 1);
        obs.event(event::ROUND_COMPLETED, 3600, 0, 40);
        let snap = obs.finish();
        let det = snap.det_jsonl();
        let full = snap.jsonl();
        assert!(full.starts_with(&det));
        assert!(det.contains("\"name\":\"campaign.rounds\",\"value\":2"));
        assert!(!det.contains("\"det\":false"));
        let stripped: String =
            full.lines().filter(|l| !l.contains("\"det\":false")).map(|l| format!("{l}\n")).collect();
        assert_eq!(stripped, det, "grep -v det:false must recover the det export");
        assert!(full.contains("\"name\":\"dnssim.bailiwick_drops\",\"value\":1,\"det\":false"));
        assert!(full.contains("\"name\":\"dnssim.put_ttl_secs\""));
    }

    #[test]
    fn campaign_trace_saturates_deterministically() {
        let _g = GATE.lock().unwrap();
        set_enabled(true);
        let mut obs = CampaignObs::begin();
        for i in 0..(EVENTS_CAMPAIGN_CAP + 5) {
            obs.event(event::ROUND_COMPLETED, i as u64, 0, 0);
        }
        assert_eq!(obs.events().len(), EVENTS_CAMPAIGN_CAP);
        assert_eq!(obs.det_counters()[id::TRACE_DROPPED as usize], 5);
    }
}
