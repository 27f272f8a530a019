//! The DNS measurement campaigns (global fleet and in-ISP fleet).
//!
//! Campaign rounds run on the deterministic parallel engine
//! (`mcdn-exec`): each round captures one immutable
//! [`MappingSnapshot`](metacdn::MappingSnapshot) of the controller,
//! splits the fleet into contiguous shards, resolves concurrently with a
//! shard-local per-round [`IRoundMemo`], and merges the shard partials in
//! canonical probe order — so the result is bit-identical for any thread
//! count, faults on or off.

use crate::checkpoint::{
    CampaignError, CampaignJournal, CampaignRun, Checkpoint, ProbeCache, ResumeOptions,
};
use crate::classes::{
    attribute_interned, classify_ip_from_origin, AttributionTable, CdnClass, DnsAttribution,
};
use crate::config::ScenarioConfig;
use crate::loads::update_loads;
use crate::params;
use crate::world::World;
use mcdn_atlas::{build_fleet, Availability, UniqueIpAggregator};
use mcdn_dnssim::{
    attacker_ns, attacker_owner, BailiwickPolicy, CompiledNamespace, IMemoKey, IRoundMemo, ITamper,
    InternedFaultModel, InternedMutationModel, QueryContext, ResolveScratch, UpstreamFault,
    MAX_CACHE_TTL,
};
use mcdn_dnswire::{Name, RecordType};
use mcdn_faults::{AnswerMutation, FaultDraws, FaultProfile, Fnv64, QueryFault, RetryPolicy};
use mcdn_geo::{Continent, Duration, Region, SimTime};
use mcdn_intern::{FnvBuildHasher, NameId, NameTable};
use mcdn_netsim::{AsId, FlatLpm};
use metacdn::CdnKind;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::path::Path;
use std::sync::Arc;

/// Output of one DNS campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct DnsCampaignResult {
    /// Unique cache IPs per (time bin, probe continent, CDN class) — the
    /// Figure 4 / Figure 5 series.
    pub unique_ips: UniqueIpAggregator<Continent, CdnClass>,
    /// Every observed address with its classification — the cross-
    /// correlation input for the ISP traffic analysis (§5.3: "we select all
    /// CDN server IPs observed in RIPE Atlas DNS measurements"). An address
    /// observed under several classes keeps the deterministic winner
    /// decided by [`IpClassLedger`] (latest observation wins, ties broken
    /// by class order), independent of probe-processing order.
    pub ip_classes: HashMap<Ipv4Addr, CdnClass>,
    /// Resolutions performed (one per online probe per round, as before
    /// fault injection existed — retries do not inflate this).
    pub resolutions: u64,
    /// Resolution attempts including retries; equals `resolutions` when no
    /// faults fire.
    pub attempts: u64,
    /// Measurements that still ended in a transient failure (SERVFAIL or
    /// timeout) after exhausting their retry budget.
    pub retry_exhausted: u64,
    /// Lookups of memoizable zone answers (see
    /// [`IRoundMemo`]); canonical — independent of the thread count.
    pub memo_lookups: u64,
    /// Memoizable lookups that a single-shard engine would have served
    /// from the per-round memo (`memo_lookups − distinct keys`); canonical.
    pub memo_hits: u64,
}

/// Order-independent accumulator for `address → CDN class` observations.
///
/// An address reclassified across rounds (e.g. an Akamai cache absorbed
/// into the a1015 event map) used to keep whichever insert ran last —
/// an order the parallel merge must not depend on. The ledger defines the
/// deterministic winner instead: the observation with the **latest
/// [`SimTime`] wins; same-instant conflicts break by [`CdnClass`]
/// ordering**. `max((t, class))` is commutative and associative, so
/// merging shard ledgers in any order equals observing serially.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IpClassLedger {
    seen: HashMap<Ipv4Addr, (SimTime, CdnClass), FnvBuildHasher>,
}

impl IpClassLedger {
    /// An empty ledger.
    pub fn new() -> IpClassLedger {
        IpClassLedger::default()
    }

    /// Records that `ip` was classified as `class` at `t`.
    pub fn observe(&mut self, ip: Ipv4Addr, t: SimTime, class: CdnClass) {
        let candidate = (t, class);
        let entry = self.seen.entry(ip).or_insert(candidate);
        if candidate > *entry {
            *entry = candidate;
        }
    }

    /// Merges another ledger's observations into this one.
    pub fn merge(&mut self, other: IpClassLedger) {
        for (ip, (t, class)) in other.seen {
            self.observe(ip, t, class);
        }
    }

    /// The winning classification per address.
    pub fn into_classes(self) -> HashMap<Ipv4Addr, CdnClass> {
        self.seen.into_iter().map(|(ip, (_, class))| (ip, class)).collect()
    }

    /// Every observation in canonical (address) order — the ledger's
    /// checkpoint export. Feeding the entries back through
    /// [`observe`](Self::observe) rebuilds an identical ledger.
    pub fn entries(&self) -> Vec<(Ipv4Addr, SimTime, CdnClass)> {
        let mut out: Vec<(Ipv4Addr, SimTime, CdnClass)> =
            self.seen.iter().map(|(&ip, &(t, class))| (ip, t, class)).collect();
        out.sort_unstable_by_key(|&(ip, _, _)| u32::from(ip));
        out
    }

    /// Number of distinct addresses observed.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }
}

impl DnsCampaignResult {
    /// Fraction of measurements that produced a usable resolution, in
    /// `[0, 1]` — the campaign's coverage annotation.
    pub fn success_fraction(&self) -> f64 {
        if self.resolutions == 0 {
            1.0
        } else {
            (self.resolutions - self.retry_exhausted) as f64 / self.resolutions as f64
        }
    }
}

/// Which DNS campaign to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Campaign {
    /// The worldwide campaign (Figure 4): `cfg.global_probes` probes
    /// resolving the entry name every `cfg.global_dns_interval` from
    /// `cfg.global_start` to `cfg.global_end`, binned hourly.
    Global,
    /// The in-ISP campaign (Figure 5): `cfg.isp_probes` probes inside the
    /// Eyeball ISP resolving every `cfg.isp_dns_interval` from
    /// `cfg.isp_start` to `cfg.isp_end`, binned daily.
    Isp,
}

/// Everything a plain campaign run measured.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The measurement output, identical for any thread count.
    pub result: DnsCampaignResult,
    /// The deterministic counter registry, trace events, and
    /// per-campaign process-global deltas. Its deterministic portion is
    /// bit-identical for any thread count, like the result.
    pub metrics: mcdn_obs::MetricsSnapshot,
    /// The wall-clock time of every shard execution, round-major in
    /// canonical shard order: side-band load-balance telemetry that never
    /// feeds back into the result.
    pub shard_walls: Vec<std::time::Duration>,
}

/// Which operator's live load a zone's fault odds couple to, decided once
/// per interned name by [`load_class`].
#[derive(Debug, Clone, Copy)]
enum LoadClass {
    Akamai,
    Limelight,
    Level3,
    Apple,
    Idle,
}

/// The operator a zone belongs to, judged from its display form: the
/// Akamai names (`akadns`, `akamai`, `edgesuite`) first, then Limelight
/// (`llnw`), Level3 (`lvl3`) and Apple (`apple`, `applimg`); anything else
/// is idle (baseline fault rates still apply).
fn load_class(name: &Name) -> LoadClass {
    let z = name.to_string();
    if z.contains("akadns") || z.contains("akamai") || z.contains("edgesuite") {
        LoadClass::Akamai
    } else if z.contains("llnw") {
        LoadClass::Limelight
    } else if z.contains("lvl3") {
        LoadClass::Level3
    } else if z.contains("apple") || z.contains("applimg") {
        LoadClass::Apple
    } else {
        LoadClass::Idle
    }
}

/// The fault key of one query: the query name's display-FNV digest,
/// resumed ([`Fnv64::with_state`]) to fold in the client address.
fn query_key(qname_fnv: u64, ctx: &QueryContext) -> u64 {
    let mut qh = Fnv64::with_state(qname_fnv);
    qh.update(&ctx.client_ip.octets());
    qh.finish()
}

/// Adapts the scenario's compiled [`FaultDraws`] to the resolver's fault
/// hook, coupling each zone's SERVFAIL odds to the live load of the
/// operator behind it (Apple's zones fail more while Apple's edge is
/// slammed, the Akamai-operated zones while Akamai's pool is hot —
/// "load-dependent SERVFAIL from overloaded authoritative zones"). Zone
/// load classes are precomputed per [`NameId`] and the fault keys are
/// derived from the resolver-supplied display-FNV digests, so a fault
/// decision formats and allocates nothing, and a profile with no DNS-side
/// fault costs one branch per query.
pub struct InternedCampaignFaults<'a> {
    draws: FaultDraws,
    world: &'a World,
    zone_loads: Vec<LoadClass>,
}

impl<'a> InternedCampaignFaults<'a> {
    /// Builds the adapter, classifying every interned name once — build
    /// one per compiled namespace, not per query or per tick. The adapter
    /// reads `world`'s live loads at every decision.
    pub fn new(
        draws: FaultDraws,
        world: &'a World,
        table: &NameTable,
    ) -> InternedCampaignFaults<'a> {
        InternedCampaignFaults {
            draws,
            world,
            zone_loads: table.iter().map(|(_, name)| load_class(name)).collect(),
        }
    }

    fn load_of(&self, class: LoadClass, region: Region) -> f64 {
        match class {
            LoadClass::Akamai => self.world.state.cdn_load(CdnKind::Akamai, region),
            LoadClass::Limelight => self.world.state.cdn_load(CdnKind::Limelight, region),
            LoadClass::Level3 => self.world.state.cdn_load(CdnKind::Level3, region),
            LoadClass::Apple => self.world.state.apple_utilization(region),
            LoadClass::Idle => 0.0,
        }
    }
}

impl InternedFaultModel for InternedCampaignFaults<'_> {
    fn upstream_fault(
        &self,
        zone: NameId,
        zone_fnv: u64,
        _qname: NameId,
        qname_fnv: u64,
        ctx: &QueryContext,
        attempt: u32,
    ) -> Option<UpstreamFault> {
        if !self.draws.can_fault() {
            return None;
        }
        // Zone origins are table names, interned at compile time.
        let load = self.load_of(self.zone_loads[zone.index()], ctx.region());
        // The draws time out every attempt to a dark authoritative NS
        // (infrastructure outage or targeted kill) while the window lasts:
        // resolvers retry, exhaust their budget, and report a transient
        // failure — they never hang, which the chaos sweep asserts as the
        // DNS-liveness invariant.
        let key = query_key(qname_fnv, ctx);
        match self.draws.upstream_fault(zone_fnv, key, attempt, ctx.now, load)? {
            QueryFault::ServFail => Some(UpstreamFault::ServFail),
            QueryFault::Timeout => Some(UpstreamFault::Timeout),
        }
    }
}

/// TTL carried by every forged record (the spoofed A and the injected
/// out-of-bailiwick NS). Deliberately longer than the short-TTL tail of
/// the legitimate chain: if a cache ever accepted a forgery it would
/// outlive the real answer, which is exactly the condition the poisoning
/// sweep audits for.
pub const POISON_TTL: u32 = 600;

/// The bailiwick policy a fault profile asks the resolvers to run under.
pub fn bailiwick_policy(profile: &FaultProfile) -> BailiwickPolicy {
    if profile.enforce_bailiwick {
        BailiwickPolicy::Enforce
    } else {
        BailiwickPolicy::Accept
    }
}

/// Adapts the scenario's compiled [`FaultDraws`] to the resolver's
/// answer-mutation hook — the Byzantine upstream that forges records
/// instead of merely dropping queries. Decisions are keyed off the same
/// stateless digests as [`InternedCampaignFaults`] (zone display-FNV;
/// query display-FNV folded with the client address). The attacker names
/// are resolved to [`NameId`]s once (the campaign interns them via
/// [`CompiledNamespace::compile_with_extra`]), so a mutation decision
/// allocates nothing.
pub struct InternedCampaignMutations {
    draws: FaultDraws,
    attacker_owner: NameId,
    attacker_ns: NameId,
}

impl InternedCampaignMutations {
    /// Builds the adapter against a table that already interns the
    /// attacker names.
    ///
    /// # Panics
    ///
    /// If the table was compiled without them (use
    /// [`CompiledNamespace::compile_with_extra`]).
    pub fn new(draws: FaultDraws, table: &NameTable) -> InternedCampaignMutations {
        let owner = table
            .get(&attacker_owner())
            .expect("attacker owner must be interned (compile_with_extra)");
        let ns = table
            .get(&attacker_ns())
            .expect("attacker NS must be interned (compile_with_extra)");
        InternedCampaignMutations { draws, attacker_owner: owner, attacker_ns: ns }
    }
}

impl InternedMutationModel for InternedCampaignMutations {
    fn answer_mutation(
        &self,
        _zone: NameId,
        zone_fnv: u64,
        _qname: NameId,
        qname_fnv: u64,
        ctx: &QueryContext,
        attempt: u32,
    ) -> Option<ITamper> {
        if !self.draws.can_mutate() {
            return None;
        }
        let key = query_key(qname_fnv, ctx);
        match self.draws.answer_mutation(zone_fnv, key, attempt, ctx.now)? {
            AnswerMutation::SpoofA => Some(ITamper::SpoofA {
                owner: self.attacker_owner,
                addr: self.draws.profile().spoof_address(key, ctx.now),
                ttl: POISON_TTL,
            }),
            AnswerMutation::InjectNs => Some(ITamper::InjectNs {
                owner: self.attacker_owner,
                target: self.attacker_ns,
                ttl: POISON_TTL,
            }),
            AnswerMutation::Truncate => Some(ITamper::Truncate),
            AnswerMutation::InflateTtl => {
                Some(ITamper::InflateTtl { factor: self.draws.profile().ttl_inflation_factor })
            }
        }
    }
}

/// One shard's contribution to a campaign round. Partials are merged in
/// canonical shard order; every field is either order-independent by
/// construction (set unions, max-ledgers, sums) or canonicalized at merge
/// time (memo counts), so the merged round is bit-identical to a serial
/// sweep of the same probes.
struct ShardPartial {
    /// Every address the shard's probes observed, as packed
    /// [`RoundMerge::key`]s of `(probe continent, DNS attribution,
    /// address)`. The merge classifies them and records them into the
    /// campaign's unique-IP sets and class ledger — a union and a max, so
    /// the order shards contribute in cannot matter.
    observations: Vec<u64>,
    resolutions: u64,
    attempts: u64,
    retry_exhausted: u64,
    memo_counts: HashMap<IMemoKey, u64, FnvBuildHasher>,
    /// The shard's drained observability sink (deterministic counters +
    /// trace events), absorbed into the campaign accumulator in canonical
    /// shard order so metrics are thread-count independent.
    obs: mcdn_obs::ShardObs,
}

/// The campaign's observation merge: one pending table for the current
/// aggregator bin, its buffers kept (capacity and all) across rounds and
/// bins.
///
/// A unique-IP cell is the union of its bin's rounds (12 global rounds per
/// hour at the paper's cadence), and most of a round's observations repeat
/// within the round or the bin. [`finish`] therefore only upserts each
/// `(continent, attribution, address)` observation into the pending table
/// with the round's instant, keeping the latest, and [`flush`] — when a
/// round's instant leaves the bin, before a checkpoint is built, and once
/// at the end of the campaign — classifies each pending key once (one RIB
/// lookup), sorts the classified keys, records each (continent, class) run
/// into its aggregator cell with one lookup, and observes each key's
/// (address, class) in the ledger at the key's latest instant.
///
/// This equals classifying, `record` and `observe` for every observation
/// in round and partial order. Classification is a function of the
/// attribution and the address, so all observations of a key share one
/// class, and the one at its latest instant dominates the ledger's
/// `max((t, class))` over them; every pending key lies in one bin, so
/// recording it at the bin start is recording it at each of its instants;
/// and set union and the ledger's max are order-independent and
/// idempotent, so flushing a bin in several parts (a checkpoint mid-bin,
/// then the bin edge) equals flushing it once.
///
/// Observations are held as packed `u64` keys, `continent << 40 | label
/// << 32 | address`, where the label is the DNS attribution on the way in
/// and the class once classified: one integer compare per sort step, and
/// key order is (continent, class, address) order, since both enums'
/// discriminants follow their declaration order (the order of `ALL`).
///
/// [`finish`]: RoundMerge::finish
/// [`flush`]: RoundMerge::flush
#[derive(Default)]
struct RoundMerge {
    /// The current round's observations, in partial order.
    keys: Vec<u64>,
    /// The start of the bin the pending keys lie in.
    bin: SimTime,
    /// Every distinct key observed in the bin since the last flush, with
    /// its latest instant.
    pending: HashMap<u64, SimTime, FnvBuildHasher>,
    /// The flush's classified keys with their instants.
    classified: Vec<(u64, SimTime)>,
}

impl RoundMerge {
    /// The packed key of one observation.
    fn key(continent: Continent, attribution: DnsAttribution, ip: Ipv4Addr) -> u64 {
        (continent as u64) << 40 | (attribution as u64) << 32 | u64::from(u32::from(ip))
    }

    /// Adds one partial's observations to the round buffer.
    fn add(&mut self, observations: &[u64]) {
        self.keys.extend_from_slice(observations);
    }

    /// Folds the round's observations at `t` into the pending table,
    /// flushing the table first if `t` leaves its bin, and empties the
    /// round buffer.
    fn finish(
        &mut self,
        t: SimTime,
        rib: &FlatLpm<AsId>,
        agg: &mut UniqueIpAggregator<Continent, CdnClass>,
        ledger: &mut IpClassLedger,
    ) {
        let bin = t.floor_to(agg.bin());
        if bin != self.bin {
            self.flush(rib, agg, ledger);
            self.bin = bin;
        }
        for &k in &self.keys {
            let latest = self.pending.entry(k).or_insert(t);
            *latest = (*latest).max(t);
        }
        self.keys.clear();
    }

    /// Classifies and records every pending key and empties the table.
    fn flush(
        &mut self,
        rib: &FlatLpm<AsId>,
        agg: &mut UniqueIpAggregator<Continent, CdnClass>,
        ledger: &mut IpClassLedger,
    ) {
        self.classified.extend(self.pending.drain().map(|(k, at)| {
            let ip = Ipv4Addr::from(k as u32);
            let class = classify_ip_from_origin(
                DnsAttribution::ALL[(k >> 32 & 0xff) as usize],
                rib.lookup(ip).map(|(_, asn)| asn),
                params::AKAMAI_AS,
                params::LIMELIGHT_AS,
                params::APPLE_AS,
            );
            (k >> 40 << 40 | (class as u64) << 32 | u64::from(u32::from(ip)), at)
        }));
        let class_of = |k: u64| CdnClass::ALL[(k >> 32 & 0xff) as usize];
        self.classified.sort_unstable();
        for cell in self.classified.chunk_by(|a, b| a.0 >> 32 == b.0 >> 32) {
            let continent = Continent::ALL[(cell[0].0 >> 40) as usize];
            let ips = cell.iter().map(|&(k, _)| Ipv4Addr::from(k as u32));
            agg.record_all(self.bin, continent, class_of(cell[0].0), ips);
        }
        for &(k, at) in &self.classified {
            ledger.observe(Ipv4Addr::from(k as u32), at, class_of(k));
        }
        self.classified.clear();
    }
}

/// One shard's working state, alive for the whole campaign: the resolve
/// scratch (answer buffers, trace arena) and the per-round memo. Keyed by
/// **shard index**, not by pool worker, so which thread happens to serve
/// a shard can never influence the state it sees — and the warm arenas
/// stop being rebuilt every round.
///
/// Keeping it across rounds is observationally safe: the memo is cleared
/// at the top of every round closure, and memo counts are exported under
/// table ids, which every shard shares.
#[derive(Default)]
struct ShardState {
    scratch: ResolveScratch,
    memo: IRoundMemo,
}

/// The flat knobs of one campaign, bundled so the plain and journaled
/// runners share a single signature.
#[derive(Clone, Copy)]
struct CampaignParams<'a> {
    world: &'a World,
    specs: &'a [mcdn_atlas::ProbeSpec],
    start: SimTime,
    end: SimTime,
    interval: Duration,
    bin: Duration,
    availability: Availability,
    profile: FaultProfile,
    retry: RetryPolicy,
    threads: usize,
}

impl CampaignParams<'_> {
    /// The controller walks on a fine grid between measurement rounds, so
    /// load history (and the a1015 activation lag) is independent of
    /// cadence: every 30 minutes, or every round if rounds are closer.
    fn ctrl_step(&self) -> Duration {
        Duration::mins(30).min(self.interval)
    }

    /// Refuses a checkpoint this campaign's engine cannot have written. A
    /// checkpoint is taken after the round at `t − interval` completes, so
    /// `t` lies inside the window (after `start`, before `end`) on the
    /// round grid; `rounds_done` counts the rounds before `t`; `ctrl_t`
    /// is where the controller walk stops after that last round (the
    /// first `ctrl_step` grid point at or after it); and every ledger
    /// entry and unique-IP cell is dated within the completed rounds. A
    /// future-dated ledger entry would win every later
    /// [`IpClassLedger::observe`] of its address. The probe caches store
    /// at most the retry backoff after a round's instant and cap every
    /// record TTL, and so every entry's lifetime, at [`MAX_CACHE_TTL`].
    fn check_resume(&self, ckpt: &Checkpoint) -> Result<(), CampaignError> {
        let refuse = |field| Err(CampaignError::InvalidCheckpoint(field));
        let (start, t, step) = (self.start.as_secs(), ckpt.t.as_secs(), self.interval.as_secs());
        if t <= start || ckpt.t >= self.end || (t - start) % step != 0 {
            return refuse("round instant");
        }
        if ckpt.rounds_done != (t - start) / step {
            return refuse("rounds done");
        }
        let last_round = t - step;
        let ctrl_step = self.ctrl_step().as_secs();
        if ckpt.ctrl_t.as_secs() != start + (last_round - start).div_ceil(ctrl_step) * ctrl_step {
            return refuse("controller instant");
        }
        let last_round = SimTime(last_round);
        if ckpt.ledger.iter().any(|&(_, at, _)| at < self.start || at > last_round) {
            return refuse("ledger entry instant");
        }
        if ckpt.cells.iter().any(|&((bin, _, _), _)| bin > last_round) {
            return refuse("unique-IP cell bin");
        }
        let backoff: u64 =
            (1..self.retry.max_attempts).map(|a| self.retry.backoff_before(a).as_secs()).sum();
        let latest_expiry = last_round + Duration::secs(backoff + u64::from(MAX_CACHE_TTL));
        let entries = || ckpt.probes.iter().flat_map(|cache| &cache.entries);
        if entries().any(|&(_, _, expires, _)| expires > latest_expiry) {
            return refuse("probe-cache entry expiry");
        }
        if entries().flat_map(|(.., records)| records).any(|r| r.ttl > MAX_CACHE_TTL) {
            return refuse("probe-cache record TTL");
        }
        Ok(())
    }

    /// Rounds the campaign window spans.
    fn total_rounds(&self) -> u64 {
        let mut n = 0u64;
        let mut t = self.start;
        while t < self.end {
            n += 1;
            t += self.interval;
        }
        n
    }

    /// The config fingerprint a journal is pinned to: campaign geometry,
    /// availability model, fault-model cursor ([`FaultProfile::digest`]),
    /// retry policy, worker count, and the compiled name-table size
    /// (which transitively covers the world's namespace shape). Equal
    /// fingerprints guarantee an identical deterministic trajectory, so
    /// resuming under a different one is refused.
    fn fingerprint(&self, table_len: usize) -> u64 {
        let mut h = Fnv64::new();
        h.update(&(self.specs.len() as u64).to_le_bytes());
        h.update(&self.start.as_secs().to_le_bytes());
        h.update(&self.end.as_secs().to_le_bytes());
        h.update(&self.interval.as_secs().to_le_bytes());
        h.update(&self.bin.as_secs().to_le_bytes());
        h.update(&self.availability.rate.to_bits().to_le_bytes());
        h.update(&self.availability.seed.to_le_bytes());
        h.update(&self.profile.digest().to_le_bytes());
        h.update(&self.retry.digest().to_le_bytes());
        h.update(&(self.threads as u64).to_le_bytes());
        h.update(&(table_len as u64).to_le_bytes());
        h.finish()
    }
}

/// The share of cumulative round compute that cumulative checkpoint cost
/// may take.
const CHECKPOINT_OVERHEAD_BUDGET: f64 = 0.02;

/// The engine's checkpoint-overhead throttle: whether a cadence-due
/// checkpoint fits the budget.
///
/// A checkpoint serializes *all* accumulated campaign state, so its cost
/// grows with the run while a round's cost stays flat — any fixed cadence
/// eventually spends more time journaling than measuring. The engine
/// therefore keeps a budget pool: a checkpoint is written only while the
/// checkpoint cost `spent` so far is within [`CHECKPOINT_OVERHEAD_BUDGET`]
/// of the round `compute` so far. Whatever a checkpoint really costs,
/// `spent` thus stays within the budget plus one checkpoint, and since the
/// budget grows with every round, a checkpoint is written again as soon
/// as the budget has caught up with the last one: the throttle thins the
/// cadence but never stops it. Suspension always forces a checkpoint
/// (durability beats budget at the moment that matters), and skipping
/// checkpoints never changes results — only how far back a crash rewinds.
fn checkpoint_fits_budget(spent: std::time::Duration, compute: std::time::Duration) -> bool {
    spent.as_secs_f64() <= CHECKPOINT_OVERHEAD_BUDGET * compute.as_secs_f64()
}

/// The campaign engine. One code path serves both runners, [`run_dns`]
/// and [`run_dns_journaled`]:
///
/// * plain runs (`journal_path: None`, `stop_after: None`),
/// * journaled runs (checkpoint after every `checkpoint_every`-th round),
/// * resumed runs (the journal's latest checkpoint replays the cursors,
///   accumulators, controller signals, and probe caches, then the loop
///   continues exactly where the dead process left off),
/// * batch runs (`stop_after` rounds, then suspend with a durable
///   checkpoint).
///
/// Rounds dispatch onto the persistent worker pool
/// ([`mcdn_exec::shard_map`]). A panicking shard is not retried (a rerun
/// over the same probes would panic again): the round fails, and the
/// campaign returns [`CampaignError::Shard`] for the lowest panicking
/// shard. Every round's shard walls are kept and returned beside the
/// metrics snapshot.
fn drive_campaign(
    p: &CampaignParams<'_>,
    journal_path: Option<&Path>,
    checkpoint_every: u64,
    stop_after: Option<u64>,
) -> Result<(CampaignRun, mcdn_obs::MetricsSnapshot, Vec<std::time::Duration>), CampaignError> {
    let world = p.world;
    let mut fleet = build_fleet(p.specs.to_vec());
    let mut agg = UniqueIpAggregator::new(p.bin);
    let mut classes = IpClassLedger::new();
    let mut resolutions = 0u64;
    let mut attempts = 0u64;
    let mut retry_exhausted = 0u64;
    let mut memo_lookups = 0u64;
    let mut memo_hits = 0u64;
    // Compile the round-invariant structures once per campaign: the
    // namespace is frozen into the id-keyed form every shard shares
    // read-only (per-round variability flows through the mapping
    // snapshot, not the zones), the RIB into a flat LPM table, the name
    // table into attribution flags and fault load classes.
    // The attacker names ride along in the compiled table, so forged
    // records carry table ids like every other record.
    let cns = CompiledNamespace::compile_with_extra(&world.ns, &[attacker_owner(), attacker_ns()]);
    let entry_id =
        cns.table().get(&metacdn::names::entry()).expect("the entry name is in the namespace");
    let attr = AttributionTable::build(cns.table());
    let rib = world.topo.compiled_rib();
    let draws = p.profile.compile();
    let faults = InternedCampaignFaults::new(draws, world, cns.table());
    let mutations = InternedCampaignMutations::new(draws, cns.table());
    let bailiwick = bailiwick_policy(&p.profile);
    let table_len = cns.table().len();
    // The worker pool is process-persistent; warming here moves the
    // one-time thread creation out of round 1. Per-shard working state
    // (scratch arenas, memo tables) lives for the whole campaign.
    mcdn_exec::warm(p.threads);
    let shard_count = mcdn_exec::shard_bounds(fleet.len(), p.threads).len().max(1);
    let shard_states: Vec<std::sync::Mutex<ShardState>> =
        (0..shard_count).map(|_| std::sync::Mutex::new(ShardState::default())).collect();
    // The cross-shard memo-count merge, cleared (capacity kept) per
    // round, and the observation merge, flushed per bin and before every
    // checkpoint.
    let mut round_counts: HashMap<IMemoKey, u64, FnvBuildHasher> = HashMap::default();
    let mut round_merge = RoundMerge::default();
    let mut walls = Vec::new();
    // The controller evolves in real time regardless of how often probes
    // measure (see `CampaignParams::ctrl_step`).
    let ctrl_step = p.ctrl_step();
    let mut ctrl_t = p.start;
    let mut t = p.start;
    let mut rounds_done = 0u64;
    let total_rounds = p.total_rounds();
    let checkpoint_every = checkpoint_every.max(1);
    // The campaign-level observability accumulator. `begin` clears this
    // thread's sink (hygiene — campaigns never record into it between
    // rounds) and snapshots the process-global counters so the final
    // [`MetricsSnapshot`] reports per-campaign deltas for them.
    let mut obs = mcdn_obs::CampaignObs::begin();

    let mut journal = match journal_path {
        Some(path) => {
            let (journal, resume) =
                CampaignJournal::open(path, p.fingerprint(table_len), table_len)?;
            if let Some(ckpt) = resume {
                // Deterministic resume: the world was rebuilt from the
                // same config (fingerprint-checked), so restoring the
                // mutable layers — cursors, accumulators, controller
                // signals, probe caches — continues the identical
                // trajectory.
                if ckpt.probes.len() != fleet.len() {
                    return Err(CampaignError::FleetMismatch {
                        expected: fleet.len(),
                        found: ckpt.probes.len(),
                    });
                }
                p.check_resume(&ckpt)?;
                rounds_done = ckpt.rounds_done;
                t = ckpt.t;
                ctrl_t = ckpt.ctrl_t;
                resolutions = ckpt.resolutions;
                attempts = ckpt.attempts;
                retry_exhausted = ckpt.retry_exhausted;
                memo_lookups = ckpt.memo_lookups;
                memo_hits = ckpt.memo_hits;
                // Deterministic (det-class) counters and trace events
                // resume exactly; process-class counters deliberately
                // restart at zero (they describe work this process did).
                obs.restore(&ckpt.obs_counters, ckpt.obs_events);
                for ((bin_start, cont, class), ips) in ckpt.cells {
                    agg.record_all(bin_start, cont, class, ips);
                }
                for (ip, obs_t, class) in ckpt.ledger {
                    classes.observe(ip, obs_t, class);
                }
                world.state.restore_signals(&ckpt.signals);
                for (probe, cache) in fleet.iter_mut().zip(ckpt.probes) {
                    probe.interned_cache_restore(cache.entries, cache.hits, cache.misses);
                }
            }
            Some(journal)
        }
        None => None,
    };

    // The inputs of the checkpoint-overhead throttle
    // ([`checkpoint_fits_budget`]).
    let mut compute_total = std::time::Duration::ZERO;
    let mut ckpt_cost_total = std::time::Duration::ZERO;

    while t < p.end {
        let round_started = std::time::Instant::now();
        while ctrl_t < t {
            update_loads(world, ctrl_t);
            ctrl_t += ctrl_step;
        }
        update_loads(world, t);
        // Freeze the controller for the duration of the round: every shard
        // reads the same immutable snapshot instead of contending on the
        // live state's lock, and a probe's answer cannot depend on which
        // shard ran first.
        let snap = Arc::new(world.state.capture(t));
        let (partials, shard_walls) = mcdn_exec::shard_map(
            &mut fleet,
            p.threads,
            |shard_idx, shard| {
                let _guard = metacdn::install_snapshot(Arc::clone(&snap));
                // Each shard index runs once per round, so the lock is
                // never contended; a shard that panics fails the campaign,
                // so no later round takes a poisoned lock.
                let mut state = shard_states[shard_idx].lock().expect("shard state");
                let ShardState { scratch, memo } = &mut *state;
                // Reset the per-round memo before anything else: round
                // N+1 must never see round N's answers.
                memo.clear();
                // Same hygiene for the thread-local metrics sink: a shard
                // closure must drain exactly what *this* execution
                // recorded, not what a panicked shard of an earlier,
                // failed campaign left on this thread.
                mcdn_obs::shard_reset();
                let mut partial = ShardPartial {
                    observations: Vec::new(),
                    resolutions: 0,
                    attempts: 0,
                    retry_exhausted: 0,
                    memo_counts: HashMap::default(),
                    obs: Default::default(),
                };
                for probe in shard.iter_mut() {
                    if !p.availability.is_online(probe.id, t) {
                        continue; // probe offline this epoch
                    }
                    let (result, outcome_attempts) = probe.measure_interned_adversarial(
                        &cns,
                        scratch,
                        entry_id,
                        RecordType::A,
                        t,
                        &faults,
                        &mutations,
                        bailiwick,
                        &p.retry,
                        Some(memo),
                    );
                    partial.attempts += outcome_attempts as u64;
                    mcdn_obs::record(mcdn_obs::id::ATTEMPTS, outcome_attempts as u64);
                    if matches!(&result, Err(e) if e.is_transient()) {
                        partial.retry_exhausted += 1;
                        mcdn_obs::record(mcdn_obs::id::RETRY_EXHAUSTED, 1);
                        mcdn_obs::trace(mcdn_obs::event::RETRY_EXHAUSTED, t.as_secs(), probe.id, 0);
                    }
                    let attribution = attribute_interned(scratch.trace(), &attr);
                    let continent = probe.spec.city.continent;
                    partial.observations.extend(
                        scratch
                            .trace()
                            .addresses()
                            .map(|ip| RoundMerge::key(continent, attribution, ip)),
                    );
                    partial.resolutions += 1;
                    mcdn_obs::record(mcdn_obs::id::RESOLUTIONS, 1);
                }
                memo.counts_into(&mut partial.memo_counts);
                // Drain the thread-local sink into the partial: the merge
                // below absorbs it in canonical shard order, regardless of
                // which worker thread happened to run this shard.
                partial.obs = mcdn_obs::shard_take();
                partial
            },
        )?;
        // Side-band telemetry only: the walls never feed back into the
        // merged result.
        walls.extend(shard_walls);
        // Canonical merge, in shard order. Memo counts are summed per key
        // across shards first: `lookups` is the total demand for memoizable
        // answers and `hits` what a single-shard memo would have served —
        // both independent of how many shards actually ran.
        round_counts.clear();
        for partial in partials {
            obs.absorb(partial.obs);
            round_merge.add(&partial.observations);
            resolutions += partial.resolutions;
            attempts += partial.attempts;
            retry_exhausted += partial.retry_exhausted;
            for (key, count) in partial.memo_counts {
                *round_counts.entry(key).or_default() += count;
            }
        }
        round_merge.finish(t, &rib, &mut agg, &mut classes);
        let round_lookups: u64 = round_counts.values().sum();
        memo_lookups += round_lookups;
        memo_hits += round_lookups - round_counts.len() as u64;
        // Memo accounting is only defined post-merge (it canonicalizes
        // across shards), so its counters are credited here rather than in
        // the shard sinks — same values any thread count produces.
        obs.add(mcdn_obs::id::MEMO_LOOKUPS, round_lookups);
        obs.add(mcdn_obs::id::MEMO_HITS, round_lookups - round_counts.len() as u64);
        obs.add(mcdn_obs::id::ROUNDS, 1);
        obs.event(mcdn_obs::event::ROUND_COMPLETED, t.as_secs(), rounds_done as u32, resolutions);
        t += p.interval;
        rounds_done += 1;

        let round_wall = round_started.elapsed();
        compute_total += round_wall;
        mcdn_obs::global_hist(mcdn_obs::ghist::ROUND_WALL_US, round_wall.as_micros() as u64);

        let finished = t >= p.end;
        let suspending = !finished && stop_after.is_some_and(|n| rounds_done >= n);
        if let Some(j) = journal.as_mut() {
            let cadence_due = rounds_done.is_multiple_of(checkpoint_every);
            let in_budget = checkpoint_fits_budget(ckpt_cost_total, compute_total);
            if suspending || (cadence_due && in_budget && !finished) {
                // The checkpoint exports the aggregator and the ledger, so
                // they take in the pending bin first.
                round_merge.flush(&rib, &mut agg, &mut classes);
                let ckpt_started = std::time::Instant::now();
                let ckpt = Checkpoint {
                    rounds_done,
                    t,
                    ctrl_t,
                    resolutions,
                    attempts,
                    retry_exhausted,
                    memo_lookups,
                    memo_hits,
                    obs_counters: obs.det_counters().to_vec(),
                    obs_events: obs.events().to_vec(),
                    cells: agg.cells(),
                    ledger: classes.entries(),
                    signals: world.state.export_signals(),
                    probes: fleet
                        .iter()
                        .map(|probe| {
                            let (entries, hits, misses) = probe.interned_cache_export();
                            ProbeCache { hits, misses, entries }
                        })
                        .collect(),
                };
                j.append(&ckpt)?;
                let ckpt_cost = ckpt_started.elapsed();
                ckpt_cost_total += ckpt_cost;
                mcdn_obs::global_add(mcdn_obs::global::CHECKPOINT_WRITES, 1);
                mcdn_obs::global_hist(
                    mcdn_obs::ghist::CHECKPOINT_WALL_US,
                    ckpt_cost.as_micros() as u64,
                );
            }
            if suspending {
                j.sync()?;
            }
        }
        if suspending {
            return Ok((CampaignRun::Suspended { rounds_done, total_rounds }, obs.finish(), walls));
        }
    }
    round_merge.flush(&rib, &mut agg, &mut classes);
    Ok((
        CampaignRun::Complete(DnsCampaignResult {
            unique_ips: agg,
            ip_classes: classes.into_classes(),
            resolutions,
            attempts,
            retry_exhausted,
            memo_lookups,
            memo_hits,
        }),
        obs.finish(),
        walls,
    ))
}

/// Runs a campaign to completion without a journal, preserving the
/// historical infallible contract of the plain runner: shards are still
/// panic-isolated, but a shard that panics aborts the process here.
fn run_to_completion(p: &CampaignParams<'_>) -> CampaignReport {
    match drive_campaign(p, None, 1, None) {
        Ok((CampaignRun::Complete(result), metrics, shard_walls)) => {
            CampaignReport { result, metrics, shard_walls }
        }
        Ok((CampaignRun::Suspended { .. }, ..)) => unreachable!("no stop_after was requested"),
        Err(e) => panic!("campaign failed: {e}"),
    }
}

/// The [`CampaignParams`] of `campaign`, shared by both runners so a plain
/// and a journaled run walk the identical trajectory. `threads == 0`
/// means [`mcdn_exec::thread_count()`] (the `MCDN_THREADS` environment
/// variable overrides).
fn campaign_params<'a>(
    world: &'a World,
    cfg: &ScenarioConfig,
    campaign: Campaign,
    threads: usize,
) -> CampaignParams<'a> {
    let (specs, start, end, interval, bin, salt) = match campaign {
        Campaign::Global => (
            &world.global_probe_specs,
            cfg.global_start,
            cfg.global_end,
            cfg.global_dns_interval,
            Duration::hours(1),
            0xA7A5,
        ),
        Campaign::Isp => (
            &world.isp_probe_specs,
            cfg.isp_start,
            cfg.isp_end,
            cfg.isp_dns_interval,
            Duration::days(1),
            0xB7B5,
        ),
    };
    CampaignParams {
        world,
        specs,
        start,
        end,
        interval,
        bin,
        availability: Availability::with_rate(cfg.probe_availability, cfg.seed ^ salt),
        profile: cfg.faults.with_seed(cfg.faults.seed ^ salt),
        retry: cfg.retry,
        threads: resolve_threads(threads),
    }
}

/// Resolves a thread count of 0 to the ambient worker count.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        mcdn_exec::thread_count()
    } else {
        threads
    }
}

/// Runs `campaign` to completion on `threads` workers (0: see
/// [`mcdn_exec::thread_count()`]) and reports its result, metrics
/// snapshot and shard walls. The result and the snapshot's deterministic
/// portion are identical for any thread count.
///
/// # Panics
///
/// With "campaign failed" if a shard panics.
pub fn run_dns(
    world: &World,
    cfg: &ScenarioConfig,
    campaign: Campaign,
    threads: usize,
) -> CampaignReport {
    run_to_completion(&campaign_params(world, cfg, campaign, threads))
}

/// Crash-safe [`run_dns`]: checkpoints progress into the journal at
/// `journal` (cadence and worker count per `opts`) and, when the journal
/// already holds a checkpoint from an interrupted run with the same
/// config fingerprint, resumes from it instead of starting over. With
/// [`ResumeOptions::stop_after_rounds`] the run suspends with a durable
/// checkpoint after that many rounds in total.
///
/// The completed result is bit-identical to an uninterrupted [`run_dns`]
/// however many times the process died and resumed in between.
/// Deterministic counters and trace events in the snapshot survive
/// kill→resume bit-exactly (they ride in every checkpoint);
/// process-class counters describe only the work the final process
/// performed.
pub fn run_dns_journaled(
    world: &World,
    cfg: &ScenarioConfig,
    campaign: Campaign,
    journal: &Path,
    opts: ResumeOptions,
) -> Result<(CampaignRun, mcdn_obs::MetricsSnapshot), CampaignError> {
    let p = campaign_params(world, cfg, campaign, opts.threads);
    let (run, metrics, _) =
        drive_campaign(&p, Some(journal), opts.checkpoint_every, opts.stop_after_rounds)?;
    Ok((run, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::fmt::Write as _;

    /// The campaign engine's output is pinned — quiet, under a chaos-grade
    /// fault profile, under poisoning with and without bailiwick
    /// enforcement, and under the realistic measurement-plane profile —
    /// for every field of the result, including the canonical memo
    /// accounting, for the global and the in-ISP campaign. The realistic
    /// case runs 15-minute global rounds over a day (~14 k upstream
    /// queries), so lame windows, query loss, slow timeouts and
    /// load-coupled SERVFAILs all fire in both campaigns. The first four
    /// global digests were cross-checked against an independent reference
    /// engine when recorded: a mismatch is a behaviour change, and a pin
    /// moves only with an intended output change (together with
    /// `tests/goldens/` and `results/`).
    #[test]
    fn campaign_output_is_pinned_under_five_fault_profiles() {
        use mcdn_faults::FaultProfile;
        // Global rounds: (interval, end); every window starts Sep 18 noon.
        let sparse = (Duration::hours(2), SimTime::from_ymd(2017, 9, 19));
        let dense = (Duration::mins(15), SimTime::from_ymd_hms(2017, 9, 19, 12, 0, 0));
        let profiles = [
            ("none", FaultProfile::none(), sparse, 0x4a16_b8cb_14a9_2da1, 0x921c_d35f_8338_4be2),
            (
                "total-dark",
                crate::chaos::total_dark_scenario(41).faults,
                sparse,
                0x4a16_b8cb_14a9_2da1,
                0xc9dd_f08d_04e0_d43d,
            ),
            (
                "poisoning-enforced",
                FaultProfile::poisoning(43),
                sparse,
                0x0d95_0588_7d42_d74f,
                0xbcaa_5a9b_735e_5407,
            ),
            (
                "poisoning-open",
                FaultProfile::poisoning(43).with_bailiwick_enforcement(false),
                sparse,
                0x2167_8d4b_cd69_1d64,
                0x3bcb_9c06_0932_165f,
            ),
            (
                "realistic",
                FaultProfile::realistic(47),
                dense,
                0xe894_174d_2b21_d737,
                0x4d74_1654_ebf4_4335,
            ),
        ];
        for (label, faults, (interval, end), global_pin, isp_pin) in profiles {
            let mut cfg = ScenarioConfig::fast();
            cfg.global_probes = 40;
            cfg.global_dns_interval = interval;
            cfg.global_start = SimTime::from_ymd_hms(2017, 9, 18, 12, 0, 0);
            cfg.global_end = end;
            cfg.isp_probes = 40;
            cfg.isp_dns_interval = Duration::hours(6);
            cfg.isp_start = SimTime::from_ymd(2017, 9, 16);
            cfg.isp_end = SimTime::from_ymd(2017, 9, 23);
            cfg.faults = faults;
            let world = World::build(&cfg);
            let got = run_dns(&world, &cfg, Campaign::Global, 2).result;
            assert!(got.resolutions > 0);
            assert_eq!(
                result_digest(&got),
                global_pin,
                "global campaign output moved under profile {label}"
            );
            let world = World::build(&cfg);
            let got = run_dns(&world, &cfg, Campaign::Isp, 2).result;
            assert!(got.resolutions > 0);
            assert_eq!(
                result_digest(&got),
                isp_pin,
                "ISP campaign output moved under profile {label}"
            );
        }
    }

    /// A canonical FNV-64 digest of a campaign's measurement output: the
    /// unique-IP cells with their sorted members, the address-sorted IP
    /// classes, and the resolution, attempt, exhausted and memo counts.
    fn result_digest(r: &DnsCampaignResult) -> u64 {
        let mut h = Fnv64::new();
        for ((t, continent, class), members) in r.unique_ips.cells() {
            let _ = write!(h, "{}/{continent:?}/{class:?}:{members:?};", t.0);
        }
        let mut classes: Vec<(&Ipv4Addr, &CdnClass)> = r.ip_classes.iter().collect();
        classes.sort_unstable_by_key(|(ip, _)| **ip);
        for (ip, class) in classes {
            let _ = write!(h, "{ip}:{class:?};");
        }
        let _ = write!(
            h,
            "resolutions={};attempts={};exhausted={};memo_lookups={};memo_hits={};",
            r.resolutions, r.attempts, r.retry_exhausted, r.memo_lookups, r.memo_hits
        );
        h.finish()
    }

    /// The throttle keeps the checkpoint cost of a campaign within the 2%
    /// budget plus one checkpoint, whatever checkpoints cost, and keeps
    /// checkpointing: driven with 10-ms rounds and synthetic checkpoint
    /// walls that stay flat at 1% or 5% of a round, grow linearly or
    /// quadratically with the rounds serialized, or alternate between a
    /// linear cost and four times it.
    #[test]
    fn checkpoint_throttle_holds_the_budget_plus_one_checkpoint() {
        use std::time::Duration as Wall;
        let round = Wall::from_millis(10);
        // A checkpoint's wall after `n` rounds.
        type Cost = fn(u64) -> Wall;
        let models: [(&str, Cost); 5] = [
            ("flat", |_| Wall::from_micros(100)),
            ("flat at 5% of a round", |_| Wall::from_micros(500)),
            ("linear", |n| Wall::from_micros(50 * n)),
            ("quadratic", |n| Wall::from_micros(n * n)),
            ("erratic", |n| Wall::from_micros(25 * n * if n % 2 == 0 { 4 } else { 1 })),
        ];
        for (label, cost) in models {
            let (mut compute, mut spent, mut last) = (Wall::ZERO, Wall::ZERO, Wall::ZERO);
            let mut written = 0;
            for rounds_done in 1..=2_000u64 {
                compute += round;
                if checkpoint_fits_budget(spent, compute) {
                    last = cost(rounds_done);
                    spent += last;
                    written += 1;
                }
                let bound = CHECKPOINT_OVERHEAD_BUDGET * compute.as_secs_f64() + last.as_secs_f64();
                assert!(
                    spent.as_secs_f64() <= bound,
                    "{label}: {spent:?} of checkpoints after {rounds_done} rounds, bound {bound} s"
                );
            }
            assert!(written >= 10, "{label}: only {written} checkpoints in 2,000 rounds");
        }
    }

    #[test]
    fn ledger_winner_is_order_independent() {
        let ip = Ipv4Addr::new(23, 0, 0, 1);
        let t0 = SimTime::from_ymd(2017, 9, 18);
        let t1 = SimTime::from_ymd(2017, 9, 19);
        let obs =
            [(t0, CdnClass::Akamai), (t1, CdnClass::AkamaiOtherAs), (t0, CdnClass::LimelightOtherAs)];
        // Every permutation of observations — split across two shards at
        // every boundary — elects the same winner: latest time, ties by
        // class order.
        let perms: &[[usize; 3]] =
            &[[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        for perm in perms {
            for split in 0..=perm.len() {
                let mut left = IpClassLedger::new();
                let mut right = IpClassLedger::new();
                for (i, &o) in perm.iter().enumerate() {
                    let (t, class) = obs[o];
                    let target = if i < split { &mut left } else { &mut right };
                    target.observe(ip, t, class);
                }
                left.merge(right);
                assert_eq!(left.len(), 1);
                let classes = left.into_classes();
                assert_eq!(classes[&ip], CdnClass::AkamaiOtherAs, "perm {perm:?} split {split}");
            }
        }
        // Same-instant tie: the class ordering breaks it, not insertion order.
        let mut a = IpClassLedger::new();
        a.observe(ip, t0, CdnClass::Apple);
        a.observe(ip, t0, CdnClass::Akamai);
        let mut b = IpClassLedger::new();
        b.observe(ip, t0, CdnClass::Akamai);
        b.observe(ip, t0, CdnClass::Apple);
        assert_eq!(a.into_classes(), b.into_classes());
    }

    /// The per-observation round merge [`RoundMerge`] replaced, kept as its
    /// reference: for each observation in partial order, a RIB lookup and
    /// [`classify_ip_from_origin`], then `record` plus `observe`.
    fn reference_merge(
        partials: &[Vec<(Continent, DnsAttribution, Ipv4Addr)>],
        t: SimTime,
        rib: &FlatLpm<AsId>,
        agg: &mut UniqueIpAggregator<Continent, CdnClass>,
        ledger: &mut IpClassLedger,
    ) {
        for &(continent, attribution, ip) in partials.iter().flatten() {
            let origin = rib.lookup(ip).map(|(_, asn)| asn);
            let class = classify_ip_from_origin(
                attribution,
                origin,
                params::AKAMAI_AS,
                params::LIMELIGHT_AS,
                params::APPLE_AS,
            );
            agg.record(t, continent, class, ip);
            ledger.observe(ip, t, class);
        }
    }

    mod merge_props {
        use super::*;
        use mcdn_netsim::Ipv4Net;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// The address pool's first address; the pool holds 24.
        const POOL: u32 = 0x1700_0000;

        /// A RIB over the pool in which an address's class depends on its
        /// attribution: addresses originate, in turn, in Akamai's,
        /// Limelight's and Apple's AS, in the off-net AS D, or in no
        /// route at all.
        fn rib() -> FlatLpm<AsId> {
            let origins = [
                Some(params::AKAMAI_AS),
                Some(params::LIMELIGHT_AS),
                Some(params::APPLE_AS),
                Some(params::LL_SURGE_D_AS),
                None,
            ];
            FlatLpm::from_entries((0..24u32).filter_map(|n| {
                let asn = origins[n as usize % origins.len()]?;
                Some((Ipv4Net::new(Ipv4Addr::from(POOL + n), 32), asn))
            }))
        }

        /// One observation over all six continents and all four
        /// attributions, with its address drawn from the pool: repeats
        /// within and across partials, one address under several
        /// attributions (and so several classes), reclassifications
        /// across rounds and same-instant class conflicts are all common.
        fn observation() -> impl Strategy<Value = (Continent, DnsAttribution, Ipv4Addr)> {
            (0usize..6, 0usize..4, 0u32..24).prop_map(|(c, a, n)| {
                (Continent::ALL[c], DnsAttribution::ALL[a], Ipv4Addr::from(POOL + n))
            })
        }

        proptest! {
            /// Rounds of partials folded into the per-bin pending table
            /// and flushed equal the per-observation reference: the same
            /// aggregator (by `==` and by its cells) and the same ledger.
            /// Rounds advance 0, 25 or 50 minutes, so rounds share
            /// instants, several distinct instants share an hour bin, and
            /// rounds cross bins. After a round, a checkpoint may flush
            /// the table (and the state must then equal the reference's,
            /// since the checkpoint exports it), or a resume may also
            /// restart from an empty merge; every run ends with a flush.
            #[test]
            fn round_merge_matches_the_per_observation_reference(
                rounds in vec((0u64..3, vec(vec(observation(), 0..30), 1..4), 0u8..3), 1..8),
            ) {
                let bin = Duration::hours(1);
                let rib = rib();
                let (mut agg, mut ledger) = (UniqueIpAggregator::new(bin), IpClassLedger::new());
                let (mut ref_agg, mut ref_ledger) =
                    (UniqueIpAggregator::new(bin), IpClassLedger::new());
                let mut merge = RoundMerge::default();
                let mut t = SimTime::from_ymd_hms(2017, 9, 19, 16, 40, 0);
                for (step, partials, after) in rounds {
                    t += Duration::mins(25 * step);
                    for partial in &partials {
                        let keys: Vec<u64> =
                            partial.iter().map(|&(c, a, ip)| RoundMerge::key(c, a, ip)).collect();
                        merge.add(&keys);
                    }
                    merge.finish(t, &rib, &mut agg, &mut ledger);
                    reference_merge(&partials, t, &rib, &mut ref_agg, &mut ref_ledger);
                    if after > 0 {
                        merge.flush(&rib, &mut agg, &mut ledger);
                        prop_assert_eq!(agg.cells(), ref_agg.cells());
                        prop_assert_eq!(ledger.entries(), ref_ledger.entries());
                    }
                    if after == 2 {
                        merge = RoundMerge::default();
                    }
                }
                merge.flush(&rib, &mut agg, &mut ledger);
                prop_assert_eq!(&agg, &ref_agg);
                prop_assert_eq!(agg.cells(), ref_agg.cells());
                prop_assert_eq!(ledger.entries(), ref_ledger.entries());
            }
        }
    }

    /// A tiny campaign around the release: checks the EU spike mechanism
    /// end to end (probes → DNS → classification → unique-IP series).
    #[test]
    fn eu_unique_ips_spike_after_release() {
        // The unique-IP count per bin is bounded by the number of DNS draws,
        // so the fleet must sample densely enough to reveal the widened
        // pool — the paper used 5-minute intervals; 10 minutes suffices here.
        let mut cfg = ScenarioConfig::fast();
        cfg.global_probes = 250;
        cfg.global_dns_interval = Duration::mins(5);
        cfg.global_start = SimTime::from_ymd_hms(2017, 9, 18, 12, 0, 0);
        cfg.global_end = SimTime::from_ymd(2017, 9, 20);
        let world = World::build(&cfg);
        let result = run_dns(&world, &cfg, Campaign::Global, 0).result;
        assert!(result.resolutions > 0);

        let day_bin = |d: u32, h: u32| SimTime::from_ymd_hms(2017, 9, d, h, 0, 0);
        let count_at = |bin: SimTime| -> usize {
            CdnClass::ALL
                .iter()
                .map(|c| result.unique_ips.count(bin, Continent::Europe, *c))
                .sum()
        };
        let before = count_at(day_bin(18, 18));
        let after = count_at(day_bin(19, 18));
        assert!(
            after as f64 > 2.5 * before as f64,
            "EU unique IPs must spike: {before} → {after}"
        );
    }

    #[test]
    fn ip_classes_cover_all_major_cdns() {
        let mut cfg = ScenarioConfig::fast();
        cfg.global_probes = 80;
        cfg.global_dns_interval = Duration::mins(60);
        cfg.global_start = SimTime::from_ymd_hms(2017, 9, 19, 12, 0, 0);
        cfg.global_end = SimTime::from_ymd_hms(2017, 9, 20, 0, 0, 0);
        let world = World::build(&cfg);
        let result = run_dns(&world, &cfg, Campaign::Global, 0).result;
        let classes: std::collections::HashSet<_> = result.ip_classes.values().copied().collect();
        assert!(classes.contains(&CdnClass::Apple));
        assert!(classes.contains(&CdnClass::Akamai));
        assert!(classes.contains(&CdnClass::Limelight));
        assert!(
            classes.contains(&CdnClass::LimelightOtherAs),
            "regional off-net caches must appear"
        );
    }

    #[test]
    fn isp_campaign_sees_stable_apple() {
        let mut cfg = ScenarioConfig::fast();
        cfg.isp_probes = 60;
        cfg.isp_start = SimTime::from_ymd(2017, 9, 16);
        cfg.isp_end = SimTime::from_ymd(2017, 9, 22);
        let world = World::build(&cfg);
        let result = run_dns(&world, &cfg, Campaign::Isp, 0).result;
        // Apple's count varies little between a quiet day and the event day
        // ("Apple's CDN [has] a somewhat stable number of IPs").
        let quiet = result.unique_ips.count(
            SimTime::from_ymd(2017, 9, 17),
            Continent::Europe,
            CdnClass::Apple,
        );
        let event = result.unique_ips.count(
            SimTime::from_ymd(2017, 9, 20),
            Continent::Europe,
            CdnClass::Apple,
        );
        assert!(quiet > 0);
        let ratio = event as f64 / quiet as f64;
        assert!((0.5..2.0).contains(&ratio), "Apple should stay stable: {quiet} → {event}");
        // All observations come from inside the ISP (Europe).
        for (_, cont, _, _) in result.unique_ips.series() {
            assert_eq!(cont, Continent::Europe);
        }
    }
}
