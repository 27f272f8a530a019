//! The DNS measurement campaigns (global fleet and in-ISP fleet).
//!
//! Campaign rounds run on the deterministic parallel engine
//! (`mcdn-exec`): each round captures one immutable
//! [`MappingSnapshot`](metacdn::MappingSnapshot) of the controller,
//! splits the fleet into contiguous shards, resolves concurrently with a
//! shard-local per-round [`RoundMemo`], and merges the shard partials in
//! canonical probe order — so the result is bit-identical for any thread
//! count, faults on or off.

use crate::checkpoint::{
    CampaignError, CampaignJournal, CampaignRun, Checkpoint, ProbeCache, ResumeOptions,
};
use crate::classes::{attribute_interned, classify_ip_from_origin, AttributionTable, CdnClass};
use crate::config::ScenarioConfig;
use crate::loads::update_loads;
use crate::params;
use crate::reuse::{ReuseSlot, ReuseVersions};
use crate::world::World;
use core::fmt::Write as _;
use mcdn_atlas::{build_fleet, Availability, UniqueIpAggregator};
use mcdn_dnssim::{
    attacker_ns, attacker_owner, AnswerTamper, BailiwickPolicy, CompiledNamespace, FaultModel,
    IRoundMemo, ITamper, InternedFaultModel, InternedMutationModel, MutationModel, QueryContext,
    ResolveScratch, SharedMemoKey, UpstreamFault,
};
use mcdn_dnswire::{Name, RecordType};
use mcdn_faults::{AnswerMutation, FaultProfile, Fnv64, QueryFault, RetryPolicy};
use mcdn_geo::{Continent, Duration, Region, SimTime};
use mcdn_intern::{FnvBuildHasher, NameId, NameTable};
use metacdn::CdnKind;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::path::Path;
use std::sync::Arc;

/// Output of one DNS campaign.
#[derive(Debug, Clone)]
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
    /// [`RoundMemo`]); canonical — independent of the thread count.
    pub memo_lookups: u64,
    /// Memoizable lookups that a single-shard engine would have served
    /// from the per-round memo (`memo_lookups − distinct keys`); canonical.
    pub memo_hits: u64,
    /// Resolutions served by replaying a dependency-versioned
    /// [`ReuseSlot`] instead of entering the resolver. **Telemetry of
    /// this process run only**: slots live in engine memory, so a
    /// resumed campaign restarts the counter at zero while producing the
    /// identical measurement output — which is why [`PartialEq`] ignores
    /// this field.
    pub reused_resolutions: u64,
}

/// Equality over the *measurement output*: every field except
/// [`reused_resolutions`](DnsCampaignResult::reused_resolutions), which
/// reports how the output was obtained (replay vs recompute), not what
/// it is. The incremental engine's whole contract is that the two are
/// indistinguishable.
impl PartialEq for DnsCampaignResult {
    fn eq(&self, other: &DnsCampaignResult) -> bool {
        self.unique_ips == other.unique_ips
            && self.ip_classes == other.ip_classes
            && self.resolutions == other.resolutions
            && self.attempts == other.attempts
            && self.retry_exhausted == other.retry_exhausted
            && self.memo_lookups == other.memo_lookups
            && self.memo_hits == other.memo_hits
    }
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
    seen: HashMap<Ipv4Addr, (SimTime, CdnClass)>,
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

/// Adapts the scenario's [`FaultProfile`] to the resolver's fault hook,
/// coupling each zone's SERVFAIL odds to the live load of the operator
/// behind it (Apple's zones fail more while Apple's edge is slammed, the
/// Akamai-operated zones while Akamai's pool is hot — "load-dependent
/// SERVFAIL from overloaded authoritative zones").
pub struct CampaignFaults<'a> {
    profile: FaultProfile,
    world: &'a World,
}

impl<'a> CampaignFaults<'a> {
    /// A fault adapter for `world` drawing decisions from `profile`.
    pub fn new(profile: FaultProfile, world: &'a World) -> CampaignFaults<'a> {
        CampaignFaults { profile, world }
    }

    /// The current load of the operator authoritative for `zone`, as seen
    /// from `region`. Unknown zones are treated as idle (baseline rates
    /// still apply).
    fn zone_load(&self, zone: &Name, region: Region) -> f64 {
        let z = zone.to_string();
        if z.contains("akadns") || z.contains("akamai") || z.contains("edgesuite") {
            self.world.state.cdn_load(CdnKind::Akamai, region)
        } else if z.contains("llnw") {
            self.world.state.cdn_load(CdnKind::Limelight, region)
        } else if z.contains("lvl3") {
            self.world.state.cdn_load(CdnKind::Level3, region)
        } else if z.contains("apple") || z.contains("applimg") {
            self.world.state.apple_utilization(region)
        } else {
            0.0
        }
    }
}

impl FaultModel for CampaignFaults<'_> {
    fn upstream_fault(
        &self,
        zone: &Name,
        qname: &Name,
        ctx: &QueryContext,
        attempt: u32,
    ) -> Option<UpstreamFault> {
        if self.profile.is_quiet() {
            return None;
        }
        let load = self.zone_load(zone, ctx.region());
        // Streamed hashing: `Fnv64` folds the `Display` output of the names
        // directly into the digest, replacing the former per-query
        // `to_string()` allocations on this hot path while producing the
        // identical key values.
        let mut zh = Fnv64::new();
        let _ = write!(zh, "{zone}");
        let zone_key = zh.finish();
        // A dark authoritative NS (infrastructure outage or targeted kill)
        // times out every attempt while the window lasts: resolvers retry,
        // exhaust their budget, and report a transient failure — they never
        // hang, which the chaos sweep asserts as the DNS-liveness invariant.
        if self.profile.ns_is_dark(zone_key, ctx.now) {
            return Some(UpstreamFault::Timeout);
        }
        let mut qh = Fnv64::new();
        let _ = write!(qh, "{qname}");
        qh.update(&ctx.client_ip.octets());
        let query_key = qh.finish();
        match self.profile.upstream_fault(zone_key, query_key, attempt, ctx.now, load)? {
            QueryFault::ServFail => Some(UpstreamFault::ServFail),
            QueryFault::Timeout => Some(UpstreamFault::Timeout),
        }
    }
}

/// Which operator's live load a zone's fault odds couple to — the
/// compiled form of [`CampaignFaults::zone_load`]'s substring tests,
/// resolved once per interned name at campaign start.
#[derive(Debug, Clone, Copy)]
enum LoadClass {
    Akamai,
    Limelight,
    Level3,
    Apple,
    Idle,
}

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

/// [`CampaignFaults`] for the interned hot path: zone load classes are
/// precomputed per [`NameId`] and the fault keys are derived from the
/// resolver-supplied display-FNV digests ([`Fnv64::with_state`] resumes
/// the stream to fold in the client address), so a fault decision
/// allocates nothing — while producing bit-identical keys, and therefore
/// bit-identical faults, to the string adapter.
pub struct InternedCampaignFaults<'a> {
    profile: FaultProfile,
    world: &'a World,
    zone_loads: Vec<LoadClass>,
}

impl<'a> InternedCampaignFaults<'a> {
    /// Builds the adapter, classifying every interned name once.
    pub fn new(
        profile: FaultProfile,
        world: &'a World,
        table: &NameTable,
    ) -> InternedCampaignFaults<'a> {
        InternedCampaignFaults {
            profile,
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
        if self.profile.is_quiet() {
            return None;
        }
        // Zone origins are always compiled-table names; an overlay zone
        // cannot exist (zones are interned at compile time).
        let load = self.load_of(self.zone_loads[zone.index()], ctx.region());
        if self.profile.ns_is_dark(zone_fnv, ctx.now) {
            return Some(UpstreamFault::Timeout);
        }
        let mut qh = Fnv64::with_state(qname_fnv);
        qh.update(&ctx.client_ip.octets());
        let query_key = qh.finish();
        match self.profile.upstream_fault(zone_fnv, query_key, attempt, ctx.now, load)? {
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

/// Adapts the scenario's [`FaultProfile`] to the resolver's answer-
/// mutation hook — the Byzantine upstream that forges records instead of
/// merely dropping queries. Decisions are keyed off the same stateless
/// digests as [`CampaignFaults`] (zone display-FNV; query display-FNV
/// folded with the client address), so the interned twin reproduces them
/// bit for bit.
pub struct CampaignMutations {
    profile: FaultProfile,
}

impl CampaignMutations {
    /// A mutation adapter drawing decisions from `profile`.
    pub fn new(profile: FaultProfile) -> CampaignMutations {
        CampaignMutations { profile }
    }
}

impl MutationModel for CampaignMutations {
    fn answer_mutation(
        &self,
        zone: &Name,
        qname: &Name,
        ctx: &QueryContext,
        attempt: u32,
    ) -> Option<AnswerTamper> {
        if !self.profile.has_answer_mutations() {
            return None;
        }
        let mut zh = Fnv64::new();
        let _ = write!(zh, "{zone}");
        let zone_key = zh.finish();
        let mut qh = Fnv64::new();
        let _ = write!(qh, "{qname}");
        qh.update(&ctx.client_ip.octets());
        let query_key = qh.finish();
        match self.profile.answer_mutation(zone_key, query_key, attempt, ctx.now)? {
            AnswerMutation::SpoofA => Some(AnswerTamper::SpoofA {
                owner: attacker_owner(),
                addr: self.profile.spoof_address(query_key, ctx.now),
                ttl: POISON_TTL,
            }),
            AnswerMutation::InjectNs => Some(AnswerTamper::InjectNs {
                owner: attacker_owner(),
                target: attacker_ns(),
                ttl: POISON_TTL,
            }),
            AnswerMutation::Truncate => Some(AnswerTamper::Truncate),
            AnswerMutation::InflateTtl => {
                Some(AnswerTamper::InflateTtl { factor: self.profile.ttl_inflation_factor })
            }
        }
    }
}

/// [`CampaignMutations`] for the interned hot path: the attacker names
/// are resolved to [`NameId`]s once (the campaign interns them via
/// [`CompiledNamespace::compile_with_extra`]) and the keys come from the
/// resolver-supplied display-FNV digests, so a mutation decision
/// allocates nothing while producing bit-identical forgeries to the
/// string adapter.
pub struct InternedCampaignMutations {
    profile: FaultProfile,
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
    pub fn new(profile: FaultProfile, table: &NameTable) -> InternedCampaignMutations {
        let owner = table
            .get(&attacker_owner())
            .expect("attacker owner must be interned (compile_with_extra)");
        let ns = table
            .get(&attacker_ns())
            .expect("attacker NS must be interned (compile_with_extra)");
        InternedCampaignMutations { profile, attacker_owner: owner, attacker_ns: ns }
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
        if !self.profile.has_answer_mutations() {
            return None;
        }
        let mut qh = Fnv64::with_state(qname_fnv);
        qh.update(&ctx.client_ip.octets());
        let query_key = qh.finish();
        match self.profile.answer_mutation(zone_fnv, query_key, attempt, ctx.now)? {
            AnswerMutation::SpoofA => Some(ITamper::SpoofA {
                owner: self.attacker_owner,
                addr: self.profile.spoof_address(query_key, ctx.now),
                ttl: POISON_TTL,
            }),
            AnswerMutation::InjectNs => Some(ITamper::InjectNs {
                owner: self.attacker_owner,
                target: self.attacker_ns,
                ttl: POISON_TTL,
            }),
            AnswerMutation::Truncate => Some(ITamper::Truncate),
            AnswerMutation::InflateTtl => {
                Some(ITamper::InflateTtl { factor: self.profile.ttl_inflation_factor })
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
    /// Every classified address the shard's probes observed, as
    /// `(probe continent, class, address)`. The merge records them into
    /// the campaign's unique-IP sets and class ledger — a union and a
    /// max, so the order shards contribute in cannot matter.
    observations: Vec<(Continent, CdnClass, Ipv4Addr)>,
    resolutions: u64,
    attempts: u64,
    retry_exhausted: u64,
    reused: u64,
    memo_counts: HashMap<SharedMemoKey, u64, FnvBuildHasher>,
    /// The shard's drained observability sink (deterministic counters +
    /// trace events), absorbed into the campaign accumulator in canonical
    /// shard order so metrics are thread-count independent.
    obs: mcdn_obs::ShardObs,
}

/// One shard's reusable working state, alive for the whole campaign: the
/// resolve scratch (overlay interner, answer buffers, trace arena) and
/// the per-round memo. Keyed by **shard index**, not by pool worker, so
/// which thread happens to serve a shard can never influence the state it
/// sees — and the warm arenas stop being rebuilt every round.
///
/// Reuse is observationally safe: the memo is cleared at the top of every
/// round closure (also what makes a pristine-restore retry replay the
/// panicked attempt's exact inputs), `intern_in` is idempotent, and memo
/// counts are exported under shard-independent `SharedName` keys.
#[derive(Default)]
struct ShardState {
    scratch: ResolveScratch,
    memo: IRoundMemo,
    /// One [`ReuseSlot`] per shard-local probe offset. The shard
    /// partition is a pure function of fleet size and thread count, both
    /// fixed for a campaign, so an offset names the same probe in every
    /// round. Slots are engine memory, never checkpointed: a resumed
    /// campaign recomputes its first rounds, which the replay invariant
    /// makes output-identical.
    slots: Vec<Option<ReuseSlot>>,
    /// Per-probe classification buffer, reused to record slot outcomes.
    outcome_buf: Vec<(Ipv4Addr, CdnClass)>,
}

/// The recovery policy of one campaign round. Pristine-restore clones are
/// paid only when a shard can actually unwind — an armed test hook, or a
/// fault profile whose faults panic (none today, see
/// [`FaultProfile::may_panic`]); every production round takes the
/// zero-copy fail-fast path, which still reports a typed
/// [`mcdn_exec::ShardFailure`] if a genuine bug panics a shard.
fn round_recovery(profile: &FaultProfile) -> mcdn_exec::Recovery {
    if profile.may_panic() || testhooks::is_armed() {
        mcdn_exec::Recovery::Pristine { retries: mcdn_exec::DEFAULT_SHARD_RETRIES }
    } else {
        mcdn_exec::Recovery::FailFast
    }
}

/// Test-only chaos hooks for the crash-recovery suite.
///
/// Hidden but always compiled (integration tests cannot see `#[cfg(test)]`
/// items): arming a shard index plants exactly one panic mid-shard — after
/// some probes have already mutated their caches — in the next round that
/// processes that shard. The supervised engine must quarantine, restore,
/// and retry it with bit-identical output.
#[doc(hidden)]
pub mod testhooks {
    use std::sync::atomic::{AtomicI64, Ordering};

    static ARMED_SHARD: AtomicI64 = AtomicI64::new(-1);

    /// Arms a one-shot mid-shard panic in shard `shard`.
    pub fn arm_shard_panic(shard: usize) {
        ARMED_SHARD.store(shard as i64, Ordering::SeqCst);
    }

    /// Disarms any armed panic (idempotent).
    pub fn disarm() {
        ARMED_SHARD.store(-1, Ordering::SeqCst);
    }

    /// Whether a panic is currently armed, without consuming it. The
    /// engine checks this per round to decide whether the supervised
    /// shards need pristine-restore recovery (armed) or can take the
    /// zero-copy fail-fast path (the production default).
    pub fn is_armed() -> bool {
        ARMED_SHARD.load(Ordering::SeqCst) >= 0
    }

    /// True exactly once after arming: firing disarms.
    pub(crate) fn shard_panic_fires(shard: usize) -> bool {
        ARMED_SHARD
            .compare_exchange(shard as i64, -1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }
}

/// The flat knobs of one campaign, bundled so the plain and resumable
/// drivers share a single signature.
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
    /// Whether rounds may replay dependency-versioned [`ReuseSlot`]s.
    /// Deliberately **not** part of [`fingerprint`](Self::fingerprint):
    /// reuse changes how results are computed, never what they are, so a
    /// journal written either way resumes under either setting.
    reuse: bool,
}

/// Whether the campaign engines replay unchanged resolutions across
/// rounds (the default). Setting the `MCDN_NO_REUSE` environment
/// variable forces full recomputation — the differential oracle's
/// control arm, also handy when bisecting a suspected reuse bug.
pub fn reuse_enabled() -> bool {
    std::env::var_os("MCDN_NO_REUSE").is_none()
}

impl CampaignParams<'_> {
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

/// The campaign engine. One code path serves all four public entry
/// points:
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
/// ([`mcdn_exec::shard_map_recover_timed`]), with the recovery policy
/// picked per round: zero-copy fail-fast when nothing can panic (the
/// production default), pristine-restore with deterministic retry when a
/// test hook arms a mid-shard panic.
fn drive_campaign(
    p: &CampaignParams<'_>,
    journal_path: Option<&Path>,
    checkpoint_every: u64,
    stop_after: Option<u64>,
    mut walls: Option<&mut Vec<std::time::Duration>>,
) -> Result<(CampaignRun, mcdn_obs::MetricsSnapshot), CampaignError> {
    let world = p.world;
    let mut fleet = build_fleet(p.specs.to_vec());
    let mut agg = UniqueIpAggregator::new(p.bin);
    let mut classes = IpClassLedger::new();
    let mut resolutions = 0u64;
    let mut attempts = 0u64;
    let mut retry_exhausted = 0u64;
    let mut memo_lookups = 0u64;
    let mut memo_hits = 0u64;
    let mut reused = 0u64;
    let entry = metacdn::names::entry();
    // Compile the round-invariant structures once per campaign: the
    // namespace is frozen into the id-keyed form every shard shares
    // read-only (per-round variability flows through the mapping
    // snapshot, not the zones), the RIB into a flat LPM table, the name
    // table into attribution flags and fault load classes.
    // The attacker names ride along in the compiled table so the
    // adversarial layer can forge records without touching the per-shard
    // overlays (identical NameIds in every shard, zero allocations).
    let cns = CompiledNamespace::compile_with_extra(&world.ns, &[attacker_owner(), attacker_ns()]);
    let attr = AttributionTable::build(cns.table());
    let rib = world.topo.compiled_rib();
    let faults = InternedCampaignFaults::new(p.profile, world, cns.table());
    let mutations = InternedCampaignMutations::new(p.profile, cns.table());
    let bailiwick = bailiwick_policy(&p.profile);
    let table_len = cns.table().len();
    // The worker pool is process-persistent; warming here moves the
    // one-time thread creation out of round 1. Per-shard working state
    // (scratch arenas, memo tables) lives for the whole campaign.
    mcdn_exec::warm(p.threads);
    let shard_count = mcdn_exec::shard_bounds(fleet.len(), p.threads).len().max(1);
    let shard_states: Vec<std::sync::Mutex<ShardState>> =
        (0..shard_count).map(|_| std::sync::Mutex::new(ShardState::default())).collect();
    // The cross-shard memo-count merge, cleared (capacity kept) per round.
    let mut round_counts: HashMap<SharedMemoKey, u64, FnvBuildHasher> = HashMap::default();
    // The controller evolves in real time regardless of how often probes
    // measure: walk it on a fine grid between measurement rounds so load
    // history (and the a1015 activation lag) is independent of cadence.
    let ctrl_step = Duration::mins(30).min(p.interval);
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
                    for ip in ips {
                        agg.record(bin_start, cont, class, ip);
                    }
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

    // Checkpoint-overhead throttle. A checkpoint serializes *all*
    // accumulated campaign state, so its cost grows with the run while a
    // round's cost stays flat — any fixed cadence eventually spends more
    // time journaling than measuring. The engine therefore keeps a budget
    // pool: cumulative checkpoint cost may never exceed
    // CHECKPOINT_OVERHEAD_BUDGET of cumulative compute, and a cadence-due
    // checkpoint is written only if its predicted cost (the last one's,
    // scaled by state growth since — state grows at most linearly in
    // rounds, so this cannot underestimate) still fits the pool. That
    // bounds realized overhead by the budget outright, instead of merely
    // in expectation. Suspension always forces a checkpoint (durability
    // beats budget at the moment that matters), and skipping checkpoints
    // never changes results — only how far back a crash rewinds.
    const CHECKPOINT_OVERHEAD_BUDGET: f64 = 0.02;
    let mut compute_total = std::time::Duration::ZERO;
    let mut ckpt_cost_total = std::time::Duration::ZERO;
    let mut last_ckpt_cost = std::time::Duration::ZERO;
    let mut rounds_at_last_ckpt = rounds_done;

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
        let snap = Arc::new(world.state.capture());
        // Sample the round's version vector after the controller has
        // settled: anything a resolution can observe is covered by one of
        // these four monotonic counters (plus the probe's own cache,
        // which the slots' TTL clocks track arithmetically).
        let versions = ReuseVersions {
            compile_id: cns.compile_id(),
            fault_digest: p.profile.reuse_digest(t),
            state_version: world.state.version(),
            schedule_epoch: world.state.schedule_epoch(t),
        };
        let (partials, shard_walls) = mcdn_exec::shard_map_recover_timed(
            &mut fleet,
            p.threads,
            round_recovery(&p.profile),
            |shard_idx, shard| {
                let _guard = metacdn::install_snapshot(Arc::clone(&snap));
                // A panicking attempt poisons the mutex with the guard
                // held mid-round; the state is re-cleared on entry anyway,
                // so the poison flag carries no information here.
                let mut state =
                    shard_states[shard_idx].lock().unwrap_or_else(|e| e.into_inner());
                let ShardState { scratch, memo, slots, outcome_buf } = &mut *state;
                // Reset the per-round memo before anything else: round
                // N+1 must never see round N's answers, and a pristine-
                // restore retry must replay the panicked attempt's exact
                // inputs.
                memo.clear();
                // Same hygiene for the thread-local metrics sink: a shard
                // closure must drain exactly what *this* execution
                // recorded, including across pristine-restore retries.
                mcdn_obs::shard_reset();
                slots.resize_with(shard.len(), || None);
                let entry_id = cns.intern_in(scratch, &entry);
                let mut partial = ShardPartial {
                    observations: Vec::new(),
                    resolutions: 0,
                    attempts: 0,
                    retry_exhausted: 0,
                    reused: 0,
                    memo_counts: HashMap::default(),
                    obs: Default::default(),
                };
                for (i, probe) in shard.iter_mut().enumerate() {
                    if i == 1 && testhooks::shard_panic_fires(shard_idx) {
                        // Fires *after* probe 0 already mutated its cache:
                        // proves the supervisor restores partial work.
                        panic!("injected mid-shard panic (testhooks)");
                    }
                    if !p.availability.is_online(probe.id, t) {
                        continue; // probe offline this epoch
                    }
                    // Incremental fast path: a slot whose version vector
                    // still matches and whose TTL clocks permit replay
                    // reproduces the resolution bit for bit — cache
                    // stores, counters, memo contributions, classified
                    // addresses — without entering the resolver.
                    let replayable = p.reuse
                        && slots[i].as_ref().is_some_and(|s| s.is_valid(t, &versions));
                    if p.reuse && !replayable && slots[i].is_some() {
                        // A held slot whose version vector or TTL clocks no
                        // longer match: the probe falls back to a full
                        // recomputation this round.
                        mcdn_obs::record(mcdn_obs::id::REUSE_INVALIDATIONS, 1);
                    }
                    if replayable {
                        let slot = slots[i].as_mut().expect("validated above");
                        for put in slot.puts() {
                            probe.interned_cache_put(put.id, put.qtype, &put.records, t);
                        }
                        let (hits, misses) = slot.cache_deltas();
                        probe.interned_cache_add_stats(hits, misses);
                        let continent = probe.spec.city.continent;
                        partial.observations.extend(
                            slot.outcomes().iter().map(|&(ip, class)| (continent, class, ip)),
                        );
                        // A replayed probe never touches the shard memo,
                        // so its contributions are injected directly —
                        // re-timed to this round's instant, exactly the
                        // key a live lookup would have used. A same-round
                        // recomputing probe stores its own entry, so the
                        // merged per-key counts and distinct-key set are
                        // unchanged.
                        for &(id, qtype, scope) in slot.memo_keys() {
                            let name = cns.shared_name(scratch, id);
                            *partial.memo_counts.entry((name, qtype, scope, t)).or_default() += 1;
                        }
                        partial.resolutions += 1;
                        partial.attempts += 1;
                        partial.reused += 1;
                        // Re-apply the recorded metrics delta verbatim:
                        // deterministic counters come out identical to the
                        // recomputation the replay stands in for.
                        mcdn_obs::apply_delta(slot.obs_delta());
                        mcdn_obs::record(mcdn_obs::id::REUSE_REPLAYS, 1);
                        slot.mark_applied(t);
                        continue;
                    }
                    // Bracket the resolution with a counter mark so a
                    // successful single-attempt window can record its
                    // exact metrics delta into the reuse slot below.
                    mcdn_obs::mark();
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
                        memo,
                    );
                    partial.attempts += outcome_attempts as u64;
                    mcdn_obs::record(mcdn_obs::id::ATTEMPTS, outcome_attempts as u64);
                    if matches!(&result, Err(e) if e.is_transient()) {
                        partial.retry_exhausted += 1;
                        mcdn_obs::record(mcdn_obs::id::RETRY_EXHAUSTED, 1);
                        mcdn_obs::trace(mcdn_obs::event::RETRY_EXHAUSTED, t.as_secs(), probe.id, 0);
                    }
                    let attribution = attribute_interned(scratch.trace(), &attr, &cns, scratch);
                    outcome_buf.clear();
                    for ip in scratch.trace().addresses() {
                        let origin = rib.lookup(ip).map(|(_, asn)| asn);
                        let class = classify_ip_from_origin(
                            attribution,
                            origin,
                            params::AKAMAI_AS,
                            params::LIMELIGHT_AS,
                            params::APPLE_AS,
                        );
                        partial.observations.push((probe.spec.city.continent, class, ip));
                        if p.reuse {
                            outcome_buf.push((ip, class));
                        }
                    }
                    partial.resolutions += 1;
                    mcdn_obs::record(mcdn_obs::id::RESOLUTIONS, 1);
                    // Re-record the slot after every recomputation (and
                    // drop it when the resolution is not replayable): the
                    // slot must always describe the probe's *current*
                    // cache trajectory.
                    if p.reuse {
                        slots[i] = if result.is_ok() && outcome_attempts == 1 {
                            ReuseSlot::record(
                                scratch.trace(),
                                scratch.dep_record(),
                                &cns,
                                scratch,
                                probe.spec.city.locode,
                                outcome_buf,
                                t,
                                versions,
                                // Lazy: evaluated (one Vec) only for
                                // recordable chains.
                                mcdn_obs::delta_since_mark,
                            )
                        } else {
                            None
                        };
                        if slots[i].is_some() {
                            mcdn_obs::record(mcdn_obs::id::REUSE_RECORDS, 1);
                        }
                    }
                }
                memo.counts_into(&cns, scratch, &mut partial.memo_counts);
                // Drain the thread-local sink into the partial: the merge
                // below absorbs it in canonical shard order, regardless of
                // which worker thread happened to run this shard.
                partial.obs = mcdn_obs::shard_take();
                partial
            },
        )?;
        if let Some(w) = walls.as_deref_mut() {
            // Side-band telemetry only: the walls never feed back into the
            // merged result, so timed and untimed runs stay bit-identical.
            w.extend(shard_walls);
        }
        // Canonical merge, in shard order. Memo counts are summed per key
        // across shards first: `lookups` is the total demand for memoizable
        // answers and `hits` what a single-shard memo would have served —
        // both independent of how many shards actually ran.
        round_counts.clear();
        for partial in partials {
            obs.absorb(partial.obs);
            for (continent, class, ip) in partial.observations {
                agg.record(t, continent, class, ip);
                classes.observe(ip, t, class);
            }
            resolutions += partial.resolutions;
            attempts += partial.attempts;
            retry_exhausted += partial.retry_exhausted;
            reused += partial.reused;
            for (key, count) in partial.memo_counts {
                *round_counts.entry(key).or_default() += count;
            }
        }
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
            let predicted_cost = if rounds_at_last_ckpt > 0 {
                last_ckpt_cost.as_secs_f64() * rounds_done as f64 / rounds_at_last_ckpt as f64
            } else {
                last_ckpt_cost.as_secs_f64()
            };
            let in_budget = ckpt_cost_total.as_secs_f64() + predicted_cost
                <= CHECKPOINT_OVERHEAD_BUDGET * compute_total.as_secs_f64();
            if suspending || (cadence_due && in_budget && !finished) {
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
                j.append(&ckpt, table_len)?;
                last_ckpt_cost = ckpt_started.elapsed();
                ckpt_cost_total += last_ckpt_cost;
                rounds_at_last_ckpt = rounds_done;
                mcdn_obs::global_add(mcdn_obs::global::CHECKPOINT_WRITES, 1);
                mcdn_obs::global_hist(
                    mcdn_obs::ghist::CHECKPOINT_WALL_US,
                    last_ckpt_cost.as_micros() as u64,
                );
            }
            if suspending {
                j.sync()?;
            }
        }
        if suspending {
            return Ok((CampaignRun::Suspended { rounds_done, total_rounds }, obs.finish()));
        }
    }
    Ok((
        CampaignRun::Complete(DnsCampaignResult {
            unique_ips: agg,
            ip_classes: classes.into_classes(),
            resolutions,
            attempts,
            retry_exhausted,
            memo_lookups,
            memo_hits,
            reused_resolutions: reused,
        }),
        obs.finish(),
    ))
}

/// Runs a campaign to completion without a journal, preserving the
/// historical infallible contract of the classic entry points: shards are
/// still panic-isolated and retried, but a shard that defeats its whole
/// retry budget aborts the process here.
fn run_to_completion(p: &CampaignParams<'_>) -> (DnsCampaignResult, mcdn_obs::MetricsSnapshot) {
    match drive_campaign(p, None, 1, None, None) {
        Ok((CampaignRun::Complete(result), snapshot)) => (result, snapshot),
        Ok((CampaignRun::Suspended { .. }, _)) => unreachable!("no stop_after was requested"),
        Err(e) => panic!("campaign failed: {e}"),
    }
}

/// [`run_to_completion`] that also collects the wall-clock time of every
/// supervised shard execution, in canonical (round-major, shard-minor)
/// order.
fn run_to_completion_timed(
    p: &CampaignParams<'_>,
) -> (DnsCampaignResult, Vec<std::time::Duration>, mcdn_obs::MetricsSnapshot) {
    let mut walls = Vec::new();
    let (result, snapshot) = match drive_campaign(p, None, 1, None, Some(&mut walls)) {
        Ok((CampaignRun::Complete(result), snapshot)) => (result, snapshot),
        Ok((CampaignRun::Suspended { .. }, _)) => unreachable!("no stop_after was requested"),
        Err(e) => panic!("campaign failed: {e}"),
    };
    (result, walls, snapshot)
}

/// The pre-interning string-path engine, kept verbatim as the test
/// oracle: the interned engine must reproduce its output bit for bit
/// (same snapshots, same faults, same memo accounting).
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
fn run_campaign_reference(
    world: &World,
    specs: &[mcdn_atlas::ProbeSpec],
    start: SimTime,
    end: SimTime,
    interval: Duration,
    bin: Duration,
    availability: Availability,
    profile: FaultProfile,
    retry: RetryPolicy,
    threads: usize,
) -> DnsCampaignResult {
    use crate::classes::attribute_trace;
    use mcdn_dnssim::{MemoKey, RoundMemo};
    let mut fleet = build_fleet(specs.to_vec());
    let mut agg = UniqueIpAggregator::new(bin);
    let mut classes = IpClassLedger::new();
    let mut resolutions = 0u64;
    let mut attempts = 0u64;
    let mut retry_exhausted = 0u64;
    let mut memo_lookups = 0u64;
    let mut memo_hits = 0u64;
    let entry = metacdn::names::entry();
    let ctrl_step = Duration::mins(30).min(interval);
    let mut ctrl_t = start;
    let mut t = start;
    while t < end {
        while ctrl_t < t {
            update_loads(world, ctrl_t);
            ctrl_t += ctrl_step;
        }
        update_loads(world, t);
        let snap = Arc::new(world.state.capture());
        let partials = mcdn_exec::shard_map(&mut fleet, threads, |_shard_idx, shard| {
            let _guard = metacdn::install_snapshot(Arc::clone(&snap));
            let faults = CampaignFaults::new(profile, world);
            let mutations = CampaignMutations::new(profile);
            let bailiwick = bailiwick_policy(&profile);
            let mut memo = RoundMemo::new();
            let mut shard_agg = UniqueIpAggregator::new(bin);
            let mut shard_classes = IpClassLedger::new();
            let mut partial = ShardPartial {
                observations: Vec::new(),
                resolutions: 0,
                attempts: 0,
                retry_exhausted: 0,
                reused: 0,
                memo_counts: HashMap::default(),
                obs: Default::default(),
            };
            for probe in shard.iter_mut() {
                if !availability.is_online(probe.id, t) {
                    continue;
                }
                let outcome = probe.measure_adversarial(
                    &world.ns,
                    &entry,
                    RecordType::A,
                    t,
                    &faults,
                    &mutations,
                    bailiwick,
                    &retry,
                    Some(&mut memo),
                );
                partial.attempts += outcome.attempts as u64;
                if matches!(&outcome.result, Err(e) if e.is_transient()) {
                    partial.retry_exhausted += 1;
                }
                let attribution = attribute_trace(&outcome.trace);
                for ip in outcome.trace.addresses() {
                    let class = world.classify(attribution, ip);
                    shard_agg.record(t, probe.spec.city.continent, class, ip);
                    shard_classes.observe(ip, t, class);
                }
                partial.resolutions += 1;
            }
            (partial, shard_agg, shard_classes, memo.into_counts())
        });
        let mut round_counts: HashMap<MemoKey, u64> = HashMap::new();
        for (partial, shard_agg, shard_classes, memo_counts) in partials {
            agg.merge(shard_agg);
            classes.merge(shard_classes);
            resolutions += partial.resolutions;
            attempts += partial.attempts;
            retry_exhausted += partial.retry_exhausted;
            for (key, count) in memo_counts {
                *round_counts.entry(key).or_default() += count;
            }
        }
        let round_lookups: u64 = round_counts.values().sum();
        memo_lookups += round_lookups;
        memo_hits += round_lookups - round_counts.len() as u64;
        t += interval;
    }
    DnsCampaignResult {
        unique_ips: agg,
        ip_classes: classes.into_classes(),
        resolutions,
        attempts,
        retry_exhausted,
        memo_lookups,
        memo_hits,
        reused_resolutions: 0,
    }
}

/// The worldwide campaign (Figure 4): `cfg.global_probes` probes resolving
/// the entry name every `cfg.global_dns_interval`, binned hourly. Runs on
/// [`mcdn_exec::thread_count()`] workers (the `MCDN_THREADS` environment
/// variable overrides); the result is identical for any thread count.
pub fn run_global_dns(world: &World, cfg: &ScenarioConfig) -> DnsCampaignResult {
    run_global_dns_threads(world, cfg, mcdn_exec::thread_count())
}

/// [`run_global_dns`] that also returns the campaign's
/// [`mcdn_obs::MetricsSnapshot`] — the deterministic counter registry,
/// trace events, and per-campaign process-global deltas.
pub fn run_global_dns_observed(
    world: &World,
    cfg: &ScenarioConfig,
) -> (DnsCampaignResult, mcdn_obs::MetricsSnapshot) {
    run_global_dns_threads_observed(world, cfg, mcdn_exec::thread_count())
}

/// [`run_global_dns`] with an explicit worker count.
pub fn run_global_dns_threads(
    world: &World,
    cfg: &ScenarioConfig,
    threads: usize,
) -> DnsCampaignResult {
    run_global_dns_threads_observed(world, cfg, threads).0
}

/// [`run_global_dns_threads`] with the campaign's metrics snapshot. The
/// deterministic portion of the snapshot is bit-identical for any worker
/// count, like the result itself.
pub fn run_global_dns_threads_observed(
    world: &World,
    cfg: &ScenarioConfig,
    threads: usize,
) -> (DnsCampaignResult, mcdn_obs::MetricsSnapshot) {
    run_to_completion(&global_params(world, cfg, threads))
}

/// [`run_global_dns_threads`] that additionally reports the wall-clock
/// time of every supervised shard execution, round-major in canonical
/// shard order — the load-balance telemetry the campaign benchmark
/// records. Timing is side-band only: the campaign result is
/// bit-identical to the untimed entry point's.
pub fn run_global_dns_threads_timed(
    world: &World,
    cfg: &ScenarioConfig,
    threads: usize,
) -> (DnsCampaignResult, Vec<std::time::Duration>) {
    let (result, walls, _) = run_to_completion_timed(&global_params(world, cfg, threads));
    (result, walls)
}

/// [`run_global_dns_threads_timed`] that additionally returns the
/// metrics snapshot — what the campaign benchmark embeds in its report.
pub fn run_global_dns_threads_timed_observed(
    world: &World,
    cfg: &ScenarioConfig,
    threads: usize,
) -> (DnsCampaignResult, Vec<std::time::Duration>, mcdn_obs::MetricsSnapshot) {
    run_to_completion_timed(&global_params(world, cfg, threads))
}

/// [`run_isp_dns_threads`] with per-shard wall times; see
/// [`run_global_dns_threads_timed`].
pub fn run_isp_dns_threads_timed(
    world: &World,
    cfg: &ScenarioConfig,
    threads: usize,
) -> (DnsCampaignResult, Vec<std::time::Duration>) {
    let (result, walls, _) = run_to_completion_timed(&isp_params(world, cfg, threads));
    (result, walls)
}

/// [`run_isp_dns_threads_timed`] with the metrics snapshot; see
/// [`run_global_dns_threads_timed_observed`].
pub fn run_isp_dns_threads_timed_observed(
    world: &World,
    cfg: &ScenarioConfig,
    threads: usize,
) -> (DnsCampaignResult, Vec<std::time::Duration>, mcdn_obs::MetricsSnapshot) {
    run_to_completion_timed(&isp_params(world, cfg, threads))
}

/// The in-ISP campaign (Figure 5): probes inside the Eyeball ISP resolving
/// every `cfg.isp_dns_interval` from Aug 20 to Dec 31, binned daily. Runs
/// on [`mcdn_exec::thread_count()`] workers; the result is identical for
/// any thread count.
pub fn run_isp_dns(world: &World, cfg: &ScenarioConfig) -> DnsCampaignResult {
    run_isp_dns_threads(world, cfg, mcdn_exec::thread_count())
}

/// [`run_isp_dns`] with the campaign's metrics snapshot; see
/// [`run_global_dns_observed`].
pub fn run_isp_dns_observed(
    world: &World,
    cfg: &ScenarioConfig,
) -> (DnsCampaignResult, mcdn_obs::MetricsSnapshot) {
    run_isp_dns_threads_observed(world, cfg, mcdn_exec::thread_count())
}

/// [`run_isp_dns`] with an explicit worker count.
pub fn run_isp_dns_threads(
    world: &World,
    cfg: &ScenarioConfig,
    threads: usize,
) -> DnsCampaignResult {
    run_isp_dns_threads_observed(world, cfg, threads).0
}

/// [`run_isp_dns_threads`] with the campaign's metrics snapshot; see
/// [`run_global_dns_threads_observed`].
pub fn run_isp_dns_threads_observed(
    world: &World,
    cfg: &ScenarioConfig,
    threads: usize,
) -> (DnsCampaignResult, mcdn_obs::MetricsSnapshot) {
    run_to_completion(&isp_params(world, cfg, threads))
}

/// [`CampaignParams`] of the global campaign, shared by the plain and
/// resumable entry points so both walk the identical trajectory.
fn global_params<'a>(world: &'a World, cfg: &ScenarioConfig, threads: usize) -> CampaignParams<'a> {
    CampaignParams {
        world,
        specs: &world.global_probe_specs,
        start: cfg.global_start,
        end: cfg.global_end,
        interval: cfg.global_dns_interval,
        bin: Duration::hours(1),
        availability: Availability::with_rate(cfg.probe_availability, cfg.seed ^ 0xA7A5),
        profile: cfg.faults.with_seed(cfg.faults.seed ^ 0xA7A5),
        retry: cfg.retry,
        threads,
        reuse: reuse_enabled(),
    }
}

/// [`CampaignParams`] of the in-ISP campaign.
fn isp_params<'a>(world: &'a World, cfg: &ScenarioConfig, threads: usize) -> CampaignParams<'a> {
    CampaignParams {
        world,
        specs: &world.isp_probe_specs,
        start: cfg.isp_start,
        end: cfg.isp_end,
        interval: cfg.isp_dns_interval,
        bin: Duration::days(1),
        availability: Availability::with_rate(cfg.probe_availability, cfg.seed ^ 0xB7B5),
        profile: cfg.faults.with_seed(cfg.faults.seed ^ 0xB7B5),
        retry: cfg.retry,
        threads,
        reuse: reuse_enabled(),
    }
}

/// Resolves `ResumeOptions::threads == 0` to the ambient worker count.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        mcdn_exec::thread_count()
    } else {
        threads
    }
}

/// Crash-safe [`run_global_dns`]: checkpoints progress into the journal at
/// `journal` after every round and, when the journal already holds a
/// checkpoint from an interrupted run with the same config fingerprint,
/// resumes from it instead of starting over. The completed result is
/// bit-identical to an uninterrupted [`run_global_dns`] regardless of how
/// many times the process died and resumed in between.
pub fn run_global_dns_resumable(
    world: &World,
    cfg: &ScenarioConfig,
    journal: &Path,
) -> Result<DnsCampaignResult, CampaignError> {
    match run_global_dns_resumable_with(world, cfg, journal, ResumeOptions::default())? {
        CampaignRun::Complete(result) => Ok(result),
        CampaignRun::Suspended { .. } => unreachable!("no stop_after was requested"),
    }
}

/// [`run_global_dns_resumable`] with explicit [`ResumeOptions`]: worker
/// count, checkpoint cadence, and an optional round budget after which the
/// run suspends with a durable checkpoint instead of completing.
pub fn run_global_dns_resumable_with(
    world: &World,
    cfg: &ScenarioConfig,
    journal: &Path,
    opts: ResumeOptions,
) -> Result<CampaignRun, CampaignError> {
    Ok(run_global_dns_resumable_with_observed(world, cfg, journal, opts)?.0)
}

/// [`run_global_dns_resumable_with`] that also returns the metrics
/// snapshot. Deterministic counters and trace events survive kill→resume
/// bit-exactly (they ride in every checkpoint); process-class counters
/// describe only the work the final process performed.
pub fn run_global_dns_resumable_with_observed(
    world: &World,
    cfg: &ScenarioConfig,
    journal: &Path,
    opts: ResumeOptions,
) -> Result<(CampaignRun, mcdn_obs::MetricsSnapshot), CampaignError> {
    let p = global_params(world, cfg, resolve_threads(opts.threads));
    drive_campaign(&p, Some(journal), opts.checkpoint_every, opts.stop_after_rounds, None)
}

/// Crash-safe [`run_isp_dns`]; see [`run_global_dns_resumable`].
pub fn run_isp_dns_resumable(
    world: &World,
    cfg: &ScenarioConfig,
    journal: &Path,
) -> Result<DnsCampaignResult, CampaignError> {
    match run_isp_dns_resumable_with(world, cfg, journal, ResumeOptions::default())? {
        CampaignRun::Complete(result) => Ok(result),
        CampaignRun::Suspended { .. } => unreachable!("no stop_after was requested"),
    }
}

/// [`run_isp_dns_resumable`] with explicit [`ResumeOptions`].
pub fn run_isp_dns_resumable_with(
    world: &World,
    cfg: &ScenarioConfig,
    journal: &Path,
    opts: ResumeOptions,
) -> Result<CampaignRun, CampaignError> {
    Ok(run_isp_dns_resumable_with_observed(world, cfg, journal, opts)?.0)
}

/// [`run_isp_dns_resumable_with`] with the metrics snapshot; see
/// [`run_global_dns_resumable_with_observed`].
pub fn run_isp_dns_resumable_with_observed(
    world: &World,
    cfg: &ScenarioConfig,
    journal: &Path,
    opts: ResumeOptions,
) -> Result<(CampaignRun, mcdn_obs::MetricsSnapshot), CampaignError> {
    let p = isp_params(world, cfg, resolve_threads(opts.threads));
    drive_campaign(&p, Some(journal), opts.checkpoint_every, opts.stop_after_rounds, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tentpole's correctness contract: the interned engine is
    /// output-identical to the retired string engine — quiet and under a
    /// chaos-grade fault profile — for every field of the result,
    /// including the canonical memo accounting.
    #[test]
    fn interned_engine_matches_string_reference() {
        let profiles = [
            ("none", mcdn_faults::FaultProfile::none()),
            ("total-dark", crate::chaos::total_dark_scenario(41).faults),
            ("poisoning-enforced", mcdn_faults::FaultProfile::poisoning(43)),
            (
                "poisoning-open",
                mcdn_faults::FaultProfile::poisoning(43).with_bailiwick_enforcement(false),
            ),
        ];
        for (label, faults) in profiles {
            let mut cfg = ScenarioConfig::fast();
            cfg.global_probes = 40;
            cfg.global_dns_interval = Duration::hours(2);
            cfg.global_start = SimTime::from_ymd_hms(2017, 9, 18, 12, 0, 0);
            cfg.global_end = SimTime::from_ymd(2017, 9, 19);
            cfg.faults = faults;
            let want = {
                let world = World::build(&cfg);
                run_campaign_reference(
                    &world,
                    &world.global_probe_specs,
                    cfg.global_start,
                    cfg.global_end,
                    cfg.global_dns_interval,
                    Duration::hours(1),
                    Availability::with_rate(cfg.probe_availability, cfg.seed ^ 0xA7A5),
                    cfg.faults.with_seed(cfg.faults.seed ^ 0xA7A5),
                    cfg.retry,
                    2,
                )
            };
            let got = {
                let world = World::build(&cfg);
                run_global_dns_threads(&world, &cfg, 2)
            };
            assert_eq!(got, want, "interned engine diverged under profile {label}");
            assert!(want.resolutions > 0);
        }
    }

    /// The incremental engine's correctness contract — the full-recompute
    /// differential oracle: with reuse enabled, every campaign output is
    /// bit-identical to full recomputation, across thread counts and
    /// under quiet, chaos-grade, and poisoning-grade fault profiles.
    /// (`PartialEq` on the result deliberately ignores the
    /// `reused_resolutions` telemetry; every measurement field is
    /// compared.)
    #[test]
    fn incremental_reuse_matches_full_recompute() {
        let profiles = [
            ("none", mcdn_faults::FaultProfile::none()),
            ("total-dark", crate::chaos::total_dark_scenario(41).faults),
            ("poisoning-enforced", mcdn_faults::FaultProfile::poisoning(43)),
        ];
        for (label, faults) in profiles {
            for threads in [1usize, 2, 8] {
                let mut cfg = ScenarioConfig::fast();
                cfg.global_probes = 60;
                cfg.global_dns_interval = Duration::mins(30);
                cfg.global_start = SimTime::from_ymd_hms(2017, 9, 18, 12, 0, 0);
                cfg.global_end = SimTime::from_ymd(2017, 9, 19);
                cfg.faults = faults;
                let (full, full_obs) = {
                    let world = World::build(&cfg);
                    let mut p = global_params(&world, &cfg, threads);
                    p.reuse = false;
                    run_to_completion(&p)
                };
                let (incremental, incremental_obs) = {
                    let world = World::build(&cfg);
                    let mut p = global_params(&world, &cfg, threads);
                    p.reuse = true;
                    run_to_completion(&p)
                };
                assert_eq!(
                    incremental, full,
                    "incremental engine diverged under profile {label}, {threads} threads"
                );
                // The deterministic metrics export is part of the reuse
                // contract too: replayed deltas must reproduce the exact
                // counters a recomputation records.
                assert_eq!(
                    incremental_obs.det_jsonl(),
                    full_obs.det_jsonl(),
                    "deterministic metrics diverged under profile {label}, {threads} threads"
                );
                assert_eq!(full.reused_resolutions, 0);
                assert!(full.resolutions > 0);
            }
        }
    }

    /// Steady state must actually replay: the quiet global campaign has
    /// special-market probes whose whole chain is time-independent, and
    /// the reused count is canonical (identical for every thread count).
    #[test]
    fn quiet_campaign_replays_and_count_is_canonical() {
        let mut cfg = ScenarioConfig::fast();
        cfg.global_probes = 60;
        cfg.global_dns_interval = Duration::mins(30);
        cfg.global_start = SimTime::from_ymd_hms(2017, 9, 18, 12, 0, 0);
        cfg.global_end = SimTime::from_ymd(2017, 9, 19);
        let mut counts = Vec::new();
        for threads in [1usize, 2, 8] {
            let world = World::build(&cfg);
            let mut p = global_params(&world, &cfg, threads);
            p.reuse = true;
            counts.push(run_to_completion(&p).0.reused_resolutions);
        }
        assert!(counts[0] > 0, "quiet steady state must replay some resolutions");
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[0], counts[2]);
    }

    /// Pins the [`PartialEq`] contract documented on
    /// [`DnsCampaignResult`]: `reused_resolutions` is process telemetry
    /// (replay vs recompute), not measurement output, so two results
    /// differing only there compare equal — while every measurement
    /// field still participates in equality.
    #[test]
    fn reused_resolutions_is_excluded_from_equality() {
        let mut cfg = ScenarioConfig::fast();
        cfg.global_probes = 12;
        cfg.global_dns_interval = Duration::hours(6);
        cfg.global_start = SimTime::from_ymd_hms(2017, 9, 18, 12, 0, 0);
        cfg.global_end = SimTime::from_ymd(2017, 9, 19);
        let world = World::build(&cfg);
        let (result, _) = run_to_completion(&global_params(&world, &cfg, 2));

        let mut telemetry_only = result.clone();
        telemetry_only.reused_resolutions = result.reused_resolutions + 1_000_000;
        assert_eq!(result, telemetry_only, "reused_resolutions must not affect equality");

        for mutate in [
            (|r: &mut DnsCampaignResult| r.resolutions += 1) as fn(&mut DnsCampaignResult),
            |r| r.attempts += 1,
            |r| r.retry_exhausted += 1,
            |r| r.memo_lookups += 1,
            |r| r.memo_hits += 1,
            |r| {
                r.ip_classes.insert(Ipv4Addr::new(203, 0, 113, 99), CdnClass::Apple);
            },
        ] {
            let mut changed = result.clone();
            mutate(&mut changed);
            assert_ne!(result, changed, "measurement fields must affect equality");
        }
    }

    /// TTL-boundary exactness, pinned to a single special-market probe
    /// whose chain is `entry` (static CNAME, TTL 21600) → geo split
    /// (pure policy CNAME, TTL 120) → market pool (static A, TTL 60):
    ///
    /// * round 1 resolves cold (all misses, the 21600 s entry store
    ///   blocks reuse for a full entry lifetime),
    /// * round 2 re-resolves (entry now a cache hit) and records the
    ///   replayable slot,
    /// * rounds 3–12 replay (the 120 s stores expire between rounds, the
    ///   entry hit stays live),
    /// * round 13 lands exactly on the entry's absolute expiry — the
    ///   slot invalidates *at* the boundary, never one round early or
    ///   late — and the cycle repeats.
    ///
    /// 24 half-hour rounds ⇒ exactly 2 × 10 replays, and the output is
    /// bit-identical to full recomputation.
    #[test]
    fn ttl_boundaries_gate_reuse_exactly() {
        use mcdn_geo::{Locode, Registry};
        let cfg = ScenarioConfig::fast();
        let beijing = Registry::by_locode(Locode::parse("cnbjs").unwrap()).unwrap();
        let start = SimTime::from_ymd(2017, 9, 18);
        let run = |reuse: bool| {
            let world = World::build(&cfg);
            let spec = mcdn_atlas::ProbeSpec {
                city: beijing,
                as_id: world.global_probe_specs[0].as_id,
                ip: Ipv4Addr::new(100, 64, 0, 1),
            };
            let p = CampaignParams {
                world: &world,
                specs: std::slice::from_ref(&spec),
                start,
                end: start + Duration::hours(12),
                interval: Duration::mins(30),
                bin: Duration::hours(1),
                availability: Availability::with_rate(1.0, 0),
                profile: FaultProfile::none(),
                retry: RetryPolicy::none(),
                threads: 1,
                reuse,
            };
            run_to_completion(&p).0
        };
        let incremental = run(true);
        let full = run(false);
        assert_eq!(incremental, full);
        assert_eq!(incremental.resolutions, 24);
        assert_eq!(
            incremental.reused_resolutions, 20,
            "expected rounds 3-12 and 15-24 to replay, 1-2 and 13-14 to recompute"
        );
        assert_eq!(full.reused_resolutions, 0);
    }

    /// Suspend/resume with reuse enabled: slots are engine memory, so the
    /// resumed process recomputes where the uninterrupted one replayed —
    /// and the measurement output must not care.
    #[test]
    fn resume_with_reuse_is_output_identical() {
        let dir = std::env::temp_dir().join(format!("mcdn-reuse-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("reuse-resume.journal");
        let _ = std::fs::remove_file(&journal);
        let mut cfg = ScenarioConfig::fast();
        cfg.global_probes = 30;
        cfg.global_dns_interval = Duration::mins(30);
        cfg.global_start = SimTime::from_ymd_hms(2017, 9, 18, 12, 0, 0);
        cfg.global_end = SimTime::from_ymd(2017, 9, 19);
        let plain = {
            let world = World::build(&cfg);
            run_global_dns_threads(&world, &cfg, 2)
        };
        // First process: run half the campaign, then suspend.
        {
            let world = World::build(&cfg);
            let opts = ResumeOptions {
                threads: 2,
                stop_after_rounds: Some(12),
                ..ResumeOptions::default()
            };
            match run_global_dns_resumable_with(&world, &cfg, &journal, opts).unwrap() {
                CampaignRun::Suspended { rounds_done, .. } => assert_eq!(rounds_done, 12),
                CampaignRun::Complete(_) => panic!("should have suspended"),
            }
        }
        // Second process: resume and finish. Its reuse slots start empty.
        let resumed = {
            let world = World::build(&cfg);
            let opts = ResumeOptions { threads: 2, ..ResumeOptions::default() };
            match run_global_dns_resumable_with(&world, &cfg, &journal, opts).unwrap() {
                CampaignRun::Complete(result) => result,
                CampaignRun::Suspended { .. } => panic!("should have completed"),
            }
        };
        assert_eq!(resumed, plain);
        let _ = std::fs::remove_file(&journal);
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
        let result = run_global_dns(&world, &cfg);
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
        let result = run_global_dns(&world, &cfg);
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
        let result = run_isp_dns(&world, &cfg);
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
