//! The resolution engine: recursive resolution over an interned namespace.
//!
//! A [`Namespace`] is compiled into an id-keyed form once per campaign
//! (or crawl, or report), and the whole resolve loop runs on `u32`
//! [`NameId`]s — no [`Name`] is cloned into cache keys, memo keys, or
//! trace steps on any hop:
//!
//! * [`CompiledNamespace`] interns every name the namespace can mention
//!   into a shared [`NameTable`] and precomputes, per name, its
//!   authoritative zone, declared [`PolicyScope`], existence bit, and
//!   display-form FNV-1a digest (the fault-key prefix). Static record
//!   sets become flat arena slices; dynamic [`MappingPolicy`] hooks are
//!   kept as borrowed trait objects, and the CNAME targets each policy
//!   declared are interned with everything else, so a policy's
//!   [`PolicyAnswer`] becomes [`IRecord`]s by indexing — no [`Name`] is
//!   built, cloned or hashed per query.
//! * [`InternedResolver`] chases the CNAME chain hop by hop — cache,
//!   fault hook, mutation hook, memo, authoritative query, bailiwick
//!   filter — writing answers and trace steps into a caller-owned
//!   [`ResolveScratch`] instead of allocating. Once its per-probe
//!   [`ICache`] and the scratch buffers are warm, a resolution performs
//!   no heap allocation, policy answers included: policies write
//!   addresses into the scratch address buffer, and an expired cache
//!   entry keeps its buffer for the store that follows the miss.
//!   `bench_campaigns` gates the average over a real campaign window
//!   below one allocation per resolution.
//! * [`IRoundMemo`] shares scope-stable answers within one round (see
//!   [`crate::memo`]): per-shard, cleared per round, its per-key counts
//!   exported under [`SharedName`]s (table ids, which every shard shares)
//!   so the cross-shard merge is independent of the thread count.
//! * [`CompiledNamespace::materialize_trace`] spells an [`ITrace`] out as
//!   a [`ResolutionTrace`] for readers that want names, and
//!   [`resolve_cold`] is the one-shot form of a whole resolution.
//!
//! Names that are *not* in the compiled table (a caller querying a name
//! the namespace never mentions) spill into a per-scratch overlay
//! interner and are answered through [`Zone::answer`](crate::Zone::answer);
//! the workspace namespaces intern everything at compile time, so the
//! overlay stays empty on the hot path.

use crate::cache::{MAX_CACHE_TTL, NEGATIVE_TTL};
use crate::context::QueryContext;
use crate::faults::UpstreamFault;
use crate::memo::MemoScope;
use crate::mutation::{apply_itamper, BailiwickPolicy, ITamper, InternedMutationModel, NoInternedMutations};
use crate::resolver::{ResolutionTrace, TraceStep, MAX_CHAIN};
use crate::zone::{MappingPolicy, Namespace, PolicyAnswer, PolicyScope, ZoneAnswer};
use mcdn_dnswire::{Name, RData, RecordType, ResourceRecord};
use mcdn_geo::{Duration, SimTime};
use mcdn_intern::{display_fnv, FnvBuildHasher, NameId, NameTable};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Interned record data: the two variants the resolver inspects, plus an
/// opaque catch-all carrying the wire type (enough for terminal-answer
/// checks; the payload of non-A/CNAME records is never read on the hot
/// path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IRData {
    /// An IPv4 address record.
    A(Ipv4Addr),
    /// A CNAME redirect to another interned name.
    Cname(NameId),
    /// An NS delegation to another interned name (carried structurally so
    /// bailiwick audits can see injected delegations; never chased).
    Ns(NameId),
    /// Any other record type, by wire value.
    Opaque(u16),
}

/// An interned resource record. `Copy`, so answer buffers and arenas
/// move records without touching the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IRecord {
    /// Owner name.
    pub name: NameId,
    /// Time to live, seconds.
    pub ttl: u32,
    /// The record data.
    pub rdata: IRData,
}

impl IRecord {
    /// The record type's wire value (A = 1, CNAME = 5, else the stored
    /// opaque value).
    pub fn rtype_u16(&self) -> u16 {
        match self.rdata {
            IRData::A(_) => RecordType::A.to_u16(),
            IRData::Cname(_) => RecordType::Cname.to_u16(),
            IRData::Ns(_) => RecordType::Ns.to_u16(),
            IRData::Opaque(t) => t,
        }
    }
}

/// Per-name facts precomputed at compile time (and lazily for overlay
/// names): which zone answers for it, how its answers scope, and whether
/// it exists there (NXDOMAIN vs NODATA).
#[derive(Debug, Clone, Copy)]
struct CompiledMeta {
    /// Index into [`CompiledNamespace::zones`] of the authoritative zone.
    authority: Option<u16>,
    /// Declared answer scope at this name ([`Zone::scope_of`](crate::Zone::scope_of)).
    scope: PolicyScope,
    /// Whether the authoritative zone has any record or policy here.
    exists: bool,
}

/// A dynamic policy in compiled form: the borrowed hook and the range of
/// its declared CNAME targets in [`CompiledZone::targets`].
struct CompiledPolicy<'a> {
    policy: &'a dyn MappingPolicy,
    targets: (u32, u32),
}

/// One zone in compiled form: statics as arena slices, policies as
/// borrowed hooks.
struct CompiledZone<'a> {
    /// Interned zone origin.
    origin: NameId,
    /// Dynamic mapping policies by interned owner id.
    policies: HashMap<u32, CompiledPolicy<'a>, FnvBuildHasher>,
    /// Declared CNAME targets of every policy, interned.
    targets: Vec<NameId>,
    /// Static record sets: `(owner id, wire qtype) → arena range`.
    statics: HashMap<(u32, u16), (u32, u32), FnvBuildHasher>,
    /// Backing storage for all static record sets.
    arena: Vec<IRecord>,
}

/// Internal query outcome; records (for the `Records` case) are written
/// into the caller's buffer.
enum IAnswer {
    Records,
    NoData,
    NxDomain,
}

/// The result of replicating [`Namespace::authority_for`]: index of the
/// most specific zone, breaking label-count ties like
/// `Iterator::max_by_key` (last maximum wins).
fn authority_index(ns: &Namespace, name: &Name) -> Option<u16> {
    let mut best: Option<(usize, usize)> = None;
    for (i, z) in ns.zones().iter().enumerate() {
        if name.is_within(z.origin()) {
            let labels = z.origin().label_count();
            let better = match best {
                Some((best_labels, _)) => labels >= best_labels,
                None => true,
            };
            if better {
                best = Some((labels, i));
            }
        }
    }
    best.map(|(_, i)| i as u16)
}

fn meta_for(ns: &Namespace, name: &Name) -> CompiledMeta {
    let authority = authority_index(ns, name);
    let (scope, exists) = match authority {
        Some(i) => {
            let z = &ns.zones()[i as usize];
            (z.scope_of(name), z.contains_name(name))
        }
        None => (PolicyScope::Global, false),
    };
    CompiledMeta { authority, scope, exists }
}

/// Overflow interner for names outside the compiled table, owned by a
/// [`ResolveScratch`]. Ids continue past the table (`table.len() + i`).
/// The workspace namespaces intern everything at compile time, so this
/// stays empty in the campaign engine; it exists so arbitrary queries
/// (tests, ad-hoc probes) remain correct rather than panicking.
#[derive(Debug, Default)]
pub struct Overlay {
    ids: HashMap<Name, u32, FnvBuildHasher>,
    names: Vec<Name>,
    fnvs: Vec<u64>,
    meta: Vec<CompiledMeta>,
}

impl Overlay {
    /// Names interned past the shared table, in id order.
    pub fn names(&self) -> &[Name] {
        &self.names
    }
}

/// A namespace compiled for the interned hot path. Borrows the
/// [`Namespace`] (policies stay where they live); build one per campaign
/// and share it read-only across shards.
pub struct CompiledNamespace<'a> {
    ns: &'a Namespace,
    table: NameTable,
    meta: Vec<CompiledMeta>,
    zones: Vec<CompiledZone<'a>>,
}

impl std::fmt::Debug for CompiledNamespace<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledNamespace")
            .field("names", &self.table.len())
            .field("zones", &self.zones.len())
            .finish()
    }
}

fn compiled_rr(table: &NameTable, rr: &ResourceRecord) -> IRecord {
    let name = table.get(&rr.name).expect("owner interned during compile pass 1");
    let rdata = match &rr.rdata {
        RData::A(a) => IRData::A(*a),
        RData::Cname(t) => IRData::Cname(table.get(t).expect("target interned during compile pass 1")),
        RData::Ns(t) => IRData::Ns(table.get(t).expect("target interned during compile pass 1")),
        other => IRData::Opaque(other.rtype().to_u16()),
    };
    IRecord { name, ttl: rr.ttl, rdata }
}

impl<'a> CompiledNamespace<'a> {
    /// Compiles `ns`: interns every origin, record owner, CNAME target,
    /// and policy owner, then freezes static record sets into per-zone
    /// arenas and precomputes per-name authority/scope/existence/FNV.
    pub fn compile(ns: &'a Namespace) -> CompiledNamespace<'a> {
        Self::compile_with_extra(ns, &[])
    }

    /// [`CompiledNamespace::compile`] with extra names interned into the
    /// shared table after the namespace's own (deterministic ids, so
    /// cache export/restore stays valid). Adversarial campaigns intern
    /// the attacker owner names here so injected records never touch the
    /// per-scratch overlay on the hot path.
    pub fn compile_with_extra(ns: &'a Namespace, extra: &[Name]) -> CompiledNamespace<'a> {
        let mut table = NameTable::new();
        // Pass 1: intern, in a deterministic order (zone installation
        // order, then sorted record-set keys / policy owners — the
        // underlying maps iterate in arbitrary order).
        for zone in ns.zones() {
            table.intern(zone.origin());
            let mut sets: Vec<(&Name, u16, &[ResourceRecord])> = zone.record_sets().collect();
            sets.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
            for (name, _, rrs) in &sets {
                table.intern(name);
                for rr in *rrs {
                    match &rr.rdata {
                        RData::Cname(target) | RData::Ns(target) => {
                            table.intern(target);
                        }
                        _ => {}
                    }
                }
            }
            for owner in zone.policy_names() {
                table.intern(owner);
            }
        }
        // Declared policy targets go after every zone's own names, so a
        // target some zone also mentions never shifts another name's id.
        for zone in ns.zones() {
            let mut policies: Vec<(&Name, &[Name])> =
                zone.policy_entries().map(|(owner, _, targets)| (owner, targets)).collect();
            policies.sort_by_key(|&(owner, _)| owner);
            for target in policies.iter().flat_map(|&(_, targets)| targets) {
                table.intern(target);
            }
        }
        for name in extra {
            table.intern(name);
        }
        table.shrink_to_fit();
        // Pass 2: freeze each zone.
        let zones: Vec<CompiledZone<'a>> = ns
            .zones()
            .iter()
            .map(|zone| {
                let origin = table.get(zone.origin()).expect("origin interned");
                let mut sets: Vec<(&Name, u16, &[ResourceRecord])> = zone.record_sets().collect();
                sets.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
                let mut arena = Vec::with_capacity(sets.iter().map(|(_, _, rrs)| rrs.len()).sum());
                let mut statics =
                    HashMap::with_capacity_and_hasher(sets.len(), FnvBuildHasher);
                for (name, qtype, rrs) in sets {
                    let id = table.get(name).expect("owner interned");
                    let start = arena.len() as u32;
                    arena.extend(rrs.iter().map(|rr| compiled_rr(&table, rr)));
                    statics.insert((id.0, qtype), (start, arena.len() as u32));
                }
                let mut targets = Vec::new();
                let policies = zone
                    .policy_entries()
                    .map(|(name, policy, names)| {
                        let start = targets.len() as u32;
                        targets
                            .extend(names.iter().map(|t| table.get(t).expect("target interned")));
                        let range = (start, targets.len() as u32);
                        (
                            table.get(name).expect("owner interned").0,
                            CompiledPolicy { policy, targets: range },
                        )
                    })
                    .collect();
                CompiledZone { origin, policies, targets, statics, arena }
            })
            .collect();
        // Pass 3: per-name metadata.
        let meta = table.iter().map(|(_, name)| meta_for(ns, name)).collect();
        CompiledNamespace { ns, table, meta, zones }
    }

    /// The shared name table (read-only after compile).
    pub fn table(&self) -> &NameTable {
        &self.table
    }

    /// Whether some zone is authoritative for the table name `id`
    /// ([`Namespace::authority_for`] answered at compile time). False for
    /// an id past the table: an overlay name's metadata lives in a
    /// [`ResolveScratch`].
    pub fn table_has_authority(&self, id: NameId) -> bool {
        self.meta.get(id.index()).is_some_and(|m| m.authority.is_some())
    }

    /// The namespace this was compiled from.
    pub fn namespace(&self) -> &'a Namespace {
        self.ns
    }

    /// The id for `name`, interning into the scratch overlay if the
    /// compiled table does not know it.
    pub fn intern_in(&self, scratch: &mut ResolveScratch, name: &Name) -> NameId {
        self.id_of(&mut scratch.overlay, name)
    }

    fn id_of(&self, overlay: &mut Overlay, name: &Name) -> NameId {
        if let Some(id) = self.table.get(name) {
            return id;
        }
        let base = self.table.len() as u32;
        if let Some(&off) = overlay.ids.get(name) {
            return NameId(base + off);
        }
        let off = overlay.names.len() as u32;
        overlay.ids.insert(name.clone(), off);
        overlay.names.push(name.clone());
        overlay.fnvs.push(display_fnv(name));
        overlay.meta.push(meta_for(self.ns, name));
        NameId(base + off)
    }

    fn meta_of(&self, overlay: &Overlay, id: NameId) -> CompiledMeta {
        let idx = id.index();
        if idx < self.table.len() {
            self.meta[idx]
        } else {
            overlay.meta[idx - self.table.len()]
        }
    }

    /// The FNV-1a digest of the name's display form (the fault-key
    /// prefix), precomputed at intern time.
    pub fn fnv_in(&self, scratch: &ResolveScratch, id: NameId) -> u64 {
        let idx = id.index();
        if idx < self.table.len() {
            self.table.fnv(id)
        } else {
            scratch.overlay.fnvs[idx - self.table.len()]
        }
    }

    /// The name behind `id`, whether table or overlay.
    pub fn name_in<'s>(&'s self, scratch: &'s ResolveScratch, id: NameId) -> &'s Name {
        self.name_of(&scratch.overlay, id)
    }

    /// `id` in the form every shard agrees on: table ids as they are,
    /// overlay names spelled out.
    pub fn shared_name(&self, scratch: &ResolveScratch, id: NameId) -> SharedName {
        if id.index() < self.table.len() {
            SharedName::Table(id)
        } else {
            SharedName::Overlay(self.name_in(scratch, id).clone())
        }
    }

    /// [`CompiledNamespace::name_in`] against a bare overlay — lets the
    /// resolver borrow the overlay and the answer buffer of one scratch
    /// disjointly (bailiwick filtering reads names while retaining).
    fn name_of<'s>(&'s self, overlay: &'s Overlay, id: NameId) -> &'s Name {
        let idx = id.index();
        if idx < self.table.len() {
            self.table.name(id)
        } else {
            &overlay.names[idx - self.table.len()]
        }
    }

    fn runtime_rr(&self, overlay: &mut Overlay, rr: &ResourceRecord) -> IRecord {
        let name = self.id_of(overlay, &rr.name);
        let rdata = match &rr.rdata {
            RData::A(a) => IRData::A(*a),
            RData::Cname(t) => IRData::Cname(self.id_of(overlay, t)),
            RData::Ns(t) => IRData::Ns(self.id_of(overlay, t)),
            other => IRData::Opaque(other.rtype().to_u16()),
        };
        IRecord { name, ttl: rr.ttl, rdata }
    }

    /// Answers one question like [`Namespace::query`], against the
    /// compiled form, writing any records into `scratch.answer`.
    fn query_into(
        &self,
        scratch: &mut ResolveScratch,
        current: NameId,
        qtype: RecordType,
        ctx: &QueryContext,
    ) -> (IAnswer, Option<NameId>) {
        let ResolveScratch { overlay, answer: out, addrs, .. } = scratch;
        out.clear();
        let meta = self.meta_of(overlay, current);
        let Some(zi) = meta.authority else {
            return (IAnswer::NxDomain, None);
        };
        let zone = &self.zones[zi as usize];
        let origin = zone.origin;
        let idx = current.index();
        if idx < self.table.len() {
            if let Some(p) = zone.policies.get(&current.0) {
                // The policy decides; its records, owned by the queried
                // name, are written here straight into the answer buffer.
                addrs.clear();
                match p.policy.respond(qtype, ctx, addrs) {
                    PolicyAnswer::Empty => {}
                    PolicyAnswer::Cname { target, ttl } => {
                        let targets = &zone.targets[p.targets.0 as usize..p.targets.1 as usize];
                        let rdata = IRData::Cname(targets[usize::from(target)]);
                        out.push(IRecord { name: current, ttl, rdata });
                    }
                    PolicyAnswer::A { ttl } => out.extend(addrs.iter().map(|&a| IRecord {
                        name: current,
                        ttl,
                        rdata: IRData::A(a),
                    })),
                }
                return (IAnswer::Records, Some(origin));
            }
            if let Some(&(s, e)) = zone.statics.get(&(current.0, qtype.to_u16())) {
                out.extend_from_slice(&zone.arena[s as usize..e as usize]);
                return (IAnswer::Records, Some(origin));
            }
            if qtype != RecordType::Cname {
                if let Some(&(s, e)) = zone.statics.get(&(current.0, RecordType::Cname.to_u16())) {
                    out.extend_from_slice(&zone.arena[s as usize..e as usize]);
                    return (IAnswer::Records, Some(origin));
                }
            }
            if meta.exists {
                (IAnswer::NoData, Some(origin))
            } else {
                (IAnswer::NxDomain, Some(origin))
            }
        } else {
            // Overlay name: cold path through the string-keyed zone.
            let name = overlay.names[idx - self.table.len()].clone();
            match self.ns.zones()[zi as usize].answer(&name, qtype, ctx) {
                ZoneAnswer::Records(rrs) => {
                    for rr in &rrs {
                        let ir = self.runtime_rr(overlay, rr);
                        out.push(ir);
                    }
                    (IAnswer::Records, Some(origin))
                }
                ZoneAnswer::NoData => (IAnswer::NoData, Some(origin)),
                ZoneAnswer::NxDomain => (IAnswer::NxDomain, Some(origin)),
            }
        }
    }

    /// Spells an interned trace out as a [`ResolutionTrace`] (reports,
    /// exports, tests — allocates freely). Lossy only for rdata other than
    /// A, CNAME and NS, which materializes as an empty `RData::Other` of
    /// the same wire type.
    pub fn materialize_trace(&self, scratch: &ResolveScratch, trace: &ITrace) -> ResolutionTrace {
        let steps = trace
            .steps()
            .iter()
            .map(|step| TraceStep {
                qname: self.name_in(scratch, step.qname).clone(),
                qtype: step.qtype,
                records: trace
                    .records_of(step)
                    .iter()
                    .map(|r| {
                        let rdata = match r.rdata {
                            IRData::A(a) => RData::A(a),
                            IRData::Cname(t) => RData::Cname(self.name_in(scratch, t).clone()),
                            IRData::Ns(t) => RData::Ns(self.name_in(scratch, t).clone()),
                            IRData::Opaque(t) => RData::Other(t, Vec::new()),
                        };
                        ResourceRecord::new(self.name_in(scratch, r.name).clone(), r.ttl, rdata)
                    })
                    .collect(),
                from_cache: step.from_cache,
                zone: step.zone.map(|z| self.name_in(scratch, z).clone()),
            })
            .collect();
        ResolutionTrace { steps }
    }
}

/// One step of an interned trace; records live in the trace's arena.
#[derive(Debug, Clone, Copy)]
pub struct ITraceStep {
    /// The name queried at this step.
    pub qname: NameId,
    /// The type queried.
    pub qtype: RecordType,
    rec_start: u32,
    rec_end: u32,
    /// Whether the answer came from the probe's cache.
    pub from_cache: bool,
    /// Origin of the answering zone (authoritative answers only).
    pub zone: Option<NameId>,
}

/// An interned resolution trace: steps plus a flat record arena, both
/// reused across resolutions.
#[derive(Debug, Default)]
pub struct ITrace {
    steps: Vec<ITraceStep>,
    records: Vec<IRecord>,
}

impl ITrace {
    fn clear(&mut self) {
        self.steps.clear();
        self.records.clear();
    }

    fn push(
        &mut self,
        qname: NameId,
        qtype: RecordType,
        records: &[IRecord],
        from_cache: bool,
        zone: Option<NameId>,
    ) {
        let rec_start = self.records.len() as u32;
        self.records.extend_from_slice(records);
        self.steps.push(ITraceStep {
            qname,
            qtype,
            rec_start,
            rec_end: self.records.len() as u32,
            from_cache,
            zone,
        });
    }

    /// The steps, in resolution order.
    pub fn steps(&self) -> &[ITraceStep] {
        &self.steps
    }

    /// The records answered at `step`.
    pub fn records_of(&self, step: &ITraceStep) -> &[IRecord] {
        &self.records[step.rec_start as usize..step.rec_end as usize]
    }

    /// Every A-record address in the trace, in step-then-record order —
    /// what [`ResolutionTrace::addresses`] returns after materializing.
    pub fn addresses(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.records.iter().filter_map(|r| match r.rdata {
            IRData::A(a) => Some(a),
            _ => None,
        })
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Caller-owned scratch state for interned resolution: the answer
/// buffer, the trace arena, and the overlay interner. One per shard,
/// reused across every probe and round — this is what makes the
/// steady-state loop allocation-free.
#[derive(Debug, Default)]
pub struct ResolveScratch {
    overlay: Overlay,
    answer: Vec<IRecord>,
    /// Where A-answering policies write their addresses.
    addrs: Vec<Ipv4Addr>,
    trace: ITrace,
}

impl ResolveScratch {
    /// Fresh scratch state.
    pub fn new() -> ResolveScratch {
        ResolveScratch::default()
    }

    /// The trace of the most recent resolution.
    pub fn trace(&self) -> &ITrace {
        &self.trace
    }

    /// The overlay interner (names outside the compiled table).
    pub fn overlay(&self) -> &Overlay {
        &self.overlay
    }
}

#[derive(Debug, Clone)]
struct IEntry {
    records: Vec<IRecord>,
    expires: SimTime,
    /// Evicted by a lookup that found it expired: logically absent (never
    /// served, never exported) while its buffer waits for the store that
    /// follows almost every such miss.
    evicted: bool,
}

/// The cache key of `(name id, qtype)`, packed as `id << 16 | qtype`, so
/// key order is `(id, qtype)` order.
fn cache_key(id: u32, qtype: u16) -> u64 {
    u64::from(id) << 16 | u64::from(qtype)
}

/// The per-probe TTL cache, keyed by `(name id, qtype)`: absolute expiry,
/// remaining-TTL clamp on hit, min-TTL/negative-TTL expiry on store (the
/// rules of [`crate::cache`]). Entry buffers are reused on re-store — an
/// expired entry is evicted in place rather than removed — so a warm
/// cache neither allocates nor frees.
///
/// A probe's cache only ever holds the names its chains visit (about a
/// dozen in a campaign), so the keys live in a short vector, scanned
/// linearly: a handful of integer compares over one or two cache lines,
/// where a hash map hashes the key and probes a table on every lookup and
/// store.
#[derive(Debug, Clone, Default)]
pub struct ICache {
    /// `keys[i]` is the packed [`cache_key`] of `entries[i]`; no key
    /// appears twice.
    keys: Vec<u64>,
    entries: Vec<IEntry>,
    hits: u64,
    misses: u64,
}

impl ICache {
    /// The index of `key`'s entry, if the cache holds one (evicted or not).
    fn slot(&self, key: u64) -> Option<usize> {
        self.keys.iter().position(|&k| k == key)
    }

    /// The entry of `key`, appended empty and evicted if the cache holds
    /// none: every store goes through here, so no key is held twice.
    fn slot_mut(&mut self, key: u64) -> &mut IEntry {
        let i = self.slot(key).unwrap_or_else(|| {
            self.keys.push(key);
            self.entries.push(IEntry { records: Vec::new(), expires: SimTime(0), evicted: true });
            self.entries.len() - 1
        });
        &mut self.entries[i]
    }

    /// Looks up `id`/`qtype` at `now`, writing the records (TTLs clamped
    /// to the remaining lifetime) into `out` on a hit. Returns whether it
    /// hit.
    fn get_into(&mut self, id: NameId, qtype: u16, now: SimTime, out: &mut Vec<IRecord>) -> bool {
        match self.slot(cache_key(id.0, qtype)).map(|i| &mut self.entries[i]) {
            Some(e) if !e.evicted && now < e.expires => {
                self.hits += 1;
                mcdn_obs::record(mcdn_obs::id::CACHE_HITS, 1);
                let remaining = e.expires.since(now).as_secs() as u32;
                out.clear();
                out.extend(e.records.iter().map(|r| IRecord { ttl: r.ttl.min(remaining), ..*r }));
                true
            }
            stale => {
                self.misses += 1;
                mcdn_obs::record(mcdn_obs::id::CACHE_MISSES, 1);
                // Present but past expiry: evicted in place, so the store
                // that follows reuses the buffer.
                if let Some(e) = stale.filter(|e| !e.evicted) {
                    e.evicted = true;
                    mcdn_obs::record(mcdn_obs::id::CACHE_EXPIRED, 1);
                }
                false
            }
        }
    }

    /// Stores an answer, returning the entry's effective TTL (the min
    /// clamped record TTL; [`NEGATIVE_TTL`] for empty answers) — the
    /// seconds until a lookup of this key flips back to a miss.
    fn put(&mut self, id: NameId, qtype: u16, records: &[IRecord], now: SimTime) -> u32 {
        // Inflated TTLs are capped at MAX_CACHE_TTL on the way in, so they
        // cannot pin entries past the ceiling.
        let ttl =
            records.iter().map(|r| r.ttl.min(MAX_CACHE_TTL)).min().unwrap_or(NEGATIVE_TTL);
        let e = self.slot_mut(cache_key(id.0, qtype));
        e.records.clear();
        e.records.extend(records.iter().map(|r| IRecord { ttl: r.ttl.min(MAX_CACHE_TTL), ..*r }));
        e.expires = now + Duration::secs(ttl as u64);
        e.evicted = false;
        ttl
    }

    /// The entries a lookup could still find (live or expired), i.e. all
    /// but the evicted ones, with their packed keys.
    fn held(&self) -> impl Iterator<Item = (u64, &IEntry)> {
        self.keys.iter().copied().zip(&self.entries).filter(|(_, e)| !e.evicted)
    }

    /// Drops every entry (counters survive).
    fn clear(&mut self) {
        self.keys.clear();
        self.entries.clear();
    }

    /// `(hits, misses)` counters: one per lookup.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// A memo key: `(name, qtype, scope, now)` (see [`crate::memo`]).
pub type IMemoKey = (NameId, RecordType, MemoScope, SimTime);

#[derive(Debug)]
struct IMemoEntry {
    start: u32,
    end: u32,
    zone: Option<NameId>,
    /// Queries served under this key, including the miss that stored it.
    lookups: u64,
}

/// One round's scope-stable answers, id-keyed, with a shared record
/// arena. [`IRoundMemo::clear`] resets it for the next round while
/// keeping capacity, and [`IRoundMemo::counts_into`] exports the per-key
/// lookup counts under [`SharedMemoKey`]s for the engine's canonical
/// cross-shard merge.
#[derive(Debug, Default)]
pub struct IRoundMemo {
    entries: HashMap<IMemoKey, IMemoEntry, FnvBuildHasher>,
    arena: Vec<IRecord>,
}

impl IRoundMemo {
    /// An empty memo.
    pub fn new() -> IRoundMemo {
        IRoundMemo::default()
    }

    /// Resets for a new round, retaining allocated capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.arena.clear();
    }

    fn replay_into(&mut self, key: &IMemoKey, out: &mut Vec<IRecord>) -> Option<Option<NameId>> {
        self.entries.get_mut(key).map(|e| {
            e.lookups += 1;
            out.clear();
            out.extend_from_slice(&self.arena[e.start as usize..e.end as usize]);
            e.zone
        })
    }

    fn store(&mut self, key: IMemoKey, records: &[IRecord], zone: Option<NameId>) {
        let start = self.arena.len() as u32;
        self.arena.extend_from_slice(records);
        self.entries.insert(
            key,
            IMemoEntry { start, end: self.arena.len() as u32, zone, lookups: 1 },
        );
    }

    /// Number of distinct memoized answers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been memoized.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total lookups of memoizable keys (hits plus storing misses).
    pub fn lookups(&self) -> u64 {
        self.entries.values().map(|e| e.lookups).sum()
    }

    /// Lookups served from the memo (this shard's local view).
    pub fn hits(&self) -> u64 {
        self.lookups() - self.entries.len() as u64
    }

    /// Adds this memo's per-key lookup counts to `out` under
    /// [`SharedMemoKey`]s, which mean the same in every shard, so the
    /// engine can sum them across shards. Once per shard-round; allocates
    /// only for overlay names.
    pub fn counts_into(
        &self,
        ns: &CompiledNamespace<'_>,
        scratch: &ResolveScratch,
        out: &mut HashMap<SharedMemoKey, u64, FnvBuildHasher>,
    ) {
        for (&(id, qtype, scope, t), e) in &self.entries {
            *out.entry((ns.shared_name(scratch, id), qtype, scope, t)).or_insert(0) += e.lookups;
        }
    }
}

/// A name as every shard of a campaign spells it: a compiled-table
/// [`NameId`] (the table is shared), or — for a name outside the table,
/// whose overlay id is shard-local — the name itself. A name is never
/// both, so equal names give equal `SharedName`s across shards.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SharedName {
    /// An id of the shared compiled table.
    Table(NameId),
    /// A name some shard interned into its overlay.
    Overlay(Name),
}

/// The cross-shard form of an [`IMemoKey`].
pub type SharedMemoKey = (SharedName, RecordType, MemoScope, SimTime);

/// Why a resolution failed; names are ids of the resolving
/// [`CompiledNamespace`] (and its scratch overlay).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IResolutionError {
    /// A name in the chain does not exist.
    NxDomain(NameId),
    /// The CNAME chain exceeded [`MAX_CHAIN`] hops.
    ChainTooLong,
    /// An authoritative zone answered SERVFAIL while resolving this name
    /// (injected via an [`InternedFaultModel`]; transient — retryable).
    ServFail(NameId),
    /// An upstream query for this name timed out (injected via an
    /// [`InternedFaultModel`]; transient — retryable).
    Timeout(NameId),
    /// The authoritative answer for this name arrived truncated or garbled
    /// beyond use (injected via an [`InternedMutationModel`]; transient —
    /// retryable, like a real resolver falling back after a malformed UDP
    /// response).
    Truncated(NameId),
}

impl IResolutionError {
    /// Whether a retry could plausibly succeed. NXDOMAIN and over-long
    /// chains are authoritative facts; SERVFAIL, timeouts and truncation
    /// are weather.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            IResolutionError::ServFail(_)
                | IResolutionError::Timeout(_)
                | IResolutionError::Truncated(_)
        )
    }
}

/// Decides whether one upstream query suffers a transient fault. The
/// resolver hands over the precomputed display-FNV digests of the zone
/// origin and query name — the FNV-1a of each name's `Display` form — so
/// fault models key their draws off the names without formatting
/// anything.
///
/// Implementations must be pure functions of their inputs (plus any frozen
/// configuration) so that campaigns stay reproducible. Any closure of the
/// right shape is a fault model, which lets tests inject ad-hoc
/// conditions ("that one zone is dark") without a named type.
pub trait InternedFaultModel {
    /// Consulted once per authoritative query (`attempt` is the caller's
    /// 0-based retry counter); returning a fault aborts the resolution
    /// with the corresponding transient error, after recording the faulted
    /// step in the trace.
    fn upstream_fault(
        &self,
        zone: NameId,
        zone_fnv: u64,
        qname: NameId,
        qname_fnv: u64,
        ctx: &QueryContext,
        attempt: u32,
    ) -> Option<UpstreamFault>;
}

/// The quiet fault model: never faults.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoInternedFaults;

impl InternedFaultModel for NoInternedFaults {
    fn upstream_fault(
        &self,
        _zone: NameId,
        _zone_fnv: u64,
        _qname: NameId,
        _qname_fnv: u64,
        _ctx: &QueryContext,
        _attempt: u32,
    ) -> Option<UpstreamFault> {
        None
    }
}

impl<F> InternedFaultModel for F
where
    F: Fn(NameId, u64, NameId, u64, &QueryContext, u32) -> Option<UpstreamFault> + Send + Sync,
{
    fn upstream_fault(
        &self,
        zone: NameId,
        zone_fnv: u64,
        qname: NameId,
        qname_fnv: u64,
        ctx: &QueryContext,
        attempt: u32,
    ) -> Option<UpstreamFault> {
        self(zone, zone_fnv, qname, qname_fnv, ctx, attempt)
    }
}

/// A recursive resolver with its own cache, as run by each probe: chases
/// CNAME chains across zones, consulting per hop the cache, then the
/// fault hook, the mutation hook, the round memo and finally the
/// authoritative zone (NXDOMAIN is never cached or memoized). Owns the
/// per-probe [`ICache`]; everything else comes in through the
/// [`ResolveScratch`].
#[derive(Debug, Clone, Default)]
pub struct InternedResolver {
    cache: ICache,
}

/// One exported cache cell: `(name id, qtype, absolute expiry, records)`.
/// See [`InternedResolver::cache_export`].
pub type ICacheExportEntry = (u32, u16, SimTime, Vec<IRecord>);

impl InternedResolver {
    /// A resolver with an empty cache.
    pub fn new() -> InternedResolver {
        InternedResolver::default()
    }

    /// Resolves `qname`/`qtype`, leaving the trace in `scratch.trace()`
    /// (also on failure: callers log what the probe saw before the
    /// error). Cache hits are never faulted — caches mask authoritative
    /// outages, as in the real DNS. Steady-state (warm cache, warm
    /// scratch) this performs zero heap allocations.
    #[allow(clippy::too_many_arguments)] // the fault-aware entry point
    pub fn resolve(
        &mut self,
        ns: &CompiledNamespace<'_>,
        scratch: &mut ResolveScratch,
        qname: NameId,
        qtype: RecordType,
        ctx: &QueryContext,
        faults: &dyn InternedFaultModel,
        attempt: u32,
        memo: Option<&mut IRoundMemo>,
    ) -> Result<(), IResolutionError> {
        self.resolve_adversarial(
            ns,
            scratch,
            qname,
            qtype,
            ctx,
            faults,
            &NoInternedMutations,
            BailiwickPolicy::Enforce,
            attempt,
            memo,
        )
    }

    /// The full adversarial entry point: fault model, answer-mutation
    /// model, explicit [`BailiwickPolicy`], optional memo.
    /// [`InternedResolver::resolve`] is this with [`NoInternedMutations`]
    /// and [`BailiwickPolicy::Enforce`]. A tampered query bypasses the
    /// memo (like a faulted one), so replayed answers are always the
    /// untampered authoritative ones.
    #[allow(clippy::too_many_arguments)] // the superset of every entry point
    pub fn resolve_adversarial(
        &mut self,
        ns: &CompiledNamespace<'_>,
        scratch: &mut ResolveScratch,
        qname: NameId,
        qtype: RecordType,
        ctx: &QueryContext,
        faults: &dyn InternedFaultModel,
        mutations: &dyn InternedMutationModel,
        bailiwick: BailiwickPolicy,
        attempt: u32,
        mut memo: Option<&mut IRoundMemo>,
    ) -> Result<(), IResolutionError> {
        scratch.trace.clear();
        let mut current = qname;
        for _ in 0..MAX_CHAIN {
            let mut zone = None;
            let from_cache =
                self.cache.get_into(current, qtype.to_u16(), ctx.now, &mut scratch.answer);
            if !from_cache {
                let meta = ns.meta_of(&scratch.overlay, current);
                let mut tamper = None;
                if let Some(zi) = meta.authority {
                    let zorigin = ns.zones[zi as usize].origin;
                    let zone_fnv = ns.fnv_in(scratch, zorigin);
                    let qname_fnv = ns.fnv_in(scratch, current);
                    if let Some(fault) =
                        faults.upstream_fault(zorigin, zone_fnv, current, qname_fnv, ctx, attempt)
                    {
                        scratch.trace.push(current, qtype, &[], false, Some(zorigin));
                        return Err(match fault {
                            UpstreamFault::ServFail => {
                                mcdn_obs::record(mcdn_obs::id::FAULT_SERVFAIL, 1);
                                IResolutionError::ServFail(current)
                            }
                            UpstreamFault::Timeout => {
                                mcdn_obs::record(mcdn_obs::id::FAULT_TIMEOUT, 1);
                                IResolutionError::Timeout(current)
                            }
                        });
                    }
                    // The mutation hook runs after the fault hook: a query
                    // that never reaches the zone cannot see a tampered
                    // answer.
                    tamper = mutations
                        .answer_mutation(zorigin, zone_fnv, current, qname_fnv, ctx, attempt);
                    if let Some(t) = &tamper {
                        mcdn_obs::record(
                            match t {
                                ITamper::SpoofA { .. } => mcdn_obs::id::TAMPER_SPOOF_A,
                                ITamper::InjectNs { .. } => mcdn_obs::id::TAMPER_INJECT_NS,
                                ITamper::Truncate => mcdn_obs::id::TAMPER_TRUNCATE,
                                ITamper::InflateTtl { .. } => mcdn_obs::id::TAMPER_INFLATE_TTL,
                            },
                            1,
                        );
                    }
                    if matches!(tamper, Some(ITamper::Truncate)) {
                        scratch.trace.push(current, qtype, &[], false, Some(zorigin));
                        return Err(IResolutionError::Truncated(current));
                    }
                }
                // Tampered queries bypass the memo entirely.
                let memo_key = if memo.is_some() && tamper.is_none() {
                    MemoScope::for_query(meta.scope, ctx.locode)
                        .map(|scope| (current, qtype, scope, ctx.now))
                } else {
                    None
                };
                let mut replayed = None;
                if let (Some(m), Some(key)) = (memo.as_deref_mut(), memo_key.as_ref()) {
                    replayed = m.replay_into(key, &mut scratch.answer);
                }
                match replayed {
                    Some(z) => {
                        mcdn_obs::record(mcdn_obs::id::MEMO_REPLAYS, 1);
                        let ttl =
                            self.cache.put(current, qtype.to_u16(), &scratch.answer, ctx.now);
                        mcdn_obs::record_put(ttl as u64);
                        zone = z;
                    }
                    None => {
                        let (ans, z) = ns.query_into(scratch, current, qtype, ctx);
                        match ans {
                            IAnswer::Records => {
                                if let Some(t) = &tamper {
                                    apply_itamper(&mut scratch.answer, t);
                                }
                                // Bailiwick enforcement: drop out-of-zone
                                // owners before the cache, memo, or trace
                                // see them — a no-op for every well-formed
                                // answer. Name reads go through the overlay
                                // borrow so the retain stays in place,
                                // allocation-free.
                                if bailiwick == BailiwickPolicy::Enforce {
                                    if let Some(zo) = z {
                                        let ov = &scratch.overlay;
                                        let origin_name = ns.name_of(ov, zo);
                                        let before = scratch.answer.len();
                                        scratch
                                            .answer
                                            .retain(|r| ns.name_of(ov, r.name).is_within(origin_name));
                                        let dropped = before - scratch.answer.len();
                                        if dropped > 0 {
                                            mcdn_obs::record(
                                                mcdn_obs::id::BAILIWICK_DROPS,
                                                dropped as u64,
                                            );
                                        }
                                    }
                                }
                                let ttl = self
                                    .cache
                                    .put(current, qtype.to_u16(), &scratch.answer, ctx.now);
                                mcdn_obs::record_put(ttl as u64);
                                if let (Some(m), Some(key)) = (memo.as_deref_mut(), memo_key) {
                                    m.store(key, &scratch.answer, z);
                                }
                                zone = z;
                            }
                            IAnswer::NoData => {
                                scratch.answer.clear();
                                let ttl = self.cache.put(current, qtype.to_u16(), &[], ctx.now);
                                mcdn_obs::record_put(ttl as u64);
                                if let (Some(m), Some(key)) = (memo.as_deref_mut(), memo_key) {
                                    m.store(key, &[], z);
                                }
                                zone = z;
                            }
                            IAnswer::NxDomain => {
                                scratch.answer.clear();
                                scratch.trace.push(current, qtype, &[], false, None);
                                return Err(IResolutionError::NxDomain(current));
                            }
                        }
                    }
                }
            }
            let next = if qtype != RecordType::Cname {
                scratch.answer.iter().find_map(|r| match r.rdata {
                    IRData::Cname(t) => Some(t),
                    _ => None,
                })
            } else {
                None
            };
            let terminal = scratch.answer.iter().any(|r| r.rtype_u16() == qtype.to_u16());
            scratch.trace.push(current, qtype, &scratch.answer, from_cache, zone);
            match next {
                Some(target) if !terminal => current = target,
                _ => return Ok(()),
            }
        }
        Err(IResolutionError::ChainTooLong)
    }

    /// Resolver cache statistics `(hits, misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Drops all cached entries (counters survive).
    pub fn flush(&mut self) {
        self.cache.clear();
    }

    /// Exports the cache for checkpointing: every entry (live or expired)
    /// sorted by `(name id, qtype)`, plus the `(hits, misses)` counters.
    /// Record [`NameId`]s refer to the campaign's compiled table; the
    /// caller validates them against that table when re-encoding.
    pub fn cache_export(&self) -> (Vec<ICacheExportEntry>, u64, u64) {
        let mut held: Vec<(u64, &IEntry)> = self.cache.held().collect();
        held.sort_unstable_by_key(|&(key, _)| key);
        let entries = held
            .into_iter()
            .map(|(key, e)| ((key >> 16) as u32, key as u16, e.expires, e.records.clone()))
            .collect();
        let (hits, misses) = self.cache.stats();
        (entries, hits, misses)
    }

    /// The records of every cache entry [`cache_export`](Self::cache_export)
    /// would copy out (live or expired, not evicted), borrowed and in no
    /// particular order.
    pub fn cached_records(&self) -> impl Iterator<Item = &[IRecord]> {
        self.cache.held().map(|(_, e)| e.records.as_slice())
    }

    /// Restores state previously captured by
    /// [`cache_export`](Self::cache_export) — the exact inverse, counters
    /// included, so a resumed campaign's cache behaviour *and* its
    /// reported statistics are bit-identical to an uninterrupted run. A
    /// key given twice keeps its last entry.
    pub fn cache_restore(&mut self, entries: Vec<ICacheExportEntry>, hits: u64, misses: u64) {
        self.cache.clear();
        for (id, qtype, expires, records) in entries {
            *self.cache.slot_mut(cache_key(id, qtype)) = IEntry { records, expires, evicted: false };
        }
        self.cache.hits = hits;
        self.cache.misses = misses;
    }
}

/// Resolves `qname` once with a fresh resolver — cold cache, no faults,
/// no memo — and returns the materialized trace with the result: the
/// one-shot form of [`InternedResolver::resolve`] for tests and ad-hoc
/// lookups. Anything that resolves repeatedly (a probe, a crawl, a
/// campaign) keeps its own [`InternedResolver`] and [`ResolveScratch`].
pub fn resolve_cold(
    ns: &CompiledNamespace<'_>,
    qname: &Name,
    qtype: RecordType,
    ctx: &QueryContext,
) -> (ResolutionTrace, Result<(), IResolutionError>) {
    let mut scratch = ResolveScratch::new();
    let id = ns.intern_in(&mut scratch, qname);
    let result = InternedResolver::new().resolve(
        ns,
        &mut scratch,
        id,
        qtype,
        ctx,
        &NoInternedFaults,
        0,
        None,
    );
    (ns.materialize_trace(&scratch, scratch.trace()), result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::Zone;
    use mcdn_geo::{Continent, Locode};
    use std::sync::Arc;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    /// A miniature Meta-CDN chain: static entry CNAME → City-scoped geo
    /// split → Client-scoped GSLB → static A records.
    fn build_ns() -> Namespace {
        let mut ns = Namespace::new();

        let mut apple = Zone::new(n("apple.com"));
        apple.add_cname("appldnld.apple.com", "appldnld.apple.com.akadns.net", 21600);
        apple.add_a("static.apple.com", Ipv4Addr::new(17, 1, 1, 1), 300);
        ns.add_zone(apple);

        let mut akadns = Zone::new(n("apple.com.akadns.net"));
        akadns.set_policy_scoped(
            n("appldnld.apple.com.akadns.net"),
            vec![n("eu.g.applimg.com"), n("us.g.applimg.com")],
            Arc::new(|qtype: RecordType, ctx: &QueryContext, _: &mut Vec<Ipv4Addr>| {
                if qtype != RecordType::A {
                    return PolicyAnswer::Empty; // IPv4-only mapping
                }
                let target = match ctx.continent {
                    Continent::Europe => 0,
                    _ => 1,
                };
                PolicyAnswer::Cname { target, ttl: 120 }
            }),
            PolicyScope::City,
        );
        ns.add_zone(akadns);

        let mut applimg = Zone::new(n("applimg.com"));
        for region in ["eu", "us"] {
            applimg.set_policy(
                n(&format!("{region}.g.applimg.com")),
                vec![n("a.gslb.applimg.com"), n("b.gslb.applimg.com")],
                Arc::new(|qtype: RecordType, ctx: &QueryContext, _: &mut Vec<Ipv4Addr>| {
                    if qtype != RecordType::A {
                        return PolicyAnswer::Empty;
                    }
                    let target = if ctx.client_ip.octets()[3].is_multiple_of(2) { 0 } else { 1 };
                    PolicyAnswer::Cname { target, ttl: 15 }
                }),
            );
        }
        applimg.add_a("a.gslb.applimg.com", Ipv4Addr::new(17, 253, 1, 1), 20);
        applimg.add_a("a.gslb.applimg.com", Ipv4Addr::new(17, 253, 1, 2), 20);
        applimg.add_a("b.gslb.applimg.com", Ipv4Addr::new(17, 253, 9, 9), 20);
        ns.add_zone(applimg);

        ns
    }

    fn a(name: u32, ttl: u32) -> IRecord {
        IRecord { name: NameId(name), ttl, rdata: IRData::A(Ipv4Addr::new(17, 1, 1, 1)) }
    }

    const T0: SimTime = SimTime(1_505_433_600); // 2017-09-15 00:00 UTC

    #[test]
    fn cache_hits_until_expiry_then_misses() {
        let mut c = ICache::default();
        let mut out = Vec::new();
        c.put(NameId(1), 1, &[a(1, 15)], T0);
        assert!(c.get_into(NameId(1), 1, T0 + Duration::secs(14), &mut out));
        assert!(!c.get_into(NameId(1), 1, T0 + Duration::secs(15), &mut out));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn cache_remaining_ttl_decreases() {
        let mut c = ICache::default();
        let mut out = Vec::new();
        c.put(NameId(1), 1, &[a(1, 100)], T0);
        assert!(c.get_into(NameId(1), 1, T0 + Duration::secs(40), &mut out));
        assert_eq!(out[0].ttl, 60);
    }

    #[test]
    fn cache_rrset_expires_on_minimum_ttl() {
        let mut c = ICache::default();
        let mut out = Vec::new();
        c.put(NameId(1), 1, &[a(1, 300), a(1, 20)], T0);
        assert!(!c.get_into(NameId(1), 1, T0 + Duration::secs(21), &mut out));
    }

    #[test]
    fn cache_holds_negative_entries_briefly() {
        let mut c = ICache::default();
        let mut out = vec![a(1, 1)];
        c.put(NameId(1), 1, &[], T0);
        assert!(c.get_into(NameId(1), 1, T0 + Duration::secs(30), &mut out));
        assert!(out.is_empty(), "a negative hit serves no records");
        let lapsed = T0 + Duration::secs(NEGATIVE_TTL as u64);
        assert!(!c.get_into(NameId(1), 1, lapsed, &mut out));
    }

    #[test]
    fn cache_types_are_independent() {
        let mut c = ICache::default();
        let mut out = Vec::new();
        c.put(NameId(1), RecordType::A.to_u16(), &[a(1, 100)], T0);
        assert!(!c.get_into(NameId(1), RecordType::Aaaa.to_u16(), T0, &mut out));
    }

    #[test]
    fn cache_ttl_cap_bounds_inflated_records() {
        let mut c = ICache::default();
        let mut out = Vec::new();
        c.put(NameId(1), 1, &[a(1, u32::MAX)], T0);
        assert!(c.get_into(NameId(1), 1, T0, &mut out));
        assert_eq!(out[0].ttl, MAX_CACHE_TTL);
        // And the entry itself expires at the cap, not at u32::MAX.
        let capped = T0 + Duration::secs(MAX_CACHE_TTL as u64);
        assert!(!c.get_into(NameId(1), 1, capped, &mut out));
    }

    #[test]
    fn flush_empties_the_cache_and_keeps_counters() {
        let mut r = InternedResolver::new();
        r.cache.put(NameId(1), 1, &[a(1, 100)], T0);
        (r.cache.hits, r.cache.misses) = (2, 3);
        assert_eq!(r.cache_export().0.len(), 1);
        r.flush();
        assert!(r.cache_export().0.is_empty());
        assert_eq!(r.cache_stats(), (2, 3));
    }

    mod cache_props {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// A model entry: clamped records, absolute expiry, evicted.
        type ModelEntry = (Vec<IRecord>, SimTime, bool);

        /// The map-backed cache [`ICache`]'s vector replaced, kept as its
        /// model: the same rules over a `HashMap`, with the expiry counter
        /// the cache records through `mcdn_obs`.
        #[derive(Default)]
        struct Model {
            entries: HashMap<(u32, u16), ModelEntry>,
            hits: u64,
            misses: u64,
            expired: u64,
        }

        impl Model {
            fn get(&mut self, key: (u32, u16), now: SimTime) -> Option<Vec<IRecord>> {
                match self.entries.get_mut(&key) {
                    Some((records, expires, false)) if now < *expires => {
                        self.hits += 1;
                        let remaining = expires.since(now).as_secs() as u32;
                        let clamp = |r: &IRecord| IRecord { ttl: r.ttl.min(remaining), ..*r };
                        Some(records.iter().map(clamp).collect())
                    }
                    entry => {
                        self.misses += 1;
                        if let Some((_, _, evicted @ false)) = entry {
                            *evicted = true;
                            self.expired += 1;
                        }
                        None
                    }
                }
            }

            fn put(&mut self, key: (u32, u16), records: &[IRecord], now: SimTime) -> u32 {
                let capped: Vec<IRecord> = records
                    .iter()
                    .map(|r| IRecord { ttl: r.ttl.min(MAX_CACHE_TTL), ..*r })
                    .collect();
                let ttl = capped.iter().map(|r| r.ttl).min().unwrap_or(NEGATIVE_TTL);
                self.entries.insert(key, (capped, now + Duration::secs(ttl as u64), false));
                ttl
            }

            fn export(&self) -> Vec<ICacheExportEntry> {
                let mut out: Vec<ICacheExportEntry> = self
                    .entries
                    .iter()
                    .filter(|(_, (_, _, evicted))| !evicted)
                    .map(|(&(id, qtype), (records, expires, _))| {
                        (id, qtype, *expires, records.clone())
                    })
                    .collect();
                out.sort_by_key(|&(id, qtype, _, _)| (id, qtype));
                out
            }
        }

        /// One cache operation: `(kind, name, second qtype?, seconds
        /// elapsed before it, record TTLs)`. Kinds 0–3 look up, 4–6
        /// store (no TTLs: a negative entry; a TTL of 400 is raised past
        /// the 7-day cap), 7 flushes, 8 exports and restores into a fresh
        /// resolver.
        fn op() -> impl Strategy<Value = (u8, u32, bool, u64, Vec<u32>)> {
            (0u8..9, 0u32..4, any::<bool>(), 0u64..40, vec(1u32..401, 0..3))
        }

        proptest! {
            /// Any sequence of lookups, stores, flushes and export/restore
            /// round trips leaves the vector cache answering like the
            /// map-backed model: the same hit or miss, the same clamped
            /// records, the same stored TTL, the same export, and the
            /// same hit, miss and expired counts.
            #[test]
            fn vector_cache_matches_the_map_model(ops in vec(op(), 1..80)) {
                let mut obs = mcdn_obs::CampaignObs::begin();
                let (mut real, mut model) = (InternedResolver::new(), Model::default());
                let mut now = T0;
                let mut out = Vec::new();
                for (kind, name, second, dt, ttls) in ops {
                    now += Duration::secs(dt);
                    let qtype = if second { RecordType::Aaaa } else { RecordType::A }.to_u16();
                    let key = (name, qtype);
                    match kind {
                        0..=3 => {
                            let hit = real.cache.get_into(NameId(name), qtype, now, &mut out);
                            let want = model.get(key, now);
                            prop_assert_eq!(hit, want.is_some());
                            if let Some(records) = want {
                                prop_assert_eq!(&out, &records);
                            }
                        }
                        4..=6 => {
                            let records: Vec<IRecord> = ttls
                                .iter()
                                .map(|&ttl| a(name, if ttl == 400 { u32::MAX } else { ttl }))
                                .collect();
                            let got = real.cache.put(NameId(name), qtype, &records, now);
                            prop_assert_eq!(got, model.put(key, &records, now));
                        }
                        7 => {
                            real.flush();
                            model.entries.clear();
                        }
                        _ => {
                            let (entries, hits, misses) = real.cache_export();
                            real = InternedResolver::new();
                            real.cache_restore(entries, hits, misses);
                            model.entries.retain(|_, (_, _, evicted)| !*evicted);
                        }
                    }
                    let want = (model.export(), model.hits, model.misses);
                    prop_assert_eq!(real.cache_export(), want);
                }
                obs.absorb(mcdn_obs::shard_take());
                let counters = obs.det_counters();
                prop_assert_eq!(counters[mcdn_obs::id::CACHE_HITS as usize], model.hits);
                prop_assert_eq!(counters[mcdn_obs::id::CACHE_MISSES as usize], model.misses);
                prop_assert_eq!(counters[mcdn_obs::id::CACHE_EXPIRED as usize], model.expired);
            }
        }
    }

    fn memo_key(name: u32, scope: MemoScope) -> IMemoKey {
        (NameId(name), RecordType::A, scope, SimTime(1_505_779_200))
    }

    #[test]
    fn memo_replay_counts_lookups_and_returns_stored_answer() {
        let mut memo = IRoundMemo::new();
        let mut out = vec![a(1, 1)];
        let k = memo_key(1, MemoScope::Global);
        assert!(memo.replay_into(&k, &mut out).is_none());
        memo.store(k, &[], Some(NameId(0)));
        assert_eq!(memo.replay_into(&k, &mut out), Some(Some(NameId(0))));
        assert!(out.is_empty());
        assert_eq!(memo.lookups(), 2);
        assert_eq!(memo.hits(), 1);
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn memo_city_scopes_are_distinct_keys() {
        let mut memo = IRoundMemo::new();
        let mut out = Vec::new();
        let fra = MemoScope::City(Locode::parse("defra").unwrap());
        let nyc = MemoScope::City(Locode::parse("usnyc").unwrap());
        memo.store(memo_key(1, fra), &[], None);
        assert!(memo.replay_into(&memo_key(1, nyc), &mut out).is_none());
        assert!(memo.replay_into(&memo_key(1, fra), &mut out).is_some());
    }

    #[test]
    fn memo_counts_reconstruct_canonical_counters() {
        // Two "shards" each memoize the same key: shard-local hits differ
        // from what one shard would have seen, but the merged counts give
        // the canonical figures.
        let ns = build_ns();
        let cns = CompiledNamespace::compile(&ns);
        let scratch = ResolveScratch::new();
        let k = memo_key(1, MemoScope::Global);
        let mut out = Vec::new();
        let mut a = IRoundMemo::new();
        a.store(k, &[], None);
        a.replay_into(&k, &mut out);
        let mut b = IRoundMemo::new();
        b.store(k, &[], None);
        let mut merged = HashMap::default();
        a.counts_into(&cns, &scratch, &mut merged);
        b.counts_into(&cns, &scratch, &mut merged);
        let lookups: u64 = merged.values().sum();
        let hits = lookups - merged.len() as u64;
        assert_eq!((lookups, hits), (3, 2), "one true miss, two canonical hits");
    }

    #[test]
    fn memo_clear_retains_capacity_and_resets_counts() {
        let mut m = IRoundMemo::new();
        let key = (
            NameId(0),
            RecordType::A,
            MemoScope::Global,
            SimTime::from_ymd(2017, 9, 19),
        );
        m.store(key, &[], None);
        assert_eq!(m.len(), 1);
        m.clear();
        assert_eq!(m.len(), 0);
        assert_eq!(m.lookups(), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn overlay_interning_is_idempotent_and_past_table() {
        let ns = build_ns();
        let cns = CompiledNamespace::compile(&ns);
        let mut scratch = ResolveScratch::new();
        let stranger = n("stranger.example.net");
        let a = cns.intern_in(&mut scratch, &stranger);
        let b = cns.intern_in(&mut scratch, &stranger);
        assert_eq!(a, b);
        assert!(a.index() >= cns.table().len());
        assert_eq!(cns.name_in(&scratch, a), &stranger);
        assert_eq!(cns.fnv_in(&scratch, a), display_fnv(&stranger));
        // Table names keep their table ids.
        let origin = cns.intern_in(&mut scratch, &n("apple.com"));
        assert!(origin.index() < cns.table().len());
    }
}
