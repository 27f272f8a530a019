//! Campaign checkpoints: the crash-safety layer's serialized state.
//!
//! A resumable campaign appends one `Checkpoint` record to an
//! [`mcdn_journal::Journal`] after each durable round. The checkpoint
//! carries *everything* the engine's future depends on — round cursors,
//! result accumulators (unique-IP cells with full membership, the
//! IP-class ledger), the controller's [`SignalState`], and every probe's
//! interned-resolver cache — so that replaying the journal and continuing
//! is bit-identical to never having stopped.
//!
//! The first record of a campaign journal is a **config fingerprint**:
//! an FNV-1a digest of the campaign geometry (probe count, window,
//! cadence, bins), the availability model, the
//! [`FaultProfile::digest`](mcdn_faults::FaultProfile::digest) fault
//! cursor, the retry policy, the worker-thread count, and the compiled
//! name-table size. Resuming under a different configuration is refused
//! with a typed error instead of silently producing a franken-campaign.
//!
//! Encoding uses the journal's [`ByteWriter`]/[`ByteReader`] codec;
//! enums travel as their index in the type's canonical `ALL` ordering.

use crate::classes::CdnClass;
use mcdn_dnssim::{ICacheExportEntry, IRData, IRecord};
use mcdn_exec::ShardFailure;
use mcdn_geo::{Continent, SimTime};
use mcdn_intern::NameId;
use mcdn_journal::{ByteReader, ByteWriter, CodecError, Journal, JournalError};
use metacdn::{CdnKind, SignalState};
use mcdn_geo::Region;
use std::net::Ipv4Addr;
use std::path::Path;

/// Record tag for the config-fingerprint record (always record 0).
const TAG_FINGERPRINT: u8 = 1;
/// Record tag for a round checkpoint.
const TAG_CHECKPOINT: u8 = 2;

/// Why a resumable campaign could not run (or resume).
#[derive(Debug)]
pub enum CampaignError {
    /// The journal file could not be created, read, or appended.
    Journal(JournalError),
    /// A journal record passed its checksum but does not decode under the
    /// current checkpoint schema — a software-version mismatch, not disk
    /// corruption.
    Corrupt(CodecError),
    /// The journal was written by a campaign with a different
    /// configuration (seed, fault profile, window, thread count, ...).
    FingerprintMismatch {
        /// Fingerprint of the campaign being started.
        expected: u64,
        /// Fingerprint found in the journal.
        found: u64,
    },
    /// The checkpoint describes a different fleet size than the world
    /// builds — the journal belongs to a different campaign shape.
    FleetMismatch {
        /// Probes in the freshly built fleet.
        expected: usize,
        /// Probe cache states found in the checkpoint.
        found: usize,
    },
    /// The journal's first record is not a fingerprint record.
    UnknownRecord(u8),
    /// A checkpoint decoded, but holds a state this campaign's engine
    /// cannot have written: a round cursor outside the window or off its
    /// round grid, a round count or controller cursor that disagrees with
    /// it, or a ledger entry or unique-IP cell dated outside the completed
    /// rounds. Names the refused field.
    InvalidCheckpoint(&'static str),
    /// A shard panicked. Shards are not retried: a shard is a
    /// deterministic function of its inputs, so a rerun would panic again.
    Shard(ShardFailure),
}

impl core::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CampaignError::Journal(e) => write!(f, "campaign journal: {e}"),
            CampaignError::Corrupt(e) => write!(f, "campaign checkpoint does not decode: {e}"),
            CampaignError::FingerprintMismatch { expected, found } => write!(
                f,
                "journal belongs to a different campaign configuration \
                 (expected fingerprint {expected:#018x}, journal has {found:#018x})"
            ),
            CampaignError::FleetMismatch { expected, found } => write!(
                f,
                "checkpoint fleet size {found} does not match the built fleet ({expected})"
            ),
            CampaignError::InvalidCheckpoint(field) => {
                write!(f, "checkpoint {field} cannot belong to this campaign's window")
            }
            CampaignError::UnknownRecord(tag) => {
                write!(f, "journal starts with unknown record tag {tag}")
            }
            CampaignError::Shard(e) => write!(f, "campaign shard failed: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Journal(e) => Some(e),
            CampaignError::Corrupt(e) => Some(e),
            CampaignError::Shard(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JournalError> for CampaignError {
    fn from(e: JournalError) -> CampaignError {
        CampaignError::Journal(e)
    }
}

impl From<CodecError> for CampaignError {
    fn from(e: CodecError) -> CampaignError {
        CampaignError::Corrupt(e)
    }
}

impl From<ShardFailure> for CampaignError {
    fn from(e: ShardFailure) -> CampaignError {
        CampaignError::Shard(e)
    }
}

/// Knobs of a resumable campaign run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeOptions {
    /// Worker threads; 0 means [`mcdn_exec::thread_count`]. The resolved
    /// count is part of the config fingerprint.
    pub threads: usize,
    /// Checkpoint cadence: every this many rounds, the round boundary is
    /// *eligible* for a checkpoint. Whether an eligible checkpoint is
    /// actually written is governed by the engine's overhead throttle —
    /// cumulative checkpoint cost is kept within a fixed fraction of
    /// cumulative compute — so cadence trades recovery granularity
    /// against journal bytes, never correctness. A suspension always
    /// checkpoints regardless.
    pub checkpoint_every: u64,
    /// Stop (gracefully, with a durable checkpoint) after this many
    /// rounds have completed *in total* — the batch-operation and
    /// crash-drill hook.
    pub stop_after_rounds: Option<u64>,
}

impl Default for ResumeOptions {
    fn default() -> ResumeOptions {
        ResumeOptions { threads: 0, checkpoint_every: 1, stop_after_rounds: None }
    }
}

/// Outcome of a resumable campaign invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignRun {
    /// The campaign ran (or resumed) to the end of its window.
    Complete(crate::dnscampaign::DnsCampaignResult),
    /// The campaign stopped at a round boundary per
    /// [`ResumeOptions::stop_after_rounds`]; the journal holds a durable
    /// checkpoint and a later invocation will continue from it.
    Suspended {
        /// Rounds completed across all invocations so far.
        rounds_done: u64,
        /// Rounds the full campaign window spans.
        total_rounds: u64,
    },
}

/// One probe's serialized interned-resolver cache.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ProbeCache {
    pub hits: u64,
    pub misses: u64,
    pub entries: Vec<ICacheExportEntry>,
}

/// Everything the engine needs to continue a campaign mid-window.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Checkpoint {
    pub rounds_done: u64,
    pub t: SimTime,
    pub ctrl_t: SimTime,
    pub resolutions: u64,
    pub attempts: u64,
    pub retry_exhausted: u64,
    pub memo_lookups: u64,
    pub memo_hits: u64,
    /// Deterministic observability counters at the checkpoint boundary
    /// (the `mcdn_obs` det-class prefix, in registry order). Restored on
    /// resume so a killed run exports byte-identical metrics.
    pub obs_counters: Vec<u64>,
    /// Campaign-level trace events accumulated so far.
    pub obs_events: Vec<mcdn_obs::TraceEvent>,
    pub cells: Vec<((SimTime, Continent, CdnClass), Vec<Ipv4Addr>)>,
    pub ledger: Vec<(Ipv4Addr, SimTime, CdnClass)>,
    pub signals: SignalState,
    pub probes: Vec<ProbeCache>,
}

fn code_of<T: PartialEq + Copy>(all: &[T], v: T, what: &'static str) -> Result<u8, CodecError> {
    all.iter()
        .position(|&c| c == v)
        .map(|i| i as u8)
        .ok_or(CodecError::Invalid(what))
}

fn from_code<T: Copy>(all: &[T], code: u8, what: &'static str) -> Result<T, CodecError> {
    all.get(code as usize).copied().ok_or(CodecError::Invalid(what))
}

impl Checkpoint {
    /// Serializes the checkpoint. Every name id a probe cache holds is a
    /// compiled-table id; [`Checkpoint::decode`] checks them against the
    /// table, since a journal is untrusted input.
    pub(crate) fn encode(&self) -> Result<Vec<u8>, CampaignError> {
        let mut w = ByteWriter::new();
        w.put_u8(TAG_CHECKPOINT);
        w.put_u64(self.rounds_done);
        w.put_u64(self.t.as_secs());
        w.put_u64(self.ctrl_t.as_secs());
        w.put_u64(self.resolutions);
        w.put_u64(self.attempts);
        w.put_u64(self.retry_exhausted);
        w.put_u64(self.memo_lookups);
        w.put_u64(self.memo_hits);

        w.put_u32(self.obs_counters.len() as u32);
        for &c in &self.obs_counters {
            w.put_u64(c);
        }
        w.put_u32(self.obs_events.len() as u32);
        for ev in &self.obs_events {
            w.put_u16(ev.kind);
            w.put_u64(ev.t);
            w.put_u32(ev.key);
            w.put_u64(ev.value);
        }

        w.put_u32(self.cells.len() as u32);
        for ((bin, cont, class), ips) in &self.cells {
            w.put_u64(bin.as_secs());
            w.put_u8(code_of(&Continent::ALL, *cont, "continent").map_err(CampaignError::Corrupt)?);
            w.put_u8(code_of(&CdnClass::ALL, *class, "cdn class").map_err(CampaignError::Corrupt)?);
            w.put_u32(ips.len() as u32);
            for &ip in ips {
                w.put_ipv4(ip);
            }
        }

        w.put_u32(self.ledger.len() as u32);
        for &(ip, t, class) in &self.ledger {
            w.put_ipv4(ip);
            w.put_u64(t.as_secs());
            w.put_u8(code_of(&CdnClass::ALL, class, "cdn class").map_err(CampaignError::Corrupt)?);
        }

        encode_signals(&mut w, &self.signals)?;

        w.put_u32(self.probes.len() as u32);
        for probe in &self.probes {
            w.put_u64(probe.hits);
            w.put_u64(probe.misses);
            w.put_u32(probe.entries.len() as u32);
            for (id, qtype, expires, records) in &probe.entries {
                w.put_u32(*id);
                w.put_u16(*qtype);
                w.put_u64(expires.as_secs());
                w.put_u16(records.len() as u16);
                for r in records {
                    w.put_u32(r.name.0);
                    w.put_u32(r.ttl);
                    match r.rdata {
                        IRData::A(ip) => {
                            w.put_u8(0);
                            w.put_ipv4(ip);
                        }
                        IRData::Cname(target) => {
                            w.put_u8(1);
                            w.put_u32(target.0);
                        }
                        IRData::Opaque(v) => {
                            w.put_u8(2);
                            w.put_u16(v);
                        }
                        IRData::Ns(target) => {
                            w.put_u8(3);
                            w.put_u32(target.0);
                        }
                    }
                }
            }
        }
        Ok(w.into_vec())
    }

    /// Decodes a checkpoint record (including its leading tag).
    pub(crate) fn decode(payload: &[u8], table_len: usize) -> Result<Checkpoint, CodecError> {
        let mut r = ByteReader::new(payload);
        if r.u8()? != TAG_CHECKPOINT {
            return Err(CodecError::Invalid("record tag"));
        }
        let rounds_done = r.u64()?;
        let t = SimTime(r.u64()?);
        let ctrl_t = SimTime(r.u64()?);
        let resolutions = r.u64()?;
        let attempts = r.u64()?;
        let retry_exhausted = r.u64()?;
        let memo_lookups = r.u64()?;
        let memo_hits = r.u64()?;

        // The metrics export indexes its name tables by these, so a count
        // or kind this build does not know is refused here, not at export.
        if r.u32()? as usize != mcdn_obs::N_DET {
            return Err(CodecError::Invalid("deterministic counter count"));
        }
        let mut obs_counters = Vec::with_capacity(mcdn_obs::N_DET);
        for _ in 0..mcdn_obs::N_DET {
            obs_counters.push(r.u64()?);
        }
        let n_events = r.u32()? as usize;
        let mut obs_events = Vec::with_capacity(n_events.min(1 << 20));
        for _ in 0..n_events {
            let kind = r.u16()?;
            if usize::from(kind) >= mcdn_obs::EVENT_NAMES.len() {
                return Err(CodecError::Invalid("trace event kind"));
            }
            let t = r.u64()?;
            let key = r.u32()?;
            let value = r.u64()?;
            obs_events.push(mcdn_obs::TraceEvent { kind, t, key, value });
        }

        let n_cells = r.u32()? as usize;
        let mut cells = Vec::with_capacity(n_cells.min(1 << 20));
        for _ in 0..n_cells {
            let bin = SimTime(r.u64()?);
            let cont = from_code(&Continent::ALL, r.u8()?, "continent")?;
            let class = from_code(&CdnClass::ALL, r.u8()?, "cdn class")?;
            let n_ips = r.u32()? as usize;
            let mut ips = Vec::with_capacity(n_ips.min(1 << 20));
            for _ in 0..n_ips {
                ips.push(r.ipv4()?);
            }
            cells.push(((bin, cont, class), ips));
        }

        let n_ledger = r.u32()? as usize;
        let mut ledger = Vec::with_capacity(n_ledger.min(1 << 20));
        for _ in 0..n_ledger {
            let ip = r.ipv4()?;
            let t = SimTime(r.u64()?);
            let class = from_code(&CdnClass::ALL, r.u8()?, "cdn class")?;
            ledger.push((ip, t, class));
        }

        let signals = decode_signals(&mut r)?;

        let n_probes = r.u32()? as usize;
        let mut probes = Vec::with_capacity(n_probes.min(1 << 20));
        for _ in 0..n_probes {
            let hits = r.u64()?;
            let misses = r.u64()?;
            let n_entries = r.u32()? as usize;
            let mut entries: Vec<ICacheExportEntry> = Vec::with_capacity(n_entries.min(1 << 20));
            for _ in 0..n_entries {
                let id = r.u32()?;
                if id as usize >= table_len {
                    return Err(CodecError::Invalid("cache name id"));
                }
                let qtype = r.u16()?;
                // The export is sorted by (id, qtype) and holds each key
                // once; a cache restored from anything else could hold a
                // key twice.
                if entries.last().is_some_and(|&(pid, pq, _, _)| (pid, pq) >= (id, qtype)) {
                    return Err(CodecError::Invalid("cache key order"));
                }
                let expires = SimTime(r.u64()?);
                let n_records = r.u16()? as usize;
                let mut records = Vec::with_capacity(n_records);
                for _ in 0..n_records {
                    let name = r.u32()?;
                    if name as usize >= table_len {
                        return Err(CodecError::Invalid("record name id"));
                    }
                    let ttl = r.u32()?;
                    let rdata = match r.u8()? {
                        0 => IRData::A(r.ipv4()?),
                        1 => {
                            let target = r.u32()?;
                            if target as usize >= table_len {
                                return Err(CodecError::Invalid("cname target id"));
                            }
                            IRData::Cname(NameId(target))
                        }
                        2 => IRData::Opaque(r.u16()?),
                        3 => {
                            let target = r.u32()?;
                            if target as usize >= table_len {
                                return Err(CodecError::Invalid("ns target id"));
                            }
                            IRData::Ns(NameId(target))
                        }
                        _ => return Err(CodecError::Invalid("rdata tag")),
                    };
                    records.push(IRecord { name: NameId(name), ttl, rdata });
                }
                entries.push((id, qtype, expires, records));
            }
            probes.push(ProbeCache { hits, misses, entries });
        }
        r.expect_end()?;
        Ok(Checkpoint {
            rounds_done,
            t,
            ctrl_t,
            resolutions,
            attempts,
            retry_exhausted,
            memo_lookups,
            memo_hits,
            obs_counters,
            obs_events,
            cells,
            ledger,
            signals,
            probes,
        })
    }
}

fn encode_signals(w: &mut ByteWriter, s: &SignalState) -> Result<(), CampaignError> {
    let region = |r: Region| code_of(&Region::ALL, r, "region").map_err(CampaignError::Corrupt);
    let kind = |k: CdnKind| code_of(&CdnKind::ALL, k, "cdn kind").map_err(CampaignError::Corrupt);
    w.put_u32(s.apple_util.len() as u32);
    for &(r, v) in &s.apple_util {
        w.put_u8(region(r)?);
        w.put_f64(v);
    }
    w.put_u32(s.cdn_load.len() as u32);
    for &(k, r, v) in &s.cdn_load {
        w.put_u8(kind(k)?);
        w.put_u8(region(r)?);
        w.put_f64(v);
    }
    w.put_u32(s.akamai_overload_since.len() as u32);
    for &(r, t) in &s.akamai_overload_since {
        w.put_u8(region(r)?);
        w.put_u64(t.as_secs());
    }
    w.put_u32(s.cdn_health.len() as u32);
    for &(k, r, h) in &s.cdn_health {
        w.put_u8(kind(k)?);
        w.put_u8(region(r)?);
        w.put_bool(h);
    }
    w.put_u32(s.capacity_factor.len() as u32);
    for &(k, r, v) in &s.capacity_factor {
        w.put_u8(kind(k)?);
        w.put_u8(region(r)?);
        w.put_f64(v);
    }
    w.put_u32(s.last_good.len() as u32);
    for (r, shares) in &s.last_good {
        w.put_u8(region(*r)?);
        w.put_u32(shares.len() as u32);
        for &(k, v) in shares {
            w.put_u8(kind(k)?);
            w.put_f64(v);
        }
    }
    w.put_u32(s.down_sites.len() as u32);
    for &site in &s.down_sites {
        w.put_u64(site);
    }
    Ok(())
}

fn decode_signals(r: &mut ByteReader<'_>) -> Result<SignalState, CodecError> {
    let mut s = SignalState::default();
    for _ in 0..r.u32()? {
        let region = from_code(&Region::ALL, r.u8()?, "region")?;
        s.apple_util.push((region, r.f64()?));
    }
    for _ in 0..r.u32()? {
        let kind = from_code(&CdnKind::ALL, r.u8()?, "cdn kind")?;
        let region = from_code(&Region::ALL, r.u8()?, "region")?;
        s.cdn_load.push((kind, region, r.f64()?));
    }
    for _ in 0..r.u32()? {
        let region = from_code(&Region::ALL, r.u8()?, "region")?;
        s.akamai_overload_since.push((region, SimTime(r.u64()?)));
    }
    for _ in 0..r.u32()? {
        let kind = from_code(&CdnKind::ALL, r.u8()?, "cdn kind")?;
        let region = from_code(&Region::ALL, r.u8()?, "region")?;
        s.cdn_health.push((kind, region, r.bool()?));
    }
    for _ in 0..r.u32()? {
        let kind = from_code(&CdnKind::ALL, r.u8()?, "cdn kind")?;
        let region = from_code(&Region::ALL, r.u8()?, "region")?;
        s.capacity_factor.push((kind, region, r.f64()?));
    }
    for _ in 0..r.u32()? {
        let region = from_code(&Region::ALL, r.u8()?, "region")?;
        let n = r.u32()? as usize;
        let mut shares = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let kind = from_code(&CdnKind::ALL, r.u8()?, "cdn kind")?;
            shares.push((kind, r.f64()?));
        }
        s.last_good.push((region, shares));
    }
    for _ in 0..r.u32()? {
        s.down_sites.push(r.u64()?);
    }
    Ok(s)
}

/// A campaign's journal: an [`mcdn_journal::Journal`] whose first record
/// pins the config fingerprint and whose subsequent records are round
/// checkpoints.
#[derive(Debug)]
pub(crate) struct CampaignJournal {
    journal: Journal,
}

impl CampaignJournal {
    /// Opens `path`, replaying and validating what is already there.
    ///
    /// * Fresh/empty journal → writes the fingerprint record, resumes
    ///   nothing.
    /// * Existing journal → requires the first record to be a matching
    ///   fingerprint, then returns the latest intact checkpoint (if any)
    ///   to resume from. Torn/corrupt tails were already truncated by the
    ///   journal layer; this layer only sees whole, checksummed records.
    pub(crate) fn open(
        path: &Path,
        fingerprint: u64,
        table_len: usize,
    ) -> Result<(CampaignJournal, Option<Checkpoint>), CampaignError> {
        let (mut journal, recovery) = Journal::open(path)?;
        let mut records = recovery.records.into_iter();
        let resume = match records.next() {
            None => {
                let mut w = ByteWriter::new();
                w.put_u8(TAG_FINGERPRINT);
                w.put_u64(fingerprint);
                journal.append(&w.into_vec())?;
                None
            }
            Some(first) => {
                let mut r = ByteReader::new(&first);
                let tag = r.u8().map_err(CampaignError::Corrupt)?;
                if tag != TAG_FINGERPRINT {
                    return Err(CampaignError::UnknownRecord(tag));
                }
                let found = r.u64().map_err(CampaignError::Corrupt)?;
                r.expect_end().map_err(CampaignError::Corrupt)?;
                if found != fingerprint {
                    return Err(CampaignError::FingerprintMismatch {
                        expected: fingerprint,
                        found,
                    });
                }
                // Latest checkpoint wins; earlier ones are history.
                let mut latest = None;
                for payload in records {
                    latest = Some(Checkpoint::decode(&payload, table_len)?);
                }
                latest
            }
        };
        Ok((CampaignJournal { journal }, resume))
    }

    /// Appends one checkpoint record.
    pub(crate) fn append(&mut self, ckpt: &Checkpoint) -> Result<(), CampaignError> {
        self.journal.append(&ckpt.encode()?)?;
        Ok(())
    }

    /// Forces the journal to stable storage (used at suspension points).
    pub(crate) fn sync(&mut self) -> Result<(), CampaignError> {
        self.journal.sync()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            rounds_done: 7,
            t: SimTime(1_000_000),
            ctrl_t: SimTime(999_000),
            resolutions: 123,
            attempts: 150,
            retry_exhausted: 2,
            memo_lookups: 400,
            memo_hits: 350,
            obs_counters: [7, 123, 150, 2, 400, 350]
                .into_iter()
                .chain(std::iter::repeat(0))
                .take(mcdn_obs::N_DET)
                .collect(),
            obs_events: vec![
                mcdn_obs::TraceEvent { kind: 0, t: 1_000_000, key: 7, value: 123 },
                mcdn_obs::TraceEvent { kind: 1, t: 999_500, key: 42, value: 0 },
            ],
            cells: vec![
                (
                    (SimTime(3600), Continent::Europe, CdnClass::Akamai),
                    vec![Ipv4Addr::new(2, 16, 0, 1), Ipv4Addr::new(2, 16, 0, 9)],
                ),
                ((SimTime(7200), Continent::NorthAmerica, CdnClass::Apple), vec![]),
            ],
            ledger: vec![
                (Ipv4Addr::new(2, 16, 0, 1), SimTime(3600), CdnClass::Akamai),
                (Ipv4Addr::new(17, 253, 0, 5), SimTime(7200), CdnClass::Apple),
            ],
            signals: SignalState {
                apple_util: vec![(Region::Us, 1.25)],
                cdn_load: vec![(CdnKind::Akamai, Region::Eu, 0.75)],
                akamai_overload_since: vec![(Region::Eu, SimTime(1800))],
                cdn_health: vec![(CdnKind::Limelight, Region::Apac, false)],
                capacity_factor: vec![(CdnKind::Apple, Region::Us, 0.5)],
                last_good: vec![(Region::Eu, vec![(CdnKind::Apple, 0.6), (CdnKind::Akamai, 0.4)])],
                down_sites: vec![42, 77],
            },
            probes: vec![
                ProbeCache {
                    hits: 10,
                    misses: 4,
                    entries: vec![(
                        3,
                        1,
                        SimTime(4000),
                        vec![
                            IRecord {
                                name: NameId(3),
                                ttl: 60,
                                rdata: IRData::Cname(NameId(5)),
                            },
                            IRecord {
                                name: NameId(5),
                                ttl: 30,
                                rdata: IRData::A(Ipv4Addr::new(2, 16, 0, 1)),
                            },
                        ],
                    )],
                },
                ProbeCache { hits: 0, misses: 0, entries: vec![] },
            ],
        }
    }

    #[test]
    fn checkpoint_roundtrips_bit_exactly() {
        let ckpt = sample_checkpoint();
        let bytes = ckpt.encode().expect("encode");
        let back = Checkpoint::decode(&bytes, 64).expect("decode");
        assert_eq!(ckpt, back);
    }

    #[test]
    fn out_of_table_ids_are_rejected_at_decode_time() {
        let ckpt = sample_checkpoint();
        let bytes = ckpt.encode().expect("encode");
        // Same bytes, smaller table: the ids no longer resolve.
        match Checkpoint::decode(&bytes, 4) {
            Err(CodecError::Invalid(_)) => {}
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    /// A checksum-valid checkpoint holding an event kind this build has
    /// no name for is refused: resuming it would panic in the metrics
    /// export.
    #[test]
    fn unknown_trace_event_kind_is_rejected_at_decode_time() {
        let mut ckpt = sample_checkpoint();
        ckpt.obs_events[1].kind = mcdn_obs::EVENT_NAMES.len() as u16;
        let bytes = ckpt.encode().expect("encode");
        match Checkpoint::decode(&bytes, 64) {
            Err(CodecError::Invalid("trace event kind")) => {}
            other => panic!("expected Invalid(trace event kind), got {other:?}"),
        }
    }

    /// A checkpoint whose deterministic counters are not exactly the
    /// registry's `N_DET` is refused, rather than restored as a prefix.
    #[test]
    fn wrong_counter_count_is_rejected_at_decode_time() {
        for n in [0, mcdn_obs::N_DET - 1, mcdn_obs::N_DET + 1] {
            let mut ckpt = sample_checkpoint();
            ckpt.obs_counters.resize(n, 0);
            let bytes = ckpt.encode().expect("encode");
            match Checkpoint::decode(&bytes, 64) {
                Err(CodecError::Invalid("deterministic counter count")) => {}
                other => panic!("{n} counters: expected Invalid(counter count), got {other:?}"),
            }
        }
    }

    /// Probe-cache keys must be strictly increasing in (id, qtype), as
    /// the export writes them: a repeated or descending key is refused.
    #[test]
    fn unsorted_or_repeated_cache_keys_are_rejected_at_decode_time() {
        for (id, qtype) in [(3, 1), (3, 0), (2, 28)] {
            let mut ckpt = sample_checkpoint();
            let mut second = ckpt.probes[0].entries[0].clone();
            (second.0, second.1) = (id, qtype);
            ckpt.probes[0].entries.push(second);
            let bytes = ckpt.encode().expect("encode");
            match Checkpoint::decode(&bytes, 64) {
                Err(CodecError::Invalid("cache key order")) => {}
                other => panic!("key ({id}, {qtype}) after (3, 1): expected Invalid: {other:?}"),
            }
        }
        let mut ckpt = sample_checkpoint();
        let mut second = ckpt.probes[0].entries[0].clone();
        second.1 = 28;
        ckpt.probes[0].entries.push(second);
        let bytes = ckpt.encode().expect("encode");
        assert_eq!(Checkpoint::decode(&bytes, 64).expect("increasing keys decode"), ckpt);
    }

    #[test]
    fn truncated_payload_is_a_typed_error() {
        let ckpt = sample_checkpoint();
        let bytes = ckpt.encode().expect("encode");
        for cut in [1usize, 9, bytes.len() / 2, bytes.len() - 1] {
            match Checkpoint::decode(&bytes[..cut], 64) {
                Err(_) => {}
                Ok(_) => panic!("decode of {cut}-byte prefix must fail"),
            }
        }
    }

    #[test]
    fn journal_open_rejects_wrong_fingerprint() {
        let mut path = std::env::temp_dir();
        path.push(format!("mcdn-ckpt-test-{}-fp.jrnl", std::process::id()));
        std::fs::remove_file(&path).ok();
        {
            let (_j, resume) = CampaignJournal::open(&path, 0xAAAA, 64).expect("fresh open");
            assert!(resume.is_none());
        }
        match CampaignJournal::open(&path, 0xBBBB, 64) {
            Err(CampaignError::FingerprintMismatch { expected, found }) => {
                assert_eq!(expected, 0xBBBB);
                assert_eq!(found, 0xAAAA);
            }
            other => panic!("expected FingerprintMismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_resumes_from_latest_checkpoint() {
        let mut path = std::env::temp_dir();
        path.push(format!("mcdn-ckpt-test-{}-latest.jrnl", std::process::id()));
        std::fs::remove_file(&path).ok();
        let mut first = sample_checkpoint();
        first.rounds_done = 1;
        let mut second = sample_checkpoint();
        second.rounds_done = 2;
        {
            let (mut j, _) = CampaignJournal::open(&path, 7, 64).expect("fresh open");
            j.append(&first).expect("append 1");
            j.append(&second).expect("append 2");
        }
        let (_j, resume) = CampaignJournal::open(&path, 7, 64).expect("reopen");
        assert_eq!(resume, Some(second));
        std::fs::remove_file(&path).ok();
    }
}
