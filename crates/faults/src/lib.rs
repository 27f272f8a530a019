//! Deterministic fault injection for the measurement plane.
//!
//! Real measurement campaigns do not observe a clean world: RIPE Atlas
//! probes lose queries, authoritative zones SERVFAIL under load or go lame
//! for hours, NetFlow exporters drop records on top of packet sampling, and
//! SNMP pollers miss 5-minute cycles. The paper's vantage points all suffer
//! these artifacts, so the reproduction needs a way to subject its synthetic
//! measurement plane to the same imperfections — *reproducibly*.
//!
//! This crate provides that layer:
//!
//! * [`FaultProfile`] — a bundle of fault-rate knobs whose per-event
//!   decisions are pure functions of `(profile seed, event key, time)`,
//!   evaluated by hashing. No RNG state is threaded anywhere, so two runs
//!   with the same seed produce bit-identical fault patterns, and a
//!   zero-rate profile ([`FaultProfile::none`]) is exactly a no-op.
//! * [`FaultDraws`] — a profile compiled, once per campaign, into its
//!   per-query DNS draws: what can fire at all, the slow-timeout cut, and
//!   the enabled mutation kinds.
//! * [`QueryFault`] — the transient outcomes an upstream DNS query can
//!   suffer (SERVFAIL or timeout).
//! * [`RetryPolicy`] — capped exponential backoff for probe-side retries.
//!
//! The crate is deliberately free of simulator dependencies (only
//! `mcdn-geo` for the time axis): callers adapt a profile to their own
//! domain by hashing whatever identifies an event (zone name, probe id,
//! link id) into the `u64` keys these APIs take.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::net::Ipv4Addr;

use mcdn_geo::time::{Duration, SimTime};

/// FNV-1a over a byte slice — the workspace-standard pure hash for
/// deterministic decisions (same construction as probe availability).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A streaming FNV-1a hasher producing values identical to [`fnv64`] over
/// the concatenation of everything fed to it — without materializing that
/// concatenation. It implements [`core::fmt::Write`], so `write!(h, "{x}")`
/// hashes a value's `Display` output with no intermediate `String`; FNV is
/// strictly byte-serial, so however the formatter chunks its writes, the
/// result equals hashing `x.to_string().as_bytes()`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A hasher in the FNV-1a initial state (`fnv64(b"")`).
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// A hasher resumed from a previously [`finish`](Fnv64::finish)ed
    /// digest. FNV-1a's state *is* its digest, so
    /// `Fnv64::with_state(h.finish())` continues the stream exactly where
    /// `h` left off — this lets callers precompute the hash of a stable
    /// prefix (say, a DNS name's `Display` form) once and later fold in
    /// per-query suffixes without re-hashing the prefix.
    pub fn with_state(state: u64) -> Fnv64 {
        Fnv64(state)
    }

    /// Feeds bytes into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl core::fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> core::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// One SplitMix64 step — used to decorrelate hash streams drawn from the
/// same key material for different decisions.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds a list of 64-bit words into one well-mixed decision hash.
fn hash_words(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in words {
        h = mix(h ^ w);
    }
    h
}

/// Maps a hash to the unit interval `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The largest 53-bit draw `h >> 11` (the numerator of [`unit`]).
const DRAW_MAX: u64 = (1 << 53) - 1;

/// The last word of each per-query draw, after the query's five key words.
const LOSS_SALT: u64 = 0x105e;
const LATENCY_SALT: u64 = 0x1a7e;
const SERVFAIL_SALT: u64 = 0x5efa;
const MUTATION_FIRE_SALT: u64 = 0xbad0;
const MUTATION_PICK_SALT: u64 = 0xbad1;

/// A transient fault injected into one upstream DNS query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryFault {
    /// The authoritative server answered SERVFAIL (overload, lame
    /// delegation, or a baseline server-side failure).
    ServFail,
    /// The query or its response was lost, or the answer arrived too late
    /// to be useful — the client sees a timeout either way.
    Timeout,
}

/// A Byzantine mutation applied to one upstream DNS answer.
///
/// Where [`QueryFault`] models *absent* answers, these model *wrong* ones:
/// the shapes a resolver sees from spoofed, misconfigured, or outright
/// hostile authoritative servers. Which mutation (if any) hits a given
/// query is a pure function of `(profile, zone, query, attempt, time)` —
/// see [`FaultDraws::answer_mutation`] — so adversarial campaigns stay
/// bit-reproducible and journal-resumable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnswerMutation {
    /// The answer carries an extra A record steering the queried name at
    /// an attacker-controlled prefix (classic cache-poisoning payload).
    SpoofA,
    /// The answer carries an out-of-bailiwick NS record delegating the
    /// zone to an attacker name server (Kaminsky-style delegation hijack).
    InjectNs,
    /// The answer arrives truncated/garbled beyond use: the resolver must
    /// treat it as a malformed-response error, not ingest a partial RRset.
    Truncate,
    /// All TTLs in the answer are inflated by
    /// [`FaultProfile::ttl_inflation_factor`], trying to pin stale or
    /// poisoned data in caches far beyond its legitimate lifetime.
    InflateTtl,
}

/// A deterministic bundle of measurement-plane fault rates.
///
/// Every decision method is a pure function of the profile, its `seed`, and
/// the caller-supplied event keys — no mutable state, no wall clock. The
/// all-zero profile ([`FaultProfile::none`]) answers "no fault" to every
/// question, making fault-aware code paths bit-identical to fault-free
/// ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Seed decorrelating this profile's decisions from other profiles
    /// with the same rates.
    pub seed: u64,
    /// Probability that a single upstream DNS query (or its answer) is
    /// lost in transit, observed as a timeout. Per attempt, so retries
    /// redraw independently.
    pub query_loss: f64,
    /// Baseline probability of SERVFAIL from an authoritative zone,
    /// independent of load.
    pub servfail_floor: f64,
    /// Additional SERVFAIL probability per unit of authoritative-zone
    /// load: an overloaded zone at load `l` fails with probability
    /// `servfail_floor + servfail_per_load * l` (clamped to `[0, 1]`).
    pub servfail_per_load: f64,
    /// Mean hours between lame-delegation windows per zone (0 disables
    /// lame windows entirely).
    pub lame_every_hours: u32,
    /// Length of one lame-delegation window, in hours. While a zone is
    /// lame, every query to it SERVFAILs.
    pub lame_hours: u32,
    /// Median simulated upstream query latency in milliseconds. Purely
    /// informational unless `slow_timeout_ms` is set.
    pub latency_median_ms: f64,
    /// Latency tail heaviness: the 99th-percentile latency is roughly
    /// `latency_median_ms * latency_tail`. Values `<= 1` mean no tail.
    pub latency_tail: f64,
    /// Queries whose drawn latency exceeds this many milliseconds count as
    /// timeouts (0 disables latency-induced timeouts).
    pub slow_timeout_ms: f64,
    /// Probability that a sampled NetFlow record is lost between exporter
    /// and collector (on top of packet sampling).
    pub netflow_export_loss: f64,
    /// Probability that a link misses one 5-minute SNMP poll cycle.
    pub snmp_gap: f64,
    /// Mean hours between full-outage windows per CDN site (0 disables site
    /// outages). While a site is down it serves nothing and its health
    /// probes fail.
    pub site_outage_every_hours: u32,
    /// Length of one site-outage window, in hours.
    pub site_outage_hours: u32,
    /// Mean hours between capacity-brownout windows per CDN site (0
    /// disables brownouts).
    pub brownout_every_hours: u32,
    /// Length of one brownout window, in hours.
    pub brownout_hours: u32,
    /// Fraction of a site's capacity lost during a brownout window, in
    /// `[0, 1]` (0.6 means the site keeps 40 % of its capacity).
    pub brownout_depth: f64,
    /// Mean hours between authoritative-NS outage windows per zone (0
    /// disables NS outages). A dark zone answers nothing — every upstream
    /// query to it times out.
    pub ns_outage_every_hours: u32,
    /// Length of one NS-outage window, in hours.
    pub ns_outage_hours: u32,
    /// Load-coupled degradation of Apple's own CDN: for utilization `u`,
    /// effective capacity is scaled by `1 / (1 + k * max(0, u - 1))` where
    /// `k` is this knob (0 disables the coupling).
    pub apple_degrade_per_load: f64,
    /// Targeted control-plane kill: entity key whose infrastructure is
    /// scripted down during `[kill_from, kill_until)`. 0 disables the kill
    /// (so a zero profile stays inert for every key).
    pub kill_key: u64,
    /// Start of the targeted-kill window (seconds since epoch).
    pub kill_from: SimTime,
    /// End of the targeted-kill window (exclusive).
    pub kill_until: SimTime,
    /// Health-telemetry blackout window start: while
    /// `[blackout_from, blackout_until)` is in force, *every* health probe
    /// fails, modelling total loss of the control plane's monitoring.
    pub blackout_from: SimTime,
    /// End of the health-telemetry blackout window (exclusive).
    pub blackout_until: SimTime,
    /// Probability that one upstream answer is mutated by an adversary
    /// (0 disables answer mutations entirely; which kind fires is drawn
    /// from the enabled `mutate_*` flags).
    pub mutation_rate: f64,
    /// Enables [`AnswerMutation::SpoofA`] draws.
    pub mutate_spoof_a: bool,
    /// Enables [`AnswerMutation::InjectNs`] draws.
    pub mutate_inject_ns: bool,
    /// Enables [`AnswerMutation::Truncate`] draws.
    pub mutate_truncate: bool,
    /// Enables [`AnswerMutation::InflateTtl`] draws.
    pub mutate_inflate_ttl: bool,
    /// First two octets of the attacker-controlled /16 that spoofed A
    /// records point into (default 198.18 — the RFC 2544 benchmark range,
    /// guaranteed disjoint from every modeled CDN prefix).
    pub attacker_prefix: [u8; 2],
    /// Multiplier applied to answer TTLs by [`AnswerMutation::InflateTtl`]
    /// (saturating; 0 is treated as 1, i.e. no inflation).
    pub ttl_inflation_factor: u32,
    /// Whether resolvers should enforce bailiwick rules against mutated
    /// answers. On (the default) models a hardened resolver; off models a
    /// naive one, exposing the mis-mapping delta the poisoning sweep
    /// measures.
    pub enforce_bailiwick: bool,
}

impl FaultProfile {
    /// The fault-free profile: every decision method returns "no fault",
    /// so campaigns run exactly as they would without the fault layer.
    pub const fn none() -> FaultProfile {
        FaultProfile {
            seed: 0,
            query_loss: 0.0,
            servfail_floor: 0.0,
            servfail_per_load: 0.0,
            lame_every_hours: 0,
            lame_hours: 0,
            latency_median_ms: 0.0,
            latency_tail: 0.0,
            slow_timeout_ms: 0.0,
            netflow_export_loss: 0.0,
            snmp_gap: 0.0,
            site_outage_every_hours: 0,
            site_outage_hours: 0,
            brownout_every_hours: 0,
            brownout_hours: 0,
            brownout_depth: 0.0,
            ns_outage_every_hours: 0,
            ns_outage_hours: 0,
            apple_degrade_per_load: 0.0,
            kill_key: 0,
            kill_from: SimTime(0),
            kill_until: SimTime(0),
            blackout_from: SimTime(0),
            blackout_until: SimTime(0),
            mutation_rate: 0.0,
            mutate_spoof_a: false,
            mutate_inject_ns: false,
            mutate_truncate: false,
            mutate_inflate_ttl: false,
            attacker_prefix: [198, 18],
            ttl_inflation_factor: 0,
            enforce_bailiwick: true,
        }
    }

    /// A moderately hostile profile representative of real campaign
    /// conditions: ~1 % query loss, load-sensitive SERVFAILs, occasional
    /// multi-hour lame windows, a heavy latency tail with a 5 s timeout,
    /// 2 % NetFlow export loss, and 3 % SNMP poll gaps.
    pub const fn realistic(seed: u64) -> FaultProfile {
        FaultProfile {
            seed,
            query_loss: 0.01,
            servfail_floor: 0.002,
            servfail_per_load: 0.04,
            lame_every_hours: 96,
            lame_hours: 2,
            latency_median_ms: 35.0,
            latency_tail: 40.0,
            slow_timeout_ms: 5_000.0,
            netflow_export_loss: 0.02,
            snmp_gap: 0.03,
            ..FaultProfile::none()
        }
    }

    /// An infrastructure-chaos profile on top of [`FaultProfile::none`]:
    /// the *measurement* plane stays clean while the *measured* system
    /// suffers periodic site outages, capacity brownouts, authoritative-NS
    /// dark windows, and load-coupled degradation of Apple's own CDN.
    pub const fn infrastructure(seed: u64) -> FaultProfile {
        FaultProfile {
            seed,
            site_outage_every_hours: 48,
            site_outage_hours: 3,
            brownout_every_hours: 24,
            brownout_hours: 4,
            brownout_depth: 0.5,
            ns_outage_every_hours: 72,
            ns_outage_hours: 2,
            apple_degrade_per_load: 0.3,
            ..FaultProfile::none()
        }
    }

    /// An adversarial-answer profile: 15 % of upstream answers are mutated
    /// with one of the four [`AnswerMutation`] kinds, TTLs inflate 10000×
    /// when hit, and the attacker squats the 198.18.0.0/16 benchmark range.
    /// Bailiwick enforcement stays on; flip it off with
    /// [`FaultProfile::with_bailiwick_enforcement`] to measure what a naive
    /// resolver would ingest.
    pub const fn poisoning(seed: u64) -> FaultProfile {
        FaultProfile {
            seed,
            mutation_rate: 0.15,
            mutate_spoof_a: true,
            mutate_inject_ns: true,
            mutate_truncate: true,
            mutate_inflate_ttl: true,
            ttl_inflation_factor: 10_000,
            ..FaultProfile::none()
        }
    }

    /// Builder: turns resolver-side bailiwick enforcement on or off.
    pub const fn with_bailiwick_enforcement(mut self, on: bool) -> FaultProfile {
        self.enforce_bailiwick = on;
        self
    }

    /// Builder: scripts a targeted control-plane kill of the entity hashed
    /// to `key` during `[from, until)` — e.g. "kill the Limelight load
    /// balancer mid-event".
    pub const fn with_target_kill(mut self, key: u64, from: SimTime, until: SimTime) -> FaultProfile {
        self.kill_key = key;
        self.kill_from = from;
        self.kill_until = until;
        self
    }

    /// Builder: scripts a health-telemetry blackout during `[from, until)`,
    /// in which every health probe fails regardless of actual site state.
    pub const fn with_blackout(mut self, from: SimTime, until: SimTime) -> FaultProfile {
        self.blackout_from = from;
        self.blackout_until = until;
        self
    }

    /// Returns this profile with a different decision seed — used to give
    /// independent fault patterns to e.g. the global and ISP campaigns.
    pub const fn with_seed(mut self, seed: u64) -> FaultProfile {
        self.seed = seed;
        self
    }

    /// An order-stable digest of every knob, field by declared field.
    ///
    /// Because the profile is the fault layer's entire "RNG state" (all
    /// randomness is pure hashing of profile + keys), this digest *is* the
    /// exported fault-model cursor: equal digests guarantee an identical
    /// fault stream, which is what a resumable campaign folds into its
    /// config fingerprint to refuse resuming under a different model.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.update(&self.seed.to_le_bytes());
        h.update(&self.query_loss.to_bits().to_le_bytes());
        h.update(&self.servfail_floor.to_bits().to_le_bytes());
        h.update(&self.servfail_per_load.to_bits().to_le_bytes());
        h.update(&self.lame_every_hours.to_le_bytes());
        h.update(&self.lame_hours.to_le_bytes());
        h.update(&self.latency_median_ms.to_bits().to_le_bytes());
        h.update(&self.latency_tail.to_bits().to_le_bytes());
        h.update(&self.slow_timeout_ms.to_bits().to_le_bytes());
        h.update(&self.netflow_export_loss.to_bits().to_le_bytes());
        h.update(&self.snmp_gap.to_bits().to_le_bytes());
        h.update(&self.site_outage_every_hours.to_le_bytes());
        h.update(&self.site_outage_hours.to_le_bytes());
        h.update(&self.brownout_every_hours.to_le_bytes());
        h.update(&self.brownout_hours.to_le_bytes());
        h.update(&self.brownout_depth.to_bits().to_le_bytes());
        h.update(&self.ns_outage_every_hours.to_le_bytes());
        h.update(&self.ns_outage_hours.to_le_bytes());
        h.update(&self.apple_degrade_per_load.to_bits().to_le_bytes());
        h.update(&self.kill_key.to_le_bytes());
        h.update(&self.kill_from.as_secs().to_le_bytes());
        h.update(&self.kill_until.as_secs().to_le_bytes());
        h.update(&self.blackout_from.as_secs().to_le_bytes());
        h.update(&self.blackout_until.as_secs().to_le_bytes());
        h.update(&self.mutation_rate.to_bits().to_le_bytes());
        h.update(&[
            self.mutate_spoof_a as u8,
            self.mutate_inject_ns as u8,
            self.mutate_truncate as u8,
            self.mutate_inflate_ttl as u8,
        ]);
        h.update(&self.attacker_prefix);
        h.update(&self.ttl_inflation_factor.to_le_bytes());
        h.update(&[self.enforce_bailiwick as u8]);
        h.finish()
    }

    /// Compiles the profile into its per-query DNS draws (see
    /// [`FaultDraws`]): build it once per campaign, not per query.
    pub fn compile(&self) -> FaultDraws {
        let slow_cut = self.slow_cut();
        let can_fault = self.query_loss > 0.0
            || self.servfail_floor > 0.0
            || self.servfail_per_load > 0.0
            || (self.lame_every_hours > 0 && self.lame_hours > 0)
            || slow_cut.is_some()
            || (self.ns_outage_every_hours > 0 && self.ns_outage_hours > 0)
            || (self.kill_key != 0 && self.kill_until > self.kill_from);
        let mut kinds = [AnswerMutation::SpoofA; 4];
        let mut enabled = 0;
        if self.has_answer_mutations() {
            for (on, kind) in [
                (self.mutate_spoof_a, AnswerMutation::SpoofA),
                (self.mutate_inject_ns, AnswerMutation::InjectNs),
                (self.mutate_truncate, AnswerMutation::Truncate),
                (self.mutate_inflate_ttl, AnswerMutation::InflateTtl),
            ] {
                if on {
                    kinds[enabled] = kind;
                    enabled += 1;
                }
            }
        }
        FaultDraws { profile: *self, can_fault, slow_cut, kinds, enabled: enabled as u64 }
    }

    /// True when any [`AnswerMutation`] kind can ever fire.
    pub fn has_answer_mutations(&self) -> bool {
        self.mutation_rate > 0.0
            && (self.mutate_spoof_a
                || self.mutate_inject_ns
                || self.mutate_truncate
                || self.mutate_inflate_ttl)
    }

    /// True when any *infrastructure* fault kind (site outage, brownout,
    /// NS outage, load-coupled degradation, targeted kill, telemetry
    /// blackout) can ever fire.
    pub fn has_infrastructure_faults(&self) -> bool {
        (self.site_outage_every_hours > 0 && self.site_outage_hours > 0)
            || (self.brownout_every_hours > 0 && self.brownout_hours > 0 && self.brownout_depth > 0.0)
            || (self.ns_outage_every_hours > 0 && self.ns_outage_hours > 0)
            || self.apple_degrade_per_load > 0.0
            || (self.kill_key != 0 && self.kill_until > self.kill_from)
            || self.blackout_until > self.blackout_from
    }

    /// Shared window-placement rule: whether `key`'s entity is inside one
    /// of its pseudo-random fault windows at `now`. Windows are
    /// `span_hours` long and recur on average every `every_hours`, placed
    /// per entity so different entities fail at different times.
    fn in_window(&self, key: u64, now: SimTime, every_hours: u32, span_hours: u32, salt: u64) -> bool {
        if every_hours == 0 || span_hours == 0 {
            return false;
        }
        let span = span_hours.max(1) as u64;
        let cycles = (every_hours as u64 / span).max(1);
        let window = now.0 / 3600 / span;
        hash_words(&[self.seed, key, window, salt]).is_multiple_of(cycles)
    }

    /// Whether `zone_key`'s zone is inside a lame-delegation window at
    /// `now`. Windows are `lame_hours` long, occur on average every
    /// `lame_every_hours`, and are placed pseudo-randomly per zone so
    /// different zones go lame at different times.
    pub fn zone_is_lame(&self, zone_key: u64, now: SimTime) -> bool {
        self.in_window(zone_key, now, self.lame_every_hours, self.lame_hours, 0x1a3e)
    }

    /// Whether the entity hashed to `key` is inside its scripted
    /// targeted-kill window at `now`.
    pub fn target_killed(&self, key: u64, now: SimTime) -> bool {
        self.kill_key != 0 && key == self.kill_key && now >= self.kill_from && now < self.kill_until
    }

    /// Whether the health-telemetry blackout is in force at `now`.
    pub fn health_blackout(&self, now: SimTime) -> bool {
        now >= self.blackout_from && now < self.blackout_until
    }

    /// Whether the CDN site hashed to `site_key` is fully down at `now`
    /// (pseudo-random outage window or scripted targeted kill).
    pub fn site_is_down(&self, site_key: u64, now: SimTime) -> bool {
        self.target_killed(site_key, now)
            || self.in_window(site_key, now, self.site_outage_every_hours, self.site_outage_hours, 0x51fe)
    }

    /// The fraction of its modeled capacity the site hashed to `site_key`
    /// retains at `now`: 0 while down, `1 - brownout_depth` inside a
    /// brownout window, 1 otherwise.
    pub fn site_capacity_factor(&self, site_key: u64, now: SimTime) -> f64 {
        if self.site_is_down(site_key, now) {
            return 0.0;
        }
        if self.in_window(site_key, now, self.brownout_every_hours, self.brownout_hours, 0xb0bf) {
            (1.0 - self.brownout_depth).clamp(0.0, 1.0)
        } else {
            1.0
        }
    }

    /// Whether the authoritative NS for the zone hashed to `zone_key` is
    /// dark (unreachable — queries time out) at `now`.
    pub fn ns_is_dark(&self, zone_key: u64, now: SimTime) -> bool {
        self.target_killed(zone_key, now)
            || self.in_window(zone_key, now, self.ns_outage_every_hours, self.ns_outage_hours, 0xd4a7)
    }

    /// Load-coupled degradation of Apple's own CDN: the capacity factor at
    /// candidate utilization `util` (1 at or below capacity, shrinking as
    /// overload deepens when `apple_degrade_per_load` is set).
    pub fn apple_load_factor(&self, util: f64) -> f64 {
        if self.apple_degrade_per_load <= 0.0 {
            return 1.0;
        }
        1.0 / (1.0 + self.apple_degrade_per_load * (util - 1.0).max(0.0))
    }

    /// The attacker-prefix address a [`AnswerMutation::SpoofA`] record for
    /// this `(query, time)` points at: deterministic, always inside
    /// `attacker_prefix.0.attacker_prefix.1/16`.
    pub fn spoof_address(&self, query_key: u64, now: SimTime) -> Ipv4Addr {
        let h = hash_words(&[self.seed, query_key, now.0, 0xbad2]);
        Ipv4Addr::new(
            self.attacker_prefix[0],
            self.attacker_prefix[1],
            (h >> 8) as u8,
            h as u8,
        )
    }

    /// A deterministic latency draw (milliseconds) for one upstream query,
    /// Pareto-shaped so that the median is `latency_median_ms` and the
    /// 99th percentile is roughly `latency_median_ms * latency_tail`.
    /// [`FaultDraws::upstream_fault`] decides slowness from its cut
    /// without evaluating this.
    pub fn query_latency_ms(
        &self,
        zone_key: u64,
        query_key: u64,
        attempt: u32,
        now: SimTime,
    ) -> f64 {
        let h = hash_words(&[self.seed, zone_key, query_key, now.0, attempt as u64, LATENCY_SALT]);
        self.latency_at(h >> 11)
    }

    /// The latency of the 53-bit draw `draw` (`u = draw / 2^53`).
    fn latency_at(&self, draw: u64) -> f64 {
        if self.latency_median_ms <= 0.0 {
            return 0.0;
        }
        let u = draw as f64 / (1u64 << 53) as f64;
        let tail = self.latency_tail.max(1.0);
        // latency = median * (2(1-u))^(-alpha): u=0.5 gives the median,
        // u=0.99 gives median * 50^alpha = median * tail.
        let alpha = tail.ln() / 50.0_f64.ln();
        self.latency_median_ms * (2.0 * (1.0 - u).max(1e-12)).powf(-alpha)
    }

    /// Whether the latency of `draw` counts as a timeout.
    fn is_slow(&self, draw: u64) -> bool {
        self.slow_timeout_ms > 0.0 && self.latency_at(draw) > self.slow_timeout_ms
    }

    /// The smallest draw that [`is_slow`](Self::is_slow), by bisection;
    /// `None` when no draw is. Exact because the latency is monotone in
    /// the draw: `u` and `1 - u` are exact in `f64` (53-bit numerators
    /// over `2^53`), so the base `2 max(1 - u, 1e-12)` never rises as the
    /// draw rises, and a smaller base raised to `-alpha <= 0` is no
    /// smaller. The unit tests hold the cut to the formula on the `2^17`
    /// draws around it.
    fn slow_cut(&self) -> Option<u64> {
        if !self.is_slow(DRAW_MAX) {
            return None;
        }
        // The cut lies in `lo..=hi`: `hi` is slow, and every draw below
        // `lo` is not.
        let (mut lo, mut hi) = (0, DRAW_MAX);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.is_slow(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(lo)
    }

    /// Whether one sampled NetFlow record is lost on export.
    pub fn netflow_export_lost(&self, link_key: u64, flow_key: u64, now: SimTime) -> bool {
        if self.netflow_export_loss <= 0.0 {
            return false;
        }
        let h = hash_words(&[self.seed, link_key, flow_key, now.0, 0xf10e]);
        unit(h) < self.netflow_export_loss
    }

    /// Whether `link_key`'s SNMP counter misses the poll cycle at `now`.
    ///
    /// Counters themselves stay monotonic; a missed poll only means the
    /// collector records no sample for that 5-minute bin, so the next
    /// successful poll's delta covers the gap.
    pub fn snmp_poll_missed(&self, link_key: u64, now: SimTime) -> bool {
        if self.snmp_gap <= 0.0 {
            return false;
        }
        let h = hash_words(&[self.seed, link_key, now.0, 0x50ff]);
        unit(h) < self.snmp_gap
    }
}

impl Default for FaultProfile {
    fn default() -> FaultProfile {
        FaultProfile::none()
    }
}

/// A [`FaultProfile`] compiled by [`FaultProfile::compile`] into its
/// per-query DNS draws: the facts a profile fixes for a whole campaign,
/// settled once, so deciding one upstream query reads constants.
///
/// * Whether any DNS-side fault can fire at all: query loss, SERVFAIL,
///   lame windows, slow timeouts, NS outages or a targeted kill.
///   Telemetry loss, site faults and mutations do not count.
/// * The slow-timeout cut: the smallest 53-bit draw whose latency
///   ([`FaultProfile::query_latency_ms`]'s formula) exceeds
///   `slow_timeout_ms`. A query is slow when its draw reaches the cut —
///   one integer compare instead of a logarithm and a power.
/// * The enabled mutation kinds in declaration order, none when
///   [`FaultProfile::has_answer_mutations`] is false.
///
/// Every draw of one query hashes the same five words first, `(seed,
/// zone, query, time, attempt)`, and then its own salt; by the definition
/// of the fold, hashing six words is mixing the salt into the hash of the
/// first five. So a query hashes its five words once, and each draw
/// (loss, latency, SERVFAIL, mutation fire and pick) costs one more mix.
/// The decisions are those of the profile's own per-draw hashing, bit for
/// bit.
#[derive(Debug, Clone, Copy)]
pub struct FaultDraws {
    profile: FaultProfile,
    can_fault: bool,
    slow_cut: Option<u64>,
    kinds: [AnswerMutation; 4],
    enabled: u64,
}

impl FaultDraws {
    /// The compiled profile.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Whether [`upstream_fault`](Self::upstream_fault) can ever report a
    /// fault.
    pub fn can_fault(&self) -> bool {
        self.can_fault
    }

    /// Whether [`answer_mutation`](Self::answer_mutation) can ever report
    /// a mutation.
    pub fn can_mutate(&self) -> bool {
        self.enabled > 0
    }

    /// The hash every draw of one query starts from.
    fn prefix(&self, zone_key: u64, query_key: u64, attempt: u32, now: SimTime) -> u64 {
        hash_words(&[self.profile.seed, zone_key, query_key, now.0, attempt as u64])
    }

    /// The fault, if any, suffered by one upstream query.
    ///
    /// * `zone_key` — hash identifying the authoritative zone asked.
    /// * `query_key` — hash identifying the querying client and name.
    /// * `attempt` — 0-based retry counter; retries redraw independently.
    /// * `now` — campaign time of the query.
    /// * `zone_load` — the zone operator's current load (0 = idle); scales
    ///   the SERVFAIL probability by `servfail_per_load`.
    ///
    /// In order: a dark NS ([`FaultProfile::ns_is_dark`]) times out, a
    /// lame zone ([`FaultProfile::zone_is_lame`]) SERVFAILs, then the
    /// loss, latency and SERVFAIL draws.
    pub fn upstream_fault(
        &self,
        zone_key: u64,
        query_key: u64,
        attempt: u32,
        now: SimTime,
        zone_load: f64,
    ) -> Option<QueryFault> {
        if !self.can_fault {
            return None;
        }
        let p = &self.profile;
        if p.ns_is_dark(zone_key, now) {
            return Some(QueryFault::Timeout);
        }
        if p.zone_is_lame(zone_key, now) {
            return Some(QueryFault::ServFail);
        }
        let prefix = self.prefix(zone_key, query_key, attempt, now);
        if p.query_loss > 0.0 && unit(mix(prefix ^ LOSS_SALT)) < p.query_loss {
            return Some(QueryFault::Timeout);
        }
        if let Some(cut) = self.slow_cut {
            if mix(prefix ^ LATENCY_SALT) >> 11 >= cut {
                return Some(QueryFault::Timeout);
            }
        }
        let p_servfail =
            (p.servfail_floor + p.servfail_per_load * zone_load.max(0.0)).clamp(0.0, 1.0);
        if p_servfail > 0.0 && unit(mix(prefix ^ SERVFAIL_SALT)) < p_servfail {
            return Some(QueryFault::ServFail);
        }
        None
    }

    /// The Byzantine mutation, if any, applied to one upstream answer.
    ///
    /// Keyed exactly like [`FaultDraws::upstream_fault`] — pure in
    /// `(profile, zone_key, query_key, attempt, now)` — so mutated
    /// campaigns replay bit-identically from a journal checkpoint. Which
    /// kind fires is a second independent draw over the enabled
    /// `mutate_*` flags, taken in declaration order.
    pub fn answer_mutation(
        &self,
        zone_key: u64,
        query_key: u64,
        attempt: u32,
        now: SimTime,
    ) -> Option<AnswerMutation> {
        if self.enabled == 0 {
            return None;
        }
        let prefix = self.prefix(zone_key, query_key, attempt, now);
        if unit(mix(prefix ^ MUTATION_FIRE_SALT)) >= self.profile.mutation_rate {
            return None;
        }
        let pick = mix(prefix ^ MUTATION_PICK_SALT);
        Some(self.kinds[(pick % self.enabled) as usize])
    }
}

/// Probe-side retry schedule: capped exponential backoff between attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per measurement, including the first (minimum 1).
    pub max_attempts: u32,
    /// Wait before the first retry; doubles each further retry.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff wait.
    pub backoff_cap: Duration,
}

impl RetryPolicy {
    /// An order-stable digest of the policy, for the resumable campaign's
    /// config fingerprint (see [`FaultProfile::digest`]).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.update(&self.max_attempts.to_le_bytes());
        h.update(&self.backoff_base.as_secs().to_le_bytes());
        h.update(&self.backoff_cap.as_secs().to_le_bytes());
        h.finish()
    }

    /// No retries: one attempt, zero backoff.
    pub const fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            backoff_base: Duration::secs(0),
            backoff_cap: Duration::secs(0),
        }
    }

    /// The campaign default: up to 3 attempts, backing off 2 s then 4 s,
    /// capped at 30 s.
    pub const fn standard() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff_base: Duration::secs(2),
            backoff_cap: Duration::secs(30),
        }
    }

    /// The wait before attempt number `attempt` (1-based retry index:
    /// attempt 0 is the initial try and never waits). Exponential in the
    /// retry index and capped at `backoff_cap`.
    pub fn backoff_before(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::secs(0);
        }
        let shift = (attempt - 1).min(32);
        let raw = self.backoff_base.as_secs().saturating_mul(1u64 << shift);
        Duration::secs(raw.min(self.backoff_cap.as_secs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `query_latency_ms`'s formula at unit draw `u`, as first written.
    fn reference_latency(p: &FaultProfile, u: f64) -> f64 {
        if p.latency_median_ms <= 0.0 {
            return 0.0;
        }
        let tail = p.latency_tail.max(1.0);
        let alpha = tail.ln() / 50.0_f64.ln();
        p.latency_median_ms * (2.0 * (1.0 - u).max(1e-12)).powf(-alpha)
    }

    /// Whether the 53-bit draw `draw` is slow under the formula.
    fn reference_slow(p: &FaultProfile, draw: u64) -> bool {
        let u = draw as f64 / (1u64 << 53) as f64;
        p.slow_timeout_ms > 0.0 && reference_latency(p, u) > p.slow_timeout_ms
    }

    /// The decision before compilation, one `hash_words` per draw and the
    /// latency formula, behind the campaign adapter's dark-NS check.
    fn reference_upstream_fault(
        p: &FaultProfile,
        zone_key: u64,
        query_key: u64,
        attempt: u32,
        now: SimTime,
        zone_load: f64,
    ) -> Option<QueryFault> {
        if p.ns_is_dark(zone_key, now) {
            return Some(QueryFault::Timeout);
        }
        if p.zone_is_lame(zone_key, now) {
            return Some(QueryFault::ServFail);
        }
        let base = [p.seed, zone_key, query_key, now.0, attempt as u64];
        if p.query_loss > 0.0 {
            let h = hash_words(&[base[0], base[1], base[2], base[3], base[4], 0x105e]);
            if unit(h) < p.query_loss {
                return Some(QueryFault::Timeout);
            }
        }
        let h = hash_words(&[base[0], base[1], base[2], base[3], base[4], 0x1a7e]);
        if p.slow_timeout_ms > 0.0 && reference_latency(p, unit(h)) > p.slow_timeout_ms {
            return Some(QueryFault::Timeout);
        }
        let p_servfail =
            (p.servfail_floor + p.servfail_per_load * zone_load.max(0.0)).clamp(0.0, 1.0);
        if p_servfail > 0.0 {
            let h = hash_words(&[base[0], base[1], base[2], base[3], base[4], 0x5efa]);
            if unit(h) < p_servfail {
                return Some(QueryFault::ServFail);
            }
        }
        None
    }

    /// The mutation decision before compilation, behind the campaign
    /// adapter's `has_answer_mutations` check.
    fn reference_answer_mutation(
        p: &FaultProfile,
        zone_key: u64,
        query_key: u64,
        attempt: u32,
        now: SimTime,
    ) -> Option<AnswerMutation> {
        if !p.has_answer_mutations() {
            return None;
        }
        let mut kinds = [AnswerMutation::SpoofA; 4];
        let mut enabled = 0usize;
        for (on, kind) in [
            (p.mutate_spoof_a, AnswerMutation::SpoofA),
            (p.mutate_inject_ns, AnswerMutation::InjectNs),
            (p.mutate_truncate, AnswerMutation::Truncate),
            (p.mutate_inflate_ttl, AnswerMutation::InflateTtl),
        ] {
            if on {
                kinds[enabled] = kind;
                enabled += 1;
            }
        }
        let base = [p.seed, zone_key, query_key, now.0, attempt as u64];
        let fire = hash_words(&[base[0], base[1], base[2], base[3], base[4], 0xbad0]);
        if unit(fire) >= p.mutation_rate {
            return None;
        }
        let pick = hash_words(&[base[0], base[1], base[2], base[3], base[4], 0xbad1]);
        Some(kinds[(pick % enabled as u64) as usize])
    }

    /// The key of the targeted-kill profile below.
    const KILL_KEY: u64 = 0x5eed_c0de;

    /// Every profile the campaigns run, rebuilt from the public builders:
    /// the presets, the border-telemetry profile, one profile per family
    /// of the chaos grid and of the poisoning grid, and two latency
    /// tails cut elsewhere.
    fn profiles() -> Vec<(&'static str, FaultProfile)> {
        let (from, until) = (SimTime(1_505_800_000), SimTime(1_505_830_000));
        let base = FaultProfile::none().with_seed(41);
        let poison = FaultProfile::poisoning(43);
        vec![
            ("none", FaultProfile::none()),
            ("realistic", FaultProfile::realistic(0xFA17)),
            ("poisoning", poison),
            ("infrastructure", FaultProfile::infrastructure(41)),
            ("telemetry", FaultProfile { netflow_export_loss: 0.02, snmp_gap: 0.03, ..base }),
            ("site-outages", FaultProfile { site_outage_every_hours: 48, site_outage_hours: 3, ..base }),
            (
                "brownouts",
                FaultProfile { brownout_every_hours: 24, brownout_hours: 4, brownout_depth: 0.5, ..base },
            ),
            ("ns-outages", FaultProfile { ns_outage_every_hours: 72, ns_outage_hours: 2, ..base }),
            ("apple-degraded", FaultProfile { apple_degrade_per_load: 0.3, ..base }),
            ("target-kill", base.with_target_kill(KILL_KEY, from, until)),
            ("total-dark", FaultProfile::infrastructure(41).with_blackout(from, until)),
            (
                "spoof-a-open",
                FaultProfile {
                    mutate_inject_ns: false,
                    mutate_truncate: false,
                    mutate_inflate_ttl: false,
                    enforce_bailiwick: false,
                    ..poison
                },
            ),
            (
                "ns-inject",
                FaultProfile {
                    mutate_spoof_a: false,
                    mutate_truncate: false,
                    mutate_inflate_ttl: false,
                    ..poison
                },
            ),
            (
                "truncation-storm",
                FaultProfile {
                    mutate_spoof_a: false,
                    mutate_inject_ns: false,
                    mutate_inflate_ttl: false,
                    mutation_rate: 0.35,
                    ..poison
                },
            ),
            (
                "ttl-inflation-open",
                FaultProfile {
                    mutate_spoof_a: false,
                    mutate_inject_ns: false,
                    mutate_truncate: false,
                    enforce_bailiwick: false,
                    ..poison
                },
            ),
            ("kitchen-sink-open", poison.with_bailiwick_enforcement(false)),
            ("tail-200ms", FaultProfile { slow_timeout_ms: 200.0, ..FaultProfile::realistic(3) }),
            ("tail-1s-short", FaultProfile { latency_tail: 8.0, slow_timeout_ms: 1_000.0, ..FaultProfile::realistic(5) }),
        ]
    }

    #[test]
    fn six_word_hash_is_the_five_word_prefix_mixed_with_the_salt() {
        let mut state = 0x1234_5678u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            mix(state)
        };
        for _ in 0..10_000 {
            let len = (next() % 9) as usize;
            let words: Vec<u64> = (0..len).map(|_| next()).collect();
            let salt = next();
            let mut extended = words.clone();
            extended.push(salt);
            assert_eq!(hash_words(&extended), mix(hash_words(&words) ^ salt), "{words:?} + {salt}");
        }
    }

    #[test]
    fn slow_cut_is_where_the_latency_formula_first_exceeds_the_timeout() {
        let mut cut_profiles = 0;
        for (label, p) in profiles() {
            let draws = p.compile();
            let Some(cut) = draws.slow_cut else {
                assert!(!reference_slow(&p, DRAW_MAX), "{label}: the slowest draw is slow");
                continue;
            };
            cut_profiles += 1;
            assert!(cut > 0 && !reference_slow(&p, cut - 1), "{label}: draw below the cut is slow");
            assert!(reference_slow(&p, cut), "{label}: draw at the cut is not slow");
            let span = 1u64 << 16;
            for draw in cut - span.min(cut)..=(cut + span).min(DRAW_MAX) {
                assert_eq!(draw >= cut, reference_slow(&p, draw), "{label}: draw {draw}, cut {cut}");
            }
        }
        assert_eq!(cut_profiles, 3, "realistic and the two tails have a cut");
    }

    #[test]
    fn compiled_draws_decide_like_the_per_draw_hashes() {
        let profiles: Vec<(&str, FaultProfile, FaultDraws)> =
            profiles().into_iter().map(|(label, p)| (label, p, p.compile())).collect();
        let mut fired = vec![[0u64; 3]; profiles.len()];
        let mut state = 0xFA17u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            mix(state)
        };
        for _ in 0..100_000 {
            let zone = if next() % 8 == 0 { KILL_KEY } else { next() };
            let query = next();
            let attempt = (next() % 3) as u32;
            let now = SimTime(1_505_700_000 + next() % 200_000);
            let load = (next() % 3_000) as f64 / 1_000.0;
            for ((label, p, draws), fired) in profiles.iter().zip(fired.iter_mut()) {
                let fault = draws.upstream_fault(zone, query, attempt, now, load);
                let want = reference_upstream_fault(p, zone, query, attempt, now, load);
                assert_eq!(fault, want, "{label}: ({zone}, {query}, {attempt}, {now:?}, {load})");
                let mutation = draws.answer_mutation(zone, query, attempt, now);
                let want = reference_answer_mutation(p, zone, query, attempt, now);
                assert_eq!(mutation, want, "{label}: ({zone}, {query}, {attempt}, {now:?})");
                let h = hash_words(&[p.seed, zone, query, now.0, attempt as u64, 0x1a7e]);
                let latency = p.query_latency_ms(zone, query, attempt, now);
                assert_eq!(latency.to_bits(), reference_latency(p, unit(h)).to_bits(), "{label}");
                fired[0] += u64::from(fault == Some(QueryFault::Timeout));
                fired[1] += u64::from(fault == Some(QueryFault::ServFail));
                fired[2] += u64::from(mutation.is_some());
            }
        }
        // The comparison is not vacuous: every DNS-side profile faults,
        // and only those; every poisoning profile mutates.
        for ((label, _, draws), fired) in profiles.iter().zip(&fired) {
            assert_eq!(draws.can_fault(), fired[0] + fired[1] > 0, "{label}: {fired:?}");
            assert_eq!(draws.can_mutate(), fired[2] > 0, "{label}: {fired:?}");
        }
    }

    #[test]
    fn profile_digest_separates_models_and_is_stable() {
        let a = FaultProfile::none();
        assert_eq!(a.digest(), FaultProfile::none().digest(), "digest is a pure function");
        assert_ne!(a.digest(), FaultProfile::realistic(1).digest());
        assert_ne!(FaultProfile::realistic(1).digest(), FaultProfile::realistic(2).digest());
        // Every knob participates — a scripted window alone must change it.
        let scripted = a.with_blackout(SimTime(10), SimTime(20));
        assert_ne!(a.digest(), scripted.digest());
        assert_ne!(RetryPolicy::none().digest(), RetryPolicy::standard().digest());
    }

    #[test]
    fn streaming_fnv_matches_one_shot_fnv() {
        use core::fmt::Write as _;
        assert_eq!(Fnv64::new().finish(), fnv64(b""));
        // Chunked updates equal one concatenated hash.
        let mut h = Fnv64::new();
        h.update(b"appldnld.apple");
        h.update(b".com");
        h.update(&[198, 51, 100, 7]);
        let mut whole = b"appldnld.apple.com".to_vec();
        whole.extend_from_slice(&[198, 51, 100, 7]);
        assert_eq!(h.finish(), fnv64(&whole));
        // Display formatting hashes like to_string().as_bytes().
        let mut h = Fnv64::new();
        write!(h, "{}", 123_456u64).unwrap();
        assert_eq!(h.finish(), fnv64(123_456u64.to_string().as_bytes()));
    }

    #[test]
    fn resumed_fnv_continues_the_stream() {
        // Hash a prefix once, resume from its digest, and fold in a
        // suffix: identical to hashing the concatenation in one pass.
        let mut prefix = Fnv64::new();
        prefix.update(b"a.gslb.applimg.com");
        let mut resumed = Fnv64::with_state(prefix.finish());
        resumed.update(&[198, 51, 100, 7]);
        let mut whole = b"a.gslb.applimg.com".to_vec();
        whole.extend_from_slice(&[198, 51, 100, 7]);
        assert_eq!(resumed.finish(), fnv64(&whole));
        // Resuming without feeding anything is the identity.
        assert_eq!(Fnv64::with_state(0xdead_beef).finish(), 0xdead_beef);
    }

    #[test]
    fn none_profile_never_faults() {
        let p = FaultProfile::none();
        let draws = p.compile();
        assert!(!draws.can_fault() && !draws.can_mutate());
        assert!(!p.has_infrastructure_faults());
        for i in 0..2_000u64 {
            let t = SimTime(i * 311);
            assert!(draws.upstream_fault(i, i ^ 0xabc, (i % 5) as u32, t, 3.0).is_none());
            assert!(!p.netflow_export_lost(i, i ^ 1, t));
            assert!(!p.snmp_poll_missed(i, t));
            assert!(!p.zone_is_lame(i, t));
            assert!(!p.site_is_down(i, t));
            assert_eq!(p.site_capacity_factor(i, t), 1.0);
            assert!(!p.ns_is_dark(i, t));
            assert!(!p.target_killed(i, t));
            assert!(!p.health_blackout(t));
            assert_eq!(p.apple_load_factor(5.0), 1.0);
            assert!(draws.answer_mutation(i, i ^ 0xdef, (i % 5) as u32, t).is_none());
        }
    }

    #[test]
    fn poisoning_preset_mutates_at_the_configured_rate() {
        let p = FaultProfile::poisoning(17);
        assert!(p.has_answer_mutations());
        assert!(p.enforce_bailiwick, "hardened resolver is the default");
        let draws = p.compile();
        assert!(draws.can_mutate());
        assert!(!draws.can_fault(), "poisoning alone leaves the absent-answer plane clean");
        let trials = 20_000u64;
        let mut counts = std::collections::HashMap::new();
        for i in 0..trials {
            if let Some(m) = draws.answer_mutation(3, i, 0, SimTime(1_505_000_000)) {
                *counts.entry(m).or_insert(0u64) += 1;
            }
        }
        let hit: u64 = counts.values().sum();
        let rate = hit as f64 / trials as f64;
        assert!((0.13..0.17).contains(&rate), "observed mutation rate {rate}");
        // All four kinds occur, roughly evenly.
        for kind in [
            AnswerMutation::SpoofA,
            AnswerMutation::InjectNs,
            AnswerMutation::Truncate,
            AnswerMutation::InflateTtl,
        ] {
            let n = counts.get(&kind).copied().unwrap_or(0);
            assert!(n as f64 > hit as f64 * 0.15, "kind {kind:?} underdrawn: {n}/{hit}");
        }
    }

    #[test]
    fn answer_mutations_are_reproducible_and_kind_gated() {
        let a = FaultProfile::poisoning(5).compile();
        let b = FaultProfile::poisoning(5).compile();
        for i in 0..2_000u64 {
            let t = SimTime(1_500_000_000 + i * 60);
            assert_eq!(a.answer_mutation(i, i * 7, 1, t), b.answer_mutation(i, i * 7, 1, t));
        }
        // Disabling three kinds leaves only the fourth.
        let only_spoof = FaultProfile {
            mutate_inject_ns: false,
            mutate_truncate: false,
            mutate_inflate_ttl: false,
            ..FaultProfile::poisoning(5)
        }
        .compile();
        let mut saw = 0;
        for i in 0..5_000u64 {
            if let Some(m) = only_spoof.answer_mutation(9, i, 0, SimTime(1_505_000_000)) {
                assert_eq!(m, AnswerMutation::SpoofA);
                saw += 1;
            }
        }
        assert!(saw > 0, "sole enabled kind must still fire");
        // Rate with no kinds enabled is inert even at rate 1.0.
        let hollow = FaultProfile { mutation_rate: 1.0, ..FaultProfile::none() };
        assert!(!hollow.has_answer_mutations());
        assert!(!hollow.compile().can_mutate());
        assert!(hollow.compile().answer_mutation(1, 2, 0, SimTime(0)).is_none());
    }

    #[test]
    fn spoof_addresses_stay_inside_the_attacker_prefix() {
        let p = FaultProfile::poisoning(11);
        let mut distinct = std::collections::HashSet::new();
        for i in 0..1_000u64 {
            let addr = p.spoof_address(i, SimTime(1_505_000_000));
            assert_eq!(addr.octets()[0], 198);
            assert_eq!(addr.octets()[1], 18);
            distinct.insert(addr);
        }
        assert!(distinct.len() > 100, "spoofed hosts must spread over the /16");
        assert_eq!(
            p.spoof_address(7, SimTime(42)),
            p.spoof_address(7, SimTime(42)),
            "pure function of (profile, query, time)"
        );
    }

    #[test]
    fn mutation_knobs_participate_in_the_digest() {
        let base = FaultProfile::none();
        assert_ne!(base.digest(), FaultProfile::poisoning(0).digest());
        assert_ne!(
            FaultProfile::poisoning(1).digest(),
            FaultProfile::poisoning(1).with_bailiwick_enforcement(false).digest(),
            "enforcement flag is part of the fault-model cursor"
        );
        assert_ne!(
            FaultProfile::poisoning(1).digest(),
            FaultProfile { ttl_inflation_factor: 9_999, ..FaultProfile::poisoning(1) }.digest()
        );
    }

    #[test]
    fn site_outage_windows_cover_expected_fraction() {
        let p = FaultProfile {
            site_outage_every_hours: 48,
            site_outage_hours: 3,
            ..FaultProfile::none()
        }
        .with_seed(21);
        assert!(p.has_infrastructure_faults());
        assert!(!p.compile().can_fault(), "site outages leave the DNS plane clean");
        let hours = 24 * 365;
        let down = (0..hours).filter(|&h| p.site_is_down(9, SimTime(h * 3600))).count();
        let frac = down as f64 / hours as f64;
        // Expect roughly site_outage_hours / site_outage_every_hours ≈ 6 %.
        assert!((0.01..0.15).contains(&frac), "outage fraction {frac}");
        // Down sites retain no capacity.
        for h in 0..hours {
            let t = SimTime(h * 3600);
            if p.site_is_down(9, t) {
                assert_eq!(p.site_capacity_factor(9, t), 0.0);
            }
        }
    }

    #[test]
    fn brownouts_scale_capacity_without_killing_the_site() {
        let p = FaultProfile {
            brownout_every_hours: 12,
            brownout_hours: 4,
            brownout_depth: 0.6,
            ..FaultProfile::none()
        }
        .with_seed(22);
        let hours = 24 * 90;
        let mut browned = 0;
        for h in 0..hours {
            let t = SimTime(h * 3600);
            assert!(!p.site_is_down(33, t), "brownout alone never takes a site down");
            let f = p.site_capacity_factor(33, t);
            assert!(f == 1.0 || (f - 0.4).abs() < 1e-12, "factor {f}");
            if f < 1.0 {
                browned += 1;
            }
        }
        assert!(browned > 0, "brownout windows must occur");
    }

    #[test]
    fn ns_outage_windows_are_independent_of_site_outages() {
        let p = FaultProfile {
            site_outage_every_hours: 24,
            site_outage_hours: 2,
            ns_outage_every_hours: 24,
            ns_outage_hours: 2,
            ..FaultProfile::none()
        }
        .with_seed(7);
        let hours = 24 * 180;
        let mut differs = false;
        for h in 0..hours {
            let t = SimTime(h * 3600);
            if p.ns_is_dark(5, t) != p.site_is_down(5, t) {
                differs = true;
                break;
            }
        }
        assert!(differs, "NS and site windows must be decorrelated for the same key");
    }

    #[test]
    fn targeted_kill_hits_only_its_key_and_window() {
        let from = SimTime(1_000);
        let until = SimTime(2_000);
        let p = FaultProfile::none().with_target_kill(42, from, until);
        assert!(p.has_infrastructure_faults());
        assert!(p.target_killed(42, SimTime(1_000)));
        assert!(p.site_is_down(42, SimTime(1_500)));
        assert!(p.ns_is_dark(42, SimTime(1_500)));
        assert!(!p.target_killed(42, SimTime(2_000)), "window end is exclusive");
        assert!(!p.target_killed(42, SimTime(999)));
        assert!(!p.target_killed(41, SimTime(1_500)), "other keys unaffected");
        // Key 0 means "disabled", even with a window set.
        let off = FaultProfile::none().with_target_kill(0, from, until);
        assert!(!off.target_killed(0, SimTime(1_500)));
        assert!(!off.has_infrastructure_faults());
    }

    #[test]
    fn blackout_window_and_load_factor() {
        let p = FaultProfile::none().with_blackout(SimTime(100), SimTime(200));
        assert!(p.health_blackout(SimTime(150)));
        assert!(!p.health_blackout(SimTime(200)));
        assert!(!p.health_blackout(SimTime(99)));
        let d = FaultProfile { apple_degrade_per_load: 0.5, ..FaultProfile::none() };
        assert_eq!(d.apple_load_factor(0.5), 1.0, "no degradation below capacity");
        assert_eq!(d.apple_load_factor(1.0), 1.0);
        assert!((d.apple_load_factor(3.0) - 0.5).abs() < 1e-12, "1/(1+0.5*2)");
    }

    #[test]
    fn infrastructure_preset_leaves_measurement_plane_clean() {
        let p = FaultProfile::infrastructure(3);
        assert!(p.has_infrastructure_faults());
        assert_eq!(p.query_loss, 0.0);
        assert_eq!(p.netflow_export_loss, 0.0);
        assert_eq!(p.snmp_gap, 0.0);
        assert!(p.compile().can_fault(), "NS outages time DNS queries out");
        let t = SimTime(1_505_000_000);
        assert_eq!(p.compile().upstream_fault(1, 2, 0, t, 0.9).is_some(), p.ns_is_dark(1, t));
    }

    #[test]
    fn decisions_are_reproducible() {
        let a = FaultProfile::realistic(77);
        let b = FaultProfile::realistic(77);
        let (da, db) = (a.compile(), b.compile());
        for i in 0..500u64 {
            let t = SimTime(1_500_000_000 + i * 60);
            assert_eq!(da.upstream_fault(i, i * 3, 1, t, 0.5), db.upstream_fault(i, i * 3, 1, t, 0.5));
            assert_eq!(a.snmp_poll_missed(i, t), b.snmp_poll_missed(i, t));
        }
    }

    #[test]
    fn seeds_decorrelate_fault_patterns() {
        let a = FaultProfile::realistic(1).with_seed(1);
        let b = FaultProfile::realistic(1).with_seed(2);
        let mut differs = false;
        for i in 0..4_000u64 {
            let t = SimTime(1_500_000_000 + i * 60);
            if a.netflow_export_lost(7, i, t) != b.netflow_export_lost(7, i, t) {
                differs = true;
                break;
            }
        }
        assert!(differs, "different seeds must give different fault patterns");
    }

    #[test]
    fn query_loss_rate_is_respected() {
        let p = FaultProfile { query_loss: 0.2, ..FaultProfile::none() }.with_seed(5).compile();
        let trials = 20_000u64;
        let timeouts = (0..trials)
            .filter(|&i| {
                matches!(
                    p.upstream_fault(3, i, 0, SimTime(1_505_000_000), 0.0),
                    Some(QueryFault::Timeout)
                )
            })
            .count();
        let rate = timeouts as f64 / trials as f64;
        assert!((0.18..0.22).contains(&rate), "observed loss rate {rate}");
    }

    #[test]
    fn servfail_scales_with_zone_load() {
        let p = FaultProfile {
            servfail_floor: 0.01,
            servfail_per_load: 0.2,
            ..FaultProfile::none()
        }
        .with_seed(9)
        .compile();
        let count = |load: f64| {
            (0..10_000u64)
                .filter(|&i| p.upstream_fault(11, i, 0, SimTime(1_505_000_000), load).is_some())
                .count()
        };
        let idle = count(0.0);
        let busy = count(2.0);
        assert!(busy > idle * 5, "overload must raise SERVFAILs ({idle} -> {busy})");
    }

    #[test]
    fn lame_windows_cover_expected_fraction() {
        let p = FaultProfile {
            lame_every_hours: 48,
            lame_hours: 2,
            ..FaultProfile::none()
        }
        .with_seed(3);
        let hours = 24 * 365;
        let lame = (0..hours).filter(|&h| p.zone_is_lame(42, SimTime(h * 3600))).count();
        let frac = lame as f64 / hours as f64;
        // Expect roughly lame_hours / lame_every_hours = ~4.2 % of hours.
        assert!((0.01..0.10).contains(&frac), "lame fraction {frac}");
        // And windows last at least lame_hours in a row somewhere.
        let mut run = 0;
        let mut best = 0;
        for h in 0..hours {
            if p.zone_is_lame(42, SimTime(h * 3600)) {
                run += 1;
                best = best.max(run);
            } else {
                run = 0;
            }
        }
        assert!(best >= 2, "windows should span {}+ hours, saw {best}", 2);
    }

    #[test]
    fn latency_median_and_tail_are_shaped() {
        let p = FaultProfile {
            latency_median_ms: 30.0,
            latency_tail: 40.0,
            ..FaultProfile::none()
        }
        .with_seed(13);
        let mut draws: Vec<f64> = (0..8_000u64)
            .map(|i| p.query_latency_ms(1, i, 0, SimTime(1_505_000_000)))
            .collect();
        draws.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p50 = draws[draws.len() / 2];
        let p99 = draws[draws.len() * 99 / 100];
        assert!((20.0..45.0).contains(&p50), "p50 {p50}");
        assert!(p99 > 300.0, "p99 {p99} should be deep in the tail");
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let r = RetryPolicy::standard();
        assert_eq!(r.backoff_before(0), Duration::secs(0));
        assert_eq!(r.backoff_before(1), Duration::secs(2));
        assert_eq!(r.backoff_before(2), Duration::secs(4));
        assert_eq!(r.backoff_before(3), Duration::secs(8));
        assert_eq!(r.backoff_before(10), Duration::secs(30));
        assert_eq!(r.backoff_before(63), Duration::secs(30));
        assert_eq!(RetryPolicy::none().backoff_before(1), Duration::secs(0));
    }
}
