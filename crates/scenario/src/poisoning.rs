//! The poisoning-resistance sweep.
//!
//! The chaos sweep breaks the *infrastructure*; this sweep corrupts the
//! *answers*. A Byzantine upstream — keyed off the same stateless
//! [`FaultProfile`] digests as every other fault layer — forges records
//! into the resolution chain (spoofed A records pointing at an attacker
//! prefix, out-of-bailiwick NS injections, truncation storms, TTL
//! inflation), and the sweep drives a probe fleet through it twice over:
//! once with bailiwick enforcement on (the hardened default) and once
//! with it off (the counterfactual open resolver). Per tick it audits:
//!
//! * **routing**: did any resolution hand demand to the attacker prefix?
//! * **caches**: does any probe cache hold a record whose owner no
//!   installed zone is authoritative for, or a TTL above the cache cap?
//! * **the wire**: every answer observed is written as a DNS message
//!   straight from the compiled name table, seeded byte mutations are
//!   applied, and the total decoder's check-only sink checks the clean
//!   and the mangled bytes — decode errors are counted as data, panics
//!   are impossible by the `dnswire` hardening contract. The stage reuses
//!   its buffers for the whole run and builds no message.
//!
//! [`check_poison_invariants`] turns the audit into hard guarantees: with
//! enforcement on, no out-of-bailiwick record is ever cached and no
//! demand is ever routed to the attacker; with enforcement off, the
//! mis-mapping must actually materialize (otherwise the sweep proved
//! nothing). Everything is a pure function of `(config, scenario)` —
//! reruns at the same seed are bit-identical, which the determinism gate
//! in `scripts/ci.sh` diffs.

use crate::config::ScenarioConfig;
use crate::dnscampaign::{bailiwick_policy, InternedCampaignFaults, InternedCampaignMutations};
use crate::loads::update_loads;
use crate::world::World;
use mcdn_atlas::Probe;
use mcdn_dnssim::{
    attacker_ns, attacker_owner, BailiwickPolicy, CompiledNamespace, IRoundMemo, ITamper, ITrace,
    InternedMutationModel, QueryContext, ResolveScratch, MAX_CACHE_TTL,
};
use mcdn_dnswire::{Class, Flags, Header, Message, MessageWriter, Opcode, Rcode, RecordType};
use mcdn_faults::{FaultProfile, Fnv64, RetryPolicy};
use mcdn_geo::SimTime;
use mcdn_intern::NameId;
use std::cell::Cell;

/// Probes the sweep parks on the first global vantage cities. Small on
/// purpose: the mutation rate makes every probe see forgeries within a
/// few ticks, and the audit scans every cache on every tick.
const POISON_PROBES: usize = 8;

/// Seeded byte-mutations applied to each encoded answer in the
/// wire-level stage.
const WIRE_MUTATIONS_PER_MESSAGE: u64 = 3;

/// One named scenario of the poisoning grid.
#[derive(Debug, Clone, Copy)]
pub struct PoisonScenario {
    /// Scenario name (stable across runs; keys the analysis table).
    pub name: &'static str,
    /// The fault profile in force — mutation kinds, rate, attacker
    /// prefix, and the bailiwick policy.
    pub faults: FaultProfile,
}

/// The audit counters of one poisoning run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoisonRunResult {
    /// The scenario's name.
    pub scenario: &'static str,
    /// Whether the resolvers enforced bailiwick.
    pub enforce: bool,
    /// Whether the profile could forge answers at all (false only for
    /// the quiet baseline).
    pub mutations_enabled: bool,
    /// Whether the scenario must produce observable mis-mapping
    /// (spoofed A records with enforcement off).
    pub expects_mis_mapping: bool,
    /// Resolutions performed (one per probe per tick).
    pub resolutions: u64,
    /// Resolution attempts including retries.
    pub attempts: u64,
    /// Resolutions that still failed transiently after retries.
    pub transient_failures: u64,
    /// Mutation decisions that fired (forgeries injected upstream).
    pub tampered: u64,
    /// Resolutions whose trace carried an attacker-prefix address —
    /// demand the Meta-CDN would have handed to the attacker.
    pub attacker_routed: u64,
    /// Cached records scanned across all probes and ticks.
    pub cache_records_scanned: u64,
    /// Cached records whose owner no installed zone is authoritative
    /// for (a poisoned cache entry).
    pub out_of_bailiwick_cached: u64,
    /// Cached records with a TTL above [`MAX_CACHE_TTL`] (the cap the
    /// cache must have clamped).
    pub ttl_over_cap_cached: u64,
    /// Messages pushed through the wire-level stage (clean encodings
    /// plus seeded mutants).
    pub wire_messages: u64,
    /// Wire messages the total decoder rejected — counted as data, never
    /// a panic.
    pub wire_decode_errors: u64,
}

/// One violated invariant of a poisoning run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoisonViolation {
    /// Enforcement was on, yet a probe cache held a record whose owner
    /// lies outside every installed zone.
    CachedOutOfBailiwick {
        /// Poisoned cache records observed.
        count: u64,
    },
    /// Enforcement was on, yet a resolution routed demand to the
    /// attacker prefix.
    RoutedToAttacker {
        /// Resolutions that carried an attacker address.
        count: u64,
    },
    /// A cache held a TTL above the cap the cache itself must clamp.
    TtlOverCap {
        /// Over-cap records observed.
        count: u64,
    },
    /// The scenario was supposed to exercise the adversary (or, with
    /// enforcement off, to produce measurable mis-mapping) but nothing
    /// was observed — the run proved nothing.
    NoPoisonObserved,
}

impl std::fmt::Display for PoisonViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoisonViolation::CachedOutOfBailiwick { count } => {
                write!(f, "{count} out-of-bailiwick records cached despite enforcement")
            }
            PoisonViolation::RoutedToAttacker { count } => {
                write!(f, "{count} resolutions routed to the attacker prefix despite enforcement")
            }
            PoisonViolation::TtlOverCap { count } => {
                write!(f, "{count} cached records exceed the {MAX_CACHE_TTL}s TTL cap")
            }
            PoisonViolation::NoPoisonObserved => {
                write!(f, "adversarial scenario fired no observable mutations (vacuous run)")
            }
        }
    }
}

impl std::error::Error for PoisonViolation {}

/// Counts the forgeries an inner mutation model actually injects. The
/// sweep runs its probe loop serially, so a [`Cell`] suffices.
struct CountingMutations {
    inner: InternedCampaignMutations,
    fired: Cell<u64>,
}

impl InternedMutationModel for CountingMutations {
    fn answer_mutation(
        &self,
        zone: NameId,
        zone_fnv: u64,
        qname: NameId,
        qname_fnv: u64,
        ctx: &QueryContext,
        attempt: u32,
    ) -> Option<ITamper> {
        let t = self.inner.answer_mutation(zone, zone_fnv, qname, qname_fnv, ctx, attempt);
        if t.is_some() {
            self.fired.set(self.fired.get() + 1);
        }
        t
    }
}

/// SplitMix64 step — the sweep's only randomness, seeded per message so
/// the byte mutations are a pure function of the scenario.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The standard poisoning grid: a quiet baseline, each mutation kind in
/// isolation (spoofing both enforced and open), and the kitchen sink
/// with enforcement off — the worst case the analysis table quantifies.
pub fn poison_grid(seed: u64) -> Vec<PoisonScenario> {
    let poison = FaultProfile::poisoning(seed);
    vec![
        PoisonScenario { name: "baseline-quiet", faults: FaultProfile::none().with_seed(seed) },
        PoisonScenario {
            name: "spoof-a-enforced",
            faults: FaultProfile {
                mutate_inject_ns: false,
                mutate_truncate: false,
                mutate_inflate_ttl: false,
                ..poison
            },
        },
        PoisonScenario {
            name: "spoof-a-open",
            faults: FaultProfile {
                mutate_inject_ns: false,
                mutate_truncate: false,
                mutate_inflate_ttl: false,
                enforce_bailiwick: false,
                ..poison
            },
        },
        PoisonScenario {
            name: "ns-inject-enforced",
            faults: FaultProfile {
                mutate_spoof_a: false,
                mutate_truncate: false,
                mutate_inflate_ttl: false,
                ..poison
            },
        },
        PoisonScenario {
            name: "truncation-storm",
            faults: FaultProfile {
                mutate_spoof_a: false,
                mutate_inject_ns: false,
                mutate_inflate_ttl: false,
                mutation_rate: 0.35,
                ..poison
            },
        },
        PoisonScenario {
            name: "ttl-inflation-open",
            faults: FaultProfile {
                mutate_spoof_a: false,
                mutate_inject_ns: false,
                mutate_truncate: false,
                enforce_bailiwick: false,
                ..poison
            },
        },
        PoisonScenario { name: "kitchen-sink-open", faults: FaultProfile { enforce_bailiwick: false, ..poison } },
    ]
}

/// Runs one poisoning scenario over `cfg`'s traffic window against a
/// fresh world, returning the audit counters. Deterministic: equal
/// `(cfg, scenario)` gives a bit-identical result.
pub fn run_poison(cfg: &ScenarioConfig, scenario: &PoisonScenario) -> PoisonRunResult {
    let world = World::build(cfg);
    let profile = scenario.faults;
    let cns = CompiledNamespace::compile_with_extra(&world.ns, &[attacker_owner(), attacker_ns()]);
    let draws = profile.compile();
    let faults = InternedCampaignFaults::new(draws, &world, cns.table());
    let mutations = CountingMutations {
        inner: InternedCampaignMutations::new(draws, cns.table()),
        fired: Cell::new(0),
    };
    let bailiwick = bailiwick_policy(&profile);
    let retry = RetryPolicy::standard();

    let mut probes: Vec<Probe> = world
        .global_probe_specs
        .iter()
        .take(POISON_PROBES)
        .enumerate()
        .map(|(i, s)| Probe::new(17_000 + i as u32, *s))
        .collect();
    let mut scratch = ResolveScratch::new();
    let entry_id =
        cns.table().get(&metacdn::names::entry()).expect("the entry name is in the namespace");

    let mut result = PoisonRunResult {
        scenario: scenario.name,
        enforce: bailiwick == BailiwickPolicy::Enforce,
        mutations_enabled: profile.has_answer_mutations(),
        expects_mis_mapping: !profile.enforce_bailiwick
            && profile.mutate_spoof_a
            && profile.has_answer_mutations(),
        resolutions: 0,
        attempts: 0,
        transient_failures: 0,
        tampered: 0,
        attacker_routed: 0,
        cache_records_scanned: 0,
        out_of_bailiwick_cached: 0,
        ttl_over_cap_cached: 0,
        wire_messages: 0,
        wire_decode_errors: 0,
    };

    let mut memo = IRoundMemo::new();
    let (mut writer, mut mangled) = (MessageWriter::new(), Vec::new());
    let mut t = cfg.traffic_start;
    while t < cfg.traffic_end {
        update_loads(&world, t);
        memo.clear();
        for probe in probes.iter_mut() {
            let (outcome, attempts) = probe.measure_interned_adversarial(
                &cns,
                &mut scratch,
                entry_id,
                RecordType::A,
                t,
                &faults,
                &mutations,
                bailiwick,
                &retry,
                Some(&mut memo),
            );
            result.resolutions += 1;
            result.attempts += attempts as u64;
            if matches!(&outcome, Err(e) if e.is_transient()) {
                result.transient_failures += 1;
            }
            if scratch
                .trace()
                .addresses()
                .any(|ip| ip.octets()[..2] == profile.attacker_prefix[..])
            {
                result.attacker_routed += 1;
            }
            audit_wire(&cns, scratch.trace(), t, &mut writer, &mut mangled, &mut result);
        }
        for probe in probes.iter() {
            audit_cache(&cns, probe, &mut result);
        }
        t += cfg.traffic_tick;
    }
    result.tampered = mutations.fired.get();
    result
}

/// Scans one probe's resolver cache: every cached record's owner must be
/// a name some installed zone is authoritative for (the mutation model
/// only forges owners outside every zone, so an ownerless record is a
/// poisoned one), and no cached TTL may exceed the cache cap.
fn audit_cache(cns: &CompiledNamespace<'_>, probe: &Probe, result: &mut PoisonRunResult) {
    for records in probe.interned_cached_records() {
        for r in records {
            result.cache_records_scanned += 1;
            if !cns.table_has_authority(r.name) {
                result.out_of_bailiwick_cached += 1;
            }
            if r.ttl > MAX_CACHE_TTL {
                result.ttl_over_cap_cached += 1;
            }
        }
    }
}

/// The wire-level stage: writes each answered step of the trace as the
/// DNS response to its query, straight from the table's names, applies
/// seeded byte mutations, and checks both the clean and the mangled bytes
/// with the total decoder's check-only sink, [`Message::validate`], whose
/// verdict is [`Message::decode`]'s. Rejections are counted; a panic would
/// abort the sweep — which is the point. `writer` and `mangled` serve the
/// whole run, so once they have grown the stage allocates nothing.
fn audit_wire<'n>(
    cns: &'n CompiledNamespace<'_>,
    trace: &ITrace,
    t: SimTime,
    writer: &mut MessageWriter<'n>,
    mangled: &mut Vec<u8>,
    result: &mut PoisonRunResult,
) {
    // The header `Message::response_to` gives a recursive query's answer.
    let header = Header {
        id: (t.0 & 0xFFFF) as u16,
        flags: Flags { qr: true, rd: true, ra: true, ..Flags::default() },
        opcode: Opcode::Query,
        rcode: Rcode::NoError,
    };
    let table = cns.table();
    for step in trace.steps() {
        let records = trace.records_of(step);
        if records.is_empty() {
            continue;
        }
        let written = writer.start(&header, [1, records.len(), 0, 0]).and_then(|()| {
            writer.question(table.name(step.qname), step.qtype, Class::In);
            records.iter().try_for_each(|r| {
                writer.record(table.name(r.name), Class::In, r.ttl, cns.wire_rdata(r.rdata))
            })
        });
        if written.is_err() {
            continue; // attacker-long chains can exceed wire limits; skip
        }
        let bytes = writer.bytes();
        result.wire_messages += 1;
        if Message::validate(bytes).is_err() {
            result.wire_decode_errors += 1;
        }
        let mut seed = {
            let mut h = Fnv64::new();
            h.update(&t.0.to_le_bytes());
            h.update(bytes);
            h.finish()
        };
        for _ in 0..WIRE_MUTATIONS_PER_MESSAGE {
            mangled.clear();
            mangled.extend_from_slice(bytes);
            let r = splitmix(&mut seed);
            match r % 3 {
                0 => {
                    // Flip one byte.
                    let i = (r >> 8) as usize % mangled.len();
                    mangled[i] ^= (r >> 32) as u8 | 1;
                }
                1 => {
                    // Truncate mid-message.
                    mangled.truncate((r >> 8) as usize % mangled.len());
                }
                _ => {
                    // Inflate a section count.
                    let i = 4 + ((r >> 8) as usize % 8).min(mangled.len() - 5);
                    mangled[i] = mangled[i].wrapping_add(0x7F);
                }
            }
            result.wire_messages += 1;
            if Message::validate(mangled).is_err() {
                result.wire_decode_errors += 1;
            }
        }
    }
}

/// Checks the hard guarantees of one poisoning run.
pub fn check_poison_invariants(result: &PoisonRunResult) -> Result<(), PoisonViolation> {
    if result.ttl_over_cap_cached > 0 {
        return Err(PoisonViolation::TtlOverCap { count: result.ttl_over_cap_cached });
    }
    if result.enforce {
        if result.out_of_bailiwick_cached > 0 {
            return Err(PoisonViolation::CachedOutOfBailiwick {
                count: result.out_of_bailiwick_cached,
            });
        }
        if result.attacker_routed > 0 {
            return Err(PoisonViolation::RoutedToAttacker { count: result.attacker_routed });
        }
    }
    if result.mutations_enabled && result.tampered == 0 {
        return Err(PoisonViolation::NoPoisonObserved);
    }
    if result.expects_mis_mapping && result.attacker_routed == 0 {
        return Err(PoisonViolation::NoPoisonObserved);
    }
    Ok(())
}

/// Runs every scenario of `grid` and checks its invariants, returning the
/// results or the first violation (tagged with its scenario).
pub fn run_poison_sweep(
    cfg: &ScenarioConfig,
    grid: &[PoisonScenario],
) -> Result<Vec<PoisonRunResult>, (&'static str, PoisonViolation)> {
    let mut results = Vec::with_capacity(grid.len());
    for scenario in grid {
        let result = run_poison(cfg, scenario);
        check_poison_invariants(&result).map_err(|v| (scenario.name, v))?;
        results.push(result);
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params;
    use mcdn_geo::Duration;

    fn sweep_cfg() -> ScenarioConfig {
        let mut cfg = ScenarioConfig::fast();
        cfg.traffic_start = params::release() - Duration::hours(2);
        cfg.traffic_end = params::release() + Duration::hours(6);
        cfg
    }

    #[test]
    fn sweep_holds_invariants_and_measures_the_enforcement_delta() {
        let cfg = sweep_cfg();
        let grid = poison_grid(cfg.seed);
        let results = run_poison_sweep(&cfg, &grid).expect("sweep invariants");
        let by_name = |n: &str| results.iter().find(|r| r.scenario == n).unwrap();

        let baseline = by_name("baseline-quiet");
        assert_eq!(baseline.tampered, 0);
        assert_eq!(baseline.attacker_routed, 0);
        assert_eq!(baseline.out_of_bailiwick_cached, 0);
        assert_eq!(baseline.transient_failures, 0);

        // Enforcement delta: the same forgeries that mis-map the open
        // resolver never reach the enforced one.
        let enforced = by_name("spoof-a-enforced");
        let open = by_name("spoof-a-open");
        assert!(enforced.tampered > 0, "spoofing must actually fire");
        assert_eq!(enforced.attacker_routed, 0);
        assert_eq!(enforced.out_of_bailiwick_cached, 0);
        assert!(open.attacker_routed > 0, "open resolver must be mis-mapped");
        assert!(open.out_of_bailiwick_cached > 0, "open resolver must cache the forgery");

        // TTL inflation is survived even with bailiwick off: the cache
        // cap clamps what enforcement does not drop.
        let ttl = by_name("ttl-inflation-open");
        assert!(ttl.tampered > 0);
        assert_eq!(ttl.ttl_over_cap_cached, 0);

        // The wire stage saw traffic and rejected mangled bytes as data.
        for r in &results {
            assert!(r.wire_messages > 0, "{}: wire stage must run", r.scenario);
        }
        assert!(results.iter().any(|r| r.wire_decode_errors > 0));
    }

    #[test]
    fn runs_are_bit_identical_at_equal_seed() {
        let cfg = sweep_cfg();
        let grid = poison_grid(23);
        let a = run_poison(&cfg, &grid[6]);
        let b = run_poison(&cfg, &grid[6]);
        assert_eq!(a, b, "same seed must reproduce the run bit-identically");
        let other = run_poison(&cfg, &poison_grid(24)[6]);
        assert_ne!(
            (a.tampered, a.attacker_routed, a.attempts),
            (other.tampered, other.attacker_routed, other.attempts),
            "different seed must move the forgeries"
        );
    }

    #[test]
    fn truncation_storm_costs_retries_but_never_hangs() {
        let cfg = sweep_cfg();
        let grid = poison_grid(cfg.seed);
        let storm = run_poison(&cfg, &grid[4]);
        assert_eq!(storm.scenario, "truncation-storm");
        assert!(storm.attempts > storm.resolutions, "truncation must force retries");
        let retry = RetryPolicy::standard();
        assert!(
            storm.attempts <= storm.resolutions * retry.max_attempts as u64,
            "every resolution stays inside its retry budget"
        );
    }
}
