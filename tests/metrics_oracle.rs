//! Differential oracles for the `mcdn-obs` observability layer.
//!
//! Every deterministic metric ships with a proof against engine ground
//! truth: the campaign result's own counters (resolutions, attempts,
//! retry exhaustion, memo accounting) must equal the metrics registry
//! exactly, under quiet, chaos-grade, and poisoning fault profiles, for
//! both DNS campaigns. On top of the exact-equality oracle, the
//! deterministic export must be byte-identical across worker counts.

use metacdn_suite::build_world_or_exit;
use metacdn_suite::faults::FaultProfile;
use metacdn_suite::geo::{Duration, SimTime};
use metacdn_suite::obs;
use metacdn_suite::scenario::{
    run_dns, total_dark_scenario, Campaign, CampaignReport, DnsCampaignResult, ScenarioConfig,
};
use std::sync::Mutex;

/// Serializes the campaigns of this binary. A snapshot's process-global
/// section (pool dispatches, round and checkpoint walls) is the change
/// in process-wide counters over the campaign's run, so a campaign
/// running beside another would count the other's work too.
static CAMPAIGNS: Mutex<()> = Mutex::new(());

/// A compact dual-campaign config: 6 global rounds and 6 in-ISP rounds.
fn tiny_cfg(faults: FaultProfile) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::fast();
    cfg.global_probes = 24;
    cfg.global_dns_interval = Duration::hours(4);
    cfg.global_start = SimTime::from_ymd_hms(2017, 9, 18, 12, 0, 0);
    cfg.global_end = SimTime::from_ymd_hms(2017, 9, 19, 12, 0, 0);
    cfg.isp_probes = 16;
    cfg.isp_dns_interval = Duration::hours(4);
    cfg.isp_start = SimTime::from_ymd_hms(2017, 9, 18, 12, 0, 0);
    cfg.isp_end = SimTime::from_ymd_hms(2017, 9, 19, 12, 0, 0);
    cfg.faults = faults;
    cfg
}

const TINY_ROUNDS: u64 = 6;

/// The acceptance matrix's fault profiles: quiet, the chaos grid's
/// harshest scenario, and the bailiwick-enforced poisoning adversary.
fn profiles() -> [(&'static str, FaultProfile); 3] {
    [
        ("none", FaultProfile::none()),
        ("total-dark", total_dark_scenario(41).faults),
        ("poisoning-enforced", FaultProfile::poisoning(43)),
    ]
}

/// The two campaigns under oracle.
const CAMPAIGNS_UNDER_ORACLE: [Campaign; 2] = [Campaign::Global, Campaign::Isp];

/// Runs `campaign` over a fresh world on `threads` workers.
fn run(campaign: Campaign, cfg: &ScenarioConfig, threads: usize) -> CampaignReport {
    run_dns(&build_world_or_exit(cfg), cfg, campaign, threads)
}

/// The exact-equality oracle: every deterministic counter with an engine
/// ground-truth twin must match it, and the trace events must agree with
/// the counters they narrate.
fn assert_snapshot_matches(
    label: &str,
    result: &DnsCampaignResult,
    snap: &obs::MetricsSnapshot,
) {
    let c = |id: u16| snap.counter(id);
    assert_eq!(c(obs::id::ROUNDS), TINY_ROUNDS, "[{label}] campaign.rounds");
    assert_eq!(c(obs::id::RESOLUTIONS), result.resolutions, "[{label}] resolutions");
    assert_eq!(c(obs::id::ATTEMPTS), result.attempts, "[{label}] attempts");
    assert_eq!(c(obs::id::RETRY_EXHAUSTED), result.retry_exhausted, "[{label}] retry_exhausted");
    assert_eq!(c(obs::id::MEMO_LOOKUPS), result.memo_lookups, "[{label}] memo_lookups");
    assert_eq!(c(obs::id::MEMO_HITS), result.memo_hits, "[{label}] memo_hits");
    // Every resolution drives the cache, so the cache counters must at
    // least cover the cold stores.
    assert!(c(obs::id::CACHE_MISSES) > 0, "[{label}] no cache misses recorded");
    assert!(c(obs::id::CACHE_PUTS) > 0, "[{label}] no cache puts recorded");
    assert!(
        snap.ttl_hist().count() == c(obs::id::CACHE_PUTS),
        "[{label}] every cache put must observe its TTL exactly once"
    );
    // Trace events agree with the counters they narrate.
    let rounds = snap.events().iter().filter(|e| e.kind == obs::event::ROUND_COMPLETED).count();
    assert_eq!(rounds as u64, TINY_ROUNDS, "[{label}] one ROUND_COMPLETED event per round");
    let exhausted =
        snap.events().iter().filter(|e| e.kind == obs::event::RETRY_EXHAUSTED).count();
    assert_eq!(
        exhausted as u64,
        result.retry_exhausted,
        "[{label}] one RETRY_EXHAUSTED event per exhausted probe"
    );
    // The final ROUND_COMPLETED event carries the cumulative resolution
    // count — the same number the result reports.
    let last = snap
        .events()
        .iter()
        .rfind(|e| e.kind == obs::event::ROUND_COMPLETED)
        .expect("TINY_ROUNDS > 0");
    assert_eq!(last.value, result.resolutions, "[{label}] final round event value");
    assert_eq!(last.key as u64, TINY_ROUNDS - 1, "[{label}] final round event key");
}

#[test]
fn counters_equal_engine_ground_truth_under_every_profile() {
    let _guard = CAMPAIGNS.lock().unwrap();
    for campaign in CAMPAIGNS_UNDER_ORACLE {
        for (profile, faults) in profiles() {
            let cfg = tiny_cfg(faults);
            let CampaignReport { result, metrics: snap, .. } = run(campaign, &cfg, 2);
            assert!(result.resolutions > 0);
            assert_snapshot_matches(&format!("{campaign:?}/{profile}"), &result, &snap);
        }
    }
}

#[test]
fn fault_and_tamper_counters_fire_under_their_profiles() {
    let _guard = CAMPAIGNS.lock().unwrap();
    // Quiet profile: the adversarial counters must stay exactly zero.
    let quiet = run(Campaign::Global, &tiny_cfg(FaultProfile::none()), 2).metrics;
    for id in [
        obs::id::FAULT_SERVFAIL,
        obs::id::FAULT_TIMEOUT,
        obs::id::TAMPER_SPOOF_A,
        obs::id::TAMPER_INJECT_NS,
        obs::id::TAMPER_TRUNCATE,
        obs::id::TAMPER_INFLATE_TTL,
        obs::id::BAILIWICK_DROPS,
        obs::id::RETRY_EXHAUSTED,
    ] {
        assert_eq!(quiet.counter(id), 0, "quiet profile must not record counter {id}");
    }
    // The chaos blackout injects transport faults.
    let dark = run(Campaign::Global, &tiny_cfg(total_dark_scenario(41).faults), 2).metrics;
    assert!(
        dark.counter(obs::id::FAULT_SERVFAIL) + dark.counter(obs::id::FAULT_TIMEOUT) > 0,
        "total-dark must record transport faults"
    );
    // The poisoning adversary forges answers; enforcement drops the
    // out-of-bailiwick ones.
    let poisoned = run(Campaign::Global, &tiny_cfg(FaultProfile::poisoning(43)), 2).metrics;
    let tampers = poisoned.counter(obs::id::TAMPER_SPOOF_A)
        + poisoned.counter(obs::id::TAMPER_INJECT_NS)
        + poisoned.counter(obs::id::TAMPER_TRUNCATE)
        + poisoned.counter(obs::id::TAMPER_INFLATE_TTL);
    assert!(tampers > 0, "poisoning profile must record answer tampers");
    assert!(
        poisoned.counter(obs::id::BAILIWICK_DROPS) > 0,
        "bailiwick enforcement must record dropped records"
    );
}

#[test]
fn det_export_is_byte_identical_across_worker_counts() {
    let _guard = CAMPAIGNS.lock().unwrap();
    for campaign in CAMPAIGNS_UNDER_ORACLE {
        for (profile, faults) in profiles() {
            let cfg = tiny_cfg(faults);
            let mut exports = Vec::new();
            for threads in [1usize, 2, 8] {
                exports.push(run(campaign, &cfg, threads).metrics.det_jsonl());
            }
            assert_eq!(
                exports[0], exports[1],
                "[{campaign:?}/{profile}] det export differs between 1 and 2 workers"
            );
            assert_eq!(
                exports[0], exports[2],
                "[{campaign:?}/{profile}] det export differs between 1 and 8 workers"
            );
        }
    }
}

#[test]
fn full_export_is_a_superset_of_the_det_export() {
    let _guard = CAMPAIGNS.lock().unwrap();
    let snap = run(Campaign::Global, &tiny_cfg(FaultProfile::none()), 2).metrics;
    // The CI determinism stage strips the full export down to the det
    // lines with `grep -v '"det":false'`; pin that contract here.
    let stripped: String = snap
        .jsonl()
        .lines()
        .filter(|l| !l.contains("\"det\":false"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(stripped, snap.det_jsonl());
}
