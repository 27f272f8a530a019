//! Byzantine-answer hardening acceptance: the campaign engine under
//! forged answers.
//!
//! The contract under test: with bailiwick enforcement on (the default),
//! a Byzantine upstream spoofing A records, injecting out-of-bailiwick
//! NS records, truncating, and inflating TTLs can cost retries but can
//! never route demand to the attacker or leave a forged record in any
//! probe cache; the journaled engine resumes byte-identically under
//! every mutation profile; and switching enforcement off makes the
//! mis-mapping measurable — the delta the poisoning sweep quantifies.

use metacdn_suite::build_world_or_exit;
use metacdn_suite::faults::FaultProfile;
use metacdn_suite::geo::{Duration, SimTime};
use metacdn_suite::scenario::{
    params, poison_grid, run_dns, run_dns_journaled, run_poison_sweep, Campaign, CampaignRun,
    DnsCampaignResult, ResumeOptions, ScenarioConfig,
};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

/// A 6-round global campaign small enough to replay for every profile.
fn tiny_cfg(faults: FaultProfile) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::fast();
    cfg.global_probes = 24;
    cfg.global_dns_interval = Duration::hours(4);
    cfg.global_start = SimTime::from_ymd_hms(2017, 9, 18, 12, 0, 0);
    cfg.global_end = SimTime::from_ymd_hms(2017, 9, 19, 12, 0, 0);
    cfg.faults = faults;
    cfg
}

fn journal_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mcdn-adversarial-{}-{tag}.journal", std::process::id()))
}

/// Every answer-mutation shape the campaign must survive: all four kinds
/// enforced, all four open, and a truncation-heavy storm.
fn mutation_profiles() -> [(&'static str, FaultProfile); 3] {
    [
        ("poisoning-enforced", FaultProfile::poisoning(97)),
        ("poisoning-open", FaultProfile::poisoning(97).with_bailiwick_enforcement(false)),
        (
            "truncation-heavy",
            FaultProfile {
                mutate_spoof_a: false,
                mutate_inject_ns: false,
                mutate_inflate_ttl: false,
                mutation_rate: 0.35,
                ..FaultProfile::poisoning(97)
            },
        ),
    ]
}

fn run_suspending(cfg: &ScenarioConfig, path: &Path, stop_after: u64) {
    let world = build_world_or_exit(cfg);
    let opts = ResumeOptions { threads: 2, checkpoint_every: 1, stop_after_rounds: Some(stop_after) };
    match run_dns_journaled(&world, cfg, Campaign::Global, path, opts)
        .expect("suspending campaign")
        .0
    {
        CampaignRun::Suspended { rounds_done, .. } => assert_eq!(rounds_done, stop_after),
        CampaignRun::Complete(_) => panic!("run with stop_after={stop_after} must suspend"),
    }
}

fn run_resuming(cfg: &ScenarioConfig, path: &Path) -> DnsCampaignResult {
    let world = build_world_or_exit(cfg);
    let opts = ResumeOptions { threads: 2, checkpoint_every: 1, stop_after_rounds: None };
    match run_dns_journaled(&world, cfg, Campaign::Global, path, opts)
        .expect("resumed campaign")
        .0
    {
        CampaignRun::Complete(result) => result,
        CampaignRun::Suspended { .. } => unreachable!("no round budget given"),
    }
}

/// A campaign journaled, suspended mid-run, and resumed must land on the
/// same bytes as the uninterrupted engine — under every mutation profile,
/// enforcement on and off.
#[test]
fn journal_resume_is_byte_identical_under_every_mutation_profile() {
    for (label, faults) in mutation_profiles() {
        let cfg = tiny_cfg(faults);
        let world = build_world_or_exit(&cfg);
        let want = run_dns(&world, &cfg, Campaign::Global, 2).result;
        assert!(want.resolutions > 0);

        let path = journal_path(label);
        let _ = std::fs::remove_file(&path);
        run_suspending(&cfg, &path, 3);
        let got = run_resuming(&cfg, &path);
        let _ = std::fs::remove_file(&path);
        assert_eq!(got, want, "resumed campaign diverged under profile {label}");
    }
}

/// Bailiwick enforcement is a strict no-op for honest answers: a quiet
/// campaign produces the same bytes whether enforcement is on or off, so
/// hardening costs mutation-free runs nothing.
#[test]
fn enforcement_is_a_no_op_for_honest_answers() {
    let on = tiny_cfg(FaultProfile::none());
    let off = tiny_cfg(FaultProfile::none().with_bailiwick_enforcement(false));
    let want = run_dns(&build_world_or_exit(&on), &on, Campaign::Global, 2).result;
    let got = run_dns(&build_world_or_exit(&off), &off, Campaign::Global, 2).result;
    assert_eq!(got, want);
}

/// The campaign-level poisoning contract: with enforcement on, no
/// observed address ever lands in the attacker prefix; with the same
/// forgeries and enforcement off, the mis-mapping is measurable.
#[test]
fn campaign_routes_no_demand_to_the_attacker_unless_enforcement_is_off() {
    let enforced = tiny_cfg(FaultProfile::poisoning(7));
    let prefix = enforced.faults.attacker_prefix;
    let in_attacker_prefix = move |ip: &Ipv4Addr| ip.octets()[..2] == prefix[..];

    let hardened = run_dns(&build_world_or_exit(&enforced), &enforced, Campaign::Global, 2).result;
    assert!(hardened.resolutions > 0);
    assert!(
        !hardened.ip_classes.keys().any(in_attacker_prefix),
        "enforced campaign must never observe an attacker address"
    );

    let open = tiny_cfg(FaultProfile::poisoning(7).with_bailiwick_enforcement(false));
    let poisoned = run_dns(&build_world_or_exit(&open), &open, Campaign::Global, 2).result;
    assert!(
        poisoned.ip_classes.keys().any(in_attacker_prefix),
        "open campaign must show the measurable mis-mapping delta"
    );
}

/// The full poisoning-resistance sweep over a release-bracketing window:
/// every invariant holds, the quiet baseline sees nothing, and the
/// enforcement delta separates the enforced and open spoofing runs.
#[test]
fn poisoning_sweep_holds_invariants_across_the_grid() {
    let mut cfg = ScenarioConfig::fast();
    cfg.traffic_start = params::release() - Duration::hours(3);
    cfg.traffic_end = params::release() + Duration::hours(9);
    let grid = poison_grid(cfg.seed);
    let results = run_poison_sweep(&cfg, &grid).expect("poison sweep invariants");
    assert_eq!(results.len(), grid.len());
    let by_name = |n: &str| results.iter().find(|r| r.scenario == n).unwrap();

    let baseline = by_name("baseline-quiet");
    assert_eq!((baseline.tampered, baseline.attacker_routed), (0, 0));

    let enforced = by_name("spoof-a-enforced");
    let open = by_name("spoof-a-open");
    assert!(enforced.tampered > 0);
    assert_eq!(enforced.attacker_routed, 0);
    assert_eq!(enforced.out_of_bailiwick_cached, 0);
    assert!(open.attacker_routed > 0);
    assert!(open.out_of_bailiwick_cached > 0);

    // The wire stage fed mangled messages to the total decoder on every
    // scenario; rejects are data, panics impossible.
    assert!(results.iter().all(|r| r.wire_messages > 0));
}
