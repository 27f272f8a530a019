//! Crash-safe campaign execution: journaled checkpoints, panic-isolated
//! shards, and deterministic resume.
//!
//! The contract under test: a campaign killed after *any* round and
//! resumed from its journal produces a result bit-identical to the
//! uninterrupted run — for any worker count, under clean and chaos-grade
//! fault profiles — and a corrupted journal is either recovered (by
//! falling back to an earlier intact checkpoint) or rejected with a typed
//! error, never a panic.

use metacdn_suite::build_world_or_exit;
use metacdn_suite::faults::FaultProfile;
use metacdn_suite::geo::{Duration, SimTime};
use metacdn_suite::scenario::dnscampaign::testhooks;
use metacdn_suite::obs::MetricsSnapshot;
use metacdn_suite::scenario::{
    run_dns, run_dns_journaled, total_dark_scenario, Campaign, CampaignError, CampaignRun,
    DnsCampaignResult, ResumeOptions, ScenarioConfig, World,
};
use std::path::PathBuf;
use std::sync::Mutex;

/// Serializes the campaigns of this test binary: the shard-panic hook is
/// process-global, so concurrently running campaigns could steal an armed
/// panic from the test that planted it.
static CAMPAIGNS: Mutex<()> = Mutex::new(());

/// 6-round global and in-ISP campaigns small enough to replay dozens of
/// times.
fn tiny_cfg(faults: FaultProfile) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::fast();
    cfg.global_probes = 24;
    cfg.global_dns_interval = Duration::hours(4);
    cfg.global_start = SimTime::from_ymd_hms(2017, 9, 18, 12, 0, 0);
    cfg.global_end = SimTime::from_ymd_hms(2017, 9, 19, 12, 0, 0);
    cfg.isp_probes = 24;
    cfg.isp_dns_interval = Duration::hours(4);
    cfg.isp_start = SimTime::from_ymd_hms(2017, 9, 18, 12, 0, 0);
    cfg.isp_end = SimTime::from_ymd_hms(2017, 9, 19, 12, 0, 0);
    cfg.faults = faults;
    cfg
}

/// The plain (unjournaled) run of `campaign` over a fresh world.
fn run_plain(campaign: Campaign, cfg: &ScenarioConfig, threads: usize) -> DnsCampaignResult {
    run_dns(&build_world_or_exit(cfg), cfg, campaign, threads).result
}

/// One journaled invocation of `campaign` over a fresh world, with its
/// metrics snapshot.
fn run_journal(
    campaign: Campaign,
    cfg: &ScenarioConfig,
    path: &std::path::Path,
    opts: ResumeOptions,
) -> Result<(CampaignRun, MetricsSnapshot), CampaignError> {
    run_dns_journaled(&build_world_or_exit(cfg), cfg, campaign, path, opts)
}

const TINY_ROUNDS: u64 = 6;

fn journal_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mcdn-crash-{}-{tag}.journal", std::process::id()))
}

/// The fault profiles of the acceptance matrix: quiet, and the chaos
/// grid's harshest scenario (every fault family plus a full blackout).
fn profiles() -> [(&'static str, FaultProfile); 2] {
    [("none", FaultProfile::none()), ("total-dark", total_dark_scenario(41).faults)]
}

fn opts(threads: usize, stop_after: Option<u64>) -> ResumeOptions {
    ResumeOptions { threads, checkpoint_every: 1, stop_after_rounds: stop_after }
}

/// Runs the journaled campaign to completion (fresh world), panicking on
/// any engine error — the happy path of every identity check below.
fn run_journaled(
    campaign: Campaign,
    cfg: &ScenarioConfig,
    path: &std::path::Path,
    threads: usize,
) -> DnsCampaignResult {
    match run_journal(campaign, cfg, path, opts(threads, None)).expect("journaled campaign").0 {
        CampaignRun::Complete(result) => result,
        CampaignRun::Suspended { .. } => unreachable!("no round budget given"),
    }
}

/// Runs `stop_after` rounds and suspends with a durable checkpoint — the
/// graceful half of a crash (the CI gate does the SIGKILL half).
fn run_partial(
    campaign: Campaign,
    cfg: &ScenarioConfig,
    path: &std::path::Path,
    threads: usize,
    stop_after: u64,
) {
    match run_journal(campaign, cfg, path, opts(threads, Some(stop_after)))
        .expect("suspending campaign")
        .0
    {
        CampaignRun::Suspended { rounds_done, total_rounds } => {
            assert_eq!(rounds_done, stop_after);
            assert_eq!(total_rounds, TINY_ROUNDS);
        }
        CampaignRun::Complete(_) => panic!("run with stop_after={stop_after} must suspend"),
    }
}

#[test]
fn kill_at_every_round_resume_is_bit_identical() {
    let _guard = CAMPAIGNS.lock().unwrap();
    for campaign in [Campaign::Global, Campaign::Isp] {
        for (label, faults) in profiles() {
            let cfg = tiny_cfg(faults);
            for threads in [1usize, 4] {
                let baseline = run_plain(campaign, &cfg, threads);
                let tag = format!("{campaign:?}-{label}-{threads}");
                assert!(baseline.resolutions > 0, "[{tag}] the campaign resolved nothing");

                // Uninterrupted journaled run: journaling itself must not
                // perturb the trajectory.
                let path = journal_path(&format!("uninterrupted-{tag}"));
                let _ = std::fs::remove_file(&path);
                assert_eq!(
                    run_journaled(campaign, &cfg, &path, threads),
                    baseline,
                    "[{tag}] journaled run diverged from the plain engine"
                );
                let _ = std::fs::remove_file(&path);

                // Die after round k, resume, for every k.
                for k in 1..TINY_ROUNDS {
                    let path = journal_path(&format!("kill-{tag}-{k}"));
                    let _ = std::fs::remove_file(&path);
                    run_partial(campaign, &cfg, &path, threads, k);
                    let resumed = run_journaled(campaign, &cfg, &path, threads);
                    assert_eq!(resumed, baseline, "[{tag}] resume after round {k} diverged");
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
    }
}

#[test]
fn repeatedly_killed_run_still_matches() {
    let _guard = CAMPAIGNS.lock().unwrap();
    let cfg = tiny_cfg(total_dark_scenario(41).faults);
    let threads = 4;
    let baseline = run_plain(Campaign::Global, &cfg, threads);
    let path = journal_path("multi-kill");
    let _ = std::fs::remove_file(&path);
    // Die after rounds 1, 3, and 5 of 6, then finish.
    for stop in [1, 3, 5] {
        run_partial(Campaign::Global, &cfg, &path, threads, stop);
    }
    assert_eq!(run_journaled(Campaign::Global, &cfg, &path, threads), baseline);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn injected_shard_panic_is_retried_with_identical_output() {
    let _guard = CAMPAIGNS.lock().unwrap();
    for threads in [1usize, 4] {
        let cfg = tiny_cfg(FaultProfile::none());
        let baseline = run_plain(Campaign::Global, &cfg, threads);
        // Arm a one-shot panic in the last shard: it fires mid-shard in the
        // first round, after earlier probes already mutated their caches.
        // The supervisor must quarantine the shard, restore its pristine
        // probes, retry, and complete with bit-identical output.
        testhooks::arm_shard_panic(threads - 1);
        let faulted = run_plain(Campaign::Global, &cfg, threads);
        testhooks::disarm();
        assert_eq!(
            faulted, baseline,
            "[{threads}t] campaign with an injected shard panic diverged after retry"
        );
    }
}

#[test]
fn bit_flip_in_journal_falls_back_to_intact_checkpoint() {
    let _guard = CAMPAIGNS.lock().unwrap();
    let cfg = tiny_cfg(FaultProfile::none());
    let threads = 1;
    let baseline = run_plain(Campaign::Global, &cfg, threads);
    let path = journal_path("bit-flip");
    let _ = std::fs::remove_file(&path);
    run_partial(Campaign::Global, &cfg, &path, threads, 4);
    // Flip one bit inside the last record's payload: its checksum fails,
    // recovery truncates to the previous intact checkpoint, and the resume
    // recomputes the lost rounds.
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(run_journaled(Campaign::Global, &cfg, &path, threads), baseline);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn truncated_journal_tail_resumes_from_durable_prefix() {
    let _guard = CAMPAIGNS.lock().unwrap();
    let cfg = tiny_cfg(FaultProfile::none());
    let threads = 1;
    let baseline = run_plain(Campaign::Global, &cfg, threads);
    let path = journal_path("torn-tail");
    let _ = std::fs::remove_file(&path);
    run_partial(Campaign::Global, &cfg, &path, threads, 3);
    // A torn write: the machine died mid-append. Drop the last 7 bytes.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
    assert_eq!(run_journaled(Campaign::Global, &cfg, &path, threads), baseline);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn stale_fingerprint_is_a_typed_error_not_a_panic() {
    let _guard = CAMPAIGNS.lock().unwrap();
    let cfg = tiny_cfg(FaultProfile::none());
    let path = journal_path("stale-fingerprint");
    let _ = std::fs::remove_file(&path);
    run_partial(Campaign::Global, &cfg, &path, 1, 2);

    // Same journal, different campaign config (seed moved): refused.
    let mut other = cfg;
    other.seed ^= 0x5EED;
    match run_journal(Campaign::Global, &other, &path, ResumeOptions::default()) {
        Err(CampaignError::FingerprintMismatch { expected, found }) => {
            assert_ne!(expected, found);
        }
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }

    // Same journal, different worker count: the shard layout is part of
    // the fingerprint too.
    let run = run_journal(Campaign::Global, &cfg, &path, opts(2, None));
    assert!(
        matches!(run, Err(CampaignError::FingerprintMismatch { .. })),
        "thread-count change must be refused"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn foreign_file_is_rejected_as_bad_magic() {
    let cfg = tiny_cfg(FaultProfile::none());
    let path = journal_path("foreign");
    std::fs::write(&path, b"definitely not a campaign journal").unwrap();
    match run_journal(Campaign::Global, &cfg, &path, ResumeOptions::default()) {
        Err(CampaignError::Journal(metacdn_suite::journal::JournalError::BadMagic)) => {}
        other => panic!("expected BadMagic, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn world_build_reports_config_errors_instead_of_panicking() {
    // The examples' front door: an impossible config comes back as a typed
    // error through `World::try_build` (what `build_world_or_exit` prints).
    let mut cfg = ScenarioConfig::fast();
    cfg.global_probes = 0;
    match World::try_build(&cfg) {
        Ok(_) => {} // some configs tolerate zero probes; the API still holds
        Err(e) => {
            let msg = e.to_string();
            assert!(!msg.is_empty(), "error must render a diagnostic");
        }
    }
}

#[test]
fn resumed_metrics_snapshot_is_byte_identical() {
    let _guard = CAMPAIGNS.lock().unwrap();
    // The deterministic metrics ride in the checkpoints: a campaign killed
    // after any round and resumed must export the same `det_jsonl()` bytes
    // as the uninterrupted run, for both campaigns and both fault profiles.
    for campaign in [Campaign::Global, Campaign::Isp] {
        for (label, faults) in profiles() {
            let cfg = tiny_cfg(faults);
            let threads = 4;
            let tag = format!("{campaign:?}-{label}");
            let path = journal_path(&format!("obs-baseline-{tag}"));
            let _ = std::fs::remove_file(&path);
            let (run, baseline_snap) = run_journal(campaign, &cfg, &path, opts(threads, None))
                .expect("uninterrupted observed run");
            assert!(matches!(run, CampaignRun::Complete(_)));
            let baseline = baseline_snap.det_jsonl();
            let _ = std::fs::remove_file(&path);

            for k in 1..TINY_ROUNDS {
                let path = journal_path(&format!("obs-kill-{tag}-{k}"));
                let _ = std::fs::remove_file(&path);
                run_partial(campaign, &cfg, &path, threads, k);
                let (run, snap) = run_journal(campaign, &cfg, &path, opts(threads, None))
                    .expect("resumed observed run");
                assert!(matches!(run, CampaignRun::Complete(_)));
                assert_eq!(
                    snap.det_jsonl(),
                    baseline,
                    "[{tag}] metrics export diverged after kill+resume at round {k}"
                );
                let _ = std::fs::remove_file(&path);
            }
        }
    }
}
