//! Crash-safe campaign execution: journaled checkpoints and deterministic
//! resume.
//!
//! The contract under test: a campaign killed after *any* round and
//! resumed from its journal produces a result bit-identical to the
//! uninterrupted run — for any worker count, under clean and chaos-grade
//! fault profiles — and a corrupted journal is either recovered (by
//! falling back to an earlier intact checkpoint) or rejected with a typed
//! error. A checkpoint altered behind a valid checksum resumes or is
//! refused; it never panics.

use metacdn_suite::build_world_or_exit;
use metacdn_suite::faults::FaultProfile;
use metacdn_suite::geo::{Duration, SimTime};
use metacdn_suite::obs::MetricsSnapshot;
use metacdn_suite::scenario::{
    run_dns, run_dns_journaled, total_dark_scenario, Campaign, CampaignError, CampaignRun,
    DnsCampaignResult, ResumeOptions, ScenarioConfig, World,
};
use std::path::PathBuf;

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
fn bit_flip_in_journal_falls_back_to_intact_checkpoint() {
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

#[test]
fn checksum_valid_mutated_checkpoint_never_panics_on_resume() {
    use rand::{Rng, SeedableRng};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    // A resumed journal is untrusted input. Corrupt the last checkpoint's
    // payload one byte at a time, re-frame it with a matching checksum so
    // the journal layer accepts it, and resume: the decoder and the engine
    // must either finish the campaign or refuse it with a typed error.
    let cfg = tiny_cfg(FaultProfile::none());
    let path = journal_path("mutated-checkpoint");
    let _ = std::fs::remove_file(&path);
    run_partial(Campaign::Global, &cfg, &path, 1, 2);
    let journal = std::fs::read(&path).unwrap();
    // Frames follow the 8-byte magic: len:u32 | fnv64:u64 | payload.
    let (mut frame, mut next) = (8, 8);
    while next < journal.len() {
        frame = next;
        let len = u32::from_le_bytes(journal[next..next + 4].try_into().unwrap()) as usize;
        next += 12 + len;
    }
    let payload = frame + 12;
    let payload_len = journal.len() - payload;
    assert!(payload_len > 400, "checkpoint payload of {payload_len} bytes");

    // Every offset of the fixed-layout head (tag, cursors, counters,
    // events), cycling through the masks, then a seeded sample of the
    // variable-length rest (cells, ledger, signals, probe caches).
    const MASKS: [u8; 3] = [0x01, 0x80, 0xFF];
    let mut mutations: Vec<(usize, u8)> = (0..400).map(|i| (i, MASKS[i % 3])).collect();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(0xC4EC);
    for _ in 0..100 {
        mutations.push((rng.gen_range(400..payload_len), MASKS[rng.gen_range(0..3)]));
    }

    // One world serves every resume: a resume restores the controller
    // signals from its checkpoint, and a refused one touches nothing.
    let world = build_world_or_exit(&cfg);
    let (mut completed, mut refused, mut panicked) = (0, 0, Vec::new());
    for (offset, mask) in mutations {
        let mut bytes = journal.clone();
        bytes[payload + offset] ^= mask;
        let sum = metacdn_suite::faults::fnv64(&bytes[payload..]);
        bytes[frame + 4..payload].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let resumed = catch_unwind(AssertUnwindSafe(|| {
            run_dns_journaled(&world, &cfg, Campaign::Global, &path, opts(1, None))
        }));
        match resumed {
            Ok(Ok((CampaignRun::Complete(_), _))) => completed += 1,
            Ok(Ok((CampaignRun::Suspended { .. }, _))) => unreachable!("no round budget given"),
            // A shard failure is a caught panic, not a refusal.
            Ok(Err(CampaignError::Shard(e))) => panicked.push(format!("{offset} ^ {mask:#04x}: {e}")),
            Ok(Err(_)) => refused += 1,
            Err(_) => panicked.push(format!("{offset} ^ {mask:#04x}: resume panicked")),
        }
    }
    let _ = std::fs::remove_file(&path);
    assert!(panicked.is_empty(), "mutated checkpoints panicked: {panicked:#?}");
    assert!(completed > 0 && refused > 0, "{completed} completed, {refused} refused");
}
