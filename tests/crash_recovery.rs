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
use metacdn_suite::dnssim::MAX_CACHE_TTL;
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
    let frame = last_frame(&journal);
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
        reframe_last(&mut bytes, frame);
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

/// The offset of a journal's last frame. Frames follow the 8-byte magic:
/// `len:u32 | fnv64:u64 | payload`.
fn last_frame(journal: &[u8]) -> usize {
    let (mut frame, mut next) = (8, 8);
    while next < journal.len() {
        frame = next;
        let len = u32::from_le_bytes(journal[next..next + 4].try_into().unwrap()) as usize;
        next += 12 + len;
    }
    frame
}

/// Rewrites the checksum of the last frame (at `frame`) over its payload,
/// so the journal layer accepts an edited checkpoint.
fn reframe_last(journal: &mut [u8], frame: usize) {
    let sum = metacdn_suite::faults::fnv64(&journal[frame + 12..]);
    journal[frame + 4..frame + 12].copy_from_slice(&sum.to_le_bytes());
}

/// Where the checkpoint encoding puts the fields the resume checks read,
/// as offsets into a checkpoint payload: the tag byte, then `rounds_done`,
/// `t` and `ctrl_t` as little-endian `u64`s, five more `u64` counters, the
/// deterministic counters and trace events, the unique-IP cells (bin
/// start `u64`, continent, class, member count `u32`, members), the
/// ledger (address, instant `u64`, class), the controller signals, and the
/// probe caches (hits and misses `u64`, entry count `u32`, entries: name
/// `u32`, type `u16`, expiry `u64`, record count `u16`, records: name
/// `u32`, TTL `u32`, data).
struct CheckpointLayout {
    rounds_done: usize,
    t: usize,
    ctrl_t: usize,
    first_cell_bin: usize,
    first_ledger_t: usize,
    first_cache_expiry: usize,
    first_record_ttl: usize,
}

fn checkpoint_layout(payload: &[u8]) -> CheckpointLayout {
    let u32_at = |o: usize| u32::from_le_bytes(payload[o..o + 4].try_into().unwrap()) as usize;
    let mut o = 1 + 8 * 8;
    o += 4 + 8 * u32_at(o); // deterministic counters
    o += 4 + 22 * u32_at(o); // trace events: kind u16, t u64, key u32, value u64
    let n_cells = u32_at(o);
    o += 4;
    let first_cell_bin = o;
    for _ in 0..n_cells {
        o += 14 + 4 * u32_at(o + 10);
    }
    assert!(n_cells > 0 && u32_at(o) > 0, "the checkpoint holds cells and ledger entries");
    let first_ledger_t = o + 4 + 4;
    o += 4 + 13 * u32_at(o);
    // Signals: Apple utilization, CDN load, overload onsets, CDN health
    // and capacity factors, each a count and fixed-width entries; then the
    // per-region last-good shares and the down sites.
    for width in [9, 10, 9, 3, 10] {
        o += 4 + width * u32_at(o);
    }
    let n_regions = u32_at(o);
    o += 4;
    for _ in 0..n_regions {
        o += 5 + 9 * u32_at(o + 1);
    }
    o += 4 + 8 * u32_at(o);
    // The first probe cache that holds an entry.
    let n_probes = u32_at(o);
    o += 4;
    for _ in 0..n_probes {
        if u32_at(o + 16) > 0 {
            break;
        }
        o += 20;
    }
    let first_entry = o + 20;
    assert!(u16::from_le_bytes([payload[first_entry + 14], payload[first_entry + 15]]) > 0);
    CheckpointLayout {
        rounds_done: 1,
        t: 9,
        ctrl_t: 17,
        first_cell_bin,
        first_ledger_t,
        first_cache_expiry: first_entry + 6,
        first_record_ttl: first_entry + 16 + 4,
    }
}

/// Suspends the tiny global campaign after round 2 (its checkpoint has
/// `t` = start + 2 rounds), applies `edit` to the last checkpoint's
/// payload behind a valid checksum, and resumes it.
fn resume_edited(
    tag: &str,
    edit: impl FnOnce(&mut [u8], &CheckpointLayout),
) -> Result<(CampaignRun, MetricsSnapshot), CampaignError> {
    let cfg = tiny_cfg(FaultProfile::none());
    let path = journal_path(tag);
    let _ = std::fs::remove_file(&path);
    run_partial(Campaign::Global, &cfg, &path, 1, 2);
    let mut journal = std::fs::read(&path).unwrap();
    let frame = last_frame(&journal);
    let layout = checkpoint_layout(&journal[frame + 12..]);
    edit(&mut journal[frame + 12..], &layout);
    reframe_last(&mut journal, frame);
    std::fs::write(&path, &journal).unwrap();
    let resumed = run_journal(Campaign::Global, &cfg, &path, opts(1, None));
    let _ = std::fs::remove_file(&path);
    resumed
}

fn put_u64(payload: &mut [u8], offset: usize, v: u64) {
    payload[offset..offset + 8].copy_from_slice(&v.to_le_bytes());
}

fn put_u32(payload: &mut [u8], offset: usize, v: u32) {
    payload[offset..offset + 4].copy_from_slice(&v.to_le_bytes());
}

fn get_u64(payload: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(payload[offset..offset + 8].try_into().unwrap())
}

/// Asserts that a resume was refused for `field`.
fn assert_refused(
    resumed: Result<(CampaignRun, MetricsSnapshot), CampaignError>,
    field: &str,
    case: &str,
) {
    match resumed {
        Err(CampaignError::InvalidCheckpoint(f)) if f == field => {}
        Err(e) => panic!("{case}: expected InvalidCheckpoint({field}), got error {e}"),
        Ok((run, _)) => panic!("{case}: expected InvalidCheckpoint({field}), resumed to {run:?}"),
    }
}

/// The tiny campaigns' window and round length, in seconds.
fn tiny_window() -> (u64, u64, u64) {
    let cfg = tiny_cfg(FaultProfile::none());
    (cfg.global_start.as_secs(), cfg.global_end.as_secs(), cfg.global_dns_interval.as_secs())
}

/// A round instant at or before the window start, at or after its end, or
/// off the round grid is refused. Moving it 30 days before the start used
/// to resume and run 180 extra rounds.
#[test]
fn resume_refuses_a_round_instant_outside_the_window_or_off_its_grid() {
    let (start, end, round) = tiny_window();
    let cases = [
        ("30 days before the start", start - 30 * 86_400),
        ("at the start", start),
        ("at the end", end),
        ("a round past the end", end + round),
        ("one second off the grid", start + 2 * round + 1),
        ("half a round off the grid", start + round + round / 2),
    ];
    for (case, t) in cases {
        let resumed = resume_edited(&format!("cursor-t-{t}"), |p, at| put_u64(p, at.t, t));
        assert_refused(resumed, "round instant", case);
    }
}

/// A round count other than the rounds before the round instant is
/// refused.
#[test]
fn resume_refuses_a_round_count_that_disagrees_with_the_round_instant() {
    for rounds_done in [0, 1, 3, 6, u64::MAX] {
        let resumed = resume_edited(&format!("cursor-rounds-{rounds_done}"), |p, at| {
            put_u64(p, at.rounds_done, rounds_done)
        });
        assert_refused(resumed, "rounds done", &format!("rounds_done = {rounds_done}"));
    }
}

/// A controller instant other than where the 30-minute controller walk
/// stops after the last completed round is refused.
#[test]
fn resume_refuses_a_controller_instant_the_walk_cannot_leave() {
    for shift in [-1800i64, -1, 1, 1800, 4 * 3600] {
        let resumed = resume_edited(&format!("cursor-ctrl-{shift}"), |p, at| {
            let ctrl_t = get_u64(p, at.ctrl_t);
            put_u64(p, at.ctrl_t, ctrl_t.checked_add_signed(shift).unwrap())
        });
        assert_refused(resumed, "controller instant", &format!("ctrl_t shifted by {shift} s"));
    }
}

/// A ledger entry dated after the last completed round, or before the
/// window, is refused: a future-dated entry would win every later
/// observation of its address.
#[test]
fn resume_refuses_ledger_entries_outside_the_completed_rounds() {
    let (start, _, round) = tiny_window();
    let cases = [
        ("at the checkpoint's round instant", start + 2 * round),
        ("a day ahead", start + 86_400),
        ("before the window", start - 1),
    ];
    for (case, at) in cases {
        let resumed =
            resume_edited(&format!("ledger-{at}"), |p, l| put_u64(p, l.first_ledger_t, at));
        assert_refused(resumed, "ledger entry instant", case);
    }
}

/// A unique-IP cell whose bin starts after the last completed round is
/// refused.
#[test]
fn resume_refuses_unique_ip_cells_after_the_last_round() {
    let (start, _, round) = tiny_window();
    for at in [start + 2 * round, start + 30 * 86_400] {
        let resumed =
            resume_edited(&format!("cell-{at}"), |p, l| put_u64(p, l.first_cell_bin, at));
        assert_refused(resumed, "unique-IP cell bin", &format!("cell bin {at}"));
    }
}

/// A probe-cache entry that expires after the last completed round plus
/// the retry backoff plus the 7-day TTL cap, or that holds a record TTL
/// above the cap, is refused: the cache caps both on the way in. An
/// expiry at the bound still resumes.
#[test]
fn resume_refuses_probe_cache_entries_the_cache_cannot_hold() {
    let (start, _, round) = tiny_window();
    let retry = tiny_cfg(FaultProfile::none()).retry;
    let backoff: u64 = (1..retry.max_attempts).map(|a| retry.backoff_before(a).as_secs()).sum();
    let bound = start + round + backoff + u64::from(MAX_CACHE_TTL);
    let resumed =
        resume_edited("cache-expiry-bound", |p, l| put_u64(p, l.first_cache_expiry, bound));
    assert!(
        matches!(resumed, Ok((CampaignRun::Complete(_), _))),
        "expiry at the bound: {resumed:?}"
    );
    for expiry in [bound + 1, u64::MAX] {
        let resumed = resume_edited(&format!("cache-expiry-{expiry}"), |p, l| {
            put_u64(p, l.first_cache_expiry, expiry)
        });
        assert_refused(resumed, "probe-cache entry expiry", &format!("expiry {expiry}"));
    }
    for ttl in [MAX_CACHE_TTL + 1, u32::MAX] {
        let resumed =
            resume_edited(&format!("cache-ttl-{ttl}"), |p, l| put_u32(p, l.first_record_ttl, ttl));
        assert_refused(resumed, "probe-cache record TTL", &format!("record TTL {ttl}"));
    }
}
