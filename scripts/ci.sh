#!/usr/bin/env bash
# CI entry point: build, test, lint, and verify determinism.
#
# The determinism gate runs the reduced-scale global DNS campaign twice
# with the same (built-in) seed and requires bit-identical output — the
# property every figure in this repo rests on, and the guarantee the
# fault-injection layer must not break.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
# --workspace: the root crate is a package, so a bare `cargo test` would
# run only its integration suites and skip every member crate's units.
cargo test -q --workspace

echo "==> cargo clippy -D warnings (tests, examples and benches included)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc: every intra-doc link resolves"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "==> determinism: same seed, same campaign output"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
cargo run --release -q -p mcdn-analysis --bin mcdn -- \
  campaign global --metrics "$tmpdir/global_metrics.jsonl" > "$tmpdir/run1.txt"
cargo run --release -q -p mcdn-analysis --bin mcdn -- campaign global > "$tmpdir/run2.txt"
diff -u "$tmpdir/run1.txt" "$tmpdir/run2.txt"
echo "    identical ($(wc -l < "$tmpdir/run1.txt") lines)"

echo "==> goldens: campaign, crawl, traffic, chaos and poison output match tests/goldens/"
# The committed goldens pin the stdout of each command byte for byte, so
# an engine refactor cannot shift a table silently. The chaos and poison
# runs below are diffed against their goldens as well. Both campaigns'
# deterministic metrics lines (those not tagged "det":false) are pinned
# too: the thread-count and kill->resume stages compare them only within
# one commit, so a counter shift common to every run would pass there.
diff -u tests/goldens/campaign_global.txt "$tmpdir/run1.txt"
grep -v '"det":false' "$tmpdir/global_metrics.jsonl" > "$tmpdir/global_metrics.det"
diff -u tests/goldens/campaign_global_metrics.det.jsonl "$tmpdir/global_metrics.det"
cargo run --release -q -p mcdn-analysis --bin mcdn -- \
  campaign isp --metrics "$tmpdir/isp_metrics.jsonl" > "$tmpdir/isp.txt"
diff -u tests/goldens/campaign_isp.txt "$tmpdir/isp.txt"
grep -v '"det":false' "$tmpdir/isp_metrics.jsonl" > "$tmpdir/isp_metrics.det"
diff -u tests/goldens/campaign_isp_metrics.det.jsonl "$tmpdir/isp_metrics.det"
cargo run --release -q -p mcdn-analysis --bin mcdn -- crawl > "$tmpdir/crawl.txt"
diff -u tests/goldens/crawl.txt "$tmpdir/crawl.txt"
cargo run --release -q -p mcdn-analysis --bin mcdn -- traffic > "$tmpdir/traffic.txt"
diff -u tests/goldens/traffic.txt "$tmpdir/traffic.txt"
echo "    campaign global and isp (stdout and deterministic metrics), crawl and traffic match"

echo "==> chaos sweep: invariants hold, faulted runs replay bit-identically"
cargo run --release -q --example chaos_sweep > "$tmpdir/chaos1.txt"
cargo run --release -q --example chaos_sweep > "$tmpdir/chaos2.txt"
diff -u "$tmpdir/chaos1.txt" "$tmpdir/chaos2.txt"
diff -u tests/goldens/chaos_sweep.txt "$tmpdir/chaos1.txt"
grep -q "all invariants held across the grid" "$tmpdir/chaos1.txt"
echo "    identical ($(wc -l < "$tmpdir/chaos1.txt") lines)"

echo "==> poison sweep: Byzantine answers held at the bailiwick, replayed bit-identically"
cargo run --release -q --example poison_sweep > "$tmpdir/poison1.txt"
cargo run --release -q --example poison_sweep > "$tmpdir/poison2.txt"
diff -u "$tmpdir/poison1.txt" "$tmpdir/poison2.txt"
diff -u tests/goldens/poison_sweep.txt "$tmpdir/poison1.txt"
grep -q "all invariants held across the grid" "$tmpdir/poison1.txt"
echo "    identical ($(wc -l < "$tmpdir/poison1.txt") lines)"

echo "==> paper scale: repro --paper reproduces results/, all claims hold"
# The committed results/ are the paper-scale artifacts; a fresh run must
# reproduce every CSV, the Fig-2 DOT graph and the console output byte
# for byte (results/repro_paper.log is a progress log and is not
# compared). check_claims exits nonzero if any paper claim fails its
# paper-scale band.
mkdir -p "$tmpdir/paper"
cargo run --release -q -p mcdn-analysis --bin repro -- --paper --csv-dir "$tmpdir/paper" \
  > "$tmpdir/paper/repro_paper.txt" 2> "$tmpdir/paper/repro_paper.log"
for f in results/*.csv results/fig2.dot results/repro_paper.txt; do
  diff -u "$f" "$tmpdir/paper/$(basename "$f")"
done
echo "    $(ls results/*.csv | wc -l) CSVs, fig2.dot and repro_paper.txt identical"
cargo run --release -q -p mcdn-analysis --bin check_claims -- --paper > "$tmpdir/claims.txt"
grep -Eq "^all [0-9]+ claims PASS$" "$tmpdir/claims.txt"
echo "    $(tail -1 "$tmpdir/claims.txt")"

echo "==> benchmark goldens: every workload's output matches benchmark/goldens/digests.txt"
# The benchmark digests every repetition's output and checks it against
# the committed digests at the paper seed and at the held-out seed 7; a
# mismatch prints "correct": false, counts a failed repetition and makes
# the run exit 1. One short run per seed is enough: every repetition is
# checked, the warm-up included.
cargo test -q --manifest-path benchmark/Cargo.toml
for seed in paper 7; do
  seed_args=()
  [ "$seed" = paper ] || seed_args=(--seed "$seed")
  cargo run --release -q --manifest-path benchmark/Cargo.toml -- \
    "${seed_args[@]}" --seconds 1 --trace 0 > "$tmpdir/bench_$seed.txt" 2> "$tmpdir/bench_$seed.err"
  workloads="$(grep -c '^{' "$tmpdir/bench_$seed.txt" || true)"
  clean="$(grep '^{' "$tmpdir/bench_$seed.txt" | grep '"correct": true' | grep -c '"failed": 0,' || true)"
  if [ "$workloads" -ne 4 ] || [ "$clean" -ne 4 ]; then
    echo "    FAIL: seed $seed: $clean of $workloads workload lines correct with no failed repetition"
    cat "$tmpdir/bench_$seed.txt"
    exit 1
  fi
  echo "    seed $seed: 4 of 4 workloads correct, 0 failed repetitions"
done

echo "==> fuzz smoke: fixed-seed wire fuzzing plus corpus replay, zero panics, golden verdicts"
cargo run --release -q -p mcdn-fuzzwire --bin fuzz_smoke > "$tmpdir/fuzz1.txt"
cargo run --release -q -p mcdn-fuzzwire --bin fuzz_smoke > "$tmpdir/fuzz2.txt"
diff -u "$tmpdir/fuzz1.txt" "$tmpdir/fuzz2.txt"
# The golden pins the decoder's verdict on every mutated message, and so
# the encoded bytes of the seed messages the mutations start from.
diff -u tests/goldens/fuzz_smoke.txt "$tmpdir/fuzz1.txt"
grep -q "zero panics across all mutated messages" "$tmpdir/fuzz1.txt"
grep -q "panics=0" "$tmpdir/fuzz1.txt"
echo "    $(grep -m1 'iterations=' "$tmpdir/fuzz1.txt" | sed 's/fuzzwire: //')"

echo "==> adversarial bit-identity: resume + enforcement under every mutation profile"
cargo test --release -q --test adversarial

echo "==> parallel determinism: MCDN_THREADS=1 vs MCDN_THREADS=4"
MCDN_THREADS=1 cargo run --release -q -p mcdn-analysis --bin mcdn -- \
  campaign global --metrics "$tmpdir/metrics_t1.jsonl" > "$tmpdir/t1.txt"
MCDN_THREADS=4 cargo run --release -q -p mcdn-analysis --bin mcdn -- \
  campaign global --metrics "$tmpdir/metrics_t4.jsonl" > "$tmpdir/t4.txt"
diff -u "$tmpdir/t1.txt" "$tmpdir/t4.txt"
for n in 1 4; do
  MCDN_THREADS=$n cargo run --release -q -p mcdn-analysis --bin mcdn -- \
    campaign isp > "$tmpdir/isp_t$n.txt"
  diff -u "$tmpdir/isp.txt" "$tmpdir/isp_t$n.txt"
done
MCDN_THREADS=1 cargo run --release -q -p mcdn-analysis --bin mcdn -- traffic > "$tmpdir/traffic_t1.txt"
MCDN_THREADS=4 cargo run --release -q -p mcdn-analysis --bin mcdn -- traffic > "$tmpdir/traffic_t4.txt"
diff -u "$tmpdir/traffic_t1.txt" "$tmpdir/traffic_t4.txt"
echo "    identical (campaign $(wc -l < "$tmpdir/t1.txt") lines, traffic $(wc -l < "$tmpdir/traffic_t1.txt") lines)"

echo "==> metrics determinism: deterministic export byte-identical across thread counts"
# Lines tagged "det":false are process telemetry (shard timings,
# dispatch histograms) and legitimately vary; everything else must not. Stripping them must also leave a non-trivial export.
grep -v '"det":false' "$tmpdir/metrics_t1.jsonl" > "$tmpdir/metrics_t1.det"
grep -v '"det":false' "$tmpdir/metrics_t4.jsonl" > "$tmpdir/metrics_t4.det"
diff -u "$tmpdir/metrics_t1.det" "$tmpdir/metrics_t4.det"
grep -q '"schema":"mcdn-obs-v1"' "$tmpdir/metrics_t1.det"
grep -q '"name":"campaign.resolutions"' "$tmpdir/metrics_t1.det"
echo "    identical ($(wc -l < "$tmpdir/metrics_t1.det") deterministic lines)"

echo "==> crash recovery: SIGKILL mid-campaign, resume, byte-diff vs uninterrupted"
# run1.txt above is the uninterrupted campaign. Journal a run, let it
# self-SIGKILL after round 3 with its checkpoint durable, then resume from
# the journal; the resumed run's full output must be byte-identical.
journal="$tmpdir/campaign.journal"
if MCDN_KILL_AFTER_ROUND=3 cargo run --release -q -p mcdn-analysis --bin mcdn -- \
    campaign global --journal "$journal" > "$tmpdir/killed.txt" 2> "$tmpdir/killed.err"; then
  echo "    FAIL: killed run exited 0"; exit 1
fi
[ -s "$journal" ] || { echo "    FAIL: no journal written before the kill"; exit 1; }
grep -q "suspending after 3/" "$tmpdir/killed.err" || {
  echo "    FAIL: run did not suspend at round 3"; cat "$tmpdir/killed.err"; exit 1; }
cargo run --release -q -p mcdn-analysis --bin mcdn -- \
  campaign global --journal "$journal" > "$tmpdir/resumed.txt"
diff -u "$tmpdir/run1.txt" "$tmpdir/resumed.txt"
echo "    resumed output identical to uninterrupted run"
# The same drill on the in-ISP campaign, whose deterministic metrics
# lines must also match the uninterrupted run's (isp.txt and
# isp_metrics.jsonl from the goldens stage).
isp_journal="$tmpdir/isp.journal"
if MCDN_KILL_AFTER_ROUND=3 cargo run --release -q -p mcdn-analysis --bin mcdn -- \
    campaign isp --journal "$isp_journal" > "$tmpdir/isp_killed.txt" 2> "$tmpdir/isp_killed.err"; then
  echo "    FAIL: killed in-ISP run exited 0"; exit 1
fi
grep -q "suspending after 3/" "$tmpdir/isp_killed.err" || {
  echo "    FAIL: in-ISP run did not suspend at round 3"; cat "$tmpdir/isp_killed.err"; exit 1; }
cargo run --release -q -p mcdn-analysis --bin mcdn -- \
  campaign isp --journal "$isp_journal" --metrics "$tmpdir/isp_resumed.jsonl" \
  > "$tmpdir/isp_resumed.txt"
diff -u "$tmpdir/isp.txt" "$tmpdir/isp_resumed.txt"
grep -v '"det":false' "$tmpdir/isp_resumed.jsonl" > "$tmpdir/isp_resumed.det"
diff -u "$tmpdir/isp_metrics.det" "$tmpdir/isp_resumed.det"
echo "    in-ISP resumed output and $(wc -l < "$tmpdir/isp_metrics.det") deterministic metrics lines identical"

echo "==> pool-vs-scope equivalence: persistent pool vs retired scoped engine"
cargo test --release -q -p mcdn-exec pool_matches

echo "==> bench smoke: BENCH_campaigns.json schema + count gates"
# bench_campaigns exits nonzero when a gate fails. Its gates are exact
# counts, the same on any host: pool dispatches and worker spawns at the
# top thread count, allocations per resolution, and allocations with
# metrics recording on against off. Walls, speedups and overheads are
# reported, not gated.
cargo run --release -q -p mcdn-bench --bin bench_campaigns -- --smoke "$tmpdir/BENCH_campaigns.json"
grep -q '"schema": "mcdn-bench-campaigns-v10"' "$tmpdir/BENCH_campaigns.json"
grep -q '"identical_across_threads": true' "$tmpdir/BENCH_campaigns.json"
if grep -q '"identical_across_threads": false' "$tmpdir/BENCH_campaigns.json"; then
  echo "    FAIL: some campaign diverged across thread counts"; exit 1
fi
for field in thread_counts memo_hit_rate wall_ms shard_walls p50_ms p90_ms max_ms \
             dispatch_overhead_ms speedup_vs_serial speedup_gate dispatch_microbench \
             scoped_over_pool traffic_batch_ticks available_parallelism \
             steps expected_dispatches dispatches spawned \
             checkpoint_overhead_pct observability obs_overhead_pct metrics trace_events \
             alloc_audit disabled_allocs disabled_bytes \
             allocs_per_resolution bytes_per_resolution; do
  grep -q "\"$field\"" "$tmpdir/BENCH_campaigns.json" || {
    echo "    FAIL: missing field $field"; exit 1; }
done
echo "    schema OK, count gates passed"

echo "==> alloc gate: a real campaign window averages under one allocation per resolution"
# The audit counts every allocation of the serial global campaign (setup,
# round bookkeeping and the resolve loop) over its resolutions;
# bench_campaigns already exits nonzero past the gate.
allocs="$(grep -m1 '"allocs_per_resolution"' "$tmpdir/BENCH_campaigns.json" \
  | sed 's/.*"allocs_per_resolution": \([0-9.]*\).*/\1/')"
awk -v a="$allocs" 'BEGIN {
  if (a == "" || a + 0 >= 1.0) { printf "    FAIL: allocs_per_resolution = %s (gate < 1.0)\n", a; exit 1 }
  printf "    allocs_per_resolution = %s (< 1.0)\n", a
}' || { grep -A10 '"alloc_audit"' "$tmpdir/BENCH_campaigns.json"; exit 1; }

echo "CI OK"
