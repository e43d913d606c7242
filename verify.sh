#!/usr/bin/env bash
# Local verification, shared verbatim by CI: every job in
# .github/workflows/ci.yml invokes exactly one subcommand of this
# script, so the pipeline can never drift from what `./verify.sh`
# checks on a developer machine.
#
#   ./verify.sh            # everything (fmt lint build test faults bench …)
#   ./verify.sh fmt        # rustfmt check
#   ./verify.sh lint       # clippy, warnings denied
#   ./verify.sh build      # release build of the workspace + perfbench
#   ./verify.sh test       # debug test suite + release cross-engine suite
#   ./verify.sh faults     # fault-injection suites, serial, under timeout
#   ./verify.sh bench      # smoke-run every experiment binary at tiny size
#   ./verify.sh bench --record   # …and record BENCH_<date>.json at repo root
#   ./verify.sh bench --compare BENCH_<date>.json
#                          # …and diff per-bin wall-clock vs that record,
#                          # failing past the ±25% band (warn-only in CI)
#   ./verify.sh trace      # tracing suites + trace_timeline smoke-run
#   ./verify.sh service    # job-service suites, serial, + CLI smoke
#   ./verify.sh delta      # delta-accumulative suites, serial, under timeout
#   ./verify.sh chaos      # wire-robustness + network-chaos suites, serial
#   ./verify.sh incremental  # incremental-computation suites, serial
#   ./verify.sh telemetry  # telemetry suites + live exposition smoke
#   ./verify.sh drift      # verify.sh subcommands <-> CI jobs bijection
set -euo pipefail
cd "$(dirname "$0")"

cmd_fmt() {
  cargo fmt --all --check
}

cmd_lint() {
  cargo clippy --workspace --all-targets -- -D warnings
}

cmd_build() {
  cargo build --release --workspace
  # The frozen benchmark harness builds the workspace crates by path: a
  # public-API change that breaks it must fail here, not in the
  # benchmark pipeline. Its target dir sits under the CI-cached target.
  cargo build --release --offline --manifest-path perfbench/Cargo.toml \
    --target-dir target/perfbench
}

# Every suite runs in exactly one CI job: the packages, test targets and
# test-name filters a serial job below owns (faults, trace, service,
# delta, chaos, incremental, telemetry) are left to that job, and this
# job runs the rest of the workspace.
cmd_test() {
  cargo test -q --workspace \
    --exclude imapreduce-suite --exclude imapreduce --exclude imr-algorithms \
    --exclude imr-bench --exclude imr-native --exclude imr-trace \
    --exclude imr-jobs --exclude imr-net --exclude imr-telemetry
  cargo test -q -p imapreduce -- --skip accum --skip incremental
  cargo test -q -p imr-algorithms -- --skip accumulative --skip incremental
  cargo test -q -p imr-bench --lib --bins
  cargo test -q -p imapreduce-suite --lib --bins --examples \
    --test cross_engine --test determinism --test properties \
    -- --skip delta_ --skip incremental_
  # The cross-engine exactness suite again under -O: the TCP
  # multi-process transport and the channel fabric must stay
  # bit-identical to the simulation engine with optimized codegen and
  # release-build worker binaries too. (Its delta_ tests run under -O
  # in the delta job.)
  cargo test -q --release --test cross_engine -- --skip delta_
}

cmd_faults() {
  # Fault-tolerance scenarios spawn real worker threads and real worker
  # OS processes, then recover from injected kills/hangs/crashes; run
  # them serially under a timeout so a recovery regression shows up as
  # a clean failure, never a hung CI job. The native crate's own suite
  # covers the watchdog/migration monitor the same way. The delta_
  # fault scenarios run in the delta job.
  timeout 600 cargo test -q --test fault_tolerance -- --test-threads=1 --skip delta_
  timeout 600 cargo test -q -p imr-native -- --test-threads=1
}

# Smoke-run each experiment binary at tiny scale into a scratch
# directory, then check every emitted results/*.json carries the keys
# the plotting/readme tooling relies on. With --record, additionally
# write BENCH_<date>.json at the repo root: per-binary host seconds for
# the pinned matrix plus the job-service throughput figure, so the perf
# trajectory the ROADMAP tracks has one committed data point per run.
# With --compare <BENCH_<date>.json>, diff this run's per-bin seconds
# against that record and exit nonzero if any bin drifted past ±25% —
# CI runs the compare step warn-only because shared hosts are noisy,
# but the deltas land in the log either way.
cmd_bench() {
  local record="" compare=""
  while [ "$#" -gt 0 ]; do
    case "$1" in
      --record) record=1; shift ;;
      --compare)
        compare="${2:-}"
        [ -n "$compare" ] \
          || { echo "bench: --compare needs a BENCH_<date>.json path" >&2; exit 2; }
        shift 2
        ;;
      *) echo "bench: unknown flag $1" >&2; exit 2 ;;
    esac
  done
  if [ -n "$compare" ] && [ ! -f "$compare" ]; then
    echo "bench-compare: baseline $compare not found" >&2
    exit 1
  fi
  cargo build --release --workspace
  local out
  out=$(mktemp -d)
  # The RETURN trap would fire again for the caller's return (where the
  # local is gone), so it removes itself after cleaning up.
  trap 'rm -rf "${out:-}"; trap - RETURN' RETURN
  local bins=(
    table1 table2 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
    fig13 fig14 fig16 fig18 fig20 ablation
    native_scaling native_recovery native_balance native_transport
    native_delta native_chaos native_incremental jobs_throughput
  )
  local rows=()
  declare -A secs_by
  for bin in "${bins[@]}"; do
    echo "bench-smoke: $bin"
    case "$bin" in
      # The balancer asserts an observed migration, which needs enough
      # compute per iteration to register on the busy EWMA; run it at
      # its default size instead of the tiny smoke size.
      native_balance) flags=(--scale 0.02 --iters 12) ;;
      *) flags=(--scale 0.002 --iters 2) ;;
    esac
    local t0 t1 secs
    t0=$(date +%s%3N)
    timeout 600 "target/release/$bin" "${flags[@]}" --out "$out" > /dev/null
    t1=$(date +%s%3N)
    secs=$(awk "BEGIN{printf \"%.3f\", ($t1 - $t0) / 1000}")
    rows+=("    \"$bin\": $secs")
    secs_by[$bin]=$secs
  done
  local n=0
  for json in "$out"/results/*.json; do
    n=$((n + 1))
    # A bin that emits malformed JSON must fail the run here, loudly —
    # never survive into a half-written BENCH record below.
    jq empty "$json" 2> /dev/null \
      || { echo "bench-smoke: $json is not valid JSON" >&2; exit 1; }
    for key in '"id"' '"title"' '"x_label"' '"y_label"' '"series"' '"notes"'; do
      grep -q "$key" "$json" \
        || { echo "bench-smoke: $json is missing $key" >&2; exit 1; }
    done
  done
  [ "$n" -ge "${#bins[@]}" ] \
    || { echo "bench-smoke: expected >=${#bins[@]} artifacts, got $n" >&2; exit 1; }
  echo "bench-smoke: $n artifacts, all keys present"
  if [ -n "$record" ]; then
    local stamp rec i
    stamp=$(date +%F)
    rec="BENCH_${stamp}.json"
    # Assemble into the scratch dir and validate before moving into
    # place, so a malformed embed can never leave a partial BENCH file
    # at the repo root.
    {
      echo "{"
      echo "  \"date\": \"$stamp\","
      echo "  \"commit\": \"$(git rev-parse --short HEAD 2>/dev/null || echo unknown)\","
      echo "  \"matrix\": \"smoke (--scale 0.002 --iters 2; native_balance 0.02/12)\","
      echo "  \"host_seconds\": {"
      for i in "${!rows[@]}"; do
        if [ "$i" -lt $((${#rows[@]} - 1)) ]; then
          echo "${rows[$i]},"
        else
          echo "${rows[$i]}"
        fi
      done
      echo "  },"
      echo "  \"jobs_throughput\": $(sed 's/^/  /' "$out/results/jobs_throughput.json" | sed '1s/^  //')"
      echo "}"
    } > "$out/$rec"
    jq empty "$out/$rec" 2> /dev/null \
      || { echo "bench-record: assembled $rec is not valid JSON, refusing to write it" >&2; exit 1; }
    mv "$out/$rec" "$rec"
    echo "bench-record: wrote $rec"
  fi
  if [ -n "$compare" ]; then
    local fail=0 prior now delta
    for bin in "${bins[@]}"; do
      prior=$(jq -r --arg b "$bin" '.host_seconds[$b] // empty' "$compare")
      if [ -z "$prior" ]; then
        echo "bench-compare: $bin absent from $compare (new bin?), skipping"
        continue
      fi
      now="${secs_by[$bin]}"
      delta=$(awk "BEGIN{printf \"%+.1f\", ($now - $prior) * 100 / $prior}")
      if awk "BEGIN{exit !(($now - $prior) > 0.25 * $prior || ($prior - $now) > 0.25 * $prior)}"; then
        echo "bench-compare: $bin ${prior}s -> ${now}s (${delta}%)  ** outside the ±25% band **"
        fail=1
      else
        echo "bench-compare: $bin ${prior}s -> ${now}s (${delta}%)"
      fi
    done
    [ "$fail" = 0 ] \
      || { echo "bench-compare: wall-clock drifted past ±25% vs $compare" >&2; exit 1; }
    echo "bench-compare: all bins within ±25% of $compare"
  fi
}

# The tracing subsystem end to end: the trace crate's unit suite, the
# cross-engine trace determinism / flight-recorder suite, and a
# smoke-run of the trace_timeline binary whose artifacts must carry the
# keys the timeline tooling relies on.
cmd_trace() {
  cargo test -q -p imr-trace
  timeout 600 cargo test -q --test tracing -- --test-threads=1
  cargo build --release -p imr-bench --bin trace_timeline
  local out
  out=$(mktemp -d)
  trap 'rm -rf "${out:-}"; trap - RETURN' RETURN
  timeout 600 target/release/trace_timeline --scale 0.005 --iters 4 --out "$out" > /dev/null
  grep -q '"traceEvents"' "$out/results/trace_timeline.chrome.json" \
    || { echo "trace-smoke: chrome trace missing traceEvents" >&2; exit 1; }
  grep -q '"async_overlap"' "$out/results/trace_timeline.jsonl" \
    || { echo "trace-smoke: jsonl summary missing async_overlap" >&2; exit 1; }
  grep -q '"mode":"sync"' "$out/results/trace_timeline.jsonl" \
    || { echo "trace-smoke: jsonl summary missing sync mode line" >&2; exit 1; }
  grep -q 'fault counters' "$out/results/trace_timeline.json" \
    || { echo "trace-smoke: figure artifact missing fault counters" >&2; exit 1; }
  echo "trace-smoke: artifacts present, keys intact"
}

# The multi-tenant job-service layer end to end: the jobs crate's unit
# suite, the integration suite (20-job stress, coordinator kill +
# bit-identical resume, DLQ, priority, worker drain/disconnect) run
# serially under a timeout because it spawns real worker processes, and
# the CLI drivers whose exit codes assert resume fidelity and DLQ
# capture.
cmd_service() {
  timeout 600 cargo test -q -p imr-jobs
  timeout 900 cargo test -q --release --test job_service -- --test-threads=1
  cargo build --release --bin imr-jobs --bin imr-worker
  timeout 600 target/release/imr-jobs resume > /dev/null
  timeout 600 target/release/imr-jobs dlq > /dev/null
  timeout 600 target/release/imr-jobs submit > /dev/null
  echo "service: suites + CLI smoke passed"
}

# The barrier-free delta-accumulative mode end to end (DESIGN.md §11):
# the core delta-store/config units, the per-algorithm accumulative
# fixpoint tests, bench counter-reset hygiene, cross-engine exactness
# (sim / channel / TCP bit-identity, release codegen), scheduling and
# validation properties, and kill/hang recovery mid-delta-propagation.
# Serial under timeouts: the fault suites spawn real worker threads and
# processes, so a regression must fail cleanly, never hang CI.
cmd_delta() {
  timeout 600 cargo test -q -p imapreduce accum -- --test-threads=1 --skip incremental
  timeout 600 cargo test -q -p imr-algorithms accumulative -- --test-threads=1
  timeout 600 cargo test -q -p imr-bench --test metrics_reset -- --test-threads=1
  timeout 900 cargo test -q --release --test cross_engine delta_ -- --test-threads=1
  timeout 600 cargo test -q --test properties delta_ -- --test-threads=1 --skip incremental_
  timeout 900 cargo test -q --test fault_tolerance delta_ -- --test-threads=1
  echo "delta: accumulative-mode suites passed"
}

# The hardened wire protocol end to end (DESIGN.md §12): the net
# crate's frame/CRC/policy/chaos units and proptest robustness suite,
# then the seeded network-chaos matrix — every TCP workload must stay
# bit-identical to its clean run under injected drops, bit flips,
# duplicates and resets, and budget exhaustion must dead-letter with a
# typed error. Serial under timeouts: the chaos suite spawns real
# worker processes and tears their connections down on purpose.
cmd_chaos() {
  timeout 600 cargo test -q -p imr-net
  timeout 900 cargo test -q --release --test chaos -- --test-threads=1
  echo "chaos: wire-robustness suites passed"
}

# Incremental iterative computation end to end (DESIGN.md §13): the
# core delta/planner/fixpoint-store units, the per-algorithm harness
# fixtures, cross-engine equivalence of warm re-convergence vs cold
# recompute (sim / channel / TCP, with the kill-mid-incremental replay
# and the warm-start patch handshake), and the chained-delta
# composition property. Serial under timeouts: the kill suite spawns
# real worker threads and processes.
cmd_incremental() {
  timeout 600 cargo test -q -p imapreduce incremental -- --test-threads=1
  timeout 600 cargo test -q -p imr-algorithms incremental -- --test-threads=1
  timeout 900 cargo test -q --release --test incremental -- --test-threads=1
  timeout 600 cargo test -q --test properties incremental_ -- --test-threads=1
  echo "incremental: delta/warm-start suites passed"
}

# The live telemetry pipeline end to end (DESIGN.md §14): the
# telemetry crate's unit suite, then the cross-engine integration
# suite (bit-identical sim series, per-phase count agreement across
# sim/channel/TCP, histogram merge algebra, exactly-one-generation-gap
# after kill/rollback) — serial, it spawns real worker processes.
# Then a live exposition smoke: a 20-job jobs_throughput batch runs
# with the embedded HTTP endpoint enabled while curl scrapes /metrics
# (the Prometheus text must parse and carry the expected families) and
# imr-stat renders one snapshot from the same endpoint.
cmd_telemetry() {
  cargo test -q -p imr-telemetry
  timeout 900 cargo test -q --release --test telemetry -- --test-threads=1
  cargo build --release -p imr-bench --bin jobs_throughput
  cargo build --release --bin imr-stat
  local out addr bg ok i fam
  out=$(mktemp -d)
  trap 'rm -rf "${out:-}"; trap - RETURN' RETURN
  addr="127.0.0.1:9642"
  IMR_TELEMETRY_ADDR="$addr" timeout 600 target/release/jobs_throughput \
    --scale 0.8333 --iters 2500 --out "$out" > "$out/jobs.log" 2>&1 &
  bg=$!
  ok=""
  for i in $(seq 1 600); do
    if curl -sf --max-time 2 "http://$addr/metrics" > "$out/metrics.txt" 2> /dev/null \
      && target/release/imr-stat --addr "$addr" --once > "$out/stat.txt" 2> /dev/null; then
      ok=1
      break
    fi
    kill -0 "$bg" 2> /dev/null || break
    sleep 0.05
  done
  wait "$bg" \
    || { echo "telemetry: jobs_throughput failed" >&2; cat "$out/jobs.log" >&2; exit 1; }
  [ -n "$ok" ] \
    || { echo "telemetry: no scrape landed while the batch was live" >&2; exit 1; }
  for fam in imr_samples_total imr_iteration imr_iteration_rate imr_queue_len \
    imr_inflight_slots imr_phase_latency_nanos_bucket imr_phase_p50_nanos \
    imr_phase_p99_nanos; do
    grep -q "^$fam" "$out/metrics.txt" \
      || { echo "telemetry: scrape is missing the $fam family" >&2; exit 1; }
  done
  # Every sample line must parse as Prometheus text format:
  # name{labels} value, with numeric values.
  if grep -Ev '^(#|$)' "$out/metrics.txt" \
    | grep -Evq '^[a-z_][a-z0-9_]*(\{[^}]*\})? -?[0-9][0-9eE.+-]*$'; then
    echo "telemetry: exposition lines failed Prometheus text-format parse:" >&2
    grep -Ev '^(#|$)' "$out/metrics.txt" \
      | grep -Ev '^[a-z_][a-z0-9_]*(\{[^}]*\})? -?[0-9][0-9eE.+-]*$' >&2
    exit 1
  fi
  grep -q 'jobs @' "$out/stat.txt" \
    || { echo "telemetry: imr-stat rendered no job table" >&2; cat "$out/stat.txt" >&2; exit 1; }
  echo "telemetry: suites + live exposition smoke passed"
}

# The anti-drift guard: every cmd_* subcommand of this script (except
# the `all` aggregate) must be invoked by .github/workflows/ci.yml, and
# every `./verify.sh <sub>` CI invocation must name a real subcommand.
# Cheap on purpose — no cargo involved — so CI runs it on every push.
cmd_drift() {
  local subs jobs
  subs=$(grep -o '^cmd_[a-z_]*' verify.sh | sed 's/^cmd_//' | grep -v '^all$' | sort -u)
  jobs=$(grep -o 'run: \./verify\.sh [a-z_]*' .github/workflows/ci.yml | awk '{print $3}' | sort -u)
  if [ "$subs" != "$jobs" ]; then
    echo "drift: verify.sh subcommands and CI invocations differ:" >&2
    diff <(echo "$subs") <(echo "$jobs") >&2 || true
    echo "drift: left column is verify.sh, right column is ci.yml" >&2
    exit 1
  fi
  echo "drift: verify.sh and ci.yml agree on $(echo "$subs" | wc -l) subcommands"
}

cmd_all() {
  cmd_fmt
  cmd_lint
  cmd_build
  cmd_test
  cmd_faults
  cmd_bench
  cmd_trace
  cmd_service
  cmd_delta
  cmd_chaos
  cmd_incremental
  cmd_telemetry
  cmd_drift
}

case "${1:-all}" in
  fmt | lint | build | test | faults | bench | trace | service | delta | chaos | incremental | telemetry | drift | all)
    "cmd_${1:-all}" "${@:2}"
    ;;
  *)
    echo "usage: $0 [fmt|lint|build|test|faults|bench|trace|service|delta|chaos|incremental|telemetry|drift|all] [--record] [--compare FILE]" >&2
    exit 2
    ;;
esac
echo "verify: ${1:-all} passed"
