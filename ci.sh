#!/usr/bin/env bash
# Workspace gate: lints, the full test suite, and the parallel-runner
# determinism test under a forced multi-worker pool. Run from the repo
# root; any failure aborts. Pass --deep to additionally run the Miri
# pass over the sim crate's unsafe-adjacent modules (slab, equeue,
# timers); it needs a toolchain with the miri component installed.
set -euo pipefail
cd "$(dirname "$0")"

deep=0
for arg in "$@"; do
  case "$arg" in
    --deep) deep=1 ;;
    *)
      echo "unknown argument: $arg (usage: ci.sh [--deep])" >&2
      exit 1
      ;;
  esac
done

echo "== rustfmt (check) =="
cargo fmt --all -- --check

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tests =="
cargo test -q --workspace

echo "== parallel grid determinism (forced 4-worker pool) =="
SKEWBOUND_THREADS=4 cargo test -q -p skewbound-integration --test parallel_grid

echo "== cross-runtime parity (engine vs real threads) =="
SKEWBOUND_THREADS=4 cargo test -q -p skewbound-integration --test runtime_parity

echo "== docs build (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== benches compile =="
cargo bench --workspace --no-run

echo "== skewbench harness builds against its locked dependencies and self-tests =="
# skewbench/ is a package of its own with a committed Cargo.lock. A core
# API change it cannot compile against, or a dependency change that
# would need a new lock file, fails here rather than in a benchmark run.
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --locked \
  --manifest-path skewbench/Cargo.toml
CARGO_TARGET_DIR=.bench_build cargo test --release --offline --locked \
  --manifest-path skewbench/Cargo.toml

echo "== traced benchmark: every request matched to its replica's invoke =="
# The traced mode matches the j-th invoke event at replica c to request
# j of connection c, so the server must trace one invoke and one respond
# per client request. A run that matches none of them cannot report its
# per-layer metrics; this catches that before a benchmark run does.
bench_log=target/skewbench-traced.log
mkdir -p target
bash skewbench/run.sh --workload net-queue-saturated --seed 1 --seconds 3 --trace 1 \
  | tee "$bench_log"
bench_last=$(tail -n 1 "$bench_log")
for want in '"correct": true' '"failed": 0,'; do
  if ! grep -qF "$want" <<<"$bench_last"; then
    echo "traced benchmark result lacks $want: $bench_last" >&2
    exit 1
  fi
done
if ! grep -qF '(0 mismatched)' "$bench_log"; then
  echo "traced benchmark left requests unmatched to replica invokes" >&2
  exit 1
fi
echo "traced benchmark: correct, 0 failed, 0 mismatched"

echo "== traced benchmark: model checker on the honest register =="
# Every query must come back all-passed: a violation, an undecided
# history or a capped exploration counts as failed.
mc_log=target/skewbench-mc.log
bash skewbench/run.sh --workload mc-register --seed 1 --seconds 3 --trace 1 \
  | tee "$mc_log"
mc_last=$(tail -n 1 "$mc_log")
for want in '"correct": true' '"failed": 0,'; do
  if ! grep -qF "$want" <<<"$mc_last"; then
    echo "traced mc-register result lacks $want: $mc_last" >&2
    exit 1
  fi
done
echo "traced mc-register benchmark: correct, 0 failed"

echo "== grid bench smoke + 100k-process scale run + shard scaling (budget 120s) =="
timeout 120 cargo run --release -p skewbound-bench --bin tables -- \
  --object register --scale 100000 --shards 1,4,8 >/dev/null
for field in sim_wall_nanos check_wall_nanos check_nodes check_nodes_per_sec \
  events_per_sec peak_rss_bytes scale_events scale_events_per_sec \
  scale_peak_rss_bytes shards shard_events_per_sec \
  mc_schedules mc_explored_states mc_wall_nanos explored_states_per_sec; do
  value=$(grep -o "\"$field\": [0-9.]*" BENCH_grid.json | grep -o '[0-9.]*$' || true)
  if [ -z "$value" ]; then
    echo "BENCH_grid.json missing field: $field" >&2
    exit 1
  fi
  if ! awk -v v="$value" 'BEGIN { exit !(v > 0) }'; then
    echo "BENCH_grid.json field $field is zero: $value" >&2
    exit 1
  fi
done
scale_n=$(grep -o '"scale_processes": [0-9]*' BENCH_grid.json | grep -o '[0-9]*$')
if [ "$scale_n" -lt 100000 ]; then
  echo "scale run simulated only $scale_n processes (want >= 100000)" >&2
  exit 1
fi
shard_max=$(grep -o '"shards": [0-9]*' BENCH_grid.json | grep -o '[0-9]*$')
if [ "$shard_max" -lt 8 ]; then
  echo "shard scaling topped out at $shard_max shards (want >= 8)" >&2
  exit 1
fi
echo "BENCH_grid.json per-stage + scale + shard fields present and non-zero ($scale_n processes, $shard_max shards)"

echo "== skewlint (model checker + protocol lints) =="
skewlint_out=target/skewlint
cargo run --release -q -p skewbound-mc --bin skewlint -- --smoke --out "$skewlint_out" \
  | tee /tmp/skewlint.log
grep -q '^skewlint: OK$' /tmp/skewlint.log
cert_count=0
for cert in "$skewlint_out"/*.json; do
  [ -e "$cert" ] || continue
  # report.json is the rule report, not a foil certificate.
  [ "$(basename "$cert")" = "report.json" ] && continue
  if ! grep -q '"replay_confirmed": true' "$cert"; then
    echo "certificate $cert is not replay-confirmed" >&2
    exit 1
  fi
  if ! grep -q '"schema": "skewbound-certificate/v1"' "$cert"; then
    echo "certificate $cert has the wrong schema" >&2
    exit 1
  fi
  cert_count=$((cert_count + 1))
done
if [ "$cert_count" -lt 2 ]; then
  echo "expected at least 2 foil certificates, found $cert_count" >&2
  exit 1
fi
echo "skewlint emitted $cert_count replay-confirmed certificates"

echo "== thread-count determinism (1-worker vs 2-worker certificates byte-identical) =="
SKEWBOUND_THREADS=1 cargo run --release -q -p skewbound-mc --bin skewlint -- \
  --smoke --out target/skewlint-t1 >/dev/null
SKEWBOUND_THREADS=2 cargo run --release -q -p skewbound-mc --bin skewlint -- \
  --smoke --out target/skewlint-t2 >/dev/null
cert_pairs=0
for cert in target/skewlint-t1/*.json; do
  name=$(basename "$cert")
  # report.json carries wall-clock throughput; only certificates must be
  # bit-identical across worker counts.
  [ "$name" = "report.json" ] && continue
  if ! cmp -s "$cert" "target/skewlint-t2/$name"; then
    echo "certificate $name differs between 1 and 2 workers" >&2
    exit 1
  fi
  cert_pairs=$((cert_pairs + 1))
done
if [ "$cert_pairs" -lt 2 ]; then
  echo "expected at least 2 certificates to compare, found $cert_pairs" >&2
  exit 1
fi
echo "$cert_pairs certificates byte-identical across worker counts"

echo "== skewlint rule report (schema + canaries) =="
report="$skewlint_out/report.json"
if [ ! -e "$report" ]; then
  echo "skewlint did not write $report" >&2
  exit 1
fi
grep -q '"schema": "skewbound-lint-report/v1"' "$report"
for code in SB001 SB002 SB003 SB004 SB005 SB101 SB102 SB103 SB104 SB105; do
  if ! grep -q "\"code\": \"$code\"" "$report"; then
    echo "report.json is missing rule code $code" >&2
    exit 1
  fi
done
if grep -q '"caught": false' "$report"; then
  echo "report.json records an uncaught canary" >&2
  exit 1
fi
canary_count=$(grep -c '"caught": true' "$report")
if [ "$canary_count" -lt 10 ]; then
  echo "report.json has only $canary_count caught canaries (want >= 10)" >&2
  exit 1
fi
mc_rate=$(grep -o '"explored_states_per_sec": [0-9]*' "$report" | grep -o '[0-9]*$' || true)
if [ -z "$mc_rate" ] || [ "$mc_rate" -le 0 ]; then
  echo "report.json has no positive explored_states_per_sec (got ${mc_rate:-missing})" >&2
  exit 1
fi
echo "report.json schema-tagged, 10 rule codes present, $canary_count canaries caught, $mc_rate explored states/sec"

echo "== skewlint trace audit (honest trace re-audited offline) =="
honest_trace="$skewlint_out/honest.trace.jsonl"
if [ ! -e "$honest_trace" ]; then
  echo "skewlint did not write $honest_trace" >&2
  exit 1
fi
cargo run --release -q -p skewbound-mc --bin skewlint -- audit "$honest_trace" \
  --window 9000,2400 | tee /tmp/skewlint-audit.log
grep -q '^audit: OK$' /tmp/skewlint-audit.log
echo "honest trace re-audited clean under window [6600, 9000]"

echo "== trace smoke (sim sink unit tests) =="
cargo test -q -p skewbound-sim trace

echo "== skewlint trace gate (JSON-lines replay trace) =="
trace_file=target/skewlint/foil.trace.jsonl
cargo run --release -q -p skewbound-mc --bin skewlint -- --smoke --out "$skewlint_out" \
  --trace "$trace_file" | tee /tmp/skewlint-trace.log
grep -q '^skewlint: OK$' /tmp/skewlint-trace.log
grep -q 'lines parsed OK' /tmp/skewlint-trace.log
if ! grep -q '"kind":"deliver"' "$trace_file"; then
  echo "trace file $trace_file has no deliver events" >&2
  exit 1
fi
if ! grep -q '"kind":"counter"' "$trace_file"; then
  echo "trace file $trace_file has no counter lines" >&2
  exit 1
fi
echo "trace gate: $(wc -l < "$trace_file") trace lines validated"

echo "== TCP loopback smoke (3-process mesh + closed-loop load + trace audit) =="
cargo build --release -q -p skewbound-net
net_dir=target/netsmoke
rm -rf "$net_dir"
mkdir -p "$net_dir"
serve_bin=target/release/skewbound-serve
load_bin=target/release/skewbound-load
net_d=20000
net_u=8000
# Injected delays are drawn from [d - u, d - headroom]; the headroom is
# the scheduling-jitter allowance before a delivery falls outside the
# audited [d - u, d] window.
net_headroom=7000

# run_mesh PORT SESSIONS trace|plain OUT — spawns a 3-server register
# mesh on 127.0.0.1:PORT..PORT+2 and drives it with a closed-loop load,
# writing the latency report to OUT. With "trace", each server dumps a
# JSON-lines trace into $net_dir for the skewlint audit.
run_mesh() {
  local port=$1 sessions=$2 traced=$3 out=$4
  local epoch
  epoch=$(($(date +%s%N) / 1000))
  local pids=() i j
  for i in 0 1 2; do
    local peers=()
    for j in 0 1 2; do
      [ "$j" -eq "$i" ] || peers+=(--peer "$j=127.0.0.1:$((port + j))")
    done
    local trace_args=()
    [ "$traced" = trace ] && trace_args=(--trace "$net_dir/trace$i.jsonl")
    "$serve_bin" --pid "$i" --listen "127.0.0.1:$((port + i))" "${peers[@]}" \
      --object register --d "$net_d" --u "$net_u" --epoch-micros "$epoch" \
      --seed 7 --headroom "$net_headroom" "${trace_args[@]}" \
      >"$net_dir/serve$i.log" 2>&1 &
    pids+=($!)
  done
  sleep 0.5
  local rc=0
  timeout 90 "$load_bin" \
    --server "127.0.0.1:$port" --server "127.0.0.1:$((port + 1))" \
    --server "127.0.0.1:$((port + 2))" --object register \
    --sessions "$sessions" --ops 2 --keys 32 --d "$net_d" --u "$net_u" \
    --out "$out" --bye || rc=$?
  # Servers drain and exit on Bye; bound the grace so a wedged mesh
  # fails the gate instead of hanging it.
  local deadline=$((SECONDS + 30)) alive p
  while :; do
    alive=0
    for p in "${pids[@]}"; do
      kill -0 "$p" 2>/dev/null && alive=1
    done
    [ "$alive" -eq 0 ] && break
    if [ "$SECONDS" -ge "$deadline" ]; then
      kill "${pids[@]}" 2>/dev/null || true
      rc=1
      break
    fi
    sleep 0.2
  done
  wait "${pids[@]}" 2>/dev/null || true
  return "$rc"
}

# Full-size run: >= 1k closed-loop sessions, every per-key history
# linearizable (the load exits nonzero otherwise), latency percentiles
# and the paper's reference lines in BENCH_net.json.
run_mesh 7431 1000 plain BENCH_net.json
for field in latency_p50_micros latency_p99_micros latency_max_micros \
  ref_d_plus_eps_micros ref_two_d_micros keys_checked; do
  value=$(grep -o "\"$field\": [0-9]*" BENCH_net.json | grep -o '[0-9]*$' || true)
  if [ -z "$value" ] || [ "$value" -le 0 ]; then
    echo "BENCH_net.json missing or zero field: $field" >&2
    exit 1
  fi
done
echo "BENCH_net.json p50/p99/max + d+eps and 2d reference lines present"

# Short traced run, audited by skewlint. The delivery-window rule reads
# real wall-clock deliveries, so a CPU stall longer than the headroom
# (common on single-core CI hosts) can flag a run that is otherwise
# correct; retry a couple of times before declaring failure.
net_audit_ok=0
for attempt in 1 2 3; do
  if ! run_mesh 7441 120 trace "$net_dir/BENCH_short.json"; then
    echo "loopback mesh attempt $attempt failed; retrying" >&2
    continue
  fi
  cat "$net_dir"/trace0.jsonl "$net_dir"/trace1.jsonl "$net_dir"/trace2.jsonl \
    | sort -t: -k3 -n >"$net_dir/merged.jsonl"
  if cargo run --release -q -p skewbound-mc --bin skewlint -- \
    audit "$net_dir/merged.jsonl" --window "$net_d,$net_u" \
    | tee /tmp/skewlint-net.log \
    && grep -q '^audit: OK$' /tmp/skewlint-net.log; then
    net_audit_ok=1
    break
  fi
  echo "net trace audit attempt $attempt hit timing-window noise; retrying" >&2
done
if [ "$net_audit_ok" -ne 1 ]; then
  echo "net trace audit failed on all attempts" >&2
  exit 1
fi
echo "loopback mesh traces audited clean under window [$((net_d - net_u)), $net_d]"

if [ "$deep" -eq 1 ]; then
  echo "== deep: Miri over sim slab/equeue/timers =="
  if cargo miri --version >/dev/null 2>&1; then
    for module in slab equeue timers; do
      echo "-- miri: skewbound-sim ${module}::"
      cargo miri test -q -p skewbound-sim --lib "${module}::"
    done
  else
    echo "cargo miri is not installed; skipping the deep pass" >&2
  fi
fi

echo "ci.sh: all checks passed"
