#!/usr/bin/env bash
# Benchmark runner with a machine-readable, schema-stable output contract:
# runs bench_throughput, bench_pool_scaling and bench_streaming_latency in
# a fixed configuration and writes google-benchmark JSON to
# BENCH_throughput.json / BENCH_pool_scaling.json / BENCH_streaming.json at
# the repo root, so successive PRs have a comparable trajectory to track
# (items_per_second is the figure of merit for the batch benches; the
# streaming bench adds push->poll p50_ns/p99_ns latency percentiles and
# sustained-ingest items_per_second; per-run dummy counts ride along as
# cross-checks). Since the socket front door it also boots sdafd on a Unix
# socket and drives it with sdaf_loadgen at 1/8/64 concurrent connections,
# writing push->deliver round-trip p50_ns/p99_ns and wire items_per_second
# per connection count to BENCH_service.json (schema sdaf.service.bench.v1,
# stamped with the same context block as the google-benchmark files; the
# connection ladder is fixed so the file stays diffable across PRs).
# Since checkpoint/restore it also runs bench_snapshot into
# BENCH_snapshot.json: the periodic-asynchronous-barriers-vs-off ingest
# pair (snapshot_overhead_pct, budget <= 5%) and barrier completion
# latency under load (p50_ns/p99_ns + serialized snapshot_bytes).
# Since sdaf::qos it also runs bench_qos_isolation into BENCH_qos.json
# (5 repetitions; read the *_median rows):
# interactive push->poll p50/p99 solo vs under a batch tenant saturating
# the shared pool through a credit window; the interference ratio (shared
# p99 / solo p99, budget <= 5x) is printed and, like the scaling ladder,
# flagged as non-evidence on a host with < 4 hardware threads.
# It also times the whole compile pass: bench_ladder_scaling's
# BM_Compile_Ladder rows (core::compile of wide_ladder-shaped ladders at
# 1k/2k/8k/32k nodes, with the process's peak RSS) go, 5 repetitions each,
# to BENCH_compile.json; read the *_median rows. Smoke mode runs the same
# rows, so the file means the same either way.
#
#   tools/bench.sh            # full run (all registered benchmarks)
#   tools/bench.sh --smoke    # CI mode: the fixed smoke subset, ~seconds,
#                             # proves the bench binaries still run
#
# Options:
#   --build-dir DIR   build tree holding the bench binaries
#                     (default: build/release, configured+built if missing)
set -euo pipefail
cd "$(dirname "$0")/.."

smoke=0
build_dir=build/release
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) smoke=1 ;;
    --build-dir) build_dir=$2; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done

jobs=$(nproc 2>/dev/null || echo 2)
if [[ ! -x "$build_dir/bench_throughput" ||
      ! -x "$build_dir/bench_pool_scaling" ||
      ! -x "$build_dir/bench_streaming_latency" ||
      ! -x "$build_dir/bench_snapshot" ||
      ! -x "$build_dir/bench_qos_isolation" ||
      ! -x "$build_dir/bench_ladder_scaling" ||
      ! -x "$build_dir/sdafd" || ! -x "$build_dir/sdaf_loadgen" ]]; then
  if [[ "$build_dir" != build/release ]]; then
    echo "error: bench binaries missing from $build_dir; build them first" >&2
    exit 1
  fi
  cmake --preset release
  cmake --build --preset release -j "$jobs" \
      --target bench_throughput bench_pool_scaling bench_streaming_latency \
      bench_snapshot bench_qos_isolation bench_ladder_scaling sdafd \
      sdaf_loadgen
fi

# Every google-benchmark JSON records what produced it: the commit (with
# -dirty when tracked files differ from it), the compiler, the CMake build
# type of the bench binaries and the runner's core count. (The
# library_build_type google-benchmark prints describes the benchmark
# library itself, not this code.)
cmake_cache="$build_dir/CMakeCache.txt"
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$cmake_cache")
compiler_cmake=$(ls "$build_dir"/CMakeFiles/*/CMakeCXXCompiler.cmake | head -1)
compiler_id=$(sed -n 's/^set(CMAKE_CXX_COMPILER_ID "\(.*\)")$/\1/p' "$compiler_cmake")
compiler_version=$(sed -n 's/^set(CMAKE_CXX_COMPILER_VERSION "\(.*\)")$/\1/p' \
    "$compiler_cmake")
commit=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
if [[ "$commit" != unknown ]] && ! git diff --quiet HEAD -- 2>/dev/null; then
  commit="$commit-dirty"
fi
context="--benchmark_context=git_commit=$commit"
context+=",compiler=$compiler_id $compiler_version"
context+=",cmake_build_type=${build_type:-unknown},nproc=$jobs"

# The smoke subset is fixed so the JSON schema (benchmark names + counters)
# stays stable across PRs: the three throughput pass rates at the batched
# quantum, the metrics-on/off overhead pair (records the observability cost
# -- counters items_per_second_metrics_{on,off} and metrics_overhead_pct,
# budget <= 2% -- into BENCH_throughput.json), 5 repetitions each -- read
# the *_median rows -- the pooled filtering sweep,
# (since the SPSC channel fast path) two batch=1 pooled ladder configs whose
# per-op channel cost is the figure the lock-free path exists to cut, and
# (since the streaming ports) the pooled latency and ingest configs (item
# push and 64-item push_batch) plus the Sim ingest config (the sim's cost
# on the shared channels), 5 repetitions each -- read the *_median rows --
# and
# (since checkpoint/restore) the pooled snapshot overhead pair + barrier
# latency (budget: snapshot_overhead_pct <= 5%), and the whole batch=1
# LadderScaling ladder (1/4/8/16 workers; the 1 -> 4 rows are the speedup),
# 5 repetitions -- read the *_median rows; tools/ci.sh --smoke gates the
# 100-node @ 8 workers median against it).
throughput_filter='.'
pool_filter='Filtering|CompileCache|LadderScaling'
streaming_filter='.'
snapshot_filter='.'
qos_filter='.'
if [[ $smoke -eq 1 ]]; then
  throughput_filter='BM_Throughput_Pass(100|50|10)/|BM_Throughput_Pass10_MetricsOverhead'
  pool_filter='BM_PoolExecutor_Filtering|BM_PoolExecutor_Ladder/(100|1000)/2|BM_PoolExecutor_LadderScaling'
  streaming_filter='BM_Stream(Latency|Ingest)_Pooled|BM_StreamIngest_(PooledBatch|Sim)'
  snapshot_filter='BM_Snapshot(Overhead|Latency)_Pooled'
  qos_filter='BM_QosInteractive_(Solo|Shared)'
fi

echo "==> bench_throughput -> BENCH_throughput.json"
"$build_dir/bench_throughput" "$context" \
    --benchmark_filter="$throughput_filter" \
    --benchmark_repetitions=5 \
    --benchmark_out=BENCH_throughput.json \
    --benchmark_out_format=json

echo "==> bench_pool_scaling -> BENCH_pool_scaling.json"
"$build_dir/bench_pool_scaling" "$context" \
    --benchmark_filter="$pool_filter" \
    --benchmark_repetitions=5 \
    --benchmark_out=BENCH_pool_scaling.json \
    --benchmark_out_format=json

# Annotate the scaling ladder: effective_parallelism (process CPU time /
# wall time) next to the runner's core count, so a BENCH_pool_scaling.json
# produced on a 1-cpu runner is visibly non-evidence of scaling rather than
# a silent flat line (tools/ci.sh --smoke asserts on these same counters
# when the runner has >= 4 cores), plus the 1000-node speedup from 1 to 4
# workers -- the throughput ratio, which, unlike effective_parallelism,
# does not count workers spinning on shared state as parallel work.
python3 - <<'PY'
import json
with open("BENCH_pool_scaling.json") as f:
    doc = json.load(f)
rows = [b for b in doc.get("benchmarks", [])
        if b.get("name", "").startswith("BM_PoolExecutor_LadderScaling")
        and b.get("aggregate_name") == "median"]
if rows:
    hw = int(rows[0].get("hardware_concurrency", 0))
    print(f"==> pool scaling ladder (runner has {hw} hardware thread(s)):")
    for b in rows:
        print(f"    {b['name']}: {b.get('items_per_second', 0):,.0f} items/s, "
              f"effective_parallelism={b.get('effective_parallelism', 0):.2f} "
              f"of {int(b.get('workers', 0))} workers")
    large = {int(b.get("workers", 0)): b for b in rows
             if "/1000/" in b["name"]}
    if 1 in large and 4 in large and large[1]["items_per_second"] > 0:
        speedup = (large[4]["items_per_second"] /
                   large[1]["items_per_second"])
        print(f"    1000-node, 1 -> 4 workers: speedup {speedup:.2f}x, "
              "effective_parallelism "
              f"{large[4].get('effective_parallelism', 0):.2f}")
    if hw < 4:
        print(f"    WARNING: {hw} hardware thread(s) < 4 -- these numbers "
              "cannot demonstrate scaling; run on a multi-core host")
PY

echo "==> bench_streaming_latency -> BENCH_streaming.json"
"$build_dir/bench_streaming_latency" "$context" \
    --benchmark_filter="$streaming_filter" \
    --benchmark_repetitions=5 \
    --benchmark_out=BENCH_streaming.json \
    --benchmark_out_format=json

echo "==> bench_snapshot -> BENCH_snapshot.json"
"$build_dir/bench_snapshot" "$context" \
    --benchmark_filter="$snapshot_filter" \
    --benchmark_out=BENCH_snapshot.json \
    --benchmark_out_format=json

echo "==> bench_qos_isolation -> BENCH_qos.json"
"$build_dir/bench_qos_isolation" "$context" \
    --benchmark_filter="$qos_filter" \
    --benchmark_repetitions=5 \
    --benchmark_out=BENCH_qos.json \
    --benchmark_out_format=json

# The isolation headline: shared-pool p99 as a multiple of solo p99
# (budget <= 5x). Like the scaling ladder above, a 1-cpu runner cannot
# demonstrate isolation -- every thread interferes with every other by
# construction -- so the ratio is printed but flagged as non-evidence
# below 4 hardware threads.
python3 - <<'PY'
import json
with open("BENCH_qos.json") as f:
    doc = json.load(f)
# With repetitions, read each benchmark's median row.
rows = {b["name"].split("/")[0]: b for b in doc.get("benchmarks", [])
        if b.get("aggregate_name") == "median"}
solo = rows.get("BM_QosInteractive_Solo")
shared = rows.get("BM_QosInteractive_Shared")
if solo and shared and solo.get("p99_ns", 0) > 0:
    ratio = shared["p99_ns"] / solo["p99_ns"]
    # bench_qos_isolation records no hardware_concurrency counter; the
    # runner's cpu count is in the context block.
    hw = int(doc.get("context", {}).get("num_cpus", 0))
    print(f"==> qos isolation: solo p99 {solo['p99_ns']:,.0f} ns, "
          f"shared p99 {shared['p99_ns']:,.0f} ns "
          f"(ratio {ratio:.2f}x, budget <= 5x)")
    if hw < 4:
        print(f"    WARNING: {hw} hardware thread(s) < 4 -- this ratio "
              "cannot demonstrate isolation; run on a multi-core host")
PY

echo "==> bench_ladder_scaling -> BENCH_compile.json"
"$build_dir/bench_ladder_scaling" "$context" \
    --benchmark_filter='BM_Compile_Ladder' \
    --benchmark_repetitions=5 \
    --benchmark_out=BENCH_compile.json \
    --benchmark_out_format=json

# The service bench goes over a real socket: every sample pays the framing,
# the poll loop and the session table, so it bounds what an in-process port
# push/poll pair costs once it is served. The connection ladder is the
# schema; only the per-connection item count shrinks in smoke mode.
service_items=20000
if [[ $smoke -eq 1 ]]; then service_items=2000; fi
service_sock="/tmp/sdaf_bench_$$.sock"
echo "==> sdafd + sdaf_loadgen -> BENCH_service.json"
"$build_dir/sdafd" --unix="$service_sock" &
service_pid=$!
trap 'kill -KILL $service_pid 2>/dev/null || true; rm -f "$service_sock"' EXIT
for _ in $(seq 1 50); do
  [[ -S "$service_sock" ]] && break
  sleep 0.1
done
[[ -S "$service_sock" ]] || { echo "error: sdafd never bound" >&2; exit 1; }
# --mix appends the two-tenant run (interactive RTT tenant vs batch
# saturator tenant, per-tenant p50/p99) as the "mix" object in the report.
"$build_dir/sdaf_loadgen" --unix="$service_sock" --connections=1,8,64 \
    --items="$service_items" --mix=2:2 --out=BENCH_service.json
kill -TERM "$service_pid"
wait "$service_pid"
trap - EXIT
rm -f "$service_sock"
# sdaf_loadgen writes its own schema; stamp it with the same context the
# google-benchmark files carry, as the second key (the rest stays as
# written, one run per line).
SDAF_COMMIT="$commit" SDAF_COMPILER="$compiler_id $compiler_version" \
SDAF_BUILD_TYPE="${build_type:-unknown}" SDAF_NPROC="$jobs" python3 - <<'PY'
import json, os
with open("BENCH_service.json") as f:
    text = f.read()
context = {"git_commit": os.environ["SDAF_COMMIT"],
           "compiler": os.environ["SDAF_COMPILER"],
           "cmake_build_type": os.environ["SDAF_BUILD_TYPE"],
           "nproc": os.environ["SDAF_NPROC"]}
head, sep, rest = text.partition("\n")
assert head == "{" and rest.lstrip().startswith('"schema"'), "unexpected layout"
schema_line, sep2, tail = rest.partition("\n")
text = (head + sep + schema_line + sep2 + '  "context": ' +
        json.dumps(context) + ",\n" + tail)
json.loads(text)  # still valid JSON
with open("BENCH_service.json", "w") as f:
    f.write(text)
PY

echo "==> bench OK"
