#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite from a
# clean tree, then repeat under AddressSanitizer and run the concurrency
# suites under ThreadSanitizer. Usage:
#   ci/verify.sh          # tier-1 + ASan + TSan
#   ci/verify.sh --fast   # tier-1 only
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"

run_suite() {
  local build_dir="$1"; shift
  cmake -B "$build_dir" -S . "$@"
  cmake --build "$build_dir" -j "$JOBS"
  ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS"
}

echo "=== docs: dead links + knob/metric coverage ==="
ci/check_docs.sh

echo "=== tier-1: release build + ctest ==="
run_suite build

echo "=== perfbench: standalone build of the end-to-end harness ==="
# The benchmark harness compiles the engine sources with its own
# CMakeLists; an engine API change that breaks bench_e2e.cc fails here.
cmake -S perfbench -B build-perfbench
cmake --build build-perfbench -j "$JOBS"

echo "=== trace pipeline: traced smoke run + export validation ==="
# Runs the pull-model host+satellite smoke with tracing on, then
# validates the Chrome JSON (well-formed, monotonic per tid, all five
# instrumented layers present, query ids correlated) and the per-query
# sharing-explain dump.
ci/check_trace.sh build

echo "=== admin server: every endpoint over live HTTP ==="
# Boots the smoke workload with the embedded admin server on an
# ephemeral port, fetches every endpoint, and validates /metrics against
# the Prometheus grammar (tools/prom_check) and /trace with
# tools/trace_check; deep endpoints are scraped mid-flight.
ci/check_admin.sh build

echo "=== spill ablation (smoke) -> BENCH_spill.json ==="
# A small sweep so every verify run records spill-regime numbers; the
# perf trajectory lives in BENCH_spill.json (budget x slow-reader lag,
# plus the async spill-write independence sweep).
SHARING_BENCH_SF=0.05 SHARING_BENCH_JSON=BENCH_spill.json \
  ./build/bench_ablation_spill

echo "=== io scheduler ablation (smoke) -> BENCH_io.json ==="
# io_threads x read latency on the disk-resident spill regime (append
# wall must stay flat while drain pays the read model), then the disk
# model's modeled vs observed read p50/p99, recorded and not gated.
SHARING_BENCH_SF=0.1 SHARING_BENCH_JSON=BENCH_io.json \
  ./build/bench_ablation_io

echo "=== adaptive admission ablation (smoke) -> BENCH_adaptive.json ==="
# Hot/cold mix under the four static modes, then the heterogeneous-
# signature sweep: the per-signature cost model must choose different
# transports for the skinny vs fat templates on ONE stage (the binary
# exits nonzero if the decisions do not diverge).
SHARING_BENCH_SF=0.02 SHARING_BENCH_JSON=BENCH_adaptive.json \
  ./build/bench_ablation_adaptive

echo "=== contention ablation (smoke) -> BENCH_contention.json ==="
# One producer x 1..32 pull readers, resident + spill-pressure configs.
# The binary exits nonzero unless the 16-reader aggregate is >= 4x the
# single-reader aggregate, the producer's per-append CPU p99 stays
# within 2x at 32 readers (the lock-free SPL hot-path gates), and 10 Hz
# /metrics scrapes keep >= 95% of the 16-reader aggregate (median of 9
# interleaved pairs of 1 s windows).
SHARING_BENCH_SF=0.25 SHARING_BENCH_JSON=BENCH_contention.json \
  ./build/bench_ablation_contention

echo "=== fault ablation (smoke) -> BENCH_faults.json ==="
# Disarmed fault checks ride the page-append hot path; the binary exits
# nonzero if the disarmed probe adds >= 2% to a realistic append loop.
SHARING_BENCH_JSON=BENCH_faults.json ./build/bench_ablation_faults

echo "=== operator kernels (smoke) -> BENCH_kernels.json ==="
# Rows/s of the page-at-a-time kernels on memory-resident lineitem:
# scan+filter, hash-join build and probe, hash aggregate on Q1 (4 groups)
# and on l_orderkey (high cardinality); also prints tracing overhead on
# a shared scan.
SHARING_BENCH_SF=0.01 SHARING_BENCH_JSON=BENCH_kernels.json \
  ./build/bench_micro_scans

echo "=== paper scenarios I-IV (smoke) -> BENCH_scenarios.json ==="
# The paper's four experiments: push vs pull SP (with the FIFO-capacity
# sweep), then SP vs GQP across clients, selectivity and plan
# similarity. Every curve is the median of 3 interleaved trials, and
# every shape claim is a recorded reproduced=true/false row. The binary
# exits nonzero only if a gated row fails: pull copies nothing, push
# copies once per satellite, and gqp+sp admits fewer queries at 1 plan
# in batched admission passes. Wall-time claims are recorded, not gated.
SHARING_BENCH_SECONDS=0.3 SHARING_BENCH_JSON=BENCH_scenarios.json \
  ./build/bench_scenarios

echo "=== bench trajectory -> BENCH_trajectory.json ==="
# Folds the sweeps above into the headline numbers a regression diff
# tracks across PRs (16-reader aggregate, adaptive divergence, drain
# wall, retained-vs-budget, admin-scrape ratio, kernel rows/s, Scenario
# II 64-client qps, and every scenario shape verdict).
./build/bench_trajectory BENCH_trajectory.json \
  BENCH_contention.json BENCH_adaptive.json BENCH_io.json BENCH_spill.json \
  BENCH_kernels.json BENCH_scenarios.json

if [[ "${1:-}" != "--fast" ]]; then
  echo "=== tier-1 under AddressSanitizer ==="
  run_suite build-asan -DSHARING_ASAN=ON

  echo "=== chaos: seeded fault schedules over SSB under ASan ==="
  # Fixed seed 42 plus one logged random seed; every query must end in
  # OK/Aborted/DeadlineExceeded or an injected error, OK rows must match
  # the unfaulted reference, and host-kill rounds must produce satellite
  # re-runs.
  ci/check_chaos.sh build-asan

  echo "=== concurrency suites under ThreadSanitizer ==="
  # The sharing hot path is lock-free by design; TSan proves the seqlock
  # publication, parking handshake, and spill-install races are sound.
  # Scoped to the concurrency-heavy suites — the full matrix under TSan
  # would dominate verify wall time without exercising new interleavings.
  cmake -B build-tsan -S . -DSHARING_TSAN=ON
  cmake --build build-tsan -j "$JOBS"
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
    -R 'SharingChannelTest|PushChannelTest|PullChannelTest|SpillChannelTest|SplContentionTest|BatchPipeTest|SplTest|FifoBufferTest|AsyncSpillTest|SpillEngineTest|SpBudgetGovernorTest|IoSchedulerTest|BufferPoolTest|CircularScanTest|LoopingScanTest|CircularScanPrefetchTest|CJoinTest|CJoinPrefetchTest|TraceTest|AdminServerTest|AdminEngineTest|WatchdogTest|MetricsFormatTest|FaultRegistryTest|DeadlineTest|CancelRaceTest'

  echo "=== SPL contention stress, repeated under ThreadSanitizer ==="
  # One ctest pass can miss a rare interleaving between the lock-free
  # slot read and the spill install; repeat the stress suite so a race
  # there fails verify instead of surfacing once in a while.
  build-tsan/sharing_channel_test --gtest_filter='SplContentionTest.*' \
    --gtest_repeat=20

  echo "=== query-stop wait, repeated under ThreadSanitizer ==="
  # Parked SPL readers and blocked FIFO consumers observe a deadline or
  # cancel through WaitUnlessStopped (DESIGN.md #23); repeat the suites
  # that stop readers mid-park and race cancels against the park.
  build-tsan/deadline_test --gtest_repeat=10
  build-tsan/cancel_race_test --gtest_repeat=10

  echo "=== circular-scan claim protocol, repeated under ThreadSanitizer ==="
  # Both circular scans are driven by their consumers (DESIGN.md #22): a
  # QPipe ticket claims and fans out pages on its own thread, and the
  # CJOIN workers admit and claim under the pipeline mutex. Repeat the
  # suites that race claims, cancels and departures. The three loops are
  # independent and mostly single-threaded, so they run side by side.
  build-tsan/storage_test \
    --gtest_filter='CircularScanTest.*:LoopingScanTest.*' --gtest_repeat=20 &
  scan_loop=$!
  build-tsan/io_scheduler_test --gtest_filter='CircularScanPrefetchTest.*' \
    --gtest_repeat=20 &
  prefetch_loop=$!
  build-tsan/cjoin_test --gtest_filter='CJoinTest.*' --gtest_repeat=5
  wait "$scan_loop"
  wait "$prefetch_loop"
fi

echo "verify: OK"
