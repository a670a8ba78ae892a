#!/usr/bin/env bash
# Tier-1 CI entry point.
#
# Stage 1 (correctness): RelWithDebInfo build with hot-path checks ON
# and -DGLAP_WERROR=ON (src/, tools/, bench/, examples/ and tests/ build
# without a warning under -Wall -Wextra), full ctest suite. This is the
# gating tier-1 verify from ROADMAP.md.
#
# Stage 2 (performance): Release (-O3, NDEBUG) build with
# GLAP_ENABLE_CHECKS=OFF so benchmarks measure the unchecked per-round
# path. Runs bench/perf_baseline and prints its JSON line; compare
# against the committed BENCH_qtable.json at the repo root.
#
# Stage 3 (trace verify): glap-trace check over both committed golden
# 8-PM traces (JSONL and GTB) and a freshly generated canonical 150-PM
# GLAP trace; a deliberately corrupted copy must fail with exit code 1.
# (The lossless `glap-trace convert` round trip of every golden pair is a
# tier-1 test: TraceCli.ConvertTurnsEachGoldenIntoItsTwinByteForByte.)
# Also refreshes results/trace_stats.json via `glap-trace stats
# --results` so the docs drift stage covers the trace_stats block.
#
# Stage 4 (docs drift): reruns every bench that feeds a GENERATED block
# in EXPERIMENTS.md at the default 150-PM scale and fails with a diff if
# the committed tables don't match the regenerated ones byte-for-byte.
# Simulation results are a pure function of (config, seed), so this is
# host-independent; the throughput benches are not drift-checked.
#
# Stage 5 (trace overhead): bench/trace_overhead gates self-normalised
# ratios from one binary on one host: metrics + full JSONL tracing on vs
# off at 150 PMs, metrics on vs off at 1000 PMs, and sampled GTB vs
# tracing-off (speed and trace size) at 10k PMs with quiescence. No
# absolute throughput floor: host drift would swamp it.
#
# Stage 6 (thread safety, RUN_TSAN=1 by default; RUN_TSAN=0 skips it):
# ThreadSanitizer build running the full ctest suite. A simulation run is
# single-threaded (DESIGN.md §8); the only threads are the sweep pool's,
# which ctest drives through the thread-pool and run_cells tests.
#
# Stage 7 (lint): glap-lint scan over the checked-in tree must be clean.
# `--results` refreshes results/lint_stats.json and `graph --results`
# refreshes results/lint_graph.json; both feed GENERATED blocks in
# EXPERIMENTS.md, so this runs before the docs-drift stage. A header
# self-containment pass compiles every src/**/*.hpp standalone (the
# include-hygiene rule pins #pragma once; this pins the includes actually
# sufficing). If clang-tidy is installed, a bounded tidy pass
# (.clang-tidy: bugprone-*, performance-*, concurrency-*) runs over src/;
# absent clang-tidy the pass is skipped — glap-lint is the gating
# analyzer.
#
# Stage 8 (memory/UB safety, RUN_ASAN_UBSAN=1 by default;
# RUN_ASAN_UBSAN=0 skips it): combined AddressSanitizer +
# UndefinedBehaviorSanitizer build (UB reports are fatal via
# -fno-sanitize-recover=all) running the full ctest suite.
#
# Stage 9 (scale smoke): a 10k-PM GLAP run with quiescence enabled
# (DESIGN.md §12) must finish inside a wall-clock budget
# (SCALE_SMOKE_BUDGET_S, default 150 s — ~10x the reference container's
# time, so it only trips on real regressions), and its trace — including
# the activity park/wake events — must pass `glap-trace check`. A second,
# shorter run with --binary and --flight-dump verifies the always-on
# flight recorder leaves a parseable GTB post-mortem at the same scale.
# This is the cheap stand-in for the committed 1k/10k/100k sweep in
# BENCH_scale.json, which is multi-minute and ~3.6 GiB at the top cell
# and therefore not rerun by CI.
#
# Stage 10 (network smoke, RUN_NET_SMOKE=1 default): a 1k-PM GLAP run
# with the network model enabled at 1% loss (DESIGN.md §13) must emit
# "ev":"net" send/deliver/drop events and pass `glap-trace check`,
# which enforces the net-* invariants over the full message population:
# every send has exactly one deliver or drop, in its own round (a
# deliver with delay 0), and queue lines report a positive backlog.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

echo "== tier-1: RelWithDebInfo build + ctest =="
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGLAP_ENABLE_CHECKS=ON \
  -DGLAP_WERROR=ON
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== bench: Release -O3 build (checks off) =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release -DGLAP_ENABLE_CHECKS=OFF
cmake --build build-release -j "$JOBS"

if [[ "${RUN_LINT:-1}" == "1" ]]; then
  echo "== lint: glap-lint scan over the checked-in tree =="
  # --results refreshes results/lint_stats.json before the docs-drift
  # stage checks the lint_stats block in EXPERIMENTS.md.
  ./build-release/tools/glap-lint scan . --results
  # Mirror the module dependency graph for the docs-drift stage
  # (EXPERIMENTS.md embeds results/lint_graph.json's tables).
  ./build-release/tools/glap-lint graph . --results >/dev/null

  echo "== lint: header self-containment over src/**/*.hpp =="
  # Every project header must compile standalone: #pragma once plus a
  # complete include set. Catches headers that lean on their includers.
  while IFS= read -r hdr; do
    if ! echo "#include \"${hdr#src/}\"" | \
         g++ -std=c++20 -fsyntax-only -Isrc -x c++ - 2>/tmp/hdr_err.$$; then
      echo "header is not self-contained: $hdr" >&2
      cat /tmp/hdr_err.$$ >&2
      rm -f /tmp/hdr_err.$$
      exit 1
    fi
  done < <(find src -name '*.hpp' | sort)
  rm -f /tmp/hdr_err.$$
  echo "all src/ headers compile standalone"

  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== lint: bounded clang-tidy pass over src/ =="
    # Bounded: tidy only the protocol layers that carry the determinism
    # contract; glap-lint (above) covers the whole tree.
    find src/sim src/overlay src/core src/baselines -name '*.cpp' -print0 |
      xargs -0 -n 1 -P "$JOBS" clang-tidy -p build --quiet
  else
    echo "clang-tidy not installed; skipping tidy pass (glap-lint gates)"
  fi
fi

if [[ "${RUN_BENCH:-1}" == "1" ]]; then
  echo "== bench: perf_baseline =="
  ./build-release/bench/perf_baseline "ci-$(git rev-parse --short HEAD 2>/dev/null || echo local)"
fi

if [[ "${RUN_TRACE_VERIFY:-1}" == "1" ]]; then
  echo "== trace verify: glap-trace check over golden + fresh traces =="
  GLAP_TRACE=./build-release/tools/glap-trace
  "$GLAP_TRACE" check tests/integration/golden/trace_8pm.jsonl
  "$GLAP_TRACE" check tests/integration/golden/trace_8pm.gtb

  # Canonical 150-PM GLAP run (gen defaults): check it and refresh the
  # stats mirror that feeds the trace_stats block in EXPERIMENTS.md —
  # this runs before the docs-drift stage so --check sees fresh numbers.
  CI_TRACE=build-release/trace_ci.jsonl
  "$GLAP_TRACE" gen "$CI_TRACE"
  "$GLAP_TRACE" check "$CI_TRACE"
  "$GLAP_TRACE" stats "$CI_TRACE" --results

  # A deliberately corrupted copy (every migration redirected onto its
  # source PM) must fail the check with exit code 1, not 0 or 2.
  sed -E 's/"from":([0-9]+),"to":[0-9]+/"from":\1,"to":\1/' \
    "$CI_TRACE" > "$CI_TRACE.corrupt"
  corrupt_status=0
  "$GLAP_TRACE" check "$CI_TRACE.corrupt" 2>/dev/null || corrupt_status=$?
  if [[ "$corrupt_status" != "1" ]]; then
    echo "glap-trace check exited $corrupt_status on a corrupted trace" \
         "(want 1: violations found)" >&2
    exit 1
  fi
  echo "corrupted trace rejected as expected"
  rm -f "$CI_TRACE" "$CI_TRACE.corrupt"
fi

if [[ "${RUN_SCALE_SMOKE:-1}" == "1" ]]; then
  echo "== scale smoke: 10k-PM quiescence run + trace check =="
  GLAP_TRACE=./build-release/tools/glap-trace
  SMOKE_TRACE=build-release/trace_scale_smoke.jsonl
  SMOKE_BUDGET_S="${SCALE_SMOKE_BUDGET_S:-150}"
  smoke_start=$(date +%s)
  "$GLAP_TRACE" gen "$SMOKE_TRACE" --pms 10000 --warmup 40 --rounds 40 \
    --quiesce
  smoke_elapsed=$(( $(date +%s) - smoke_start ))
  if (( smoke_elapsed > SMOKE_BUDGET_S )); then
    echo "scale smoke took ${smoke_elapsed}s (budget ${SMOKE_BUDGET_S}s):" \
         "the round loop has regressed at 10k PMs" >&2
    exit 1
  fi
  echo "scale smoke finished in ${smoke_elapsed}s (budget ${SMOKE_BUDGET_S}s)"
  # The smoke trace carries the quiescence activity events, so this also
  # verifies the park/wake invariants (activity-reason, alternation,
  # park-off-pm) at a scale the unit fixtures don't reach.
  "$GLAP_TRACE" check "$SMOKE_TRACE"

  # The always-on flight recorder rides along on the same scale: force an
  # end-of-run dump and require that the ring parses as a GTB trace
  # (`stats`, not `check` — a dump starts mid-run, so the whole-trace
  # invariants don't apply). The dump is what a crashed run would leave.
  FLIGHT_DUMP=build-release/flight_scale_smoke.gtb
  "$GLAP_TRACE" gen "$SMOKE_TRACE" --pms 10000 --warmup 40 --rounds 8 \
    --quiesce --binary --flight-dump "$FLIGHT_DUMP"
  "$GLAP_TRACE" stats "$FLIGHT_DUMP" >/dev/null
  echo "flight dump parsed cleanly ($(stat -c %s "$FLIGHT_DUMP") bytes)"
  rm -f "$SMOKE_TRACE" "$FLIGHT_DUMP"
fi

if [[ "${RUN_NET_SMOKE:-1}" == "1" ]]; then
  echo "== network smoke: 1k-PM run with 1% loss + trace check =="
  GLAP_TRACE=./build-release/tools/glap-trace
  NET_TRACE=build-release/trace_net_smoke.jsonl
  "$GLAP_TRACE" gen "$NET_TRACE" --pms 1000 --warmup 40 --rounds 40 \
    --net --loss 1
  # The run must actually exercise the model: sends, deliveries, and
  # loss drops all have to appear before the invariant check means much.
  for op in '"op":"send"' '"op":"deliver"' '"reason":"loss"'; do
    if ! grep -q '"ev":"net".*'"$op" "$NET_TRACE"; then
      echo "network smoke trace has no $op events" >&2
      exit 1
    fi
  done
  "$GLAP_TRACE" check "$NET_TRACE"
  rm -f "$NET_TRACE"
fi

if [[ "${RUN_DOCS_DRIFT:-1}" == "1" ]]; then
  echo "== docs drift: regenerate EXPERIMENTS.md tables and compare =="
  python3 scripts/regen_experiments.py --build-dir build-release --check
  python3 scripts/regen_experiments.py --update-test-count build
  if ! git diff --quiet -- README.md 2>/dev/null; then
    echo "README.md test count is stale; commit the update" >&2
    git --no-pager diff -- README.md >&2
    exit 1
  fi
fi

if [[ "${RUN_TRACE_SMOKE:-1}" == "1" ]]; then
  echo "== trace overhead: observability on/off ratio gates =="
  ./build-release/bench/trace_overhead
fi

if [[ "${RUN_TSAN:-1}" == "1" ]]; then
  echo "== tsan: ThreadSanitizer build + ctest =="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DGLAP_TSAN=ON -DGLAP_ENABLE_CHECKS=ON
  cmake --build build-tsan -j "$JOBS"
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS"
fi

if [[ "${RUN_ASAN_UBSAN:-1}" == "1" ]]; then
  echo "== asan-ubsan: Address+UB sanitizer build + ctest =="
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DGLAP_ASAN=ON -DGLAP_UBSAN=ON -DGLAP_ENABLE_CHECKS=ON
  cmake --build build-asan -j "$JOBS"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"
fi
