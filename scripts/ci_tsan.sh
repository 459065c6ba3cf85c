#!/usr/bin/env bash
# TSan CI lane: build the concurrent subsystems under ThreadSanitizer and
# run the tests that exercise them — the ingest tier (the sharded router,
# its checkpoint hook and the run callbacks that attribute on every
# shard's thread, chaos channel, v3 dictionary path), the dispatcher fleet
# (whose workers call their job source concurrently: the study's and the
# spectord collector's cursor claims, the collector's jobLimit under
# concurrent claims), the checkpoint recovery scan (bundle-decode threads
# claiming paths from one cursor, each writing its own verdict slot,
# joined before the verdicts are applied in path order), the
# lock-free-read symbol pool, the shared compiled attribution program +
# columnar fold that concurrent shard workers run through, and the
# spectord daemon (event loop vs. client threads vs. shard consumers
# building each run's delta vs. a thread copying the daemon's dashboard
# view while runs land, plus the multi-collector runCollector path and
# the one ingest client — reconnect/resume under BreakerEndpoint kills
# runs client threads against breaker pump threads against the daemon
# loop, and flush and waitAckedFrames sleep on the connection with the
# client lock released while other threads report), and the scenario
# conformance matrix
# (golden-pinned studies at 0/1/2/8 workers and 1/2/4 collectors with the
# keep-alive/adversarial/background-sync flags on). A data race here
# corrupts studies silently, so this lane gates every change to the
# streaming path.
#
# Usage: scripts/ci_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

# A fresh build directory gets Ninja when it is installed: the Makefile
# generator's top-level Makefile is .NOTPARALLEL, so `--target a b c`
# would compile the test targets one at a time. An existing directory
# keeps the generator it was configured with.
GENERATOR=()
if [[ ! -f "$BUILD_DIR/CMakeCache.txt" ]] && command -v ninja >/dev/null; then
  GENERATOR=(-G Ninja)
fi

cmake -B "$BUILD_DIR" -S . "${GENERATOR[@]}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DLIBSPECTOR_SANITIZE=thread

# The concurrent-subsystem test binaries (kept explicit so the lane stays
# fast as the tree grows; extend when a new subsystem goes multi-threaded).
TARGETS=(
  ingest_router_test
  ingest_pipeline_test
  ingest_stress_test
  ingest_dict_test
  dispatcher_test
  study_test
  recovery_test
  generation_determinism_test
  symbol_pool_test
  attribution_program_test
  flow_columns_test
  spectord_protocol_test
  spectord_daemon_test
  spectord_cluster_test
  spectord_fuzz_test
  spectord_resilient_test
  spectord_chaos_cluster_test
  scenario_matrix_test
)
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${TARGETS[@]}"

# halt_on_error: a single race fails the lane; second_deadlock_stack helps
# diagnose lock-order findings in the shard consumers.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"

(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)" \
  -R 'Ingest|Dispatcher|StudyRunner|Recovery|Determinism|Symbol|Interning|AttributionProgram|FlowColumns|Spectord|Reconnector|ScenarioMatrix')

echo "TSan lane: OK"
