#!/usr/bin/env bash
# ASan + UBSan CI lane: build the decoder, crash-recovery and attribution
# suites with AddressSanitizer and UndefinedBehaviorSanitizer and run them.
# The fuzzers feed the wire, .spab and elision decoders hostile bytes; the
# envelope decoder, the one reader of bundles on disk, has its own
# round-trip and corruption suite; the recovery sweep truncates and
# corrupts bundles mid-write; the symbol pool hands out pointers into
# chunked storage; an apk's dex content is one byte image read through
# tables of offsets, which the writer, the generator, the supervisor's
# frame index and the monitor's coverage all do arithmetic on; the
# SHA-extension digest kernel makes 16-byte loads from
# caller buffers at any alignment; the slicing-by-8 crc32 kernel reads
# eight bytes per step up to the end of its buffer; the method tracer
# keeps per-id slots and views into its own map; an app program keeps
# every signature in one arena that regrows under the views it hands out
# (program_test); the capture index groups, orders and sums a capture's
# packets in one flat table it answers every query from by offset, and
# owns it past the capture's end (capture_index_test, capture_test); the
# attribution, fold and ingest suites drive the
# dense id-indexed accumulators, where an out-of-range id is a silent
# heap overrun in a release build; the
# router's one fold path parks frames whose signature ids are not yet
# defined and repairs them later (ingest_dict_test); and the cluster
# suites drive the checkpoint protocol's kill points through
# mergeStudies (spectord_cluster_test, spectord_chaos_cluster_test); the
# protocol suite round-trips and truncates every typed body, and the
# daemon and ingest-client suites (spectord_daemon_test,
# spectord_resilient_test) drive the one ingest client's frame and run
# tails through scripted connection kills.
#
# Usage: scripts/ci_asan.sh [build-dir]   (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

# A fresh build directory gets Ninja when it is installed: the Makefile
# generator's top-level Makefile is .NOTPARALLEL, so `--target a b c`
# would compile the test targets one at a time. An existing directory
# keeps the generator it was configured with.
GENERATOR=()
if [[ ! -f "$BUILD_DIR/CMakeCache.txt" ]] && command -v ninja >/dev/null; then
  GENERATOR=(-G Ninja)
fi

# LIBSPECTOR_SANITIZE=address enables both -fsanitize=address and
# -fsanitize=undefined (see CMakeLists.txt). _GLIBCXX_ASSERTIONS adds
# bounds checks to standard containers, which catch an out-of-range index
# that still lands inside a vector's capacity, where ASan sees no overrun.
cmake -B "$BUILD_DIR" -S . "${GENERATOR[@]}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DLIBSPECTOR_SANITIZE=address \
  -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS

TARGETS=(
  sha256_test
  bytes_test
  tracer_test
  interpreter_test
  program_test
  capture_test
  capture_index_test
  fuzz_decoders_test
  spectord_fuzz_test
  spectord_protocol_test
  fuzz_elision_test
  report_test
  ingest_router_test
  ingest_dict_test
  artifacts_test
  recovery_test
  symbol_pool_test
  apk_test
  generator_test
  attribution_test
  analysis_test
  export_test
  accumulator_test
  flow_columns_test
  disassembler_test
  monitor_test
  supervisor_test
  engine_test
  emulator_test
  dispatcher_test
  default_wire_test
  study_test
  generation_determinism_test
  ingest_pipeline_test
  ingest_stress_test
  spectord_daemon_test
  spectord_resilient_test
  spectord_cluster_test
  spectord_chaos_cluster_test
  pipeline_test
  scenario_matrix_test
)
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${TARGETS[@]}"

# Any report fails the lane: ASan aborts on its first error by default,
# and halt_on_error makes UBSan's recoverable checks abort too.
export ASAN_OPTIONS="abort_on_error=1 detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1"

for target in "${TARGETS[@]}"; do
  echo "== $target"
  "$BUILD_DIR/tests/$target" --gtest_brief=1
done

echo "ASan/UBSan lane: OK"
