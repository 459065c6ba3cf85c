// Shared harness for the table/figure regeneration benches: runs one full
// Libspector study (generate world -> dispatch emulators -> attribute ->
// aggregate) and exposes the aggregator plus formatting helpers.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "core/analysis.hpp"
#include "store/generator.hpp"

namespace libspector::bench {

struct StudyOptions {
  std::size_t appCount = 400;
  std::uint64_t seed = 20200629;
  double methodScale = 0.15;
  std::uint32_t monkeyEvents = 1000;
  std::uint32_t throttleMs = 500;
  /// §14 workload scenarios, threaded into both the store generator and the
  /// emulator runtime (all off = the legacy corpus).
  rt::ScenarioConfig scenarios;
};

/// Parse `argv[1]` as an app count override (the only knob benches take)
/// and the `LIBSPECTOR_SEED` environment variable as a seed override. Each
/// must be a whole decimal number (apps >= 1) with nothing after it; on a
/// bad value or a second argument, prints `usage: <name> [apps>0] ...` and
/// exits with status 2.
[[nodiscard]] StudyOptions optionsFromArgs(int argc, char** argv,
                                           StudyOptions defaults = {});

struct StudyResult {
  core::StudyAggregator study;
  std::unique_ptr<store::AppStoreGenerator> generator;
  double wallSeconds = 0.0;
};

/// Run the full pipeline over a generated corpus.
[[nodiscard]] StudyResult runStudy(const StudyOptions& options);

/// "1.59 GB"-style formatting plus fixed-width percentage helpers.
[[nodiscard]] std::string bytesStr(double bytes);
void printHeader(const std::string& title, const StudyOptions& options);

}  // namespace libspector::bench
