// The paper's full measurement campaign (§III–§IV), configurable up to the
// 25,000-app population. Prints every headline result in one pass:
// §IV-A totals and category shares, AnT prevalence, flow ratios, Fig. 9's
// correlation takeaway, §IV-C coverage, and the §IV-D cost table.
//
// Usage: large_scale_study [apps] [workers] [methodScale] [csvDir]
//   large_scale_study 25000 0 1.0          # full population, full-size dex
//   large_scale_study 2500 0 0.15 out/     # also export figure CSVs
// A csvDir that cannot be written prints `large_scale_study: <reason>` and
// exits 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>

#include "core/analysis.hpp"
#include "core/cost.hpp"
#include "core/export.hpp"
#include "orch/study.hpp"
#include "store/generator.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

using namespace libspector;

namespace {

/// `text` as a positive finite number when it is nothing else.
std::optional<double> parseScale(const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value) || value <= 0)
    return std::nullopt;
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  store::StoreConfig storeConfig;
  std::optional<std::uint64_t> apps = 2500;
  std::optional<std::uint64_t> workers = 0;  // 0 = one per hardware thread
  std::optional<double> methodScale = storeConfig.methodScale;
  if (argc > 1) apps = util::parseWholeNumber(argv[1]);
  if (argc > 2) workers = util::parseWholeNumber(argv[2]);
  if (argc > 3) methodScale = parseScale(argv[3]);
  if (argc > 5 || !apps || *apps == 0 || !workers || !methodScale) {
    std::fprintf(stderr,
                 "usage: large_scale_study [apps>0] [workers] "
                 "[methodScale>0] [csvDir]\n");
    return 2;
  }
  storeConfig.appCount = *apps;
  storeConfig.methodScale = *methodScale;
  const char* csvDir = argc > 4 ? argv[4] : nullptr;

  util::setLogLevel(util::LogLevel::Info);
  std::printf("Libspector large-scale study: %zu apps (method scale %.2f)\n",
              storeConfig.appCount, storeConfig.methodScale);

  const store::AppStoreGenerator generator(storeConfig);
  std::printf("world: %zu remote endpoints; repository holds %zu packages "
              "(%zu rejected by the §III-A x86 filter)\n\n",
              generator.farm().endpointCount(), generator.repository().size(),
              generator.repository().size() - generator.appCount());

  // runStudy attributes on the worker fleet and folds results in dispatch
  // order, so the numbers below are byte-identical at any worker count.
  orch::DispatcherConfig dispatcherConfig;
  dispatcherConfig.workers = *workers;
  const orch::StudyOutput output = orch::runStudy(generator, dispatcherConfig);
  const core::StudyAggregator& study = output.study;

  const auto totals = study.totals();
  std::printf("== Totals (§IV-A) ==\n");
  std::printf("transferred %s (received %s / sent %s) over %zu flows\n",
              util::humanBytes(static_cast<double>(totals.totalBytes)).c_str(),
              util::humanBytes(static_cast<double>(totals.recvBytes)).c_str(),
              util::humanBytes(static_cast<double>(totals.sentBytes)).c_str(),
              totals.flowCount);
  std::printf("%zu origin-libraries, %zu 2-level libraries, %zu DNS domains\n\n",
              totals.originLibraryCount, totals.twoLevelLibraryCount,
              totals.domainCount);

  std::printf("== Transfer share by origin-library category (Fig. 2 legend) ==\n");
  for (const auto& [category, bytes] : study.transferByLibCategory())
    std::printf("  %-24s %6.2f%%\n", category.c_str(),
                100.0 * static_cast<double>(bytes) /
                    static_cast<double>(totals.totalBytes));

  std::printf("\n== Top origin-libraries (Fig. 3) ==\n");
  for (const auto& entry : study.topOriginLibraries(10))
    std::printf("  %-44s %10s\n", entry.name.c_str(),
                util::humanBytes(static_cast<double>(entry.bytes)).c_str());

  const auto ant = study.antStats();
  std::printf("\n== AnT prevalence (Fig. 6) ==\n");
  std::printf("  %.1f%% of apps AnT-only, %.1f%% with some AnT, AnT/CL "
              "aggressiveness %.2fx\n",
              100.0 * static_cast<double>(ant.antOnlyApps) /
                  static_cast<double>(ant.appsWithTraffic),
              100.0 * static_cast<double>(ant.someAntApps) /
                  static_cast<double>(ant.appsWithTraffic),
              ant.clMeanFlowRatio > 0 ? ant.antMeanFlowRatio / ant.clMeanFlowRatio
                                      : 0.0);

  const auto appRatios = study.flowRatios(core::StudyAggregator::Entity::App);
  const auto libRatios = study.flowRatios(core::StudyAggregator::Entity::Library);
  const auto dnsRatios = study.flowRatios(core::StudyAggregator::Entity::Domain);
  std::printf("\n== Flow ratios (Fig. 5): apps %.0fx, libraries %.0fx, domains %.0fx ==\n",
              appRatios.mean, libRatios.mean, dnsRatios.mean);

  std::printf("\n== Context vs endpoints (Fig. 9 / §IV-E) ==\n");
  std::printf("  known-library traffic landing on CDN domains: %.1f%%\n",
              100.0 * study.knownLibraryCdnShare());

  const auto coverage = study.coverageStats();
  std::printf("\n== Coverage (§IV-C): mean %.2f%%, %.0f methods/apk ==\n",
              100.0 * coverage.mean, coverage.meanMethodsPerApk);

  std::printf("\n== User cost (§IV-D) ==\n");
  const core::CostModel cost(core::DataPlanModel{}, core::EnergyModel{}, 8.0);
  for (const char* category :
       {"Advertisement", "Mobile Analytics", "Game Engine"}) {
    const auto estimate = cost.estimate(study.meanBytesPerRun(category));
    std::printf("  %-18s %8s/run -> $%.2f/hour, %.1f%% battery\n", category,
                util::humanBytes(estimate.bytesPerRun).c_str(),
                estimate.usdPerHour, 100.0 * estimate.batteryFraction);
  }
  if (csvDir != nullptr) {
    try {
      const std::size_t files = core::exportStudyCsv(study, csvDir);
      std::printf("\nwrote %zu figure CSVs to %s\n", files, csvDir);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "large_scale_study: %s\n", error.what());
      return 1;
    }
  }
  return 0;
}
