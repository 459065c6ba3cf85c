// Quickstart: run a small Libspector study end-to-end.
//
//   1. Generate a synthetic app-store world (apps, libraries, endpoints).
//   2. Dispatch every app to emulator workers: install, hook, monkey-
//      exercise, capture traffic, collect UDP context reports.
//   3. Attribute every socket to its origin-library and destination domain.
//   4. Print the §IV-A headline numbers.
//
// Usage: quickstart [apps] [workers]   (defaults: 300 apps, one worker per
//        hardware thread)
#include <atomic>
#include <cstdio>
#include <mutex>
#include <optional>

#include "core/analysis.hpp"
#include "core/attribution.hpp"
#include "orch/dispatcher.hpp"
#include "radar/corpus.hpp"
#include "store/generator.hpp"
#include "util/strings.hpp"
#include "vtsim/categorizer.hpp"

using namespace libspector;

int main(int argc, char** argv) {
  std::optional<std::uint64_t> apps = 300;
  std::optional<std::uint64_t> workers = 0;  // 0 = one per hardware thread
  if (argc > 1) apps = util::parseWholeNumber(argv[1]);
  if (argc > 2) workers = util::parseWholeNumber(argv[2]);
  if (argc > 3 || !apps || *apps == 0 || !workers) {
    std::fprintf(stderr, "usage: quickstart [apps>0] [workers]\n");
    return 2;
  }
  store::StoreConfig storeConfig;
  storeConfig.appCount = *apps;

  std::printf("Generating store world (%zu apps)...\n", storeConfig.appCount);
  store::AppStoreGenerator generator(storeConfig);
  std::printf("  %zu remote endpoints registered\n", generator.farm().endpointCount());

  // Offline-analysis machinery.
  const radar::LibraryCorpus corpus = radar::LibraryCorpus::builtin();
  vtsim::DomainCategorizer categorizer(
      vtsim::defaultVendorPanel(),
      [&generator](const std::string& domain) { return generator.domainTruth(domain); });
  core::TrafficAttributor attributor(corpus, categorizer);
  core::StudyAggregator study;
  std::mutex analysisMutex;

  // Dispatch.
  // Reports reach the analysis through each run's artifact bundle, so no
  // central collector is wired in.
  orch::DispatcherConfig dispatcherConfig;
  dispatcherConfig.workers = *workers;
  orch::Dispatcher dispatcher(generator.farm(), nullptr, dispatcherConfig);

  // Each worker claims the next index, expands and emulates it, then
  // attributes its own run; only the fold into the study is serialized.
  std::atomic<std::size_t> cursor{0};
  dispatcher.runConcurrent(
      [&]() -> std::optional<orch::Dispatcher::Job> {
        const std::size_t index = cursor.fetch_add(1);
        if (index >= generator.appCount()) return std::nullopt;
        auto job = generator.makeJob(index);
        return orch::Dispatcher::Job{.apk = std::move(job.apk),
                                     .program = std::move(job.program),
                                     .index = index};
      },
      [&](std::size_t, core::RunArtifacts&& artifacts) {
        const core::FlowColumns flows = attributor.attributeColumns(artifacts);
        const std::scoped_lock lock(analysisMutex);
        study.addAppColumns(artifacts, flows);
      });

  // Headline numbers (§IV-A).
  const auto totals = study.totals();
  std::printf("\n=== Study totals ===\n");
  std::printf("apps analyzed:        %zu\n", totals.appCount);
  std::printf("total transferred:    %s (sent %s / received %s)\n",
              util::humanBytes(static_cast<double>(totals.totalBytes)).c_str(),
              util::humanBytes(static_cast<double>(totals.sentBytes)).c_str(),
              util::humanBytes(static_cast<double>(totals.recvBytes)).c_str());
  std::printf("flows (sockets):      %zu\n", totals.flowCount);
  std::printf("origin-libraries:     %zu\n", totals.originLibraryCount);
  std::printf("2-level libraries:    %zu\n", totals.twoLevelLibraryCount);
  std::printf("DNS domains:          %zu\n", totals.domainCount);

  std::printf("\n=== Transfer share by origin-library category ===\n");
  const auto byCategory = study.transferByLibCategory();
  for (const auto& [category, bytes] : byCategory) {
    std::printf("  %-24s %6.2f%%  (%s)\n", category.c_str(),
                100.0 * static_cast<double>(bytes) / static_cast<double>(totals.totalBytes),
                util::humanBytes(static_cast<double>(bytes)).c_str());
  }

  const auto ant = study.antStats();
  std::printf("\n=== AnT prevalence ===\n");
  std::printf("apps with traffic:    %zu\n", ant.appsWithTraffic);
  std::printf("AnT-only apps:        %zu (%.1f%%)\n", ant.antOnlyApps,
              100.0 * static_cast<double>(ant.antOnlyApps) / static_cast<double>(ant.appsWithTraffic));
  std::printf("apps with AnT:        %zu (%.1f%%)\n", ant.someAntApps,
              100.0 * static_cast<double>(ant.someAntApps) / static_cast<double>(ant.appsWithTraffic));
  std::printf("AnT mean flow ratio:  %.1f   common-library: %.1f\n",
              ant.antMeanFlowRatio, ant.clMeanFlowRatio);

  const auto coverage = study.coverageStats();
  std::printf("\n=== Method coverage ===\n");
  std::printf("mean coverage:        %.2f%%\n", 100.0 * coverage.mean);
  std::printf("mean methods/apk:     %.0f\n", coverage.meanMethodsPerApk);

  const auto ratios = study.flowRatios(core::StudyAggregator::Entity::App);
  const auto libRatios = study.flowRatios(core::StudyAggregator::Entity::Library);
  const auto dnsRatios = study.flowRatios(core::StudyAggregator::Entity::Domain);
  std::printf("\n=== Mean transfer flow ratios (recv/sent) ===\n");
  std::printf("apps: %.1f   libraries: %.1f   domains: %.1f\n", ratios.mean,
              libRatios.mean, dnsRatios.mean);
  if (!ratios.ratios.empty()) {
    const auto& r = ratios.ratios;
    std::printf("app ratio percentiles: p50=%.1f p90=%.1f p99=%.1f max=%.1f\n",
                r[r.size() / 2], r[r.size() * 9 / 10], r[r.size() * 99 / 100],
                r.back());
  }

  std::printf("\nknown-library traffic landing on CDN domains: %.1f%%\n",
              100.0 * study.knownLibraryCdnShare());
  return 0;
}
