// Whole-system property tests: generate a small store, run the full
// measurement pipeline, and check the invariants that must hold for any
// seed — the paper's qualitative findings in miniature.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>

#include "core/analysis.hpp"
#include "core/attribution.hpp"
#include "orch/dispatcher.hpp"
#include "radar/corpus.hpp"
#include "store/generator.hpp"
#include "vtsim/categorizer.hpp"

namespace libspector {
namespace {

struct StudyOutcome {
  core::StudyAggregator study;
  std::size_t totalReports = 0;
  std::size_t totalFlows = 0;
};

StudyOutcome runStudy(std::size_t apps, std::uint64_t seed) {
  store::StoreConfig storeConfig;
  storeConfig.appCount = apps;
  storeConfig.seed = seed;
  storeConfig.methodScale = 0.05;
  const store::AppStoreGenerator generator(storeConfig);

  const radar::LibraryCorpus corpus = radar::LibraryCorpus::builtin();
  vtsim::DomainCategorizer categorizer(
      vtsim::defaultVendorPanel(),
      [&generator](const std::string& domain) { return generator.domainTruth(domain); });
  core::TrafficAttributor attributor(corpus, categorizer);

  StudyOutcome outcome;
  orch::DispatcherConfig config;
  config.workers = 4;
  orch::Dispatcher dispatcher(generator.farm(), nullptr, config);
  std::atomic<std::size_t> cursor{0};
  std::mutex foldMutex;
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
        const auto flows = attributor.attributeColumns(artifacts);
        const std::scoped_lock lock(foldMutex);
        outcome.totalReports += artifacts.reports.size();
        outcome.totalFlows += flows.size();
        outcome.study.addAppColumns(artifacts, flows);
      });
  return outcome;
}

class PipelineSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineSeedSweep, InvariantsHoldForAnySeed) {
  const auto outcome = runStudy(60, GetParam());
  const auto totals = outcome.study.totals();

  // Every reported socket becomes exactly one attributed flow.
  EXPECT_EQ(outcome.totalFlows, outcome.totalReports);
  EXPECT_EQ(totals.flowCount, outcome.totalFlows);
  EXPECT_EQ(totals.appCount, 60u);

  // Traffic exists and is receive-dominated (paper Fig. 4: everything
  // receives more than it sends).
  EXPECT_GT(totals.totalBytes, 0u);
  EXPECT_GT(totals.recvBytes, totals.sentBytes);

  // Study-wide entities are consistent.
  EXPECT_GT(totals.originLibraryCount, 0u);
  EXPECT_LE(totals.twoLevelLibraryCount, totals.originLibraryCount);
  EXPECT_GT(totals.domainCount, 0u);

  // Transfer shares sum to the total.
  std::uint64_t sumShares = 0;
  for (const auto& [category, bytes] : outcome.study.transferByLibCategory())
    sumShares += bytes;
  EXPECT_EQ(sumShares, totals.totalBytes);

  // Heatmap mass equals total mass.
  std::uint64_t heatmapMass = 0;
  for (const auto& [libCat, row] : outcome.study.libraryDomainHeatmap())
    for (const auto& [domCat, bytes] : row) heatmapMass += bytes;
  EXPECT_EQ(heatmapMass, totals.totalBytes);

  // Coverage is a ratio in (0, 1) on average.
  const auto coverage = outcome.study.coverageStats();
  EXPECT_GT(coverage.mean, 0.0);
  EXPECT_LT(coverage.mean, 0.7);

  // UDP (DNS) traffic is a sliver of the capture, as in §III-E.
  const auto& udp = outcome.study.udpStats();
  EXPECT_LT(static_cast<double>(udp.udpBytes),
            0.05 * static_cast<double>(udp.totalBytes));
  EXPECT_GT(udp.dnsBytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineSeedSweep,
                         ::testing::Values(1ULL, 77ULL, 20200629ULL));

TEST(PipelineTest, PaperShapesEmergeAtModerateScale) {
  const auto outcome = runStudy(250, 4242);
  const auto totals = outcome.study.totals();
  const auto byCategory = outcome.study.transferByLibCategory();
  const auto share = [&](const std::string& category) {
    const auto it = byCategory.find(category);
    return it == byCategory.end()
               ? 0.0
               : static_cast<double>(it->second) /
                     static_cast<double>(totals.totalBytes);
  };

  // i) advertisement libraries cause roughly a quarter of the traffic.
  EXPECT_GT(share("Advertisement"), 0.15);
  EXPECT_LT(share("Advertisement"), 0.45);
  // Development aid and first-party (Unknown) are the other heavyweights.
  EXPECT_GT(share("Development Aid"), 0.10);
  EXPECT_GT(share("Unknown"), 0.10);

  // ii) AnT prevalence: most apps have some AnT traffic, a large minority
  // have nothing else.
  const auto ant = outcome.study.antStats();
  const double someAnt = static_cast<double>(ant.someAntApps) /
                         static_cast<double>(ant.appsWithTraffic);
  const double antOnly = static_cast<double>(ant.antOnlyApps) /
                         static_cast<double>(ant.appsWithTraffic);
  EXPECT_GT(someAnt, 0.75);
  EXPECT_GT(antOnly, 0.20);
  EXPECT_LT(antOnly, 0.50);

  // AnT libraries are more download-aggressive than common libraries.
  EXPECT_GT(ant.antMeanFlowRatio, ant.clMeanFlowRatio);

  // iii) no 1-to-1 category correlation: advertisement libraries reach
  // at least four distinct destination categories.
  const auto& heatmap = outcome.study.libraryDomainHeatmap();
  ASSERT_TRUE(heatmap.contains("Advertisement"));
  EXPECT_GE(heatmap.at("Advertisement").size(), 4u);
  // ... including CDN traffic that a DNS-only classifier would mislabel.
  EXPECT_GT(outcome.study.knownLibraryCdnShare(), 0.05);

  // iv) method coverage lands near the paper's ~10%.
  EXPECT_NEAR(outcome.study.coverageStats().mean, 0.10, 0.05);
}

TEST(PipelineTest, StudyIsReproducible) {
  const auto a = runStudy(40, 9);
  const auto b = runStudy(40, 9);
  EXPECT_EQ(a.study.totals().totalBytes, b.study.totals().totalBytes);
  EXPECT_EQ(a.study.totals().flowCount, b.study.totals().flowCount);
  EXPECT_EQ(a.study.transferByLibCategory(), b.study.transferByLibCategory());
}

}  // namespace
}  // namespace libspector
