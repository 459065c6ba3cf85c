// End-to-end acceptance of the streaming ingest tier: real emulator runs
// whose framed supervisor datagrams cross a seeded lossy/duplicating/
// reordering channel into a ShardedIngest whose run callback attributes
// each run on its shard, as orch::runStudy's and spectord's do. The router
// must account the channel's damage *exactly* per apk, attribution of what
// was delivered must match the batch pipeline run over the same delivered
// reports, and a run whose checkpoint throws must be folded nowhere.
#include "ingest/router.hpp"

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis.hpp"
#include "core/attribution.hpp"
#include "ingest/chaos.hpp"
#include "orch/emulator.hpp"
#include "radar/corpus.hpp"
#include "store/generator.hpp"
#include "vtsim/categorizer.hpp"

namespace libspector::ingest {
namespace {

class IngestPipelineTest : public ::testing::Test {
 protected:
  IngestPipelineTest()
      : generator_(storeConfig()),
        corpus_(radar::LibraryCorpus::builtin()),
        categorizer_(vtsim::defaultVendorPanel(),
                     [this](const std::string& domain) {
                       return generator_.domainTruth(domain);
                     }),
        attributor_(corpus_, categorizer_) {}

  static store::StoreConfig storeConfig() {
    store::StoreConfig config;
    config.appCount = 8;
    config.seed = 42;
    config.methodScale = 0.05;
    return config;
  }

  core::RunArtifacts runApp(std::size_t index, ReportSink* collector) {
    orch::EmulatorConfig config;
    config.monkey.events = 80;
    config.monkey.throttleMs = 50;
    config.seed = 1000 + index;
    config.workerId = static_cast<std::uint32_t>(index);
    orch::EmulatorInstance emulator(generator_.farm(), collector, config);
    const auto job = generator_.makeJob(index);
    return emulator.run(job.apk, job.program);
  }

  store::AppStoreGenerator generator_;
  radar::LibraryCorpus corpus_;
  vtsim::DomainCategorizer categorizer_;
  core::TrafficAttributor attributor_;
};

TEST_F(IngestPipelineTest, AccountsAFaultyChannelExactlyPerApk) {
  IngestConfig ingestConfig;
  ingestConfig.shards = 3;
  std::mutex accountsMutex;  // the callback runs on every shard's consumer
  std::map<std::string, ApkLossAccount> accounts;
  ShardedIngest ingest(ingestConfig, [&](RunDelivery&& delivery) {
    (void)attributor_.attributeColumns(delivery.artifacts);
    const std::scoped_lock lock(accountsMutex);
    accounts[delivery.artifacts.apkSha256] = delivery.account;
  });
  ChaosConfig chaosConfig;
  chaosConfig.lossProb = 0.05;
  chaosConfig.dupProb = 0.05;
  chaosConfig.reorderWindow = 4;
  chaosConfig.seed = 7;
  ChaosChannel chaos(ingest, chaosConfig);

  struct Expected {
    std::string sha;
    std::uint64_t emitted = 0;
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
  };
  std::vector<Expected> expected;
  std::uint64_t totalEmitted = 0;

  for (std::size_t i = 0; i < generator_.appCount(); ++i) {
    const std::uint64_t droppedBefore = chaos.dropped();
    const std::uint64_t duplicatedBefore = chaos.duplicated();
    auto artifacts = runApp(i, &chaos);
    chaos.flush();  // release anything still in the reorder buffer
    Expected e;
    e.sha = artifacts.apkSha256;
    e.emitted = artifacts.reportsEmitted;
    e.dropped = chaos.dropped() - droppedBefore;
    e.duplicated = chaos.duplicated() - duplicatedBefore;
    totalEmitted += e.emitted;
    expected.push_back(e);
    ingest.submitRun(i, std::move(artifacts));
    ingest.drain();  // finalize before the next run reuses the channel
  }

  ASSERT_EQ(accounts.size(), expected.size());
  std::uint64_t totalLost = 0;
  bool anyDamage = false;
  for (const auto& e : expected) {
    ASSERT_TRUE(accounts.contains(e.sha)) << e.sha;
    const auto& account = accounts.at(e.sha);
    // The chaos channel's per-run counter deltas are ground truth; the
    // ingest tier must reconstruct them exactly from the wire.
    EXPECT_EQ(account.reportsEmitted, e.emitted) << e.sha;
    EXPECT_EQ(account.lost, e.dropped) << e.sha;
    EXPECT_EQ(account.duplicated, e.duplicated) << e.sha;
    EXPECT_EQ(account.uniqueDelivered, e.emitted - e.dropped) << e.sha;
    totalLost += account.lost;
    anyDamage = anyDamage || account.lost + account.duplicated +
                                 account.outOfOrder > 0;
  }
  EXPECT_TRUE(anyDamage) << "chaos config injected no faults; test is vacuous";

  const auto metrics = ingest.metrics();
  EXPECT_EQ(metrics.runsCompleted, expected.size());
  EXPECT_EQ(metrics.reportsLost, totalLost);
  EXPECT_EQ(metrics.reportsDelivered, totalEmitted - totalLost);
}

TEST_F(IngestPipelineTest, StreamingAttributionMatchesBatchOverDeliveredReports) {
  // Streaming side: each run is attributed on its shard and folds into an
  // order-restoring accumulator; the callback keeps a copy of each run's
  // post-delivery artifacts.
  core::StudyAggregator streaming;
  core::StudyAccumulator accumulator(streaming);
  std::mutex deliveredMutex;  // the callback runs on every shard's consumer
  std::map<std::size_t, core::RunArtifacts> delivered;
  IngestConfig ingestConfig;
  ingestConfig.shards = 2;

  {
    ShardedIngest ingest(ingestConfig, [&](RunDelivery&& delivery) {
      core::FlowColumns columns =
          attributor_.attributeColumns(delivery.artifacts);
      {
        const std::scoped_lock lock(deliveredMutex);
        delivered.emplace(delivery.jobIndex, delivery.artifacts);
      }
      accumulator.addColumns(delivery.jobIndex, std::move(delivery.artifacts),
                             std::move(columns));
    });
    ChaosConfig chaosConfig;
    chaosConfig.lossProb = 0.05;
    chaosConfig.dupProb = 0.05;
    chaosConfig.reorderWindow = 4;
    chaosConfig.seed = 11;
    ChaosChannel chaos(ingest, chaosConfig);
    for (std::size_t i = 0; i < generator_.appCount(); ++i) {
      auto artifacts = runApp(i, &chaos);
      chaos.flush();
      ingest.submitRun(i, std::move(artifacts));
      ingest.drain();
    }
  }
  accumulator.finish();
  ASSERT_EQ(delivered.size(), generator_.appCount());

  // Batch side: the classic offline pass over exactly those artifacts, in
  // job-index order.
  core::StudyAggregator batch;
  for (const auto& [index, artifacts] : delivered)
    batch.addAppColumns(artifacts, attributor_.attributeColumns(artifacts));

  EXPECT_EQ(streaming.totals().totalBytes, batch.totals().totalBytes);
  EXPECT_EQ(streaming.totals().flowCount, batch.totals().flowCount);
  EXPECT_EQ(streaming.totals().unattributedBytes,
            batch.totals().unattributedBytes);
  EXPECT_EQ(streaming.transferByLibCategory(), batch.transferByLibCategory());
}

TEST_F(IngestPipelineTest, RunWhoseCheckpointThrowsIsNotFolded) {
  // The router checkpoints a run before its callback attributes and folds
  // it. One whose checkpoint write throws must reach neither the callback
  // nor, through it, the accumulator: an observer would otherwise count a
  // run that no recovery can replay.
  core::StudyAggregator study;
  core::StudyAccumulator accumulator(study);
  IngestConfig ingestConfig;
  ingestConfig.shards = 1;
  // Job index and loss account of each run the callback saw (one shard:
  // one consumer thread).
  std::vector<std::pair<std::size_t, ApkLossAccount>> published;
  ShardedIngest ingest(
      ingestConfig,
      [&](RunDelivery&& delivery) {
        core::FlowColumns columns =
            attributor_.attributeColumns(delivery.artifacts);
        published.emplace_back(delivery.jobIndex, delivery.account);
        accumulator.addColumns(delivery.jobIndex,
                               std::move(delivery.artifacts),
                               std::move(columns));
      },
      [](const RunDelivery& delivery) {
        if (delivery.jobIndex == 0)
          throw std::runtime_error("cannot write run 0");
      });
  for (std::size_t i = 0; i < 2; ++i)
    ingest.submitRun(i, runApp(i, &ingest));
  EXPECT_THROW(ingest.drain(), std::runtime_error);

  // Only run 1, with its loss account, was published and folded.
  ASSERT_EQ(published.size(), 1u);
  EXPECT_EQ(published.front().first, 1u);
  EXPECT_GT(published.front().second.reportsEmitted, 0u);
  accumulator.finish();
  EXPECT_EQ(study.totals().appCount, 1u);
}

}  // namespace
}  // namespace libspector::ingest
