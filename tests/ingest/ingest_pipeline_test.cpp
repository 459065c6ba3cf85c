// End-to-end acceptance of the streaming ingest tier: real emulator runs
// whose framed supervisor datagrams cross a seeded lossy/duplicating/
// reordering channel into an IngestPipeline. The pipeline must account the
// channel's damage *exactly* per apk, and attribution of what was delivered
// must match the batch pipeline run over the same delivered reports.
#include "ingest/pipeline.hpp"

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

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
  IngestPipeline pipeline(ingestConfig,
                          [this](const core::RunArtifacts& artifacts) {
                            return attributor_.attributeColumns(artifacts);
                          });
  std::mutex accountsMutex;  // the hook runs on every shard's consumer
  std::map<std::string, ApkLossAccount> accounts;
  pipeline.setRunHook([&](RunDigest&& digest) {
    const std::scoped_lock lock(accountsMutex);
    accounts[digest.apkSha256] = digest.account;
  });
  ChaosConfig chaosConfig;
  chaosConfig.lossProb = 0.05;
  chaosConfig.dupProb = 0.05;
  chaosConfig.reorderWindow = 4;
  chaosConfig.seed = 7;
  ChaosChannel chaos(pipeline, chaosConfig);

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
    pipeline.submitRun(i, std::move(artifacts));
    pipeline.drain();  // finalize before the next run reuses the channel
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

  const auto metrics = pipeline.metrics();
  EXPECT_EQ(metrics.runsCompleted, expected.size());
  EXPECT_EQ(metrics.reportsLost, totalLost);
  EXPECT_EQ(metrics.reportsDelivered, totalEmitted - totalLost);
}

TEST_F(IngestPipelineTest, StreamingAttributionMatchesBatchOverDeliveredReports) {
  // Streaming side: runs fold through the pipeline into an order-restoring
  // accumulator; the fold hook captures each run's post-delivery artifacts.
  core::StudyAggregator streaming;
  std::vector<core::RunArtifacts> delivered;
  core::StudyAccumulator accumulator(
      streaming, [&delivered](core::RunArtifacts&& artifacts) {
        delivered.push_back(std::move(artifacts));
      });
  IngestConfig ingestConfig;
  ingestConfig.shards = 2;
  const auto attribute = [this](const core::RunArtifacts& artifacts) {
    return attributor_.attributeColumns(artifacts);
  };

  {
    IngestPipeline pipeline(ingestConfig, attribute, &accumulator);
    ChaosConfig chaosConfig;
    chaosConfig.lossProb = 0.05;
    chaosConfig.dupProb = 0.05;
    chaosConfig.reorderWindow = 4;
    chaosConfig.seed = 11;
    ChaosChannel chaos(pipeline, chaosConfig);
    for (std::size_t i = 0; i < generator_.appCount(); ++i) {
      auto artifacts = runApp(i, &chaos);
      chaos.flush();
      pipeline.submitRun(i, std::move(artifacts));
      pipeline.drain();
    }
  }
  accumulator.finish();
  ASSERT_EQ(delivered.size(), generator_.appCount());

  // Batch side: the classic offline pass over exactly those artifacts.
  core::StudyAggregator batch;
  for (const auto& artifacts : delivered)
    batch.addAppColumns(artifacts, attributor_.attributeColumns(artifacts));

  EXPECT_EQ(streaming.totals().totalBytes, batch.totals().totalBytes);
  EXPECT_EQ(streaming.totals().flowCount, batch.totals().flowCount);
  EXPECT_EQ(streaming.totals().unattributedBytes,
            batch.totals().unattributedBytes);
  EXPECT_EQ(streaming.transferByLibCategory(), batch.transferByLibCategory());
}

TEST_F(IngestPipelineTest, PublishesRollingTotalsAfterEveryRun) {
  IngestConfig ingestConfig;
  ingestConfig.shards = 1;
  IngestPipeline pipeline(ingestConfig,
                          [this](const core::RunArtifacts& artifacts) {
                            return attributor_.attributeColumns(artifacts);
                          });
  std::vector<RunDigest> digests;  // one shard: one consumer thread
  pipeline.setRunHook(
      [&digests](RunDigest&& digest) { digests.push_back(std::move(digest)); });

  for (std::size_t i = 0; i < 4; ++i) {
    auto artifacts = runApp(i, &pipeline);
    const std::string sha = artifacts.apkSha256;
    pipeline.submitRun(i, std::move(artifacts));
    pipeline.drain();
    // One digest per run, published as the run lands.
    ASSERT_EQ(digests.size(), i + 1);
    EXPECT_EQ(digests.back().jobIndex, i);
    EXPECT_EQ(digests.back().apkSha256, sha);
    EXPECT_FALSE(digests.back().replayed);
  }
  std::uint64_t flows = 0;
  std::uint64_t attributed = 0;
  for (const RunDigest& digest : digests) {
    flows += digest.flowCount;
    attributed += digest.attributedBytes;
    // Zero loss: every reported socket keeps its context.
    EXPECT_EQ(digest.unattributedBytes, 0u);
    EXPECT_EQ(digest.account.lost, 0u);
    // The per-library and per-category sums split the run's bytes.
    std::uint64_t byLibrary = 0;
    for (const auto& [library, bytes] : digest.bytesByLibrary)
      byLibrary += bytes;
    EXPECT_EQ(byLibrary, digest.attributedBytes);
    std::uint64_t byCategory = 0;
    for (const auto& [category, bytes] : digest.bytesByLibCategory)
      byCategory += bytes;
    EXPECT_EQ(byCategory, digest.attributedBytes);
  }
  EXPECT_GT(flows, 0u);
  EXPECT_GT(attributed, 0u);
}

TEST_F(IngestPipelineTest, RunWhoseCheckpointThrowsIsNotFolded) {
  // A run is checkpointed before it is folded anywhere. One whose
  // checkpoint write throws must reach neither the published digests nor
  // the accumulator: an observer would otherwise count a run that no
  // recovery can replay.
  core::StudyAggregator study;
  core::StudyAccumulator accumulator(study);
  IngestConfig ingestConfig;
  ingestConfig.shards = 1;
  IngestPipeline pipeline(
      ingestConfig,
      [this](const core::RunArtifacts& artifacts) {
        return attributor_.attributeColumns(artifacts);
      },
      &accumulator, [](const RunDelivery& delivery) {
        if (delivery.jobIndex == 0)
          throw std::runtime_error("cannot write run 0");
      });
  std::vector<RunDigest> published;  // one shard: one consumer thread
  pipeline.setRunHook([&published](RunDigest&& digest) {
    published.push_back(std::move(digest));
  });
  for (std::size_t i = 0; i < 2; ++i)
    pipeline.submitRun(i, runApp(i, &pipeline));
  EXPECT_THROW(pipeline.drain(), std::runtime_error);

  // Only run 1, with its loss account, was published and folded.
  ASSERT_EQ(published.size(), 1u);
  EXPECT_EQ(published.front().jobIndex, 1u);
  EXPECT_GT(published.front().account.reportsEmitted, 0u);
  accumulator.finish();
  EXPECT_EQ(study.totals().appCount, 1u);
}

}  // namespace
}  // namespace libspector::ingest
