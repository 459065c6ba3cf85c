#include "orch/study.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/attribution.hpp"
#include "core/export.hpp"
#include "radar/corpus.hpp"
#include "util/bytes.hpp"
#include "util/sha256.hpp"
#include "vtsim/categorizer.hpp"

namespace libspector::orch {
namespace {

StudyConfig smallConfig() {
  StudyConfig config;
  config.store.appCount = 25;
  config.store.seed = 5;
  config.store.methodScale = 0.05;
  config.dispatcher.emulator.monkey.events = 100;
  config.dispatcher.emulator.monkey.throttleMs = 50;
  return config;
}

TEST(StudyRunnerTest, OneCallProducesAFullStudy) {
  const auto output = runStudy(smallConfig());
  EXPECT_EQ(output.appsProcessed, 25u);
  EXPECT_EQ(output.appsFailed, 0u);
  EXPECT_GT(output.wallSeconds, 0.0);

  const auto totals = output.study.totals();
  EXPECT_EQ(totals.appCount, 25u);
  EXPECT_GT(totals.totalBytes, 0u);
  EXPECT_GT(totals.flowCount, 0u);
  // Every reported socket attributed: no blind spot without UDP loss.
  EXPECT_EQ(totals.unattributedBytes, 0u);
}

/// Render every figure dataset plus the markdown report into one string:
/// if two studies agree on all of it byte for byte, they are the same study
/// for every consumer this repository has.
std::string renderStudy(const core::StudyAggregator& study) {
  std::ostringstream out;
  core::writeFig2Csv(study, out);
  core::writeTopLibrariesCsv(study, 25, out);
  core::writeCdfCsv(study, out);
  core::writeFlowRatiosCsv(study, out);
  core::writeAntSharesCsv(study, out);
  core::writeCategoryAveragesCsv(study, out);
  core::writeHeatmapCsv(study, out);
  core::writeCoverageCsv(study, out);
  core::writeStudyReport(study, out);
  return out.str();
}

TEST(StudyRunnerTest, WorkerCountDoesNotChangeAByteOfTheStudy) {
  // Attribution now runs on the worker fleet; the accumulator must restore
  // dispatch order so a parallel study is indistinguishable from a
  // sequential one — completion order varies, output must not.
  auto serialConfig = smallConfig();
  serialConfig.dispatcher.workers = 1;
  auto parallelConfig = smallConfig();
  parallelConfig.dispatcher.workers = 4;

  const auto serial = runStudy(serialConfig);
  const auto parallel = runStudy(parallelConfig);
  EXPECT_EQ(serial.appsProcessed, parallel.appsProcessed);
  EXPECT_EQ(serial.study.totals().totalBytes, parallel.study.totals().totalBytes);
  EXPECT_EQ(renderStudy(serial.study), renderStudy(parallel.study));
}

TEST(StudyRunnerTest, ShardCountDoesNotChangeAByteOfTheStudy) {
  // runStudy is the batch pipeline re-expressed over streaming ingest: the
  // sharded router finalizes runs in arbitrary relative order, but the
  // order-restoring accumulator must keep the study byte-identical from
  // one shard to many.
  auto oneShard = smallConfig();
  oneShard.dispatcher.workers = 4;
  oneShard.ingest.shards = 1;
  auto manyShards = smallConfig();
  manyShards.dispatcher.workers = 4;
  manyShards.ingest.shards = 4;

  const auto narrow = runStudy(oneShard);
  const auto wide = runStudy(manyShards);
  EXPECT_EQ(narrow.ingestMetrics.shards, 1u);
  EXPECT_EQ(wide.ingestMetrics.shards, 4u);
  EXPECT_EQ(renderStudy(narrow.study), renderStudy(wide.study));
}

TEST(StudyRunnerTest, ColumnarFoldDoesNotChangeAByteOfTheStudy) {
  // The compiled attribution program and the columnar fold are pure
  // accelerations: the retired row-at-a-time FlowRecord fold through the
  // reference matchers is ground truth. Its rendering of smallConfig() at
  // one worker was recorded before it was removed; every fleet width must
  // reproduce it byte for byte.
  constexpr std::size_t kReferenceBytes = 18051;
  constexpr std::uint64_t kReferenceDigest = 0xf596c340130da95dULL;
  for (const std::size_t workers : {0u, 2u, 8u}) {
    auto config = smallConfig();
    config.dispatcher.workers = workers;
    const std::string rendered = renderStudy(runStudy(config).study);
    EXPECT_EQ(rendered.size(), kReferenceBytes) << "workers=" << workers;
    EXPECT_EQ(util::fnv1a64(rendered), kReferenceDigest)
        << "workers=" << workers;
  }
}

TEST(StudyRunnerTest, StreamingIngestMatchesTheInlineBatchPipeline) {
  // The ground-truth batch shape: attribute every run on the worker thread
  // and fold straight into the accumulator, no ingest tier involved. The
  // streaming study must reproduce it byte for byte when nothing is lost.
  const auto config = smallConfig();
  const store::AppStoreGenerator generator(config.store);

  static const radar::LibraryCorpus kCorpus = radar::LibraryCorpus::builtin();
  vtsim::DomainCategorizer categorizer(
      vtsim::defaultVendorPanel(), [&generator](const std::string& domain) {
        return generator.domainTruth(domain);
      });
  const core::TrafficAttributor attributor(kCorpus, categorizer);

  core::StudyAggregator batchStudy;
  core::StudyAccumulator accumulator(batchStudy);
  Dispatcher dispatcher(generator.farm(), nullptr, config.dispatcher);
  std::atomic<std::size_t> next{0};
  dispatcher.runConcurrent(
      [&]() -> std::optional<Dispatcher::Job> {
        const std::size_t index = next.fetch_add(1);
        if (index >= generator.appCount()) return std::nullopt;
        auto job = generator.makeJob(index);
        return Dispatcher::Job{.apk = std::move(job.apk),
                               .program = std::move(job.program),
                               .index = index};
      },
      [&](std::size_t index, core::RunArtifacts&& artifacts) {
        auto flows = attributor.attributeColumns(artifacts);
        accumulator.addColumns(index, std::move(artifacts), std::move(flows));
      },
      [&](std::size_t index, const Dispatcher::FailedJob&) {
        accumulator.skip(index);
      });
  accumulator.finish();

  const auto streaming = runStudy(generator, config.dispatcher);
  EXPECT_EQ(renderStudy(streaming.study), renderStudy(batchStudy));
}

TEST(StudyRunnerTest, SurfacesIngestMetrics) {
  const auto output = runStudy(smallConfig());
  const auto& metrics = output.ingestMetrics;
  EXPECT_GE(metrics.shards, 1u);
  EXPECT_EQ(metrics.runsCompleted, 25u);
  EXPECT_GT(metrics.datagramsReceived, 0u);
  EXPECT_EQ(metrics.datagramsMalformed, 0u);
  // The emulator's virtual router is lossless by default, and the framed
  // wire format proves it: exact accounting says nothing went missing.
  EXPECT_EQ(metrics.reportsLost, 0u);
  EXPECT_EQ(metrics.duplicated, 0u);
  EXPECT_EQ(metrics.framesFolded, metrics.datagramsReceived);
  std::uint64_t delivered = 0;
  for (const auto& shard : metrics.perShard)
    delivered += shard.reportsDelivered;
  EXPECT_EQ(delivered, metrics.reportsDelivered);
  const auto json = metrics.toJson();
  EXPECT_NE(json.find("\"reports_lost\": 0"), std::string::npos);
}

TEST(StudyRunnerTest, AccountsUdpLossExactly) {
  auto config = smallConfig();
  config.dispatcher.emulator.stack.udpLossProb = 0.3;
  const auto output = runStudy(config);
  const auto& metrics = output.ingestMetrics;
  // The stack dropped ~30% of report datagrams before the collection sink;
  // sender-side emitted counts ride the reliable artifact path, so the
  // ingest tier knows exactly how many vanished.
  EXPECT_GT(metrics.reportsLost, 0u);
  EXPECT_GT(metrics.reportsDelivered, 0u);
  EXPECT_EQ(metrics.framesFolded, metrics.datagramsReceived);
  // Lost context reports surface as unattributed traffic downstream.
  EXPECT_GT(output.study.totals().unattributedBytes, 0u);
}

TEST(StudyRunnerTest, ReportsDispatcherThroughput) {
  const auto output = runStudy(smallConfig());
  EXPECT_EQ(output.dispatcherStats.jobs, 25u);
  EXPECT_GT(output.dispatcherStats.elapsedSeconds, 0.0);
  EXPECT_GT(output.dispatcherStats.jobsPerSecond(), 0.0);
  EXPECT_GE(output.dispatcherStats.jobMsMax, output.dispatcherStats.jobMsMean());
}

TEST(StudyRunnerTest, DeterministicAcrossCalls) {
  const auto a = runStudy(smallConfig());
  const auto b = runStudy(smallConfig());
  EXPECT_EQ(a.study.totals().totalBytes, b.study.totals().totalBytes);
  EXPECT_EQ(a.study.transferByLibCategory(), b.study.transferByLibCategory());
}

TEST(StudyRunnerTest, PersistsOneBundlePerApp) {
  // The checkpoint directory is the study's one record: a bundle per app
  // plus the world's domains.csv, and nothing else.
  namespace fs = std::filesystem;
  auto config = smallConfig();
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      ("spector_study_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  fs::remove_all(dir);
  config.artifactsDirectory = dir.string();
  const auto output = runStudy(config);
  EXPECT_EQ(output.appsProcessed, 25u);

  std::size_t bundles = 0;
  std::vector<std::string> others;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".spab")
      ++bundles;
    else
      others.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(bundles, 25u);
  EXPECT_EQ(others, std::vector<std::string>{"domains.csv"});

  const RecoveryReport restored = StudyRecovery::scan(dir.string());
  ASSERT_EQ(restored.runs.size(), 25u);
  for (std::size_t i = 0; i < restored.runs.size(); ++i)
    EXPECT_EQ(restored.runs[i].jobIndex, i);
  EXPECT_TRUE(restored.quarantined.empty());
  fs::remove_all(dir);
}

/// A fresh checkpoint directory for `config` in which app 0's temporary
/// bundle path is a directory, so that app's checkpoint write cannot open
/// its file. Returns app 0's sha.
std::string blockAppZeroCheckpoint(StudyConfig& config,
                                   const std::string& tag) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      ("spector_" + tag + "_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  fs::remove_all(dir);
  config.artifactsDirectory = dir.string();
  const store::AppStoreGenerator generator(config.store);
  const std::string sha = util::toHex(generator.makeJob(0).apk.sha256());
  fs::create_directories(dir / (sha + ".spab.tmp"));
  return sha;
}

TEST(StudyRunnerTest, CheckpointWriteFailureIsReportedNotFatal) {
  // Checkpoints are written on the ingest shards' consumer threads. One
  // that cannot be written must reach runStudy's caller as an exception,
  // not end the process; the runs already in flight may still checkpoint,
  // and none of them lands torn.
  auto config = smallConfig();
  config.store.appCount = 4;
  const std::string sha = blockAppZeroCheckpoint(config, "unwritable");

  try {
    (void)runStudy(config);
    ADD_FAILURE() << "runStudy did not report the failed checkpoint write";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("recovery: cannot write"), std::string::npos) << what;
    EXPECT_NE(what.find(sha + ".spab.tmp"), std::string::npos) << what;
  }
  const RecoveryReport landed = StudyRecovery::scan(config.artifactsDirectory);
  EXPECT_LE(landed.runs.size(), 3u);
  EXPECT_TRUE(landed.quarantined.empty());
  std::filesystem::remove_all(config.artifactsDirectory);
}

TEST(StudyRunnerTest, CheckpointWriteFailureStopsDispatch) {
  // A study whose checkpoint write failed will throw, so the fleet stops
  // handing out jobs instead of emulating and checkpointing the rest of
  // the corpus first. One worker and one shard: app 0 fails while the
  // worker runs the next app or two, far short of the 39 left.
  auto config = smallConfig();
  config.store.appCount = 40;
  config.dispatcher.workers = 1;
  config.ingest.shards = 1;
  (void)blockAppZeroCheckpoint(config, "stops_dispatch");

  EXPECT_THROW((void)runStudy(config), std::runtime_error);
  const RecoveryReport landed = StudyRecovery::scan(config.artifactsDirectory);
  EXPECT_LT(landed.runs.size(), 20u);
  EXPECT_TRUE(landed.quarantined.empty());
  std::filesystem::remove_all(config.artifactsDirectory);
}

TEST(StudyRunnerTest, UdpReportLossLeavesUnattributedTraffic) {
  auto config = smallConfig();
  config.dispatcher.emulator.stack.udpLossProb = 0.3;
  const auto lossy = runStudy(config);
  const auto clean = runStudy(smallConfig());

  // With 30% of context reports lost, a substantial slice of the TCP
  // payload has no owning flow — the measurement's honest blind spot.
  EXPECT_GT(lossy.study.totals().unattributedBytes, 0u);
  const double lossyShare =
      static_cast<double>(lossy.study.totals().unattributedBytes) /
      static_cast<double>(lossy.study.totals().totalBytes +
                          lossy.study.totals().unattributedBytes);
  EXPECT_GT(lossyShare, 0.10);
  EXPECT_LT(lossyShare, 0.60);
  EXPECT_EQ(clean.study.totals().unattributedBytes, 0u);
}

}  // namespace
}  // namespace libspector::orch
