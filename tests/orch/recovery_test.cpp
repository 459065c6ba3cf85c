// Crash-safety of the artifact store, proven by sweep: a simulated crash
// is injected at every kill point of the checkpoint protocol, at several
// positions within the study, and recovery + replay + resume must produce
// a study byte-identical to the uninterrupted run every time.
#include "orch/recovery.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/export.hpp"
#include "orch/study.hpp"
#include "util/bytes.hpp"

namespace libspector::orch {
namespace {

namespace fs = std::filesystem;

StudyConfig recoveryConfig(std::size_t workers = 2) {
  StudyConfig config;
  config.store.appCount = 8;
  config.store.seed = 7;
  config.store.methodScale = 0.05;
  config.dispatcher.emulator.monkey.events = 80;
  config.dispatcher.emulator.monkey.throttleMs = 50;
  config.dispatcher.workers = workers;
  config.ingest.shards = 2;
  return config;
}

std::string freshDir(const std::string& tag) {
  const std::string dir =
      ::testing::TempDir() + "/spector_recovery_" + tag + "_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  fs::remove_all(dir);
  return dir;
}

/// Render every figure dataset plus the markdown report into one string:
/// byte equality here is byte equality for every consumer in the repo.
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

TEST(RecoveryTest, CheckpointScanRoundTrip) {
  const std::string dir = freshDir("roundtrip");
  core::RunArtifacts a;
  a.apkSha256 = "aaa";
  a.packageName = "com.app.a";
  core::RunArtifacts b;
  b.apkSha256 = "bbb";
  b.packageName = "com.app.b";
  core::ApkLossAccount account;
  account.reportsEmitted = 3;
  account.uniqueDelivered = 2;
  account.lost = 1;

  CheckpointWriter writer(dir);
  writer.checkpoint(5, account, b);  // out of index order on purpose
  writer.checkpoint(2, {}, a);
  // A file that is no bundle is neither returned nor quarantined.
  std::ofstream(fs::path(dir) / "notes.txt") << "not a bundle";

  const auto report = StudyRecovery::scan(dir);
  ASSERT_EQ(report.runs.size(), 2u);
  EXPECT_EQ(report.runs[0].jobIndex, 2u);  // sorted by job index
  EXPECT_EQ(report.runs[0].artifacts.packageName, "com.app.a");
  EXPECT_EQ(report.runs[1].jobIndex, 5u);
  EXPECT_EQ(report.runs[1].account, account);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_EQ(report.tmpFilesRemoved, 0u);
  EXPECT_TRUE(fs::exists(fs::path(dir) / "notes.txt"));
}

TEST(RecoveryTest, ReadFileBytesReadsTheWholeFileOrThrows) {
  const fs::path dir = freshDir("readbytes");
  fs::create_directories(dir);
  const std::vector<std::uint8_t> bytes = {0x00, 0xff, '\n', 0x1a, 0x00, 7};
  {
    std::ofstream out(dir / "bytes.bin", std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    std::ofstream empty(dir / "empty.bin", std::ios::binary);
  }
  EXPECT_EQ(readFileBytes(dir / "bytes.bin"), bytes);
  EXPECT_TRUE(readFileBytes(dir / "empty.bin").empty());
  EXPECT_THROW((void)readFileBytes(dir / "missing.bin"), std::runtime_error);
}

TEST(RecoveryTest, ScanOfMissingDirectoryIsEmptyNotFatal) {
  const auto report = StudyRecovery::scan(freshDir("missing"));
  EXPECT_TRUE(report.runs.empty());
  EXPECT_TRUE(report.quarantined.empty());
}

// The sweep runs under several worker counts: resumeStudy hands only the
// gap indices to the workers that claim and expand them, and each gap must
// keep its original identity at any parallelism — a resumed study is
// byte-identical to the uninterrupted one.
class RecoverySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RecoverySweep, KillPointSweepYieldsByteIdenticalStudy) {
  const std::size_t workers = GetParam();
  // Ground truth: the same study, uninterrupted, at the default two
  // workers — the resumed runs below must match it byte for byte.
  auto config = recoveryConfig();
  config.artifactsDirectory =
      freshDir("groundtruth_w" + std::to_string(workers));
  const auto groundTruth = runStudy(config);
  const std::string expected = renderStudy(groundTruth.study);
  ASSERT_EQ(groundTruth.appsProcessed, config.store.appCount);
  // Size and FNV-64 of this ground truth as recorded when the attributor
  // still had its interning-off and row-fold fallbacks: all three
  // rendered these bytes.
  EXPECT_EQ(expected.size(), 11378u);
  EXPECT_EQ(util::fnv1a64(expected), 0x81ae51e4bb761c0fULL);

  // The checkpointed deliveries of the uninterrupted run, in job-index
  // order — the exact sequence a crashed collector would have persisted.
  auto truthScan = StudyRecovery::scan(config.artifactsDirectory);
  ASSERT_EQ(truthScan.runs.size(), config.store.appCount);

  for (const std::string_view killPoint : kCheckpointKillPoints) {
    for (const std::size_t crashAt :
         {std::size_t{0}, truthScan.runs.size() / 2,
          truthScan.runs.size() - 1}) {
      const std::string tag = std::string(killPoint) + "_" +
                              std::to_string(crashAt) + "_w" +
                              std::to_string(workers);
      auto crashed = recoveryConfig(workers);
      crashed.artifactsDirectory = freshDir(tag);

      // Re-drive the checkpoint protocol up to the injected crash. The
      // CheckpointWriter is the only thing that ever writes bundles, so
      // this reproduces the on-disk state of a collector that died at
      // exactly this kill point of exactly this run.
      std::size_t current = 0;
      CheckpointWriter writer(
          crashed.artifactsDirectory,
          [&](std::string_view point) {
            if (point == killPoint && current == crashAt)
              throw SimulatedCrash("crash at " + std::string(point));
          });
      bool crashedOut = false;
      try {
        for (const auto& run : truthScan.runs) {
          current = run.jobIndex;
          writer.checkpoint(run.jobIndex, run.account, run.artifacts);
        }
      } catch (const SimulatedCrash&) {
        crashedOut = true;
      }
      ASSERT_TRUE(crashedOut) << tag;

      const auto resumed = resumeStudy(crashed);
      EXPECT_EQ(renderStudy(resumed.output.study), expected)
          << "study diverged after crash at " << tag;
      EXPECT_EQ(resumed.output.appsProcessed, crashed.store.appCount) << tag;
      EXPECT_EQ(resumed.output.appsFailed, 0u) << tag;
      EXPECT_TRUE(resumed.recovery.quarantined.empty()) << tag;

      // Spot-check the recovery accounting against what this kill point
      // must have left on disk.
      if (killPoint == "tmp-partial") {
        EXPECT_EQ(resumed.recovery.tmpFilesRemoved, 1u) << tag;
      }
      if (killPoint == "done") {
        EXPECT_EQ(resumed.output.appsReplayed, crashAt + 1) << tag;
      }
      if (killPoint == "begin" || killPoint == "tmp-partial" ||
          killPoint == "tmp-complete") {
        EXPECT_EQ(resumed.output.appsReplayed, crashAt) << tag;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, RecoverySweep, ::testing::Values(1, 2, 8));

TEST(RecoveryTest, CorruptBundlesAreQuarantinedAndReRun) {
  auto config = recoveryConfig();
  config.artifactsDirectory = freshDir("corrupt_gt");
  const auto groundTruth = runStudy(config);
  const std::string expected = renderStudy(groundTruth.study);

  // Copy the intact checkpoint dir, then damage two bundles: one
  // bit-flipped, one truncated mid-file.
  auto crashed = config;
  crashed.artifactsDirectory = freshDir("corrupt");
  fs::create_directories(crashed.artifactsDirectory);
  std::vector<fs::path> bundles;
  for (const auto& entry : fs::directory_iterator(config.artifactsDirectory)) {
    fs::copy(entry.path(),
             fs::path(crashed.artifactsDirectory) / entry.path().filename());
    if (entry.path().extension() == ".spab") bundles.push_back(
        fs::path(crashed.artifactsDirectory) / entry.path().filename());
  }
  ASSERT_GE(bundles.size(), 2u);
  std::sort(bundles.begin(), bundles.end());
  {
    std::fstream flip(bundles[0],
                      std::ios::binary | std::ios::in | std::ios::out);
    flip.seekg(20);
    const char byte = static_cast<char>(flip.get());
    flip.seekp(20);
    flip.put(static_cast<char>(byte ^ 0x40));
  }
  fs::resize_file(bundles[1], fs::file_size(bundles[1]) / 2);

  const auto resumed = resumeStudy(crashed);
  EXPECT_EQ(resumed.recovery.quarantined.size(), 2u);
  EXPECT_EQ(resumed.output.appsReplayed, config.store.appCount - 2);
  EXPECT_EQ(resumed.output.appsProcessed, config.store.appCount);
  EXPECT_EQ(renderStudy(resumed.output.study), expected);
  for (const auto& entry : resumed.recovery.quarantined)
    EXPECT_TRUE(fs::exists(fs::path(crashed.artifactsDirectory) /
                           StudyRecovery::kQuarantineDir / entry.file));
}

std::vector<fs::path> sortedBundles(const fs::path& directory) {
  std::vector<fs::path> bundles;
  for (const auto& entry : fs::directory_iterator(directory))
    if (entry.path().extension() == ".spab") bundles.push_back(entry.path());
  std::sort(bundles.begin(), bundles.end());
  return bundles;
}

void expectSameRuns(const std::vector<RecoveredRun>& actual,
                    const std::vector<RecoveredRun>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].jobIndex, expected[i].jobIndex) << i;
    EXPECT_EQ(actual[i].account, expected[i].account) << i;
    EXPECT_EQ(actual[i].artifacts.serialize(), expected[i].artifacts.serialize())
        << i;
  }
}

// The scan decodes bundles on several threads and decides in name order.
// Under mixed damage over more bundles than twice the hardware threads,
// it must quarantine exactly what a one-at-a-time scan would, in name
// order, keep the intact runs, and report the same on every copy of the
// same bytes.
TEST(RecoveryTest, MixedCorruptionScanIsDeterministicAcrossThreads) {
  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  auto config = recoveryConfig();
  config.store.appCount = 2 * hardware + 6;
  config.artifactsDirectory = freshDir("mixed_gt");
  ASSERT_EQ(runStudy(config).appsProcessed, config.store.appCount);
  const auto intact = StudyRecovery::scan(config.artifactsDirectory);
  ASSERT_EQ(intact.runs.size(), config.store.appCount);

  const fs::path damaged = freshDir("mixed");
  fs::copy(config.artifactsDirectory, damaged, fs::copy_options::recursive);
  const std::vector<fs::path> bundles = sortedBundles(damaged);
  ASSERT_GT(bundles.size(), 2 * hardware);

  std::set<std::uint64_t> damagedIndices;
  for (std::size_t i = 0; i < 5; ++i)
    damagedIndices.insert(
        core::SpabEnvelope::decode(readFileBytes(bundles[i])).jobIndex);
  {
    std::fstream flip(bundles[0],
                      std::ios::binary | std::ios::in | std::ios::out);
    flip.seekg(20);
    const char byte = static_cast<char>(flip.get());
    flip.seekp(20);
    flip.put(static_cast<char>(byte ^ 0x40));
  }
  fs::resize_file(bundles[1], fs::file_size(bundles[1]) / 2);
  fs::resize_file(bundles[2], 0);
  fs::resize_file(bundles[3], 40);
  {
    std::ofstream garbage(bundles[4], std::ios::binary | std::ios::trunc);
    for (int i = 0; i < 20; ++i) garbage << "not a bundle at all\n";
  }
  // A valid bundle under a second name that sorts after every sha: its
  // job index repeats, so the later name is the one quarantined.
  const auto duplicateIndex =
      core::SpabEnvelope::decode(readFileBytes(bundles[5])).jobIndex;
  fs::copy_file(bundles[5], damaged / "zz-copy.spab");
  // Run artifacts without the envelope (the pre-envelope bundle format):
  // no magic, so quarantined like any other undecodable bundle.
  {
    std::ofstream legacy(damaged / "legacy.spab",
                         std::ios::binary | std::ios::trunc);
    const auto bytes = intact.runs[0].artifacts.serialize();
    legacy.write(reinterpret_cast<const char*>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()));
  }
  std::ofstream(damaged / "torn.spab.tmp") << "torn";

  const fs::path twin = freshDir("mixed_twin");
  fs::copy(damaged, twin, fs::copy_options::recursive);
  const auto report = StudyRecovery::scan(damaged.string());
  const auto twinReport = StudyRecovery::scan(twin.string());

  const std::vector<std::pair<std::string, std::string>> expectedQuarantine = {
      {bundles[0].filename().string(), "SpabEnvelope: checksum mismatch"},
      {bundles[1].filename().string(), "SpabEnvelope: checksum mismatch"},
      {bundles[2].filename().string(), "ByteReader: truncated input"},
      {bundles[3].filename().string(), "SpabEnvelope: checksum mismatch"},
      {bundles[4].filename().string(), "SpabEnvelope: bad magic"},
      {"legacy.spab", "SpabEnvelope: bad magic"},
      {"zz-copy.spab",
       "duplicate job index " + std::to_string(duplicateIndex)},
  };
  for (const auto* scanned : {&report, &twinReport}) {
    ASSERT_EQ(scanned->quarantined.size(), expectedQuarantine.size());
    for (std::size_t i = 0; i < expectedQuarantine.size(); ++i) {
      EXPECT_EQ(scanned->quarantined[i].file, expectedQuarantine[i].first);
      EXPECT_EQ(scanned->quarantined[i].error, expectedQuarantine[i].second)
          << expectedQuarantine[i].first;
    }
    EXPECT_EQ(scanned->tmpFilesRemoved, 1u);
  }
  for (const auto& entry : expectedQuarantine) {
    EXPECT_TRUE(fs::exists(damaged / StudyRecovery::kQuarantineDir /
                           entry.first));
    EXPECT_FALSE(fs::exists(damaged / entry.first));
  }

  std::vector<RecoveredRun> survivors;
  for (const auto& run : intact.runs)
    if (!damagedIndices.contains(run.jobIndex)) survivors.push_back(run);
  expectSameRuns(report.runs, survivors);
  expectSameRuns(twinReport.runs, report.runs);
}

TEST(RecoveryTest, LossyChannelReplayPreservesLossAccounts) {
  // Under UDP report loss the loss numbers are part of the result. A
  // resume that replays every run must reproduce both the study bytes and
  // the exact loss accounting of the uninterrupted lossy run.
  auto config = recoveryConfig();
  config.dispatcher.emulator.stack.udpLossProb = 0.3;
  config.artifactsDirectory = freshDir("lossy");
  const auto groundTruth = runStudy(config);
  ASSERT_GT(groundTruth.ingestMetrics.reportsLost, 0u);

  const auto resumed = resumeStudy(config);  // every run replays from disk
  EXPECT_EQ(resumed.output.appsReplayed, config.store.appCount);
  EXPECT_EQ(resumed.output.ingestMetrics.reportsLost,
            groundTruth.ingestMetrics.reportsLost);
  EXPECT_EQ(resumed.output.ingestMetrics.reportsDelivered,
            groundTruth.ingestMetrics.reportsDelivered);
  EXPECT_EQ(renderStudy(resumed.output.study),
            renderStudy(groundTruth.study));
}

TEST(RecoveryTest, ResumeRequiresACheckpointDirectory) {
  EXPECT_THROW((void)resumeStudy(recoveryConfig()), std::invalid_argument);
}

}  // namespace
}  // namespace libspector::orch
