// Multi-collector spectord operation: N daemons each own a contiguous
// slice of sha-space, every run crosses the wire protocol into its
// collector, each collector's checkpoint directory is its entire output,
// and orch::mergeStudies must reproduce the single-collector runStudy
// BYTE-IDENTICALLY — at any collector count, through a mid-study collector
// kill (with and without resume), and through a simulated crash at every
// kill point of the checkpoint persistence protocol.
#include "spectord/cluster.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "core/export.hpp"
#include "orch/recovery.hpp"
#include "orch/study.hpp"

namespace libspector::spectord {
namespace {

orch::StudyConfig smallConfig() {
  orch::StudyConfig config;
  config.store.appCount = 12;
  config.store.seed = 5;
  config.store.methodScale = 0.05;
  config.dispatcher.emulator.monkey.events = 100;
  config.dispatcher.emulator.monkey.throttleMs = 50;
  return config;
}

/// Render every figure dataset plus the markdown report into one string:
/// byte equality here is study identity for every consumer in the repo.
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

/// A fresh directory under the test temp dir, named per process: two test
/// runs (ctest and a sanitizer lane, say) may overlap.
std::filesystem::path freshDir(const std::string& name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   (name + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(SpectordClusterTest, AnyCollectorCountMergesByteIdenticalToRunStudy) {
  const auto config = smallConfig();
  const auto reference = orch::runStudy(config);
  const std::string referenceRender = renderStudy(reference.study);

  for (const std::uint32_t count : {1u, 2u, 4u}) {
    std::vector<std::string> directories;
    std::uint64_t dispatched = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      CollectorOptions options;
      options.index = i;
      options.count = count;
      options.checkpointDirectory =
          freshDir("spectord_cluster_" + std::to_string(count) + "_" +
                   std::to_string(i))
              .string();
      const CollectorResult result = runCollector(config, options);
      EXPECT_EQ(result.runsAccepted, result.jobsDispatched);
      dispatched += result.jobsDispatched;
      directories.push_back(options.checkpointDirectory);
    }
    // The assignment partitions: every job ran exactly once, somewhere.
    EXPECT_EQ(dispatched, config.store.appCount) << "count=" << count;

    const orch::MergeOutput merged = orch::mergeStudies(config, directories);
    EXPECT_EQ(merged.output.appsProcessed, reference.appsProcessed);
    EXPECT_EQ(merged.output.appsReplayed, config.store.appCount);
    EXPECT_EQ(renderStudy(merged.output.study), referenceRender)
        << "collector count " << count
        << " is not byte-identical to the single-collector study";
    for (const auto& directory : directories)
      std::filesystem::remove_all(directory);
  }
}

TEST(SpectordClusterTest, CollectorsPartitionByPackageName) {
  // Ownership hashes the package name, which the plan knows before the
  // app is expanded: a collector expands exactly the jobs it owns, and
  // every bundle it checkpoints is one its assignment owns.
  const auto config = smallConfig();
  for (const std::uint32_t count : {2u, 4u}) {
    std::uint64_t expanded = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      CollectorOptions options;
      options.index = i;
      options.count = count;
      options.checkpointDirectory =
          freshDir("spectord_partition_" + std::to_string(count) + "_" +
                   std::to_string(i))
              .string();
      const CollectorResult result = runCollector(config, options);
      EXPECT_EQ(result.jobsExpanded, result.jobsOwned)
          << "collector " << i << "/" << count;
      expanded += result.jobsExpanded;

      const CollectorAssignment assignment{i, count};
      const orch::RecoveryReport report =
          orch::StudyRecovery::scan(options.checkpointDirectory);
      EXPECT_EQ(report.runs.size(), result.jobsOwned);
      for (const auto& run : report.runs)
        EXPECT_TRUE(assignment.owns(run.artifacts.packageName))
            << run.artifacts.packageName << " checkpointed by collector " << i
            << "/" << count;
      std::filesystem::remove_all(options.checkpointDirectory);
    }
    // N collectors expand each app once between them.
    EXPECT_EQ(expanded, config.store.appCount) << "count=" << count;
  }
}

TEST(SpectordClusterTest, CollectorKillAndResumeStaysByteIdentical) {
  const auto config = smallConfig();
  const auto reference = orch::runStudy(config);
  const std::string referenceRender = renderStudy(reference.study);

  const auto dirA = freshDir("spectord_kill_a");
  const auto dirB = freshDir("spectord_kill_b");

  // Collector 1 runs its full share.
  CollectorOptions full;
  full.index = 1;
  full.count = 2;
  full.checkpointDirectory = dirB.string();
  const CollectorResult survivor = runCollector(config, full);
  ASSERT_GT(survivor.jobsDispatched, 0u);

  // Collector 0 is killed after one owned job (in-flight work completes
  // and checkpoints; the rest of its share is never dispatched).
  CollectorOptions killed;
  killed.index = 0;
  killed.count = 2;
  killed.checkpointDirectory = dirA.string();
  killed.jobLimit = 1;
  const CollectorResult beforeCrash = runCollector(config, killed);
  ASSERT_EQ(beforeCrash.jobsDispatched, 1u);
  EXPECT_EQ(beforeCrash.jobsOwned, beforeCrash.jobsDispatched);
  ASSERT_GT(survivor.jobsDispatched + 1, 0u);

  // Merging *without* resuming: the merge itself re-runs the dead
  // collector's gap jobs and must still match byte for byte.
  {
    const auto merged =
        orch::mergeStudies(config, {dirA.string(), dirB.string()});
    EXPECT_EQ(renderStudy(merged.output.study), referenceRender)
        << "merge over a crashed collector's partial directory diverged";
  }

  // Now the collector restarts and resumes its own directory: survivors
  // replay (no emulator re-runs), the gaps run fresh, and the merged
  // study is again byte-identical.
  CollectorOptions resumed = killed;
  resumed.jobLimit = ~0ULL;
  resumed.resume = true;
  const CollectorResult afterResume = runCollector(config, resumed);
  EXPECT_EQ(afterResume.runsReplayed, 1u);
  // jobsOwned counts only the jobs this incarnation had to work: a
  // resumed collector reports its gaps, not its whole share over again.
  EXPECT_EQ(afterResume.jobsOwned, afterResume.jobsDispatched);
  EXPECT_EQ(afterResume.runsReplayed + afterResume.jobsDispatched +
                survivor.jobsDispatched,
            config.store.appCount);

  const auto merged =
      orch::mergeStudies(config, {dirA.string(), dirB.string()});
  EXPECT_EQ(merged.output.appsReplayed, config.store.appCount);
  EXPECT_EQ(renderStudy(merged.output.study), referenceRender)
      << "merge after kill+resume diverged";

  std::filesystem::remove_all(dirA);
  std::filesystem::remove_all(dirB);
}

TEST(SpectordClusterTest, CrashAtEveryCheckpointKillPointStillMerges) {
  const auto config = smallConfig();
  const auto reference = orch::runStudy(config);
  const std::string referenceRender = renderStudy(reference.study);

  // Run the two collectors once, cleanly, to harvest collector 0's runs.
  const auto dirA = freshDir("spectord_sweep_a");
  const auto dirB = freshDir("spectord_sweep_b");
  for (std::uint32_t i = 0; i < 2; ++i) {
    CollectorOptions options;
    options.index = i;
    options.count = 2;
    options.checkpointDirectory = (i == 0 ? dirA : dirB).string();
    (void)runCollector(config, options);
  }
  orch::RecoveryReport harvested = orch::StudyRecovery::scan(dirA.string());
  ASSERT_GE(harvested.runs.size(), 2u)
      << "collector 0 owns too few apps for the sweep to mean anything";

  // Re-drive the persistence protocol for collector 0's directory with a
  // crash injected at every kill point of its *last* checkpoint: whatever
  // state the crash leaves (a torn or complete but unrenamed tmp), the
  // merge must quarantine/ignore/recover it and still reproduce the
  // reference study byte for byte.
  for (const std::string_view point : orch::kCheckpointKillPoints) {
    const auto dirK =
        freshDir(std::string("spectord_sweep_kill_") + std::string(point));
    bool armed = false;
    orch::CheckpointWriter writer(
        dirK.string(), [&armed, point](std::string_view at) {
          if (armed && at == point)
            throw orch::SimulatedCrash(std::string(at));
        });
    for (std::size_t i = 0; i < harvested.runs.size(); ++i) {
      const auto& run = harvested.runs[i];
      armed = (i + 1 == harvested.runs.size());
      try {
        writer.checkpoint(run.jobIndex, run.account, run.artifacts);
      } catch (const orch::SimulatedCrash&) {
        ASSERT_TRUE(armed);
      }
    }

    const auto merged =
        orch::mergeStudies(config, {dirK.string(), dirB.string()});
    EXPECT_EQ(renderStudy(merged.output.study), referenceRender)
        << "kill point '" << point << "' broke merge byte-identity";
    std::filesystem::remove_all(dirK);
  }

  std::filesystem::remove_all(dirA);
  std::filesystem::remove_all(dirB);
}

}  // namespace
}  // namespace libspector::spectord
