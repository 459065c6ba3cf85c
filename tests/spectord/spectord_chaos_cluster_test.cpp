// Reconnect chaos for the cluster tier: every connection a collector
// opens is killed by a BreakerEndpoint at a randomized byte offset
// (mid-frame on purpose), the resilient client reconnects with backoff
// and resumes its session, and the rendered study must stay
// BYTE-IDENTICAL to the unbroken single-collector reference — across
// kill counts, collector counts, and through a mid-study kill + resume.
#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/export.hpp"
#include "orch/study.hpp"
#include "spectord/cluster.hpp"
#include "util/rng.hpp"

namespace libspector::spectord {
namespace {

using namespace std::chrono_literals;

orch::StudyConfig smallConfig() {
  orch::StudyConfig config;
  config.store.appCount = 12;
  config.store.seed = 5;
  config.store.methodScale = 0.05;
  config.dispatcher.emulator.monkey.events = 100;
  config.dispatcher.emulator.monkey.throttleMs = 50;
  return config;
}

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

ReconnectorConfig fastBackoff() {
  ReconnectorConfig config;
  config.initialDelay = 1ms;
  config.maxDelay = 20ms;
  config.maxAttempts = 10;
  return config;
}

/// Kill the first `kills` connections this collector opens, each at a
/// seeded pseudo-random byte offset with a rotating fault kind; every
/// later connection gets a pass-through proxy. The offsets stay well
/// under one job's worth of traffic so every scheduled fault fires.
CollectorOptions chaosOptions(std::uint32_t index, std::uint32_t count,
                              const std::string& directory,
                              std::uint32_t kills, std::uint64_t seed,
                              std::vector<std::unique_ptr<BreakerEndpoint>>*
                                  breakers) {
  CollectorOptions options;
  options.index = index;
  options.count = count;
  options.checkpointDirectory = directory;
  options.reconnect = fastBackoff();
  options.channelWrapper = [kills, seed, breakers](ChannelEndpoint upstream,
                                                   std::size_t ordinal) {
    BreakerEndpoint::Fault fault;
    if (ordinal < kills) {
      util::Rng rng(seed + 7919 * ordinal);
      constexpr std::array<BreakerEndpoint::FaultKind, 3> kKinds = {
          BreakerEndpoint::FaultKind::Sever,
          BreakerEndpoint::FaultKind::Stall,
          BreakerEndpoint::FaultKind::Truncate};
      fault.kind = kKinds[ordinal % kKinds.size()];
      fault.afterClientBytes = 150 + rng.next() % 4000;
      fault.stall = 2ms;
    }
    breakers->push_back(
        std::make_unique<BreakerEndpoint>(std::move(upstream), fault));
    return breakers->back()->clientEnd();
  };
  return options;
}

TEST(SpectordChaosClusterTest, EveryConnectionKilledStaysByteIdentical) {
  const auto config = smallConfig();
  const auto reference = orch::runStudy(config);
  const std::string referenceRender = renderStudy(reference.study);

  for (const std::uint32_t kills : {1u, 2u, 3u}) {
    const auto dir = freshDir("spectord_chaos_k" + std::to_string(kills));
    std::vector<std::unique_ptr<BreakerEndpoint>> breakers;
    const CollectorResult result = runCollector(
        config, chaosOptions(0, 1, dir.string(), kills,
                             /*seed=*/1000 + kills, &breakers));

    // Every scheduled kill fired and forced a resumed reconnect, and at
    // least one kill interrupted something that had to be re-sent (a
    // report-frame tail or an unacked run upload, depending on where in
    // the stream the offset landed).
    EXPECT_EQ(result.reconnects, kills) << "kills=" << kills;
    EXPECT_GT(result.framesResent + result.runsResent, 0u) << "kills=" << kills;
    EXPECT_EQ(result.runsAccepted, result.jobsDispatched);
    EXPECT_EQ(result.jobsDispatched, config.store.appCount);
    EXPECT_EQ(result.metrics.service.sessionsResumed, kills);
    EXPECT_EQ(result.metrics.reportsLost, 0u);

    const orch::MergeOutput merged = orch::mergeStudies(config, {dir.string()});
    EXPECT_EQ(renderStudy(merged.output.study), referenceRender)
        << "study diverged after every connection was killed " << kills
        << " time(s)";
    std::filesystem::remove_all(dir);
  }
}

TEST(SpectordChaosClusterTest, MultiCollectorChaosMergesByteIdentical) {
  const auto config = smallConfig();
  const auto reference = orch::runStudy(config);
  const std::string referenceRender = renderStudy(reference.study);

  for (const std::uint32_t count : {2u, 4u}) {
    std::vector<std::string> directories;
    std::uint64_t dispatched = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto dir = freshDir("spectord_chaos_c" + std::to_string(count) +
                                "_" + std::to_string(i));
      std::vector<std::unique_ptr<BreakerEndpoint>> breakers;
      const CollectorResult result = runCollector(
          config, chaosOptions(i, count, dir.string(), /*kills=*/1,
                               /*seed=*/2000 + 17 * i, &breakers));
      EXPECT_EQ(result.reconnects, 1u) << "collector " << i << "/" << count;
      EXPECT_EQ(result.runsAccepted, result.jobsDispatched);
      dispatched += result.jobsDispatched;
      directories.push_back(dir.string());
    }
    EXPECT_EQ(dispatched, config.store.appCount) << "count=" << count;

    const orch::MergeOutput merged = orch::mergeStudies(config, directories);
    EXPECT_EQ(renderStudy(merged.output.study), referenceRender)
        << "collector count " << count
        << " with killed connections is not byte-identical";
    for (const auto& directory : directories)
      std::filesystem::remove_all(directory);
  }
}

TEST(SpectordChaosClusterTest, KillResumeUnderChaosStaysByteIdentical) {
  const auto config = smallConfig();
  const auto reference = orch::runStudy(config);
  const std::string referenceRender = renderStudy(reference.study);

  const auto dirA = freshDir("spectord_chaos_kill_a");
  const auto dirB = freshDir("spectord_chaos_kill_b");

  // Collector 1 runs its full share, first connection killed.
  {
    std::vector<std::unique_ptr<BreakerEndpoint>> breakers;
    const CollectorResult survivor = runCollector(
        config,
        chaosOptions(1, 2, dirB.string(), /*kills=*/1, /*seed=*/31, &breakers));
    EXPECT_EQ(survivor.reconnects, 1u);
    EXPECT_EQ(survivor.runsAccepted, survivor.jobsDispatched);
  }

  // Collector 0 is process-killed after one job — while its connection is
  // also being chaos-killed.
  std::uint64_t dispatchedBeforeCrash = 0;
  {
    std::vector<std::unique_ptr<BreakerEndpoint>> breakers;
    CollectorOptions killed = chaosOptions(0, 2, dirA.string(), /*kills=*/1,
                                           /*seed=*/37, &breakers);
    killed.jobLimit = 1;
    const CollectorResult beforeCrash = runCollector(config, killed);
    ASSERT_EQ(beforeCrash.jobsDispatched, 1u);
    EXPECT_EQ(beforeCrash.jobsOwned, beforeCrash.jobsDispatched);
    dispatchedBeforeCrash = beforeCrash.jobsDispatched;
  }

  // It restarts, resumes its directory, and the remaining share runs —
  // through another killed connection.
  {
    std::vector<std::unique_ptr<BreakerEndpoint>> breakers;
    CollectorOptions resumed = chaosOptions(0, 2, dirA.string(), /*kills=*/1,
                                            /*seed=*/41, &breakers);
    resumed.resume = true;
    const CollectorResult afterResume = runCollector(config, resumed);
    EXPECT_EQ(afterResume.runsReplayed, dispatchedBeforeCrash);
    EXPECT_EQ(afterResume.jobsOwned, afterResume.jobsDispatched);
    EXPECT_EQ(afterResume.reconnects, 1u);
  }

  const auto merged =
      orch::mergeStudies(config, {dirA.string(), dirB.string()});
  EXPECT_EQ(merged.output.appsReplayed, config.store.appCount);
  EXPECT_EQ(renderStudy(merged.output.study), referenceRender)
      << "kill+resume under connection chaos diverged";

  std::filesystem::remove_all(dirA);
  std::filesystem::remove_all(dirB);
}

}  // namespace
}  // namespace libspector::spectord
