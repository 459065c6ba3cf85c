// Differential scenario-conformance tier (§14).
//
// The three workload scenarios (keep-alive reuse, adversarial
// stack-laundering, background sync) are additive switches: all off, the
// pipeline must produce the legacy study BYTE FOR BYTE — pinned here as a
// golden hash so no future scenario change can silently shift the legacy
// world. All on, the scenario study is itself pinned, and must survive
// every execution shape the repo has: any worker count, a second seed, a
// mid-study kill + resume through the .spab checkpoint protocol (which now
// carries request-boundary records, bundle format v3), and a
// multi-collector mergeStudies at 1/2/4 collectors.
//
// The tier also proves the scenarios do what they claim: keep-alive
// splits single sockets across origin libraries via request ordinals, and
// adversarial apps attribute identically to their un-laundered twins.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/attribution.hpp"
#include "core/export.hpp"
#include "orch/recovery.hpp"
#include "orch/study.hpp"
#include "radar/corpus.hpp"
#include "spectord/cluster.hpp"
#include "vtsim/categorizer.hpp"

namespace libspector {
namespace {

orch::StudyConfig smallConfig(std::uint64_t seed = 5) {
  orch::StudyConfig config;
  config.store.appCount = 25;
  config.store.seed = seed;
  config.store.methodScale = 0.05;
  config.dispatcher.emulator.monkey.events = 100;
  config.dispatcher.emulator.monkey.throttleMs = 50;
  return config;
}

/// All three scenarios on, threaded into BOTH halves of the pipeline: the
/// store flag shapes what apps are generated, the emulator flag what the
/// runtime does with them. (They are deliberately independent knobs — see
/// DESIGN.md §14.)
orch::StudyConfig scenarioConfig(std::uint64_t seed = 5) {
  auto config = smallConfig(seed);
  rt::ScenarioConfig scenarios;
  scenarios.keepAliveReuse = true;
  scenarios.adversarialApps = true;
  scenarios.backgroundSync = true;
  config.store.scenarios = scenarios;
  config.dispatcher.emulator.scenario = scenarios;
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

/// FNV-1a 64: stable, dependency-free content hash for the golden pins.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// A fresh directory under the test temp dir, named per process: two test
/// runs (ctest and a sanitizer lane, say) may overlap.
std::filesystem::path freshDir(const std::string& name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   (name + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir;
}

/// The attribution-visible identity of one flow, as a comparable string.
/// Deliberately excludes requestOrdinal/rttMs: twins are compared on WHO
/// sent WHAT WHERE, the axes laundering tries to corrupt.
std::string flowKey(const core::FlowRecord& flow) {
  std::ostringstream out;
  out << flow.originLibrary.view() << '|' << flow.originSignature.view() << '|'
      << flow.twoLevelLibrary.view() << '|' << flow.libraryCategory.view()
      << '|' << flow.builtinOrigin << flow.antOrigin << flow.commonOrigin
      << '|' << flow.domain.view() << '|' << flow.domainCategory.view() << '|'
      << flow.socketPair.str() << '|' << flow.sentBytes << '|'
      << flow.recvBytes;
  return out.str();
}

/// Attribute one generated corpus app by app (the batch pipeline shape the
/// unit tiers use), returning per-app sorted flow keys. Symbols in a
/// FlowRecord borrow the attributor's pool, so everything comparable is
/// materialized here, while the attributor is alive.
std::vector<std::vector<std::string>> attributeCorpus(
    const orch::StudyConfig& config,
    std::vector<core::RunArtifacts>* runsOut = nullptr,
    std::size_t* pooledFlowsOut = nullptr,
    std::size_t* multiLibrarySocketsOut = nullptr) {
  const store::AppStoreGenerator generator(config.store);
  vtsim::DomainCategorizer categorizer(
      vtsim::defaultVendorPanel(), [&generator](const std::string& domain) {
        return generator.domainTruth(domain);
      });
  static const radar::LibraryCorpus kCorpus = radar::LibraryCorpus::builtin();
  const core::TrafficAttributor attributor(kCorpus, categorizer);

  std::vector<std::vector<std::string>> keysPerApp;
  for (std::size_t i = 0; i < generator.appCount(); ++i) {
    const auto job = generator.makeJob(i);
    auto emulatorConfig = config.dispatcher.emulator;
    emulatorConfig.seed = config.dispatcher.baseSeed + i;
    orch::EmulatorInstance emulator(generator.farm(), nullptr, emulatorConfig);
    auto run = emulator.run(job.apk, job.program);
    const auto flows = attributor.attribute(run);

    std::vector<std::string> keys;
    std::map<net::SocketPair, std::set<std::string>> librariesPerSocket;
    for (const auto& flow : flows) {
      keys.push_back(flowKey(flow));
      if (pooledFlowsOut != nullptr && flow.requestOrdinal >= 1)
        ++*pooledFlowsOut;
      if (multiLibrarySocketsOut != nullptr)
        librariesPerSocket[flow.socketPair].insert(flow.originLibrary.str());
    }
    if (multiLibrarySocketsOut != nullptr)
      for (const auto& [pair, libraries] : librariesPerSocket)
        if (libraries.size() >= 2) ++*multiLibrarySocketsOut;
    std::sort(keys.begin(), keys.end());
    keysPerApp.push_back(std::move(keys));
    if (runsOut != nullptr) runsOut->push_back(std::move(run));
  }
  return keysPerApp;
}

// ---------------------------------------------------------------------------
// Golden pins. Computed from the current tree (whose legacy output the
// orch/study tiers pin back to the seed pipeline); any byte drift in a
// rendered study fails these with the offending hash in the message.
// ---------------------------------------------------------------------------
constexpr std::uint64_t kLegacyGoldenSeed5 = 0xf596c340130da95dULL;
constexpr std::uint64_t kScenarioGoldenSeed5 = 0x8caebc428d1b7445ULL;
constexpr std::uint64_t kScenarioGoldenSeed7 = 0x946a3ab8a20e6040ULL;

TEST(ScenarioMatrixTest, FlagsOffStudyMatchesPinnedLegacyGolden) {
  // ScenarioConfig's default state must be inert: the rendered study of a
  // default (flags-off) config is the legacy study, pinned byte for byte.
  const auto output = orch::runStudy(smallConfig());
  const std::string rendered = renderStudy(output.study);
  EXPECT_EQ(fnv1a(rendered), kLegacyGoldenSeed5)
      << "flags-off study drifted from the pinned legacy bytes; hash now 0x"
      << std::hex << fnv1a(rendered);
}

TEST(ScenarioMatrixTest, ScenarioStudyPinnedAcrossWorkerCountsAndSeeds) {
  const struct {
    std::uint64_t seed;
    std::uint64_t golden;
  } kSeeds[] = {{5, kScenarioGoldenSeed5}, {7, kScenarioGoldenSeed7}};

  for (const auto& [seed, golden] : kSeeds) {
    for (const std::size_t workers :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      auto config = scenarioConfig(seed);
      config.dispatcher.workers = workers;
      const std::string rendered = renderStudy(orch::runStudy(config).study);
      EXPECT_EQ(fnv1a(rendered), golden)
          << "seed=" << seed << " workers=" << workers << " hash now 0x"
          << std::hex << fnv1a(rendered);
    }
  }
}

TEST(ScenarioMatrixTest, ScenarioCheckpointKillResumeIsByteIdentical) {
  // The scenario study's bundles carry request-boundary records (.spab
  // format v3): a collector killed mid-study must resume through them to
  // the same bytes. Re-drive the checkpoint protocol over a prefix of the
  // uninterrupted run's deliveries — the on-disk state of a collector that
  // died cleanly between runs — then resume.
  auto config = scenarioConfig();
  config.artifactsDirectory = freshDir("scenario_resume_truth").string();
  const auto truth = orch::runStudy(config);
  const std::string expected = renderStudy(truth.study);
  ASSERT_EQ(truth.appsProcessed, config.store.appCount);

  auto truthScan = orch::StudyRecovery::scan(config.artifactsDirectory);
  ASSERT_EQ(truthScan.runs.size(), config.store.appCount);
  // The scenario corpus actually exercises the v3 tail: at least one run
  // checkpointed request boundaries.
  std::size_t runsWithBoundaries = 0;
  for (const auto& run : truthScan.runs)
    if (!run.artifacts.requestBoundaries.empty()) ++runsWithBoundaries;
  EXPECT_GT(runsWithBoundaries, 0u);

  for (const std::size_t crashAfter : {std::size_t{1}, std::size_t{12}}) {
    auto crashed = scenarioConfig();
    crashed.artifactsDirectory =
        freshDir("scenario_resume_" + std::to_string(crashAfter)).string();
    orch::CheckpointWriter writer(crashed.artifactsDirectory);
    for (std::size_t i = 0; i < crashAfter; ++i)
      writer.checkpoint(truthScan.runs[i].jobIndex, truthScan.runs[i].account,
                        truthScan.runs[i].artifacts);

    const auto resumed = orch::resumeStudy(crashed);
    EXPECT_EQ(resumed.output.appsReplayed, crashAfter);
    EXPECT_EQ(resumed.output.appsProcessed, crashed.store.appCount);
    EXPECT_EQ(renderStudy(resumed.output.study), expected)
        << "scenario study diverged after resume from " << crashAfter
        << " checkpointed runs";
    std::filesystem::remove_all(crashed.artifactsDirectory);
  }
  std::filesystem::remove_all(config.artifactsDirectory);
}

TEST(ScenarioMatrixTest, ScenarioMergeIsByteIdenticalAtAnyCollectorCount) {
  const auto config = scenarioConfig();
  const std::string expected = renderStudy(orch::runStudy(config).study);

  for (const std::uint32_t count : {1u, 2u, 4u}) {
    std::vector<std::string> directories;
    for (std::uint32_t i = 0; i < count; ++i) {
      spectord::CollectorOptions options;
      options.index = i;
      options.count = count;
      options.checkpointDirectory =
          freshDir("scenario_merge_" + std::to_string(count) + "_" +
                   std::to_string(i))
              .string();
      const auto result = spectord::runCollector(config, options);
      EXPECT_EQ(result.runsAccepted, result.jobsDispatched);
      directories.push_back(options.checkpointDirectory);
    }
    const auto merged = orch::mergeStudies(config, directories);
    EXPECT_EQ(renderStudy(merged.output.study), expected)
        << "scenario merge at " << count << " collectors diverged";
    for (const auto& directory : directories)
      std::filesystem::remove_all(directory);
  }
}

TEST(ScenarioMatrixTest, KeepAliveSplitsSingleSocketsAcrossLibraries) {
  // The point of the keep-alive scenario: one TCP connection carrying
  // logical requests from different call stacks, with attribution splitting
  // the capture stream per request instead of blaming the opener for all
  // of it.
  std::size_t pooledFlows = 0;
  std::size_t multiLibrarySockets = 0;
  (void)attributeCorpus(scenarioConfig(), nullptr, &pooledFlows,
                        &multiLibrarySockets);
  EXPECT_GT(pooledFlows, 0u)
      << "keep-alive scenario produced no reused-connection flows";
  EXPECT_GE(multiLibrarySockets, 1u)
      << "no socket was attributed across >= 2 origin libraries";
}

TEST(ScenarioMatrixTest, AdversarialTwinsAttributeIdentically) {
  // Each adversarial app is the exact twin of its un-laundered self: the
  // laundering pass wraps entry points drawn from an rng forked off the
  // plan seed and never touches the planning or runtime streams. With
  // trampoline elision on (the default), attribution must see through the
  // reflection trampolines and spoofed builtin frames to the same flows.
  auto launderedConfig = smallConfig();
  launderedConfig.store.scenarios.adversarialApps = true;
  const auto honest = attributeCorpus(smallConfig());
  const auto laundered = attributeCorpus(launderedConfig);
  ASSERT_EQ(honest.size(), laundered.size());

  for (std::size_t app = 0; app < honest.size(); ++app) {
    EXPECT_EQ(honest[app], laundered[app])
        << "app " << app << " attributed differently from its twin";
  }
}

TEST(ScenarioMatrixTest, ElisionOffExposesTheLaundering) {
  // Sanity check that the twins test is not vacuous: without the elision
  // pass, at least one laundered report must elect a different origin —
  // junk-package trampolines become origins. (Spoofed builtin frames are
  // caught by the builtin skip regardless; elision exists for the
  // trampolines.) Honest stacks are a fixed point of elision.
  const auto countDiverged = [](const orch::StudyConfig& config) {
    std::vector<core::RunArtifacts> runs;
    (void)attributeCorpus(config, &runs);
    std::size_t diverged = 0;
    for (const auto& run : runs)
      for (const auto& report : run.reports)
        if (core::originFrameIndex(report.stackSignatures, false) !=
            core::originFrameIndex(report.stackSignatures, true))
          ++diverged;
    return diverged;
  };
  auto launderedConfig = smallConfig();
  launderedConfig.store.scenarios.adversarialApps = true;

  EXPECT_EQ(countDiverged(smallConfig()), 0u);
  EXPECT_GT(countDiverged(launderedConfig), 0u)
      << "laundering changed nothing even without elision — the adversarial "
         "generator is not actually laundering";
}

}  // namespace
}  // namespace libspector
