// The determinism contract of the generation tier (ISSUE 4): at any
// prefetch thread count the pipeline must produce the same corpus — and
// runStudy the same study — byte for byte as the serial path. makeJob is a
// pure function of the plan seed and the reorder window preserves index
// order, so thread count may change *when* a job is expanded, never *what*
// the consumer sees.
#include "store/prefetch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/export.hpp"
#include "orch/study.hpp"
#include "util/bytes.hpp"
#include "util/sha256.hpp"

namespace libspector::store {
namespace {

StoreConfig storeConfig(std::uint64_t seed, std::size_t apps = 20) {
  StoreConfig config;
  config.appCount = apps;
  config.seed = seed;
  config.methodScale = 0.05;
  return config;
}

struct CorpusFingerprint {
  std::vector<std::string> apkSha256;        // per index, hex
  std::vector<std::size_t> serializedBytes;  // per index
};

CorpusFingerprint drain(const AppStoreGenerator& generator,
                        std::size_t threads) {
  PrefetchConfig config;
  config.threads = threads;
  config.capacity = 8;
  JobPrefetcher prefetcher(generator, config);
  CorpusFingerprint fingerprint;
  std::size_t expected = 0;
  while (auto item = prefetcher.next()) {
    EXPECT_EQ(item->index, expected++);
    fingerprint.apkSha256.push_back(item->apkSha256);
    fingerprint.serializedBytes.push_back(item->job.apk.serialize().size());
  }
  EXPECT_EQ(expected, generator.appCount());
  return fingerprint;
}

class PrefetchCorpusDeterminism
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrefetchCorpusDeterminism, ThreadCountDoesNotChangeACorpusByte) {
  const AppStoreGenerator generator(storeConfig(GetParam()));
  const auto serial = drain(generator, 0);
  for (const std::size_t threads : {1UL, 2UL, 8UL}) {
    const auto pipelined = drain(generator, threads);
    EXPECT_EQ(pipelined.apkSha256, serial.apkSha256) << threads << " threads";
    EXPECT_EQ(pipelined.serializedBytes, serial.serializedBytes)
        << threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefetchCorpusDeterminism,
                         ::testing::Values(5, 77));

/// Render every figure dataset plus the markdown report into one string:
/// if two studies agree on all of it byte for byte, they are the same
/// study for every consumer this repository has.
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

orch::StudyConfig studyConfig(std::uint64_t seed, std::size_t threads) {
  orch::StudyConfig config;
  config.store = storeConfig(seed, 12);
  config.dispatcher.workers = 2;
  config.dispatcher.emulator.monkey.events = 80;
  config.dispatcher.emulator.monkey.throttleMs = 50;
  config.ingest.shards = 2;
  config.prefetch.threads = threads;
  config.prefetch.capacity = 4;
  return config;
}

class PrefetchStudyDeterminism
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrefetchStudyDeterminism, ThreadCountDoesNotChangeAStudyByte) {
  const std::uint64_t seed = GetParam();
  const auto serial = orch::runStudy(studyConfig(seed, 0));
  const std::string baseline = renderStudy(serial.study);
  ASSERT_FALSE(baseline.empty());

  for (const std::size_t threads : {1UL, 2UL, 8UL}) {
    const auto pipelined = orch::runStudy(studyConfig(seed, threads));
    EXPECT_EQ(pipelined.appsProcessed, serial.appsProcessed);
    EXPECT_EQ(pipelined.appsFailed, 0u);
    EXPECT_EQ(renderStudy(pipelined.study), baseline)
        << threads << " prefetch threads";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefetchStudyDeterminism,
                         ::testing::Values(5, 77));

// Symbol interning is a speed/memory knob, never a results knob: the
// study must render exactly what the attributor rendered with its
// cross-run frame cache off, recorded (size and FNV-64) before that
// fallback was removed.
class InterningStudyIdentity : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(InterningStudyIdentity, InterningDoesNotChangeAStudyByte) {
  struct Pin {
    std::size_t bytes;
    std::uint64_t digest;
  };
  const std::uint64_t seed = GetParam();
  const Pin pin = seed == 5 ? Pin{13325, 0x63b9010637293aefULL}
                            : Pin{14692, 0x2732bf4a5063efebULL};
  const std::string rendered =
      renderStudy(orch::runStudy(studyConfig(seed, 0)).study);
  EXPECT_EQ(rendered.size(), pin.bytes);
  EXPECT_EQ(util::fnv1a64(rendered), pin.digest);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterningStudyIdentity,
                         ::testing::Values(5, 77));

TEST(PrefetchStudyTest, InterningDoesNotChangeACheckpointByte) {
  // The persisted artifact bundles carry reports and captures that flowed
  // through the symbol-interned pipeline. Every .spab must stay
  // byte-identical to what the study wrote with interning off, pinned as
  // the size and FNV-64 of the bundles in file-name order, each as
  // name, NUL, bytes.
  namespace fs = std::filesystem;
  const std::string dir =
      ::testing::TempDir() + "/spector_intern_ckpt_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  fs::remove_all(dir);
  auto config = studyConfig(5, 2);
  config.artifactsDirectory = dir;
  (void)orch::runStudy(config);

  std::vector<fs::path> bundles;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().extension() == ".spab") bundles.push_back(entry.path());
  std::sort(bundles.begin(), bundles.end());
  EXPECT_EQ(bundles.size(), config.store.appCount);
  std::string all;
  for (const auto& bundle : bundles) {
    std::ifstream in(bundle, std::ios::binary);
    all += bundle.filename().string();
    all += '\0';
    all.append(std::istreambuf_iterator<char>(in), {});
  }
  EXPECT_EQ(all.size(), 327903u);
  EXPECT_EQ(util::fnv1a64(all), 0xaa03faa42910149cULL);
}

TEST(PrefetchStudyTest, StatsAreReportedThroughStudyOutput) {
  auto config = studyConfig(5, 2);
  const auto output = orch::runStudy(config);
  EXPECT_EQ(output.prefetchStats.produced, config.store.appCount);
  EXPECT_EQ(output.prefetchStats.delivered, config.store.appCount);
  EXPECT_LE(output.prefetchStats.maxOutstanding, config.prefetch.capacity);
}

}  // namespace
}  // namespace libspector::store
