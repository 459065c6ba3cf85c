// The determinism contract of generation on the workers: each dispatcher
// worker claims a corpus index and expands it itself, so at any thread or
// worker count the pipeline must produce the same corpus — and runStudy
// the same study — byte for byte as one thread does. makeJob is a pure
// function of the index and every emulator is seeded from its job's own
// index, so the thread count may change *who* expands a job and *when*,
// never *what* it is.
#include "store/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "core/export.hpp"
#include "dex/apk.hpp"
#include "orch/study.hpp"
#include "rt/program.hpp"
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

/// Expands the whole corpus the way the dispatcher's workers do: `threads`
/// threads claim indices from one cursor and each expands (makeJob +
/// sha256) what it claimed. 0 threads = the calling thread, in order.
CorpusFingerprint expand(const AppStoreGenerator& generator,
                         std::size_t threads) {
  CorpusFingerprint fingerprint;
  fingerprint.apkSha256.resize(generator.appCount());
  fingerprint.serializedBytes.resize(generator.appCount());
  std::atomic<std::size_t> cursor{0};
  const auto claimLoop = [&] {
    for (std::size_t i = cursor.fetch_add(1); i < generator.appCount();
         i = cursor.fetch_add(1)) {
      const auto job = generator.makeJob(i);
      fingerprint.apkSha256[i] = util::toHex(job.apk.sha256());
      fingerprint.serializedBytes[i] = job.apk.serialize().size();
    }
  };
  if (threads == 0) {
    claimLoop();
  } else {
    std::vector<std::jthread> pool;
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(claimLoop);
  }
  return fingerprint;
}

class CorpusDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CorpusDeterminism, ThreadCountDoesNotChangeACorpusByte) {
  const AppStoreGenerator generator(storeConfig(GetParam()));
  const auto serial = expand(generator, 0);
  for (const std::size_t threads : {1UL, 2UL, 8UL}) {
    const auto claimed = expand(generator, threads);
    EXPECT_EQ(claimed.apkSha256, serial.apkSha256) << threads << " threads";
    EXPECT_EQ(claimed.serializedBytes, serial.serializedBytes)
        << threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorpusDeterminism, ::testing::Values(5, 77));

// The apk bytes themselves. The study and checkpoint pins hash what runs
// produced, which carries no apk digest, so they cannot see an apk byte
// move. Each world pins, over its apps in index order, the FNV-64 of
// "<hex sha256> <serialized size>\n" and the sum of the serialized sizes.
// The values were recorded while ApkFile still stored nested class
// vectors, and must hold for any layout that keeps the apk format.
struct ApkPin {
  const char* name;
  std::uint64_t seed;
  std::size_t apps;
  double methodScale;
  bool scenarios;
  std::size_t totalBytes;
  std::uint64_t digest;

  friend void PrintTo(const ApkPin& pin, std::ostream* out) {
    *out << pin.name;
  }
};

class CorpusApkPin : public ::testing::TestWithParam<ApkPin> {};

TEST_P(CorpusApkPin, NoApkByteMoves) {
  const ApkPin& pin = GetParam();
  StoreConfig config = storeConfig(pin.seed, pin.apps);
  config.methodScale = pin.methodScale;
  if (pin.scenarios)
    config.scenarios = {.keepAliveReuse = true,
                        .adversarialApps = true,
                        .backgroundSync = true};
  const AppStoreGenerator generator(config);
  std::string fingerprint;
  std::size_t totalBytes = 0;
  std::size_t pastOneDex = 0;
  for (std::size_t i = 0; i < generator.appCount(); ++i) {
    const auto job = generator.makeJob(i);
    const auto bytes = job.apk.serialize();
    EXPECT_EQ(job.apk.sha256(), util::Sha256::hash(bytes)) << "app " << i;
    EXPECT_EQ(dex::ApkFile::deserialize(bytes), job.apk) << "app " << i;
    fingerprint += util::toHex(job.apk.sha256()) + ' ' +
                   std::to_string(bytes.size()) + '\n';
    totalBytes += bytes.size();
    if (job.apk.totalMethodCount() > 65536) ++pastOneDex;
  }
  EXPECT_EQ(totalBytes, pin.totalBytes);
  EXPECT_EQ(util::fnv1a64(fingerprint), pin.digest);
  // The large world exists to take the multi-dex split.
  if (pin.methodScale > 1.0) {
    EXPECT_GT(pastOneDex, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, CorpusApkPin,
    ::testing::Values(
        ApkPin{"Seed5", 5, 20, 0.05, false, 2360146, 0x2bf534653c0f60f1ULL},
        ApkPin{"Seed5Scenarios", 5, 20, 0.05, true, 2361846,
               0x5a086ba9b3d26967ULL},
        ApkPin{"Seed77", 77, 20, 0.05, false, 2674496, 0x85cd9f769c40e164ULL},
        ApkPin{"Seed77Scenarios", 77, 20, 0.05, true, 2681154,
               0x19428c0db31cf795ULL},
        ApkPin{"MultiDex", 5, 10, 2.0, false, 40018776,
               0x5b1178ce229fe21bULL}),
    [](const ::testing::TestParamInfo<ApkPin>& info) {
      return std::string(info.param.name);
    });

// The programs. An apk carries every program signature but no body,
// frame name or entry point, so CorpusApkPin cannot see those move. Each
// world pins, over its apps in index order, the total method count and
// the FNV-64 of every program written out: per method its signature, its
// frame name and its body (each action's kind and every field), then
// onCreate, uiHandlers and backgroundTasks. The values were recorded
// while each method still stored its own signature and frame name
// strings.
void putU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out += static_cast<char>(v >> (8 * i));
}

void putText(std::string& out, std::string_view text) {
  putU64(out, text.size());
  out += text;
}

void putAction(std::string& out, const rt::Action& action) {
  putU64(out, action.index());
  std::visit(
      [&out](const auto& a) {
        using T = std::decay_t<decltype(a)>;
        if constexpr (std::is_same_v<T, rt::NetRequestAction>) {
          putText(out, a.domain);
          putU64(out, a.port);
          putU64(out, a.requestBytesMin);
          putU64(out, a.requestBytesMax);
          putU64(out, a.transfers);
          putU64(out, static_cast<std::uint64_t>(a.engine));
          putText(out, a.path);
          putText(out, a.userAgent);
          putU64(out, a.post);
          putU64(out, a.keepAlive);
        } else if constexpr (std::is_same_v<T, rt::SystemRequestAction>) {
          putText(out, a.domain);
          putU64(out, a.port);
          putU64(out, a.requestBytesMin);
          putU64(out, a.requestBytesMax);
        } else if constexpr (std::is_same_v<T, rt::SleepAction>) {
          putU64(out, a.ms);
        } else if constexpr (std::is_same_v<T, rt::AsyncAction>) {
          putU64(out, a.task);
        } else if constexpr (std::is_same_v<T, rt::GuardAction>) {
          putU64(out, std::bit_cast<std::uint64_t>(a.prob));
          putU64(out, a.callee);
        } else {  // CallAction, ReflectiveCallAction
          putU64(out, a.callee);
        }
      },
      action);
}

void putProgram(std::string& out, const rt::AppProgram& program) {
  putU64(out, program.methodCount());
  for (rt::MethodId id = 0; id < program.methodCount(); ++id) {
    const rt::MethodView method = program.method(id);
    putText(out, method.signature);
    putText(out, program.frameName(id));
    putU64(out, method.body.size());
    for (const rt::Action& action : method.body) putAction(out, action);
  }
  putU64(out, program.onCreate.has_value());
  putU64(out, program.onCreate.value_or(0));
  putU64(out, program.uiHandlers.size());
  for (const rt::MethodId id : program.uiHandlers) putU64(out, id);
  putU64(out, program.backgroundTasks.size());
  for (const rt::MethodId id : program.backgroundTasks) putU64(out, id);
}

struct ProgramPin {
  const char* name;
  std::uint64_t seed;
  std::size_t apps;
  double methodScale;
  bool scenarios;
  std::size_t methods;
  std::uint64_t digest;

  friend void PrintTo(const ProgramPin& pin, std::ostream* out) {
    *out << pin.name;
  }
};

class CorpusProgramPin : public ::testing::TestWithParam<ProgramPin> {};

TEST_P(CorpusProgramPin, NoProgramByteMoves) {
  const ProgramPin& pin = GetParam();
  StoreConfig config = storeConfig(pin.seed, pin.apps);
  config.methodScale = pin.methodScale;
  if (pin.scenarios)
    config.scenarios = {.keepAliveReuse = true,
                        .adversarialApps = true,
                        .backgroundSync = true};
  const AppStoreGenerator generator(config);
  std::string written;
  std::size_t methods = 0;
  for (std::size_t i = 0; i < generator.appCount(); ++i) {
    const auto job = generator.makeJob(i);
    putProgram(written, job.program);
    methods += job.program.methodCount();
  }
  EXPECT_EQ(methods, pin.methods);
  EXPECT_EQ(util::fnv1a64(written), pin.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, CorpusProgramPin,
    ::testing::Values(
        ProgramPin{"Seed5", 5, 20, 0.05, false, 6961, 0xcc2e0045ba20016fULL},
        ProgramPin{"Seed5Scenarios", 5, 20, 0.05, true, 7418,
                   0x6cff5a45320af50cULL},
        ProgramPin{"Seed77", 77, 20, 0.05, false, 10023,
                   0xac16e1cf93ad02ccULL},
        ProgramPin{"Seed77Scenarios", 77, 20, 0.05, true, 10622,
                   0x970982ffe564944bULL},
        ProgramPin{"MultiDex", 5, 10, 2.0, false, 67702,
                   0x528a67b0e5f01848ULL}),
    [](const ::testing::TestParamInfo<ProgramPin>& info) {
      return std::string(info.param.name);
    });

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

orch::StudyConfig studyConfig(std::uint64_t seed, std::size_t workers) {
  orch::StudyConfig config;
  config.store = storeConfig(seed, 12);
  config.dispatcher.workers = workers;
  config.dispatcher.emulator.monkey.events = 80;
  config.dispatcher.emulator.monkey.throttleMs = 50;
  config.ingest.shards = 2;
  return config;
}

class StudyDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StudyDeterminism, WorkerCountDoesNotChangeAStudyByte) {
  const std::uint64_t seed = GetParam();
  const auto serial = orch::runStudy(studyConfig(seed, 1));
  const std::string baseline = renderStudy(serial.study);
  ASSERT_FALSE(baseline.empty());

  for (const std::size_t workers : {2UL, 4UL, 8UL}) {
    const auto parallel = orch::runStudy(studyConfig(seed, workers));
    EXPECT_EQ(parallel.appsProcessed, serial.appsProcessed);
    EXPECT_EQ(parallel.appsFailed, 0u);
    EXPECT_EQ(renderStudy(parallel.study), baseline) << workers << " workers";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StudyDeterminism, ::testing::Values(5, 77));

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
      renderStudy(orch::runStudy(studyConfig(seed, 2)).study);
  EXPECT_EQ(rendered.size(), pin.bytes);
  EXPECT_EQ(util::fnv1a64(rendered), pin.digest);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterningStudyIdentity,
                         ::testing::Values(5, 77));

TEST(StudyCheckpointTest, InterningDoesNotChangeACheckpointByte) {
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

}  // namespace
}  // namespace libspector::store
