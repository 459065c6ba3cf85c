// Offline attribution + aggregation throughput: the paper's "<5 s per app"
// stage at study scale (§II-B3), tracked from PR 1 onward.
//
// The headline runs a 200-app synthetic study through the production path
// — TrafficAttributor::attributeColumns, then StudyAggregator::addAppColumns
// — serialized and with one worker per hardware thread, prints absolute
// apps/s for attribution alone and for attribution + study fold, and
// writes BENCH_attribution.json so the perf trajectory is machine-readable
// (scripts/check_bench_floor.py gates on it).
//
// The google-benchmark microbenchmarks after it isolate one axis each:
// naive capture scan (O(packets), the CaptureFile::streamVolume oracle) vs
// CaptureIndex (O(log packets)); the reference prefix matchers vs the
// compiled AttributionProgram (trie probes instead of per-prefix string
// scans); per-app attribution; the columnar fold alone; and attribution
// at 1/2/4 threads.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <iterator>
#include <string_view>

#include "core/analysis.hpp"
#include "core/attribution.hpp"
#include "core/attribution_program.hpp"
#include "dex/type_signature.hpp"
#include "net/capture.hpp"
#include "orch/emulator.hpp"
#include "radar/ant.hpp"
#include "radar/corpus.hpp"
#include "store/generator.hpp"
#include "util/strings.hpp"
#include "vtsim/categorizer.hpp"

namespace {

using namespace libspector;

constexpr std::size_t kStudyApps = 200;

/// The pre-emulated study every benchmark attributes: emulation runs once,
/// attribution is what gets measured.
struct StudyWorld {
  StudyWorld() {
    store::StoreConfig storeConfig;
    storeConfig.appCount = kStudyApps;
    storeConfig.seed = 20200629;
    storeConfig.methodScale = 0.15;
    generator = std::make_unique<store::AppStoreGenerator>(storeConfig);
    categorizer = std::make_unique<vtsim::DomainCategorizer>(
        vtsim::defaultVendorPanel(), [this](const std::string& domain) {
          return generator->domainTruth(domain);
        });
    for (std::size_t i = 0; i < generator->appCount(); ++i) {
      const auto job = generator->makeJob(i);
      orch::EmulatorConfig config;
      config.monkey.events = 20000;
      config.monkey.throttleMs = 20;
      config.seed = 0x11b59ec701ULL + i;
      orch::EmulatorInstance emulator(generator->farm(), nullptr, config);
      runs.push_back(emulator.run(job.apk, job.program));
    }
  }

  [[nodiscard]] core::TrafficAttributor attributor() const {
    return {corpus, *categorizer};
  }

  const radar::LibraryCorpus corpus = radar::LibraryCorpus::builtin();
  std::unique_ptr<store::AppStoreGenerator> generator;
  std::unique_ptr<vtsim::DomainCategorizer> categorizer;
  std::vector<core::RunArtifacts> runs;
};

const StudyWorld& world() {
  static const StudyWorld kWorld;
  return kWorld;
}

/// Attribute every run of the study with `threads` workers; returns the
/// total flow count (and keeps the optimizer honest).
std::size_t attributeStudy(const core::TrafficAttributor& attributor,
                           std::size_t threads) {
  std::atomic<std::size_t> nextRun{0};
  std::atomic<std::size_t> flowCount{0};
  const auto worker = [&] {
    while (true) {
      const std::size_t i = nextRun.fetch_add(1);
      if (i >= world().runs.size()) return;
      const auto flows = attributor.attributeColumns(world().runs[i]);
      flowCount.fetch_add(flows.size());
    }
  };
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::jthread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  }
  return flowCount.load();
}

/// Attribute with `threads` workers and fold every batch through
/// StudyAggregator::addAppColumns — the pipeline's end-to-end shape. The
/// fold is serialized behind a mutex exactly like the accumulator's.
std::size_t attributeAndFold(const core::TrafficAttributor& attributor,
                             std::size_t threads,
                             core::StudyAggregator& study) {
  std::atomic<std::size_t> nextRun{0};
  std::atomic<std::size_t> flowCount{0};
  std::mutex foldMutex;
  const auto worker = [&] {
    while (true) {
      const std::size_t i = nextRun.fetch_add(1);
      if (i >= world().runs.size()) return;
      const core::FlowColumns columns =
          attributor.attributeColumns(world().runs[i]);
      flowCount.fetch_add(columns.size());
      const std::scoped_lock lock(foldMutex);
      study.addAppColumns(world().runs[i], columns);
    }
  };
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::jthread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  }
  return flowCount.load();
}

double secondsOf(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// The headline numbers; also writes BENCH_attribution.json.
void runHeadline() {
  const std::size_t threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  std::size_t packets = 0;
  for (const auto& run : world().runs) packets += run.capture.size();

  // Each leg gets a fresh attributor, so every one pays the same cold
  // frame cache and symbol pool.
  std::size_t flows = 0;
  const double attributeSerialS = secondsOf([&] {
    flows = attributeStudy(world().attributor(), 1);
  });
  const double attributeParallelS = secondsOf([&] {
    attributeStudy(world().attributor(), threads);
  });
  const auto timeFold = [&](std::size_t workers) {
    const auto attributor = world().attributor();
    core::StudyAggregator study;
    const double seconds =
        secondsOf([&] { attributeAndFold(attributor, workers, study); });
    benchmark::DoNotOptimize(study.totals());
    return seconds;
  };
  const double foldSerialS = timeFold(1);
  const double foldParallelS = timeFold(threads);

  const auto appsPerSec = [](double seconds) {
    return seconds > 0.0 ? static_cast<double>(kStudyApps) / seconds : 0.0;
  };

  std::printf("=== attribution throughput: %zu-app study ===\n", kStudyApps);
  std::printf("capture packets: %zu, flows attributed: %zu\n", packets, flows);
  std::printf("attribute,        serialized:     %8.3f s  (%.1f apps/s)\n",
              attributeSerialS, appsPerSec(attributeSerialS));
  std::printf("attribute,        %2zu-way parallel: %7.3f s  (%.1f apps/s)\n",
              threads, attributeParallelS, appsPerSec(attributeParallelS));
  std::printf("attribute + fold, serialized:     %8.3f s  (%.1f apps/s)\n",
              foldSerialS, appsPerSec(foldSerialS));
  std::printf("attribute + fold, %2zu-way parallel: %7.3f s  (%.1f apps/s)\n\n",
              threads, foldParallelS, appsPerSec(foldParallelS));

  if (std::FILE* json = std::fopen("BENCH_attribution.json", "w")) {
    std::fprintf(json,
                 "{\n"
                 "  \"study_apps\": %zu,\n"
                 "  \"capture_packets\": %zu,\n"
                 "  \"flows\": %zu,\n"
                 "  \"threads\": %zu,\n"
                 "  \"attribute_serialized_apps_per_sec\": %.3f,\n"
                 "  \"attribute_parallel_apps_per_sec\": %.3f,\n"
                 "  \"fold_serialized_apps_per_sec\": %.3f,\n"
                 "  \"fold_parallel_apps_per_sec\": %.3f\n"
                 "}\n",
                 kStudyApps, packets, flows, threads,
                 appsPerSec(attributeSerialS), appsPerSec(attributeParallelS),
                 appsPerSec(foldSerialS), appsPerSec(foldParallelS));
    std::fclose(json);
    std::printf("wrote BENCH_attribution.json\n\n");
  }
}

// ---------------------------------------------------------------------------
// Microbenchmarks: each axis in isolation.
// ---------------------------------------------------------------------------

const core::RunArtifacts& largestRun() {
  static const core::RunArtifacts& kRun = []() -> const core::RunArtifacts& {
    const core::RunArtifacts* largest = &world().runs.front();
    for (const auto& run : world().runs) {
      if (run.capture.size() > largest->capture.size()) largest = &run;
    }
    return *largest;
  }();
  return kRun;
}

void BM_StreamVolume_NaiveScan(benchmark::State& state) {
  const auto& run = largestRun();
  const auto& reports = run.reports;
  if (reports.empty()) {
    state.SkipWithError("largest run produced no reports");
    return;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& report = reports[i++ % reports.size()];
    benchmark::DoNotOptimize(run.capture.streamVolume(
        report.socketPair, 0, report.timestampMs + 10'000));
  }
  state.SetLabel("packets=" + std::to_string(run.capture.size()));
}
BENCHMARK(BM_StreamVolume_NaiveScan);

void BM_StreamVolume_Indexed(benchmark::State& state) {
  const auto& run = largestRun();
  const net::CaptureIndex index(run.capture);
  const auto& reports = run.reports;
  if (reports.empty()) {
    state.SkipWithError("largest run produced no reports");
    return;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& report = reports[i++ % reports.size()];
    benchmark::DoNotOptimize(index.streamVolume(
        report.socketPair, 0, report.timestampMs + 10'000));
  }
  state.SetLabel("packets=" + std::to_string(run.capture.size()));
}
BENCHMARK(BM_StreamVolume_Indexed);

void BM_CaptureIndex_Build(benchmark::State& state) {
  const auto& run = largestRun();
  for (auto _ : state) {
    const net::CaptureIndex index(run.capture);
    benchmark::DoNotOptimize(index.connectionCount());
  }
}
BENCHMARK(BM_CaptureIndex_Build);

void BM_AttributeApp(benchmark::State& state) {
  const auto attributor = world().attributor();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        attributor.attributeColumns(world().runs[i++ % world().runs.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_AttributeApp);

// Sample lookups for the matcher microbenches: hits at several depths plus
// adversarial near-prefixes and misses.
constexpr std::string_view kLookupPackages[] = {
    "com.google.android.gms.ads.internal",
    "com.unity3d.ads.android.cache",
    "com.facebook.ads.internal.view",
    "com.appsflyer.internal",
    "org.fooz.bar.baz",
    "com.examplez.widget",
    "a.b",
    "com.foo.bar.baz.qux.deep.deeper.deepest",
};

constexpr std::string_view kFrameSignatures[] = {
    "Lcom/android/okhttp/internal/http/HttpEngine;->readResponse()V",
    "Ljava/net/URL;->openConnection()Ljava/net/URLConnection;",
    "Lcom/unity3d/ads/android/cache/b;->doInBackground([Ljava/lang/String;)V",
    "Lcom/facebook/ads/internal/view/e;->onDraw(Landroid/graphics/Canvas;)V",
    "Lorg/apache/http/impl/client/DefaultHttpClient;->execute()V",
};

const core::AttributionProgram& program() {
  static const core::AttributionProgram kProgram(
      world().corpus, core::builtinFramePrefixes(), radar::antLibraries(),
      radar::commonLibraries());
  return kProgram;
}

void BM_PrefixMatch_Reference(benchmark::State& state) {
  const auto& corpus = world().corpus;
  std::size_t i = 0;
  for (auto _ : state) {
    const std::string_view package =
        kLookupPackages[i++ % std::size(kLookupPackages)];
    benchmark::DoNotOptimize(corpus.matchCategory(package));
    benchmark::DoNotOptimize(radar::antLibraries().matches(package));
    benchmark::DoNotOptimize(radar::commonLibraries().matches(package));
  }
}
BENCHMARK(BM_PrefixMatch_Reference);

void BM_PrefixMatch_Compiled(benchmark::State& state) {
  const auto& compiled = program();
  std::size_t i = 0;
  for (auto _ : state) {
    const std::string_view package =
        kLookupPackages[i++ % std::size(kLookupPackages)];
    const auto hit = compiled.lookupPackage(package);
    benchmark::DoNotOptimize(compiled.categoryOf(hit));
    benchmark::DoNotOptimize(hit.ant);
    benchmark::DoNotOptimize(hit.common);
  }
}
BENCHMARK(BM_PrefixMatch_Compiled);

void BM_BuiltinFrame_Reference(benchmark::State& state) {
  const auto prefixes = core::builtinFramePrefixes();
  std::size_t i = 0;
  for (auto _ : state) {
    const std::string_view signature =
        kFrameSignatures[i++ % std::size(kFrameSignatures)];
    const auto parsed = dex::parseSignatureView(signature);
    bool builtin = false;
    if (parsed.has_value()) {
      for (const std::string_view prefix : prefixes) {
        if (util::isHierarchicalPrefixOfSlashedFrame(
                prefix, parsed->slashedClass, parsed->methodName)) {
          builtin = true;
          break;
        }
      }
    }
    benchmark::DoNotOptimize(builtin);
  }
}
BENCHMARK(BM_BuiltinFrame_Reference);

void BM_BuiltinFrame_Compiled(benchmark::State& state) {
  const auto& compiled = program();
  std::size_t i = 0;
  for (auto _ : state) {
    const std::string_view signature =
        kFrameSignatures[i++ % std::size(kFrameSignatures)];
    benchmark::DoNotOptimize(compiled.isBuiltinFrame(signature));
  }
}
BENCHMARK(BM_BuiltinFrame_Compiled);

/// Pre-attributed study for the fold-only microbench. The attributor
/// outlives the columns (their ids point into its pool).
struct FoldWorld {
  FoldWorld() : attributor(world().attributor()) {
    for (const auto& run : world().runs)
      columns.push_back(attributor.attributeColumns(run));
  }
  core::TrafficAttributor attributor;
  std::vector<core::FlowColumns> columns;
};

const FoldWorld& foldWorld() {
  static const FoldWorld kFold;
  return kFold;
}

void BM_StudyFold(benchmark::State& state) {
  // Attribute outside the timed loop: only the fold is measured.
  const FoldWorld& fold = foldWorld();
  for (auto _ : state) {
    core::StudyAggregator study;
    for (std::size_t i = 0; i < world().runs.size(); ++i)
      study.addAppColumns(world().runs[i], fold.columns[i]);
    benchmark::DoNotOptimize(study.totals());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * static_cast<std::int64_t>(kStudyApps)));
}
BENCHMARK(BM_StudyFold)->Unit(benchmark::kMillisecond);

void BM_StudyAttribution(benchmark::State& state) {
  const auto attributor = world().attributor();
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(attributeStudy(attributor, threads));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * static_cast<std::int64_t>(kStudyApps)));
}
BENCHMARK(BM_StudyAttribution)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  runHeadline();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
