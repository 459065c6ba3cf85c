// App-store generation throughput: the per-app work a dispatcher worker
// does before it emulates.
//
// Four axes:
//   - job expansion: makeJob + apk sha256, on 1 thread and on every
//     hardware thread, the threads claiming corpus indices from one atomic
//     cursor as the dispatcher's workers do;
//   - hashing: ApkFile::sha256(), the header and then the dex image in one
//     update;
//   - makeJob alone, on one thread, each call timed without the job's
//     destruction;
//   - heap allocations per makeJob, counted on one thread by the global
//     operator new replacement in common/alloc_counter.cpp.
//
// The headline expands a fixed corpus kRepetitions times per thread count,
// prints the median apps/s with its min and max, times the hash alone in
// serialized MB/s (1 MB = 10^6 bytes) on the kernel the process selected,
// times makeJob alone in us per app (median of kRepetitions with min and
// max), counts makeJob's allocations, and writes BENCH_store.json (gated by
// scripts/check_bench_floor.py). The google-benchmark microbenchmarks
// after it isolate the hash and the expansion; pass
// --benchmark_filter='^$' to run the headline alone.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/alloc_counter.hpp"
#include "store/generator.hpp"
#include "util/sha256.hpp"

namespace {

using namespace libspector;

constexpr std::size_t kApps = 96;
constexpr std::size_t kRepetitions = 5;
constexpr std::size_t kHashedApps = 16;

const store::AppStoreGenerator& benchGenerator() {
  static const store::AppStoreGenerator kGenerator([] {
    store::StoreConfig config;
    config.appCount = kApps;
    config.seed = 20200629;
    config.methodScale = 0.15;  // full-size default: realistic dex walks
    return config;
  }());
  return kGenerator;
}

/// Expands the whole corpus (makeJob + sha256) on `threads`
/// threads that claim indices from one cursor; returns apps/s.
double expandCorpus(std::size_t threads) {
  std::atomic<std::size_t> cursor{0};
  const auto claimLoop = [&cursor] {
    for (std::size_t i = cursor.fetch_add(1); i < kApps;
         i = cursor.fetch_add(1)) {
      const auto job = benchGenerator().makeJob(i);
      benchmark::DoNotOptimize(util::toHex(job.apk.sha256()));
    }
  };
  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(claimLoop);
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return static_cast<double>(kApps) / seconds;
}

struct Rate {
  std::size_t threads = 0;
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// `sample()` taken kRepetitions times: the median with min and max.
template <class Sample>
Rate repeat(std::size_t threads, Sample sample) {
  std::vector<double> samples;
  for (std::size_t r = 0; r < kRepetitions; ++r) samples.push_back(sample());
  std::sort(samples.begin(), samples.end());
  return {threads, samples[samples.size() / 2], samples.front(),
          samples.back()};
}

Rate measure(std::size_t threads) {
  return repeat(threads, [threads] { return expandCorpus(threads); });
}

/// ApkFile::sha256() over the first kHashedApps apks of the corpus on one
/// thread, kRepetitions times: median serialized MB/s with min and max.
Rate measureHash() {
  std::vector<store::AppStoreGenerator::Job> jobs;
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < kHashedApps; ++i) {
    jobs.push_back(benchGenerator().makeJob(i));
    bytes += jobs.back().apk.serialize().size();
  }
  return repeat(1, [&] {
    const auto start = std::chrono::steady_clock::now();
    for (const auto& job : jobs) benchmark::DoNotOptimize(job.apk.sha256());
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    return static_cast<double>(bytes) / 1e6 / seconds;
  });
}

/// makeJob alone over the whole corpus on this thread, kRepetitions times:
/// median us per app with min and max. Each call is timed on its own, so
/// destroying the job it returned is not counted.
Rate measureMakeJob() {
  return repeat(1, [] {
    std::chrono::steady_clock::duration spent{};
    for (std::size_t i = 0; i < kApps; ++i) {
      const auto start = std::chrono::steady_clock::now();
      const auto job = benchGenerator().makeJob(i);
      spent += std::chrono::steady_clock::now() - start;
      benchmark::DoNotOptimize(job);
    }
    return std::chrono::duration<double, std::micro>(spent).count() /
           static_cast<double>(kApps);
  });
}

/// Heap allocations per makeJob over the whole corpus, on this thread.
double makeJobAllocationsPerApp() {
  const std::uint64_t before = bench::allocationCount();
  for (std::size_t i = 0; i < kApps; ++i)
    benchmark::DoNotOptimize(benchGenerator().makeJob(i));
  return static_cast<double>(bench::allocationCount() - before) /
         static_cast<double>(kApps);
}

void runHeadline() {
  (void)benchGenerator();  // world build is set-up, not generation
  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::printf("=== store generation: %zu apps, makeJob + sha256, "
              "median of %zu ===\n",
              kApps, kRepetitions);
  const Rate one = measure(1);
  const Rate all = measure(hardware);
  for (const Rate& rate : {one, all})
    std::printf("%2zu thread(s): %8.1f apps/s  (min %.1f, max %.1f)\n",
                rate.threads, rate.median, rate.min, rate.max);
  const Rate hash = measureHash();
  std::printf("sha256 (%s kernel): %8.1f MB/s  (min %.1f, max %.1f)\n",
              util::Sha256::kernelName(), hash.median, hash.min, hash.max);
  const Rate makeJob = measureMakeJob();
  std::printf("makeJob alone (1 thread): %8.1f us/app  (min %.1f, max %.1f)\n",
              makeJob.median, makeJob.min, makeJob.max);
  const double allocations = makeJobAllocationsPerApp();
  std::printf("makeJob: %.0f heap allocations per app\n", allocations);
  std::printf("\n");

  if (std::FILE* json = std::fopen("BENCH_store.json", "w")) {
    std::fprintf(json,
                 "{\n  \"apps\": %zu,\n  \"repetitions\": %zu,\n"
                 "  \"hardware_threads\": %zu,\n",
                 kApps, kRepetitions, hardware);
    for (const auto& [key, rate] :
         {std::pair{"one_thread", one}, std::pair{"all_threads", all}})
      std::fprintf(json,
                   "  \"%s_apps_per_sec\": %.2f,\n"
                   "  \"%s_apps_per_sec_min\": %.2f,\n"
                   "  \"%s_apps_per_sec_max\": %.2f,\n",
                   key, rate.median, key, rate.min, key, rate.max);
    std::fprintf(json,
                 "  \"sha256_kernel\": \"%s\",\n"
                 "  \"sha256_mb_per_sec\": %.2f,\n"
                 "  \"sha256_mb_per_sec_min\": %.2f,\n"
                 "  \"sha256_mb_per_sec_max\": %.2f,\n",
                 util::Sha256::kernelName(), hash.median, hash.min, hash.max);
    std::fprintf(json,
                 "  \"make_job_us\": %.1f,\n"
                 "  \"make_job_us_min\": %.1f,\n"
                 "  \"make_job_us_max\": %.1f,\n"
                 "  \"make_job_allocs_per_app\": %.1f,\n",
                 makeJob.median, makeJob.min, makeJob.max, allocations);
    std::fprintf(json, "  \"threads\": [1, %zu]\n}\n", hardware);
    std::fclose(json);
    std::printf("wrote BENCH_store.json\n\n");
  }
}

// ---------------------------------------------------------------------------
// Microbenchmarks: the hash path in isolation.
// ---------------------------------------------------------------------------

void BM_Sha256(benchmark::State& state) {
  const auto job = benchGenerator().makeJob(0);
  const std::size_t bytes = job.apk.serialize().size();
  for (auto _ : state) benchmark::DoNotOptimize(job.apk.sha256());
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_Sha256)->Unit(benchmark::kMicrosecond);

void BM_MakeJob(benchmark::State& state) {
  // Expansion alone (no hashing).
  std::size_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(benchGenerator().makeJob(i++ % kApps));
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_MakeJob)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  runHeadline();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
