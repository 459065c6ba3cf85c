// The report wire and the flow record stage, in absolute numbers.
//
// Three headline numbers, written to BENCH_wire.json:
//
//   - wire bytes per reported socket of the dictionary-compressed report
//     frame, over a run with realistic smali signatures (60-90 chars) and
//     stack depths (8-16): a supervisor re-sends the same handful of
//     signatures on every socket, and the frame sends each distinct one
//     once per run and u32 ids afterwards;
//
//   - heap allocations per 10k attributed flows in the record + fold stage
//     (u32-id FlowColumns batches folded through the dense
//     StudyAggregator::addAppColumns), counted with the global operator
//     new replacement in common/alloc_counter.cpp;
//
//   - util::crc32 throughput in MB/s (1 MB = 10^6 bytes), one thread, the
//     median of 5 passes over an 8 MiB buffer of random bytes: every
//     report frame, spectord frame and .spab bundle is checksummed with it.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/alloc_counter.hpp"
#include "core/analysis.hpp"
#include "core/attribution.hpp"
#include "core/report.hpp"
#include "orch/emulator.hpp"
#include "radar/corpus.hpp"
#include "store/generator.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "vtsim/categorizer.hpp"

namespace {

using namespace libspector;

// ---------------------------------------------------------------------------
// Part 1: wire bytes per socket.
// ---------------------------------------------------------------------------

/// Realistic smali type signatures in the 60-90 character band the paper's
/// SDK stacks occupy (ad/analytics/networking internals, obfuscated tails).
std::vector<std::string> signaturePool() {
  const char* const kClasses[] = {
      "Lcom/google/android/gms/ads/internal/request/service/b",
      "Lcom/flurry/android/monolithic/sdk/impl/network/ado",
      "Lcom/unity3d/ads/android/cache/download/worker/c",
      "Lcom/chartboost/sdk/impl/networking/request/aw",
      "Lcom/inmobi/commons/analytics/net/dispatcher/e",
      "Lcom/millennialmedia/android/bridge/transport/d",
      "Lcom/mopub/mobileads/internal/loader/task/f",
      "Lcom/facebook/ads/internal/server/handler/g",
  };
  const char* const kMethods[] = {
      "doInBackground([Ljava/lang/String;)Ljava/lang/Object;",
      "executeRequest(Ljava/lang/String;I)Ljava/lang/String;",
      "openConnection(Ljava/lang/String;)Ljava/net/Socket;",
      "a(Ljava/lang/String;Ljava/lang/Object;)V",
  };
  std::vector<std::string> pool;
  for (const char* cls : kClasses)
    for (const char* method : kMethods)
      pool.push_back(std::string(cls) + ";->" + method);
  return pool;
}

struct WireNumbers {
  std::size_t sockets = 0;
  std::size_t distinctSignatures = 0;
  std::uint64_t v3Bytes = 0;
};

/// One run's worth of supervisor datagrams from one encoder.
WireNumbers measureWire(std::size_t sockets) {
  const auto pool = signaturePool();
  util::Rng rng(0x11b59ec705ULL);
  WireNumbers numbers;
  numbers.sockets = sockets;
  numbers.distinctSignatures = pool.size();

  core::DictFrameEncoder encoder(7);
  for (std::size_t seq = 0; seq < sockets; ++seq) {
    core::UdpReport report;
    report.apkSha256 =
        "2b8f3a6f0d9c41e7885f12aa34cc56de2b8f3a6f0d9c41e7885f12aa34cc56de";
    report.socketPair = {{net::Ipv4Addr(10, 0, 2, 15),
                          static_cast<std::uint16_t>(32768 + seq % 28000)},
                         {net::Ipv4Addr(198, 18, 0, 1), 443}};
    report.timestampMs = seq * 37;
    const std::size_t depth = rng.uniform(8, 16);
    const std::size_t base = rng.uniform(0, pool.size() - 1);
    for (std::size_t i = 0; i < depth; ++i)
      report.stackSignatures.push_back(pool[(base + i) % pool.size()]);
    numbers.v3Bytes += encoder.encode(seq, report).size();
  }
  return numbers;
}

// ---------------------------------------------------------------------------
// Part 2: heap allocations per 10k attributed flows.
// ---------------------------------------------------------------------------

constexpr std::size_t kStudyApps = 60;

/// Pre-emulated study world: emulation runs once, outside the measured
/// pass.
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

  const radar::LibraryCorpus corpus = radar::LibraryCorpus::builtin();
  std::unique_ptr<store::AppStoreGenerator> generator;
  std::unique_ptr<vtsim::DomainCategorizer> categorizer;
  std::vector<core::RunArtifacts> runs;
};

/// The record stage: each run's flows are one u32-id FlowColumns batch,
/// folded through the dense StudyAggregator entry point.
std::size_t recordAndFold(const StudyWorld& world,
                          const std::vector<core::FlowColumns>& batches) {
  core::StudyAggregator study;
  std::size_t flowCount = 0;
  for (std::size_t i = 0; i < world.runs.size(); ++i) {
    study.addAppColumns(world.runs[i], batches[i]);
    flowCount += batches[i].size();
  }
  return flowCount;
}

// ---------------------------------------------------------------------------
// Part 3: crc32 throughput.
// ---------------------------------------------------------------------------

constexpr std::size_t kCrcBufferBytes = std::size_t{8} << 20;
constexpr std::size_t kCrcRepetitions = 5;

struct CrcRate {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::uint32_t checksum = 0;  // printed, so no pass can be optimized away
};

/// util::crc32 over one random buffer on one thread, kCrcRepetitions
/// times: the median MB/s with min and max.
CrcRate measureCrc32() {
  util::Rng rng(0xc4c32b5eULL);
  std::vector<std::uint8_t> buffer(kCrcBufferBytes);
  for (auto& byte : buffer) byte = static_cast<std::uint8_t>(rng.next());
  const double megabytes = static_cast<double>(buffer.size()) / 1e6;
  CrcRate rate;
  std::vector<double> samples;
  for (std::size_t r = 0; r < kCrcRepetitions; ++r) {
    const auto start = std::chrono::steady_clock::now();
    rate.checksum = util::crc32(buffer);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    samples.push_back(megabytes / seconds);
  }
  std::sort(samples.begin(), samples.end());
  rate.median = samples[samples.size() / 2];
  rate.min = samples.front();
  rate.max = samples.back();
  return rate;
}

}  // namespace

int main() {
  // ---- wire format ---------------------------------------------------------
  const WireNumbers wire = measureWire(4000);
  const double v3PerSocket =
      static_cast<double>(wire.v3Bytes) / static_cast<double>(wire.sockets);
  std::printf("=== report wire format: %zu sockets, %zu distinct signatures ===\n",
              wire.sockets, wire.distinctSignatures);
  std::printf("v3 dictionary: %8llu bytes  (%.1f bytes/socket)\n\n",
              static_cast<unsigned long long>(wire.v3Bytes), v3PerSocket);

  // ---- crc32 ---------------------------------------------------------------
  const CrcRate crc = measureCrc32();
  std::printf("=== crc32: %zu bytes, one thread, median of %zu ===\n",
              kCrcBufferBytes, kCrcRepetitions);
  std::printf("crc32: %8.1f MB/s  (min %.1f, max %.1f; crc 0x%08x)\n\n",
              crc.median, crc.min, crc.max, crc.checksum);

  // ---- allocations ---------------------------------------------------------
  const StudyWorld world;
  // Attribute the study once; the measured pass only folds. The attributor
  // stays alive so the batches' symbol pool remains valid.
  const core::TrafficAttributor attributor(world.corpus, *world.categorizer);
  std::vector<core::FlowColumns> batches;
  batches.reserve(world.runs.size());
  for (const auto& run : world.runs)
    batches.push_back(attributor.attributeColumns(run));

  // Warm the fold once so the measured pass counts steady-state per-flow
  // cost, not first-touch setup.
  (void)recordAndFold(world, batches);
  const std::uint64_t before = bench::allocationCount();
  const std::size_t flows = recordAndFold(world, batches);
  const std::uint64_t allocations = bench::allocationCount() - before;
  const double per10k = flows > 0 ? 10000.0 * static_cast<double>(allocations) /
                                        static_cast<double>(flows)
                                  : 0;

  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  std::printf("=== record+fold allocations: %zu-app study, %zu flows ===\n",
              kStudyApps, flows);
  std::printf("symbol records: %10llu allocations  (%.0f per 10k flows)\n",
              static_cast<unsigned long long>(allocations), per10k);
  std::printf("peak RSS: %ld KB\n\n", usage.ru_maxrss);

  if (std::FILE* json = std::fopen("BENCH_wire.json", "w")) {
    std::fprintf(json,
                 "{\n"
                 "  \"sockets\": %zu,\n"
                 "  \"distinct_signatures\": %zu,\n"
                 "  \"v3_wire_bytes\": %llu,\n"
                 "  \"v3_bytes_per_socket\": %.2f,\n"
                 "  \"study_apps\": %zu,\n"
                 "  \"flows\": %zu,\n"
                 "  \"symbol_allocations\": %llu,\n"
                 "  \"symbol_allocations_per_10k_flows\": %.1f,\n"
                 "  \"crc32_buffer_bytes\": %zu,\n"
                 "  \"crc32_repetitions\": %zu,\n"
                 "  \"crc32_mb_per_sec\": %.2f,\n"
                 "  \"crc32_mb_per_sec_min\": %.2f,\n"
                 "  \"crc32_mb_per_sec_max\": %.2f,\n"
                 "  \"peak_rss_kb\": %ld\n"
                 "}\n",
                 wire.sockets, wire.distinctSignatures,
                 static_cast<unsigned long long>(wire.v3Bytes), v3PerSocket,
                 kStudyApps, flows, static_cast<unsigned long long>(allocations),
                 per10k, kCrcBufferBytes, kCrcRepetitions, crc.median,
                 crc.min, crc.max, usage.ru_maxrss);
    std::fclose(json);
    std::printf("wrote BENCH_wire.json\n");
  }
  return 0;
}
