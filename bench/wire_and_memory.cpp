// ISSUE 5 acceptance bench: the symbol-interned flow pipeline and the
// dictionary-compressed report wire format, measured against the legacy
// string pipeline and the self-contained v1/v2 framing.
//
// Three headline numbers, written to BENCH_wire.json:
//
//   - wire bytes per reported socket, v2 framing vs v3 dictionary framing,
//     over a run with realistic smali signatures (60-90 chars) and stack
//     depths (8-16): a supervisor re-sends the same handful of signatures
//     on every socket, so sending each distinct signature once per run and
//     u32 ids afterwards should cut steady-state datagrams by >= 3x;
//
//   - heap allocations per 10k attributed flows in the record + fold stage,
//     a faithful replica of the pre-interning string pipeline (one
//     std::string per flow field, string-keyed aggregation) vs the symbol
//     pipeline (u32-id FlowColumns batches folded through the dense
//     StudyAggregator::addAppColumns), counted with the global operator
//     new replacement in common/alloc_counter.cpp: >= 5x fewer;
//
//   - util::crc32 throughput in MB/s (1 MB = 10^6 bytes), one thread, the
//     median of 5 passes over an 8 MiB buffer of random bytes: every
//     report frame, spectord frame and .spab bundle is checksummed with it.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
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
// Part 1: wire bytes per socket, v2 vs v3.
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
  std::uint64_t v2Bytes = 0;
  std::uint64_t v3Bytes = 0;
};

/// One run's worth of supervisor datagrams, encoded both ways.
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

    // v2 is a wire alias of the v1 layout: identical bytes, version patched.
    auto legacy = core::ReportFrame{7, seq, report}.encode();
    legacy[4] = 2;
    numbers.v2Bytes += legacy.size();
    numbers.v3Bytes += encoder.encode(seq, report).size();
  }
  return numbers;
}

// ---------------------------------------------------------------------------
// Part 2: heap allocations per 10k attributed flows.
// ---------------------------------------------------------------------------

constexpr std::size_t kStudyApps = 60;

/// Pre-emulated study world: emulation runs once, the measured passes only
/// attribute and aggregate.
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

/// The seed's per-flow record: one heap string per field. Attribution used
/// to hand a vector of these to a string-keyed aggregator.
struct LegacyFlowRecord {
  std::string apkSha256;
  std::string appPackage;
  std::string appCategory;
  std::string originLibrary;
  std::string originSignature;
  std::string twoLevelLibrary;
  std::string libraryCategory;
  std::string domain;
  std::string domainCategory;
  std::uint64_t sentBytes = 0;
  std::uint64_t recvBytes = 0;
};

struct LegacyAgg {
  std::uint64_t sent = 0;
  std::uint64_t recv = 0;
  std::string category;
};

/// Replica of the seed's per-run record stage: materialize one string per
/// flow field (exactly what the pre-interning FlowRecord held), then fold
/// into string-keyed study maps. The symbol pipeline replaced this stage,
/// so it is what the allocation headline isolates — attribution proper
/// (capture-index build, stack walks) is identical on both sides and is
/// benched separately in BENCH_attribution.json.
std::size_t legacyRecordAndFold(
    const StudyWorld& world,
    const std::vector<std::vector<core::FlowRecord>>& flowsPerRun) {
  std::map<std::string, LegacyAgg> libraries;
  std::map<std::string, LegacyAgg> twoLevel;
  std::map<std::string, LegacyAgg> domains;
  std::size_t flowCount = 0;
  for (std::size_t i = 0; i < world.runs.size(); ++i) {
    std::vector<LegacyFlowRecord> materialized;
    materialized.reserve(flowsPerRun[i].size());
    for (const auto& flow : flowsPerRun[i]) {
      LegacyFlowRecord legacy;
      legacy.apkSha256 = flow.apkSha256.str();
      legacy.appPackage = flow.appPackage.str();
      legacy.appCategory = flow.appCategory.str();
      legacy.originLibrary = flow.originLibrary.str();
      legacy.originSignature = flow.originSignature.str();
      legacy.twoLevelLibrary = flow.twoLevelLibrary.str();
      legacy.libraryCategory = flow.libraryCategory.str();
      legacy.domain = flow.domain.str();
      legacy.domainCategory = flow.domainCategory.str();
      legacy.sentBytes = flow.sentBytes;
      legacy.recvBytes = flow.recvBytes;
      materialized.push_back(std::move(legacy));
    }
    for (const auto& flow : materialized) {
      auto& lib = libraries[flow.originLibrary];
      lib.sent += flow.sentBytes;
      lib.recv += flow.recvBytes;
      lib.category = flow.libraryCategory;
      auto& two = twoLevel[flow.twoLevelLibrary];
      two.sent += flow.sentBytes;
      two.recv += flow.recvBytes;
      if (!flow.domain.empty()) {
        auto& dom = domains[flow.domain];
        dom.sent += flow.sentBytes;
        dom.recv += flow.recvBytes;
        dom.category = flow.domainCategory;
      }
    }
    flowCount += flowsPerRun[i].size();
  }
  return flowCount;
}

/// The record stage as it now stands: each run's flows are one u32-id
/// FlowColumns batch, folded through the dense StudyAggregator entry point.
std::size_t symbolRecordAndFold(const StudyWorld& world,
                                const std::vector<core::FlowColumns>& batches) {
  core::StudyAggregator study;
  std::size_t flowCount = 0;
  for (std::size_t i = 0; i < world.runs.size(); ++i) {
    study.addAppColumns(world.runs[i], batches[i]);
    flowCount += batches[i].size();
  }
  return flowCount;
}

std::uint64_t countAllocations(const std::function<std::size_t()>& fn,
                               std::size_t& flows) {
  const std::uint64_t before = bench::allocationCount();
  flows = fn();
  return bench::allocationCount() - before;
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
  const double v2PerSocket =
      static_cast<double>(wire.v2Bytes) / static_cast<double>(wire.sockets);
  const double v3PerSocket =
      static_cast<double>(wire.v3Bytes) / static_cast<double>(wire.sockets);
  const double wireReduction = v3PerSocket > 0 ? v2PerSocket / v3PerSocket : 0;
  std::printf("=== report wire format: %zu sockets, %zu distinct signatures ===\n",
              wire.sockets, wire.distinctSignatures);
  std::printf("v2 framing:  %10llu bytes  (%.1f bytes/socket)\n",
              static_cast<unsigned long long>(wire.v2Bytes), v2PerSocket);
  std::printf("v3 dictionary: %8llu bytes  (%.1f bytes/socket)\n",
              static_cast<unsigned long long>(wire.v3Bytes), v3PerSocket);
  std::printf("wire reduction: %.1fx\n\n", wireReduction);

  // ---- crc32 ---------------------------------------------------------------
  const CrcRate crc = measureCrc32();
  std::printf("=== crc32: %zu bytes, one thread, median of %zu ===\n",
              kCrcBufferBytes, kCrcRepetitions);
  std::printf("crc32: %8.1f MB/s  (min %.1f, max %.1f; crc 0x%08x)\n\n",
              crc.median, crc.min, crc.max, crc.checksum);

  // ---- allocations ---------------------------------------------------------
  const StudyWorld world;
  // Attribute the study once; the record-stage comparison below replays
  // the exact same flows through both folds. The attributor stays alive so
  // the flow symbols and batch ids remain valid.
  const core::TrafficAttributor attributor(world.corpus, *world.categorizer);
  std::vector<std::vector<core::FlowRecord>> flowsPerRun;
  std::vector<core::FlowColumns> batches;
  flowsPerRun.reserve(world.runs.size());
  batches.reserve(world.runs.size());
  for (const auto& run : world.runs) {
    flowsPerRun.push_back(attributor.attribute(run));
    batches.push_back(
        core::FlowColumns::fromRows(flowsPerRun.back(), attributor.symbols()));
  }

  // Warm both paths once so the measured passes compare steady-state
  // per-flow cost, not first-touch setup.
  (void)legacyRecordAndFold(world, flowsPerRun);
  (void)symbolRecordAndFold(world, batches);

  std::size_t legacyFlows = 0;
  std::size_t symbolFlows = 0;
  const std::uint64_t legacyAllocs = countAllocations(
      [&] { return legacyRecordAndFold(world, flowsPerRun); }, legacyFlows);
  const std::uint64_t symbolAllocs = countAllocations(
      [&] { return symbolRecordAndFold(world, batches); }, symbolFlows);

  const double legacyPer10k = legacyFlows > 0
                                  ? 10000.0 * static_cast<double>(legacyAllocs) /
                                        static_cast<double>(legacyFlows)
                                  : 0;
  const double symbolPer10k = symbolFlows > 0
                                  ? 10000.0 * static_cast<double>(symbolAllocs) /
                                        static_cast<double>(symbolFlows)
                                  : 0;
  const double allocReduction = symbolPer10k > 0 ? legacyPer10k / symbolPer10k : 0;

  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  std::printf("=== record+fold allocations: %zu-app study, %zu flows ===\n",
              kStudyApps, symbolFlows);
  std::printf("legacy string records: %10llu allocations  (%.0f per 10k flows)\n",
              static_cast<unsigned long long>(legacyAllocs), legacyPer10k);
  std::printf("symbol records:        %10llu allocations  (%.0f per 10k flows)\n",
              static_cast<unsigned long long>(symbolAllocs), symbolPer10k);
  std::printf("allocation reduction: %.1fx\n", allocReduction);
  std::printf("peak RSS: %ld KB\n\n", usage.ru_maxrss);

  if (std::FILE* json = std::fopen("BENCH_wire.json", "w")) {
    std::fprintf(json,
                 "{\n"
                 "  \"sockets\": %zu,\n"
                 "  \"distinct_signatures\": %zu,\n"
                 "  \"v2_wire_bytes\": %llu,\n"
                 "  \"v3_wire_bytes\": %llu,\n"
                 "  \"v2_bytes_per_socket\": %.2f,\n"
                 "  \"v3_bytes_per_socket\": %.2f,\n"
                 "  \"wire_reduction\": %.3f,\n"
                 "  \"study_apps\": %zu,\n"
                 "  \"flows\": %zu,\n"
                 "  \"legacy_allocations\": %llu,\n"
                 "  \"symbol_allocations\": %llu,\n"
                 "  \"legacy_allocations_per_10k_flows\": %.1f,\n"
                 "  \"symbol_allocations_per_10k_flows\": %.1f,\n"
                 "  \"allocation_reduction\": %.3f,\n"
                 "  \"crc32_buffer_bytes\": %zu,\n"
                 "  \"crc32_repetitions\": %zu,\n"
                 "  \"crc32_mb_per_sec\": %.2f,\n"
                 "  \"crc32_mb_per_sec_min\": %.2f,\n"
                 "  \"crc32_mb_per_sec_max\": %.2f,\n"
                 "  \"peak_rss_kb\": %ld\n"
                 "}\n",
                 wire.sockets, wire.distinctSignatures,
                 static_cast<unsigned long long>(wire.v2Bytes),
                 static_cast<unsigned long long>(wire.v3Bytes), v2PerSocket,
                 v3PerSocket, wireReduction, kStudyApps, symbolFlows,
                 static_cast<unsigned long long>(legacyAllocs),
                 static_cast<unsigned long long>(symbolAllocs), legacyPer10k,
                 symbolPer10k, allocReduction, kCrcBufferBytes,
                 kCrcRepetitions, crc.median, crc.min, crc.max,
                 usage.ru_maxrss);
    std::fclose(json);
    std::printf("wrote BENCH_wire.json\n");
  }
  return 0;
}
