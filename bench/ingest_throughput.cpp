// Streaming ingest throughput: datagrams/sec through the sharded router
// and end-to-end fold latency, tracked from PR 2 onward.
//
// Two axes:
//   - framing cost: encode/decode/peek of the report frame in its steady
//     state, ids only (crc32 over the body is the dominant term);
//   - sharding: 1 shard vs one per hardware thread, many producer threads
//     pushing framed datagrams through bounded queues.
//
// The headline comparison pushes a fixed datagram corpus through a 1-shard
// and an N-shard router from a multi-threaded producer fleet, prints
// datagrams/sec and the router's own p99 fold latency, and writes
// BENCH_ingest.json so the perf trajectory is machine-readable. The
// google-benchmark microbenchmarks after it isolate the framing layer.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/report.hpp"
#include "ingest/router.hpp"

namespace {

using namespace libspector;

constexpr std::size_t kApps = 64;
constexpr std::uint64_t kFramesPerApp = 2000;

core::UdpReport benchReport(const std::string& sha, std::uint64_t seq) {
  core::UdpReport report;
  report.apkSha256 = sha;
  report.socketPair = {{net::Ipv4Addr(10, 0, 2, 15),
                        static_cast<std::uint16_t>(1024 + (seq % 60000))},
                       {net::Ipv4Addr(198, 18, 0, 1), 443}};
  report.timestampMs = seq;
  report.stackSignatures = {
      "java.net.Socket.connect",
      "Lcom/squareup/okhttp/internal/io/RealConnection;->connectSocket()V",
      "Lcom/example/app/net/Api;->fetch()V"};
  return report;
}

/// One datagram corpus, framed once and reused by every configuration: the
/// routers are what gets measured, not the encoder. Each app's frames come
/// from one encoder, as a supervisor sends them: the first defines the
/// signatures, the rest carry ids.
struct Corpus {
  Corpus() {
    datagrams.reserve(kApps * kFramesPerApp);
    for (std::size_t app = 0; app < kApps; ++app) {
      const std::string sha = "benchapp" + std::to_string(app);
      core::DictFrameEncoder encoder(static_cast<std::uint32_t>(app));
      for (std::uint64_t seq = 0; seq < kFramesPerApp; ++seq)
        datagrams.push_back(encoder.encode(seq, benchReport(sha, seq)));
    }
  }
  std::vector<std::vector<std::uint8_t>> datagrams;
};

const Corpus& corpus() {
  static const Corpus kCorpus;
  return kCorpus;
}

struct IngestRunResult {
  double seconds = 0.0;
  double p99Ms = 0.0;
  std::uint64_t folded = 0;
};

/// Push the whole corpus through a router with `shards` shards from
/// `producers` threads (striped assignment), drain, and report.
IngestRunResult pushCorpus(std::size_t shards, std::size_t producers) {
  ingest::IngestConfig config;
  config.shards = shards;
  config.queueCapacity = 8192;
  ingest::ShardedIngest router(config);

  const auto& datagrams = corpus().datagrams;
  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> threads;
    threads.reserve(producers);
    for (std::size_t t = 0; t < producers; ++t) {
      threads.emplace_back([&datagrams, &router, t, producers] {
        for (std::size_t i = t; i < datagrams.size(); i += producers)
          router.submitDatagram(datagrams[i]);
      });
    }
  }
  router.drain();
  IngestRunResult result;
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const auto metrics = router.metrics();
  result.p99Ms = metrics.latencyP99Ms;
  result.folded = metrics.framesFolded;
  return result;
}

void runHeadlineComparison() {
  const std::size_t threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t producers = std::max<std::size_t>(2, threads / 2);
  const auto total = static_cast<double>(corpus().datagrams.size());

  const auto oneShard = pushCorpus(1, producers);
  const auto manyShards = pushCorpus(threads, producers);

  const double oneRate = total / oneShard.seconds;
  const double manyRate = total / manyShards.seconds;
  std::printf("=== ingest throughput: %zu apps x %llu framed datagrams ===\n",
              kApps, static_cast<unsigned long long>(kFramesPerApp));
  std::printf("producers: %zu threads, corpus: %.0f datagrams\n", producers,
              total);
  std::printf("1 shard   : %8.3f s  (%10.0f datagrams/s, fold p99 %7.3f ms)\n",
              oneShard.seconds, oneRate, oneShard.p99Ms);
  std::printf("%2zu shards : %8.3f s  (%10.0f datagrams/s, fold p99 %7.3f ms)\n",
              threads, manyShards.seconds, manyRate, manyShards.p99Ms);
  std::printf("scaling (1 -> %zu shards): %.2fx\n\n", threads,
              oneRate > 0.0 ? manyRate / oneRate : 0.0);

  if (std::FILE* json = std::fopen("BENCH_ingest.json", "w")) {
    std::fprintf(json,
                 "{\n"
                 "  \"apps\": %zu,\n"
                 "  \"datagrams\": %.0f,\n"
                 "  \"producer_threads\": %zu,\n"
                 "  \"shards_many\": %zu,\n"
                 "  \"one_shard_seconds\": %.6f,\n"
                 "  \"one_shard_datagrams_per_sec\": %.1f,\n"
                 "  \"one_shard_fold_p99_ms\": %.6f,\n"
                 "  \"many_shard_seconds\": %.6f,\n"
                 "  \"many_shard_datagrams_per_sec\": %.1f,\n"
                 "  \"many_shard_fold_p99_ms\": %.6f,\n"
                 "  \"shard_scaling\": %.3f\n"
                 "}\n",
                 kApps, total, producers, threads, oneShard.seconds, oneRate,
                 oneShard.p99Ms, manyShards.seconds, manyRate,
                 manyShards.p99Ms, oneRate > 0.0 ? manyRate / oneRate : 0.0);
    std::fclose(json);
    std::printf("wrote BENCH_ingest.json\n\n");
  }
}

// ---------------------------------------------------------------------------
// Microbenchmarks: the framing layer in isolation.
// ---------------------------------------------------------------------------

/// A run's encoder after its first frame: every signature is defined, so
/// each later frame carries ids only, as all but a run's first frames do.
core::DictFrameEncoder warmEncoder() {
  core::DictFrameEncoder encoder(1);
  (void)encoder.encode(0, benchReport("benchapp0", 0));
  return encoder;
}

void BM_FrameEncode(benchmark::State& state) {
  core::DictFrameEncoder encoder = warmEncoder();
  const auto report = benchReport("benchapp0", 7);
  std::uint64_t seq = 1;
  for (auto _ : state) benchmark::DoNotOptimize(encoder.encode(seq++, report));
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() *
      static_cast<std::int64_t>(encoder.encode(seq, report).size())));
}
BENCHMARK(BM_FrameEncode);

void BM_FrameDecode(benchmark::State& state) {
  const auto bytes = warmEncoder().encode(7, benchReport("benchapp0", 7));
  for (auto _ : state)
    benchmark::DoNotOptimize(core::ReportFrame::decode(bytes));
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * static_cast<std::int64_t>(bytes.size())));
}
BENCHMARK(BM_FrameDecode);

void BM_FramePeek(benchmark::State& state) {
  const auto bytes = warmEncoder().encode(7, benchReport("benchapp0", 7));
  for (auto _ : state)
    benchmark::DoNotOptimize(core::ReportFrame::peek(bytes));
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * static_cast<std::int64_t>(bytes.size())));
}
BENCHMARK(BM_FramePeek);

void BM_SubmitDatagram(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  ingest::IngestConfig config;
  config.shards = shards;
  config.queueCapacity = 1 << 16;
  ingest::ShardedIngest router(config);
  const auto& datagrams = corpus().datagrams;
  std::size_t i = 0;
  for (auto _ : state)
    router.submitDatagram(datagrams[i++ % datagrams.size()]);
  router.drain();
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_SubmitDatagram)->Arg(1)->Arg(4)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  runHeadlineComparison();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
