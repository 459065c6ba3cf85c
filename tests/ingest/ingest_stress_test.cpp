// Concurrency stress for the sharded ingest tier: many producer threads
// feeding framed datagrams and run completions, concurrent takeReports
// stealing unclaimed state, and a metrics poller — all against the same
// router. Assertions are conservation laws that hold under any legal
// interleaving, so the test is meaningful under TSan
// (LIBSPECTOR_SANITIZE=thread) and in plain builds alike.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "core/analysis.hpp"
#include "ingest/router.hpp"

namespace libspector::ingest {
namespace {

core::UdpReport stressReport(const std::string& sha, std::uint64_t seq) {
  core::UdpReport report;
  report.apkSha256 = sha;
  report.socketPair = {{net::Ipv4Addr(10, 0, 2, 15),
                        static_cast<std::uint16_t>(1024 + (seq % 60000))},
                       {net::Ipv4Addr(198, 18, 0, 1), 443}};
  report.timestampMs = seq;
  report.stackSignatures = {"java.net.Socket.connect"};
  return report;
}

/// A fresh encoder per frame: every frame defines the one signature id it
/// references, so no frame depends on another's arrival.
std::vector<std::uint8_t> stressFrame(const std::string& sha,
                                      std::uint32_t workerId,
                                      std::uint64_t seq) {
  return core::DictFrameEncoder(workerId).encode(seq, stressReport(sha, seq));
}

TEST(IngestStressTest, ProducersConsumersAndTakersRaceCleanly) {
  constexpr std::size_t kRunProducers = 6;
  constexpr std::size_t kOrphanProducers = 3;
  constexpr std::uint64_t kFramesPerProducer = 300;

  IngestConfig config;
  config.shards = 4;
  config.queueCapacity = 64;  // small enough that Block backpressure engages

  std::mutex deliveriesMutex;
  std::vector<RunDelivery> deliveries;
  {
    ShardedIngest ingest(config, [&](RunDelivery&& d) {
      const std::scoped_lock lock(deliveriesMutex);
      deliveries.push_back(std::move(d));
    });

    std::atomic<std::uint64_t> stolen{0};
    std::atomic<bool> done{false};
    {
      std::vector<std::jthread> threads;

      // Run producers: frames then the run completion, per-apk FIFO through
      // the shard queue, so every frame folds before its run finalizes.
      for (std::size_t t = 0; t < kRunProducers; ++t) {
        threads.emplace_back([&ingest, t] {
          const std::string sha = "run_app_" + std::to_string(t);
          for (std::uint64_t seq = 0; seq < kFramesPerProducer; ++seq)
            ingest.submitDatagram(
                stressFrame(sha, static_cast<std::uint32_t>(t), seq));
          core::RunArtifacts artifacts;
          artifacts.apkSha256 = sha;
          artifacts.reportsEmitted = kFramesPerProducer;
          ingest.submitRun(t, std::move(artifacts));
        });
      }

      // Orphan producers: frames nobody claims; takers race to steal them.
      for (std::size_t t = 0; t < kOrphanProducers; ++t) {
        threads.emplace_back([&ingest, t] {
          const std::string sha = "orphan_" + std::to_string(t);
          for (std::uint64_t seq = 0; seq < kFramesPerProducer; ++seq)
            ingest.submitDatagram(
                stressFrame(sha, static_cast<std::uint32_t>(100 + t), seq));
        });
      }

      // Takers: concurrently drain orphan state while it is being fed.
      for (std::size_t t = 0; t < 2; ++t) {
        threads.emplace_back([&ingest, &stolen, &done] {
          while (!done.load(std::memory_order_relaxed)) {
            for (std::size_t o = 0; o < kOrphanProducers; ++o)
              stolen.fetch_add(
                  ingest.takeReports("orphan_" + std::to_string(o)).size(),
                  std::memory_order_relaxed);
            std::this_thread::yield();
          }
        });
      }

      // Metrics poller: snapshots must be internally consistent at any time.
      threads.emplace_back([&ingest, &done] {
        while (!done.load(std::memory_order_relaxed)) {
          const auto snapshot = ingest.metrics();
          EXPECT_EQ(snapshot.shards, 4u);
          EXPECT_LE(snapshot.framesFolded, snapshot.datagramsReceived);
          std::this_thread::yield();
        }
      });

      // Join producers (the first kRunProducers + kOrphanProducers threads)
      // by destroying them, then stop the pollers.
      for (std::size_t i = 0; i < kRunProducers + kOrphanProducers; ++i)
        threads[i].join();
      ingest.drain();
      done.store(true, std::memory_order_relaxed);
    }

    // Conservation after the dust settles.
    std::uint64_t remaining = 0;
    for (std::size_t o = 0; o < kOrphanProducers; ++o)
      remaining += ingest.takeReports("orphan_" + std::to_string(o)).size();
    EXPECT_EQ(stolen.load() + remaining,
              kOrphanProducers * kFramesPerProducer);

    const auto metrics = ingest.metrics();
    EXPECT_EQ(metrics.datagramsReceived,
              (kRunProducers + kOrphanProducers) * kFramesPerProducer);
    // A full queue blocks its producer: nothing is shed.
    EXPECT_EQ(metrics.framesFolded, metrics.datagramsReceived);
    EXPECT_EQ(metrics.datagramsMalformed, 0u);
    EXPECT_EQ(metrics.runsCompleted, kRunProducers);

    ASSERT_EQ(deliveries.size(), kRunProducers);
    for (const auto& delivery : deliveries) {
      // Per-producer FIFO through the shard queue: zero loss, zero dups.
      EXPECT_EQ(delivery.account.reportsEmitted, kFramesPerProducer);
      EXPECT_EQ(delivery.account.uniqueDelivered, kFramesPerProducer);
      EXPECT_EQ(delivery.account.lost, 0u);
      EXPECT_EQ(delivery.account.duplicated, 0u);
      EXPECT_EQ(delivery.artifacts.reports.size(), kFramesPerProducer);
    }
  }
}

TEST(IngestStressTest, ConcurrentRunSubmissionsThroughThePipeline) {
  // A run callback that attributes, records and folds must stay coherent
  // when many threads complete runs at once.
  constexpr std::size_t kRuns = 24;
  core::StudyAggregator study;
  core::StudyAccumulator accumulator(study);
  IngestConfig config;
  config.shards = 3;
  std::mutex accountsMutex;  // the callback runs on every shard's consumer
  std::map<std::string, ApkLossAccount> accounts;
  std::size_t published = 0;
  {
    ShardedIngest ingest(config, [&](RunDelivery&& delivery) {
      {
        const std::scoped_lock lock(accountsMutex);
        ++published;
        accounts[delivery.artifacts.apkSha256] = delivery.account;
      }
      accumulator.addColumns(delivery.jobIndex, std::move(delivery.artifacts),
                             core::FlowColumns{});
    });
    {
      std::vector<std::jthread> threads;
      for (std::size_t t = 0; t < 4; ++t) {
        threads.emplace_back([&ingest, t] {
          for (std::size_t i = 0; i < kRuns / 4; ++i) {
            const std::size_t index = t * (kRuns / 4) + i;
            const std::string sha = "bulk_" + std::to_string(index);
            for (std::uint64_t seq = 0; seq < 5; ++seq)
              ingest.submitDatagram(
                  stressFrame(sha, static_cast<std::uint32_t>(index), seq));
            core::RunArtifacts artifacts;
            artifacts.apkSha256 = sha;
            artifacts.reportsEmitted = 5;
            ingest.submitRun(index, std::move(artifacts));
          }
        });
      }
    }
    ingest.drain();
    EXPECT_EQ(published, kRuns);
    EXPECT_EQ(accounts.size(), kRuns);
    for (const auto& [sha, account] : accounts) {
      EXPECT_EQ(account.lost, 0u) << sha;
      EXPECT_EQ(account.uniqueDelivered, 5u) << sha;
    }
  }
  accumulator.finish();
  EXPECT_EQ(study.totals().appCount, kRuns);
}

}  // namespace
}  // namespace libspector::ingest
