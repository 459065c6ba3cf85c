#include "orch/dispatcher.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <vector>

namespace libspector::orch {
namespace {

class DispatcherTest : public ::testing::Test {
 protected:
  DispatcherTest() {
    net::EndpointProfile profile;
    profile.domain = "api.example.com";
    profile.trueCategory = "info_tech";
    farm_.addEndpoint(profile);
  }

  Dispatcher::Job jobFor(int index) {
    Dispatcher::Job job;
    job.index = static_cast<std::size_t>(index);
    job.apk.packageName = "com.app.n" + std::to_string(index);
    job.apk.appCategory = "TOOLS";
    rt::NetRequestAction request;
    request.domain = "api.example.com";
    const auto handler =
        job.program.addMethod("Lcom/app/H;->onClick()V", {request});
    job.program.uiHandlers.push_back(handler);
    dex::DexFile dexFile;
    dex::ClassDef cls;
    cls.dottedName = "com.app.H";
    cls.methods.push_back({std::string(job.program.method(0).signature)});
    dexFile.classes.push_back(cls);
    job.apk.setDex(dex::writeDexFiles({dexFile}));
    return job;
  }

  /// A thread-safe source of jobs 0..count-1: every worker calls it with
  /// no lock, so it claims from an atomic cursor.
  Dispatcher::JobSource sourceOf(int count, std::atomic<int>& cursor) {
    return [this, count, &cursor]() -> std::optional<Dispatcher::Job> {
      const int claim = cursor.fetch_add(1);
      if (claim >= count) return std::nullopt;
      return jobFor(claim);
    };
  }

  DispatcherConfig quickConfig(std::size_t workers) {
    DispatcherConfig config;
    config.workers = workers;
    config.emulator.monkey.events = 5;
    config.emulator.monkey.throttleMs = 10;
    return config;
  }

  net::ServerFarm farm_;
};

TEST_F(DispatcherTest, ProcessesEveryJobAcrossWorkers) {
  Dispatcher dispatcher(farm_, nullptr, quickConfig(4));

  constexpr int kJobs = 40;
  std::atomic<int> next{0};
  std::mutex mutex;
  std::set<std::string> seenPackages;
  dispatcher.runConcurrent(sourceOf(kJobs, next),
                           [&](std::size_t, core::RunArtifacts&& artifacts) {
                             // Sink calls run concurrently: lock the set.
                             const std::scoped_lock lock(mutex);
                             seenPackages.insert(artifacts.packageName);
                           });

  EXPECT_EQ(dispatcher.appsProcessed(), static_cast<std::size_t>(kJobs));
  EXPECT_EQ(seenPackages.size(), static_cast<std::size_t>(kJobs));
}

TEST_F(DispatcherTest, SingleWorkerProcessesInOrder) {
  Dispatcher dispatcher(farm_, nullptr, quickConfig(1));
  std::atomic<int> next{0};
  std::vector<std::string> order;
  dispatcher.runConcurrent(sourceOf(5, next),
                           [&](std::size_t, core::RunArtifacts&& artifacts) {
                             order.push_back(artifacts.packageName);
                           });
  ASSERT_EQ(order.size(), 5u);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(order[static_cast<std::size_t>(i)], "com.app.n" + std::to_string(i));
}

TEST_F(DispatcherTest, EmptySourceCompletesImmediately) {
  Dispatcher dispatcher(farm_, nullptr, quickConfig(4));
  dispatcher.runConcurrent(
      []() -> std::optional<Dispatcher::Job> { return std::nullopt; },
      [](std::size_t, core::RunArtifacts&&) { FAIL() << "no jobs expected"; });
  EXPECT_EQ(dispatcher.appsProcessed(), 0u);
}

TEST_F(DispatcherTest, RunIsRepeatable) {
  Dispatcher dispatcher(farm_, nullptr, quickConfig(2));
  for (int round = 0; round < 2; ++round) {
    std::atomic<int> next{0};
    dispatcher.runConcurrent(sourceOf(3, next),
                             [](std::size_t, core::RunArtifacts&&) {});
  }
  EXPECT_EQ(dispatcher.appsProcessed(), 6u);
}

TEST_F(DispatcherTest, ArtifactsIdenticalRegardlessOfWorkerCount) {
  // Per-app seeds derive from the job index, so parallelism must not change
  // any app's artifacts.
  std::map<std::string, std::string> capturesSerial;
  std::map<std::string, std::string> capturesParallel;
  const auto runWith = [&](std::size_t workers,
                           std::map<std::string, std::string>& out) {
    Dispatcher dispatcher(farm_, nullptr, quickConfig(workers));
    std::atomic<int> next{0};
    std::mutex mutex;
    dispatcher.runConcurrent(
        sourceOf(12, next), [&](std::size_t, core::RunArtifacts&& artifacts) {
          const auto bytes = artifacts.capture.serialize();
          const std::scoped_lock lock(mutex);
          out[artifacts.packageName] = std::string(bytes.begin(), bytes.end());
        });
  };
  runWith(1, capturesSerial);
  runWith(6, capturesParallel);
  EXPECT_EQ(capturesSerial, capturesParallel);
}

TEST_F(DispatcherTest, ConcurrentDeliveryTagsJobsWithPullOrderIndices) {
  Dispatcher dispatcher(farm_, nullptr, quickConfig(4));
  constexpr int kJobs = 24;
  // Concurrent source: every worker calls it with no lock, so it claims
  // from an atomic cursor and tags each job with the claimed index.
  std::atomic<int> next{0};
  std::mutex mutex;
  std::map<std::size_t, std::string> byIndex;
  dispatcher.runConcurrent(
      [&]() -> std::optional<Dispatcher::Job> {
        const int claim = next.fetch_add(1);
        if (claim >= kJobs) return std::nullopt;
        return jobFor(claim);
      },
      [&](std::size_t index, core::RunArtifacts&& artifacts) {
        // Concurrent sink: the dispatcher no longer serializes delivery.
        const std::scoped_lock lock(mutex);
        byIndex.emplace(index, artifacts.packageName);
      });
  ASSERT_EQ(byIndex.size(), static_cast<std::size_t>(kJobs));
  for (int i = 0; i < kJobs; ++i) {
    // Index i was claimed by the i-th source pull, which produced app i.
    EXPECT_EQ(byIndex.at(static_cast<std::size_t>(i)),
              "com.app.n" + std::to_string(i));
  }
}

TEST_F(DispatcherTest, ConcurrentFailureCallbackReportsTheIndex) {
  Dispatcher dispatcher(farm_, nullptr, quickConfig(3));
  std::atomic<int> next{0};
  std::mutex mutex;
  std::vector<std::size_t> delivered;
  std::vector<std::size_t> failed;
  dispatcher.runConcurrent(
      [&]() -> std::optional<Dispatcher::Job> {
        const int claim = next.fetch_add(1);
        if (claim >= 9) return std::nullopt;
        Dispatcher::Job job = jobFor(claim);
        if (claim == 4) job.program.uiHandlers = {9999};
        return job;
      },
      [&](std::size_t index, core::RunArtifacts&&) {
        const std::scoped_lock lock(mutex);
        delivered.push_back(index);
      },
      [&](std::size_t index, const Dispatcher::FailedJob& failure) {
        const std::scoped_lock lock(mutex);
        failed.push_back(index);
        EXPECT_EQ(failure.packageName, "com.app.n4");
      });
  EXPECT_EQ(delivered.size(), 8u);
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0], 4u);
}

TEST_F(DispatcherTest, StatsCountEveryJob) {
  Dispatcher dispatcher(farm_, nullptr, quickConfig(2));
  std::atomic<int> next{0};
  dispatcher.runConcurrent(sourceOf(10, next),
                           [](std::size_t, core::RunArtifacts&&) {});
  const auto stats = dispatcher.stats();
  EXPECT_EQ(stats.jobs, 10u);
  EXPECT_GT(stats.elapsedSeconds, 0.0);
  EXPECT_GT(stats.jobsPerSecond(), 0.0);
  EXPECT_GE(stats.jobMsMax, stats.jobMsMean());
  EXPECT_GE(stats.sinkMsMax, stats.sinkMsMean());
}

TEST_F(DispatcherTest, BrokenAppDoesNotKillTheFleet) {
  Dispatcher dispatcher(farm_, nullptr, quickConfig(3));
  std::atomic<int> next{0};
  std::atomic<int> delivered{0};
  dispatcher.runConcurrent(
      [&]() -> std::optional<Dispatcher::Job> {
        const int claim = next.fetch_add(1);
        if (claim >= 9) return std::nullopt;
        Dispatcher::Job job = jobFor(claim);
        if (claim == 4) {
          // Corrupt program: the only handler references a method that
          // does not exist; the emulator run throws on the first event.
          job.program.uiHandlers = {9999};
        }
        return job;
      },
      [&](std::size_t, core::RunArtifacts&&) { ++delivered; });

  EXPECT_EQ(delivered.load(), 8);
  EXPECT_EQ(dispatcher.appsProcessed(), 8u);
  ASSERT_EQ(dispatcher.failures().size(), 1u);
  EXPECT_EQ(dispatcher.failures()[0].packageName, "com.app.n4");
  EXPECT_FALSE(dispatcher.failures()[0].error.empty());
}

}  // namespace
}  // namespace libspector::orch
