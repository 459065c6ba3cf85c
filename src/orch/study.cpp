#include "orch/study.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <utility>
#include <vector>

#include "core/attribution.hpp"
#include "core/export.hpp"
#include "radar/corpus.hpp"
#include "util/log.hpp"
#include "vtsim/categorizer.hpp"

namespace libspector::orch {

namespace {

/// Shared engine behind runStudy and resumeStudy. `replays` (may be null)
/// are checkpointed runs re-injected through ingest instead of re-running
/// their emulators; the dispatcher then covers only the gap indices, under
/// their original identities, so the output matches an uninterrupted run
/// byte for byte.
StudyOutput runPipeline(const store::AppStoreGenerator& generator,
                        const DispatcherConfig& dispatcherConfig,
                        const std::string& artifactsDirectory,
                        const ingest::IngestConfig& ingestConfig,
                        std::vector<RecoveredRun>* replays) {
  const auto start = std::chrono::steady_clock::now();

  static const radar::LibraryCorpus kCorpus = radar::LibraryCorpus::builtin();
  vtsim::DomainCategorizer categorizer(
      vtsim::defaultVendorPanel(), [&generator](const std::string& domain) {
        return generator.domainTruth(domain);
      });
  core::TrafficAttributor attributor(kCorpus, categorizer);

  StudyOutput output;
  const bool persist = !artifactsDirectory.empty();
  const std::size_t appCount = generator.appCount();

  // Shard consumers attribute runs as they complete (the heavy offline
  // stage) and only the aggregation is funneled — through the accumulator,
  // which restores dispatch order so the study is byte-identical to a
  // single-worker, single-shard run.
  core::StudyAccumulator accumulator(output.study);

  // Replayed indices are already durable; the dispatcher must skip them.
  std::vector<bool> done(appCount, false);
  if (replays != nullptr) {
    for (const auto& run : *replays) {
      if (run.jobIndex >= appCount || done[run.jobIndex]) continue;
      done[run.jobIndex] = true;
      ++output.appsReplayed;
    }
  }

  {
    // Each run becomes durable the moment its shard finalizes it — before
    // it is folded into the aggregate — so a crash at any point loses at
    // most work that recovery will re-run, never work it can't see.
    std::optional<CheckpointWriter> checkpointer;
    if (persist) checkpointer.emplace(artifactsDirectory);

    // Supervisor datagrams stream framed into the router while the run is
    // live; the run-completion submit routes to the same shard as the
    // datagrams (both hash the apk checksum), so each shard finalizes,
    // checkpoints, attributes and folds with no cross-shard coordination.
    ingest::ShardedIngest router(
        ingestConfig,
        [&attributor, &accumulator](ingest::RunDelivery&& delivery) {
          core::FlowColumns columns =
              attributor.attributeColumns(delivery.artifacts);
          accumulator.addColumns(delivery.jobIndex,
                                 std::move(delivery.artifacts),
                                 std::move(columns));
        },
        persist ? ingest::ShardedIngest::CheckpointFn(
                      [&checkpointer](const ingest::RunDelivery& delivery) {
                        checkpointer->checkpoint(delivery.jobIndex,
                                                 delivery.account,
                                                 delivery.artifacts);
                      })
                : ingest::ShardedIngest::CheckpointFn{});

    if (replays != nullptr) {
      for (auto& run : *replays) {
        if (run.jobIndex >= appCount) continue;
        router.submitReplay(run.jobIndex, std::move(run.artifacts),
                            run.account);
      }
      replays->clear();
    }

    // Each worker claims the next gap index (every index, for a fresh
    // run) and expands it itself: makeJob is a pure function of the index,
    // so the job is the same whichever worker claims it. Resumed studies
    // see only the gaps here, still pinned to their original indices.
    // Once a checkpoint write has failed the study will throw, so no
    // further job is handed out; runs in flight still finish.
    std::vector<std::size_t> gaps;
    gaps.reserve(appCount);
    for (std::size_t i = 0; i < appCount; ++i)
      if (!done[i]) gaps.push_back(i);
    std::atomic<std::size_t> cursor{0};

    Dispatcher dispatcher(generator.farm(), &router, dispatcherConfig);
    dispatcher.runConcurrent(
        [&]() -> std::optional<Dispatcher::Job> {
          if (router.failed()) return std::nullopt;
          const std::size_t claim = cursor.fetch_add(1);
          if (claim >= gaps.size()) return std::nullopt;
          auto job = generator.makeJob(gaps[claim]);
          return Dispatcher::Job{.apk = std::move(job.apk),
                                 .program = std::move(job.program),
                                 .index = gaps[claim]};
        },
        [&](std::size_t index, core::RunArtifacts&& artifacts) {
          router.submitRun(index, std::move(artifacts));
        },
        [&](std::size_t index, const Dispatcher::FailedJob&) {
          accumulator.skip(index);
        });
    router.drain();
    accumulator.finish();
    output.ingestMetrics = router.metrics();
    output.appsProcessed = dispatcher.appsProcessed() + output.appsReplayed;
    output.appsFailed = dispatcher.failures().size();
    output.dispatcherStats = dispatcher.stats();
  }

  if (persist) {
    std::ofstream manifest(std::filesystem::path(artifactsDirectory) /
                           "domains.csv");
    manifest << "domain,truth\n";
    for (const auto& domain : generator.farm().allDomains())
      manifest << core::csvField(domain) << ','
               << core::csvField(generator.domainTruth(domain)) << '\n';
  }

  output.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const auto& stats = output.dispatcherStats;
  const auto& ingest = output.ingestMetrics;
  util::logInfo(
      "study: %zu apps (%zu replayed) in %.2fs (%.1f jobs/s; job mean "
      "%.2f ms max %.2f ms; sink mean %.2f ms max %.2f ms; %zu ingest "
      "shards, %llu datagrams, %llu lost, %llu dup, fold p99 %.2f ms)",
      output.appsProcessed, output.appsReplayed, output.wallSeconds,
      stats.jobsPerSecond(), stats.jobMsMean(), stats.jobMsMax,
      stats.sinkMsMean(), stats.sinkMsMax, ingest.shards,
      static_cast<unsigned long long>(ingest.datagramsReceived),
      static_cast<unsigned long long>(ingest.reportsLost),
      static_cast<unsigned long long>(ingest.duplicated), ingest.latencyP99Ms);
  return output;
}

}  // namespace

StudyOutput runStudy(const StudyConfig& config) {
  const store::AppStoreGenerator generator(config.store);
  return runStudy(generator, config.dispatcher, config.artifactsDirectory,
                  config.ingest);
}

StudyOutput runStudy(const store::AppStoreGenerator& generator,
                     const DispatcherConfig& dispatcherConfig,
                     const std::string& artifactsDirectory,
                     const ingest::IngestConfig& ingestConfig) {
  return runPipeline(generator, dispatcherConfig, artifactsDirectory,
                     ingestConfig, nullptr);
}

ResumeOutput resumeStudy(const StudyConfig& config) {
  if (config.artifactsDirectory.empty())
    throw std::invalid_argument(
        "resumeStudy: artifactsDirectory must name the checkpoint directory "
        "of the crashed run");

  const store::AppStoreGenerator generator(config.store);
  ResumeOutput resume;
  resume.recovery = StudyRecovery::scan(config.artifactsDirectory);
  resume.output = runPipeline(generator, config.dispatcher,
                              config.artifactsDirectory, config.ingest,
                              &resume.recovery.runs);
  return resume;
}

MergeOutput mergeStudies(const StudyConfig& config,
                         const std::vector<std::string>& checkpointDirectories) {
  const store::AppStoreGenerator generator(config.store);

  MergeOutput merge;
  std::vector<RecoveredRun> combined;
  for (const auto& directory : checkpointDirectories) {
    RecoveryReport report = StudyRecovery::scan(directory);
    for (auto& run : report.runs) combined.push_back(std::move(run));
    report.runs.clear();
    merge.recoveries.push_back(std::move(report));
  }
  // Stable sort keeps directory order within a job index, then the first
  // copy wins — collectors partition the sha space so duplicates only
  // appear when an operator merges overlapping directories.
  std::stable_sort(combined.begin(), combined.end(),
                   [](const RecoveredRun& a, const RecoveredRun& b) {
                     return a.jobIndex < b.jobIndex;
                   });
  combined.erase(std::unique(combined.begin(), combined.end(),
                             [](const RecoveredRun& a, const RecoveredRun& b) {
                               return a.jobIndex == b.jobIndex;
                             }),
                 combined.end());

  // No artifactsDirectory: the merge aggregates, it does not re-persist
  // the collectors' bundles into a fourth directory.
  merge.output = runPipeline(generator, config.dispatcher, std::string{},
                             config.ingest, &combined);
  return merge;
}

}  // namespace libspector::orch
