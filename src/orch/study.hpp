// One-call measurement campaign (the whole paper pipeline as an API).
//
// Wires together the synthetic store, the emulator fleet, the streaming
// ingest tier and the study aggregator:
//
//   orch::StudyConfig config;
//   config.store.appCount = 2500;
//   auto output = orch::runStudy(config);
//   output.study.transferByLibCategory(); ...
//
// Since the ingest subsystem landed, runStudy is the batch pipeline
// *re-expressed over streaming ingest*: supervisor datagrams flow framed
// into an ingest::ShardedIngest, whose run callback attributes each run on
// its shard as it completes and folds it into an order-restoring
// accumulator, which keeps the study output byte-identical to a
// single-worker batch run at any shard count.
//
// When artifactsDirectory is set, every run is checkpointed the moment its
// shard finalizes it (one crc32-framed bundle, atomically renamed into
// place — see orch/recovery.hpp), so a collector that dies mid-study can
// resumeStudy(): survivors replay through ingest without re-running their
// emulators, the gaps re-run under their original job indices, and the
// output is byte-identical to the uninterrupted run.
//
// Downstream users who bring their own corpus can use the lower-level
// pieces directly (Dispatcher + ShardedIngest + StudyAccumulator).
#pragma once

#include <string>

#include "core/analysis.hpp"
#include "ingest/router.hpp"
#include "orch/dispatcher.hpp"
#include "orch/recovery.hpp"
#include "store/generator.hpp"

namespace libspector::orch {

struct StudyConfig {
  store::StoreConfig store;
  DispatcherConfig dispatcher;
  /// Streaming ingest tier shape (shard count, queue bounds, backpressure).
  /// Shards are the attribution parallelism axis, so the study default is
  /// one shard per hardware thread; any shard count yields byte-identical
  /// study output (the accumulator restores dispatch order).
  ingest::IngestConfig ingest{.shards = 0};
  /// When non-empty, every run is incrementally checkpointed here as its
  /// shard finalizes it (one crc32-framed .spab per app, nothing else per
  /// run), and the domains.csv world manifest is written at the end. The
  /// same directory is what resumeStudy() recovers from after a crash. A
  /// checkpoint write that fails stops the dispatch of further jobs (runs
  /// in flight still finish), and runStudy and resumeStudy throw its error.
  std::string artifactsDirectory;
};

struct StudyOutput {
  core::StudyAggregator study;
  std::size_t appsProcessed = 0;
  std::size_t appsFailed = 0;
  /// Runs restored from checkpointed bundles instead of re-run emulators
  /// (always 0 for runStudy; counted into appsProcessed).
  std::size_t appsReplayed = 0;
  double wallSeconds = 0.0;
  /// Fleet throughput counters (jobs/s, per-job wall time, sink time) for
  /// the run — the observability behind the parallel-attribution numbers.
  Dispatcher::Stats dispatcherStats;
  /// Ingest-tier counters: per-shard loss/dup/reorder accounting, queue
  /// behaviour, fold latency percentiles. toJson() for dashboards.
  ingest::IngestMetrics ingestMetrics;
};

/// Generate a world per `config.store` and measure it end to end.
[[nodiscard]] StudyOutput runStudy(const StudyConfig& config);

/// Measure an existing world (the generator outlives the call).
[[nodiscard]] StudyOutput runStudy(const store::AppStoreGenerator& generator,
                                   const DispatcherConfig& dispatcherConfig,
                                   const std::string& artifactsDirectory = {},
                                   const ingest::IngestConfig& ingestConfig = {
                                       .shards = 0});

struct ResumeOutput {
  StudyOutput output;
  /// What the recovery scan found (runs are consumed by the resume and
  /// cleared here; quarantine and tmp accounting is preserved).
  RecoveryReport recovery;
};

/// Resume a crashed study from `config.artifactsDirectory` (must be
/// non-empty): scan the checkpoint directory, quarantine corrupt bundles,
/// replay survivors through ingest in job-index order, re-run the
/// remaining jobs under their original indices, and produce a StudyOutput
/// byte-identical to the uninterrupted run. The world is regenerated from
/// `config.store`, which must match the crashed run's.
[[nodiscard]] ResumeOutput resumeStudy(const StudyConfig& config);

struct MergeOutput {
  StudyOutput output;
  /// One recovery report per checkpoint directory, in argument order
  /// (runs are consumed by the merge and cleared; quarantine and tmp
  /// accounting is preserved).
  std::vector<RecoveryReport> recoveries;
};

/// Merge a multi-collector study: each spectord collector checkpointed its
/// owned slice of the corpus into its own directory; this scans them all,
/// replays every surviving run through one pipeline in job-index order
/// (the order-restoring accumulator interleaves them back into dispatch
/// order), re-runs any index no collector covered, and produces a
/// StudyOutput byte-identical to a single-collector runStudy of the same
/// config — at any collector count, and regardless of which collectors
/// crashed and resumed along the way. Duplicate job indices across
/// directories keep the first (directory-order) copy.
[[nodiscard]] MergeOutput mergeStudies(
    const StudyConfig& config,
    const std::vector<std::string>& checkpointDirectories);

}  // namespace libspector::orch
