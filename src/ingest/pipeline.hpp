// Incremental attribution over the sharded ingest router.
//
// The batch pipeline attributes a study in one offline pass after the fleet
// finishes. App-store-scale systems characterize results *as they arrive*
// (Taming the Android AppStore): here, each shard attributes a run the
// moment its reports and capture complete, checkpoints it, hands a live
// observer (spectord's dashboard) that run's digest, and optionally feeds
// an order-restoring core::StudyAccumulator — which is how the batch
// orch::runStudy path is re-expressed on top of streaming ingest without
// changing a byte of study output. A study folds each run only into its
// accumulator; the live view is the daemon's, folded from the digests.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis.hpp"
#include "core/attribution.hpp"
#include "ingest/router.hpp"

namespace libspector::ingest {

/// One finalized run's increment to a live view — everything a live
/// observer (spectord's dashboard) needs to fold the run without
/// re-scanning anything: the run's byte sums, per library and library
/// category in first-flow order, and its exact loss account.
struct RunDigest {
  std::size_t jobIndex = 0;
  std::string apkSha256;
  bool replayed = false;
  std::uint64_t flowCount = 0;
  std::uint64_t attributedBytes = 0;
  std::uint64_t unattributedBytes = 0;
  std::vector<std::pair<std::string, std::uint64_t>> bytesByLibrary;
  std::vector<std::pair<std::string, std::uint64_t>> bytesByLibCategory;
  ApkLossAccount account;
};

class IngestPipeline final : public ReportSink {
 public:
  /// Produces one run's attributed flows as a core::FlowColumns batch
  /// (core::TrafficAttributor::attributeColumns in production).
  using AttributeFn =
      std::function<core::FlowColumns(const core::RunArtifacts&)>;

  /// Incremental checkpoint hook: invoked on the shard consumer thread for
  /// every freshly finalized run (never for replays), after attribution
  /// and before the run reaches the run hook or the accumulator — durable
  /// first, so a crash between the two replays the run instead of losing
  /// it. The callee must be thread-safe; orch::CheckpointWriter is the
  /// intended implementation.
  using CheckpointFn = std::function<void(const RunDelivery&)>;

  /// Live-observer hook: invoked on the shard consumer thread for every
  /// attributed run — fresh *and* replayed (a dashboard counts replays
  /// too) — after the checkpoint hook, so a published run is always
  /// durable. Must be thread-safe and cheap; the intended implementation
  /// enqueues the digest and returns. The digest is built only when a
  /// hook is set.
  using RunHookFn = std::function<void(RunDigest&&)>;

  /// `accumulator` (optional) receives every finalized run under its job
  /// index — the deterministic batch view.
  IngestPipeline(IngestConfig config, AttributeFn attribute,
                 core::StudyAccumulator* accumulator = nullptr,
                 CheckpointFn checkpoint = {});

  /// Datagram path: forwards to the sharded router.
  void submitDatagram(std::span<const std::uint8_t> payload) override;

  /// Run-completion path (any thread): routes to the apk's shard, where the
  /// consumer attributes and folds it.
  void submitRun(std::size_t jobIndex, core::RunArtifacts&& artifacts);
  /// Replay path (crash recovery): re-inject a persisted bundle under its
  /// original job index and loss account. The shard attributes and folds it
  /// like a live run but skips report finalization and checkpointing.
  void replayRun(std::size_t jobIndex, core::RunArtifacts&& artifacts,
                 const ApkLossAccount& account);
  /// Release a job index that will never arrive (failed job).
  void skip(std::size_t jobIndex);

  /// Install the live-observer hook. Must be called before any runs are
  /// submitted (the hook pointer is read unlocked on consumer threads).
  void setRunHook(RunHookFn hook) { runHook_ = std::move(hook); }

  /// Drop one apk's pending (not yet finalized) ingest state — the admin
  /// evict op. Returns true when the apk had pending state.
  bool evictPending(const std::string& apkSha256) {
    return router_.evictPending(apkSha256);
  }

  /// Block until all submitted work is folded (producers must be done).
  /// Rethrows the first exception a hook threw, as ShardedIngest::drain
  /// does; a run whose checkpoint threw reaches neither the run hook nor
  /// the accumulator.
  void drain();

  /// True once a hook has thrown since the last drain()
  /// (ShardedIngest::failed).
  [[nodiscard]] bool failed() const { return router_.failed(); }

  [[nodiscard]] IngestMetrics metrics() const { return router_.metrics(); }
  [[nodiscard]] std::size_t shardCount() const noexcept {
    return router_.shardCount();
  }

 private:
  void onRun(RunDelivery&& delivery);

  AttributeFn attribute_;
  core::StudyAccumulator* accumulator_;
  CheckpointFn checkpoint_;
  RunHookFn runHook_;
  ShardedIngest router_;  // last: consumers stop before state is destroyed
};

}  // namespace libspector::ingest
