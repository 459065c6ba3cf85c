// Incremental attribution over the sharded ingest router.
//
// The batch pipeline attributes a study in one offline pass after the fleet
// finishes. App-store-scale systems characterize results *as they arrive*
// (Taming the Android AppStore): here, each shard folds a run through the
// attributor the moment its reports and capture complete, publishes rolling
// per-app/per-library volume aggregates, and optionally feeds an
// order-restoring core::StudyAccumulator — which is how the batch
// orch::runStudy path is re-expressed on top of streaming ingest without
// changing a byte of study output.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/analysis.hpp"
#include "core/attribution.hpp"
#include "ingest/router.hpp"
#include "util/symbol.hpp"

namespace libspector::ingest {

/// Rolling study-so-far view, published after every finalized run.
struct RollingTotals {
  std::uint64_t runsFolded = 0;
  std::uint64_t flowCount = 0;
  std::uint64_t attributedBytes = 0;    // sent + recv across flows
  std::uint64_t unattributedBytes = 0;  // TCP payload lost context covers
  // Transparent comparators: the fold path keys by the flows' interned
  // string_views without materializing a std::string per lookup.
  std::map<std::string, std::uint64_t, std::less<>> bytesByLibrary;  // origin library
  std::map<std::string, std::uint64_t, std::less<>> bytesByLibCategory;
  std::map<std::string, std::uint64_t, std::less<>> bytesByApp;  // apk sha256
};

/// One finalized run's increment to the rolling view — everything a live
/// observer (spectord's dashboard surface) needs to update a mirror of
/// RollingTotals without re-scanning it: the per-run byte deltas plus the
/// run's exact loss account and the post-fold progress counter.
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
  std::uint64_t runsFolded = 0;  // rolling counter after this run folded
};

class IngestPipeline final : public ReportSink {
 public:
  /// Produces one run's attributed flows as a core::FlowColumns batch
  /// (core::TrafficAttributor::attributeColumns in production).
  using AttributeFn =
      std::function<core::FlowColumns(const core::RunArtifacts&)>;

  /// Incremental checkpoint hook: invoked on the shard consumer thread for
  /// every freshly finalized run (never for replays), after attribution
  /// and before the run is folded into the rolling view, the loss accounts
  /// or the accumulator — durable first, so a crash between the two
  /// replays the run instead of losing it. The callee must be thread-safe;
  /// orch::CheckpointWriter is the intended implementation.
  using CheckpointFn = std::function<void(const RunDelivery&)>;

  /// Live-observer hook: invoked on the shard consumer thread for every
  /// folded run — fresh *and* replayed (a dashboard mirrors the rolling
  /// view, which replays also advance) — after the checkpoint hook, so a
  /// published run is always durable. Must be thread-safe and cheap; the
  /// intended implementation enqueues the digest and returns.
  using RunHookFn = std::function<void(const RunDigest&)>;

  /// `accumulator` (optional) receives every finalized run under its job
  /// index — the deterministic batch view. Rolling aggregates and loss
  /// accounts are always maintained: the shard folds them from the batch's
  /// id columns (one map bump per distinct library/category per run, not
  /// per flow).
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
  /// does; a run whose checkpoint threw is folded nowhere: not into the
  /// rolling view or the loss accounts, the run hook or the accumulator.
  void drain();

  /// True once a hook has thrown since the last drain()
  /// (ShardedIngest::failed).
  [[nodiscard]] bool failed() const { return router_.failed(); }

  [[nodiscard]] RollingTotals rollingTotals() const;
  [[nodiscard]] std::unordered_map<std::string, ApkLossAccount> lossAccounts()
      const;
  [[nodiscard]] IngestMetrics metrics() const { return router_.metrics(); }
  [[nodiscard]] std::size_t shardCount() const noexcept {
    return router_.shardCount();
  }

 private:
  /// Per-run byte sums dense by a source pool's symbol ids. `seen` (not a
  /// nonzero sum) marks touched ids because the rolling maps record
  /// zero-byte flows too; the touched list makes the post-run reset O(ids
  /// seen this run).
  struct IdSums {
    util::DenseSymbolMap<std::uint64_t> bytes;
    util::DenseSymbolMap<std::uint8_t> seen;
    std::vector<std::uint32_t> touched;

    void bump(std::uint32_t id, std::uint64_t add) {
      if (seen[id] == 0) {
        seen[id] = 1;
        touched.push_back(id);
      }
      bytes[id] += add;
    }
  };

  void onRun(RunDelivery&& delivery);

  AttributeFn attribute_;
  core::StudyAccumulator* accumulator_;
  CheckpointFn checkpoint_;
  RunHookFn runHook_;
  mutable std::mutex mutex_;
  RollingTotals rolling_;
  IdSums libSums_;  // guarded by mutex_ (scratch, reset every run)
  IdSums catSums_;  // guarded by mutex_
  std::unordered_map<std::string, ApkLossAccount> accounts_;
  ShardedIngest router_;  // last: consumers stop before state is destroyed
};

}  // namespace libspector::ingest
