// Sharded streaming ingest router (the scale path the ROADMAP's
// "heavy traffic from millions of users" goal demands), and the one ingest
// class: every owner (orch::runStudy, spectord's daemon) builds one and
// attributes each run in its own run callback.
//
// A single mutex-guarded collection map would funnel every emulator worker
// through one lock and silently absorb whatever UDP did to the datagrams in
// flight. ShardedIngest is the collection tier instead:
//
//  - every datagram carries the core::ReportFrame framing (worker id,
//    per-run sequence number, crc32, signature dictionary), so loss,
//    duplication, reordering and corruption are *detected and accounted
//    per apk* instead of vanishing;
//  - datagrams are routed to a shard by the frame header's apk routing key
//    (no payload decode on the producer path) and enqueued on a bounded
//    per-shard queue; a full queue blocks the producer, so nothing the
//    router accepted is ever shed;
//  - a consumer thread per shard decodes, deduplicates and folds frames
//    into per-apk state, and finalizes runs as their artifacts arrive —
//    because routing is by apk checksum, a run's datagrams and its
//    completion serialize through the same shard queue, so no cross-shard
//    coordination is ever needed;
//  - a finalized fresh run is made durable first (the checkpoint hook)
//    and only then handed to the run callback, on the same shard thread:
//    a crash between the two replays the run instead of losing it, and a
//    run whose checkpoint throws reaches no callback. Replays
//    (submitReplay) are already durable and skip the hook.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/artifacts.hpp"
#include "core/report.hpp"
#include "ingest/metrics.hpp"
#include "ingest/sink.hpp"

namespace libspector::ingest {

struct IngestConfig {
  /// 0 = one shard per hardware thread.
  std::size_t shards = 1;
  /// Bounded per-shard queue capacity (items). A producer whose shard
  /// queue is full blocks until the consumer makes room.
  std::size_t queueCapacity = 4096;
  /// Cap on per-shard pending apks (datagrams for apks no run ever claims
  /// must not accumulate forever); the oldest pending apk is evicted and
  /// counted when exceeded.
  std::size_t maxPendingApks = 4096;
};

/// Exact per-apk delivery account over the best-effort channel (lives in
/// core so persisted `.spab` envelopes can carry it across a crash).
using ApkLossAccount = core::ApkLossAccount;

/// A finalized run: its artifacts (reports replaced by the delivered,
/// deduplicated, sequence-ordered set when the report channel was live)
/// plus the loss account.
struct RunDelivery {
  std::size_t jobIndex = 0;
  core::RunArtifacts artifacts;
  ApkLossAccount account;
  /// True when this run was re-injected from a persisted bundle rather
  /// than finalized off the live channel (recovery must not re-checkpoint).
  bool replayed = false;
};

class ShardedIngest final : public ReportSink {
 public:
  /// Invoked on the owning shard's consumer thread for each finalized run,
  /// fresh and replayed; heavy work here (attribution) is the intended use
  /// — it parallelizes across shards and backpressures producers via the
  /// bounded queue. Must be thread-safe across shards.
  using RunCallback = std::function<void(RunDelivery&&)>;
  /// Invoked on the shard consumer thread for every fresh run (never for a
  /// replay), and returns before the run callback starts: durable before
  /// aggregated. Must be thread-safe; orch::CheckpointWriter is the
  /// intended implementation.
  using CheckpointFn = std::function<void(const RunDelivery&)>;

  /// An exception the checkpoint hook or the run callback throws (a
  /// checkpoint write that failed) does not stop the shard: the first one
  /// is kept for drain() to rethrow, and a run whose checkpoint threw
  /// never reaches the callback.
  explicit ShardedIngest(IngestConfig config = {}, RunCallback onRun = {},
                         CheckpointFn checkpoint = {});
  /// Drains the queues and joins the consumers. Producers must have
  /// quiesced (a producer blocked on a full queue would never wake).
  ~ShardedIngest() override;

  ShardedIngest(const ShardedIngest&) = delete;
  ShardedIngest& operator=(const ShardedIngest&) = delete;

  /// Route one framed datagram (any thread). Malformed datagrams are
  /// counted and dropped.
  void submitDatagram(std::span<const std::uint8_t> payload) override;

  /// Mark `artifacts`'s run complete (any thread). The shard folds the
  /// delivered reports into the artifacts, computes the loss account,
  /// checkpoints the RunDelivery and hands it to the run callback.
  void submitRun(std::size_t jobIndex, core::RunArtifacts&& artifacts);

  /// Re-inject a recovered run (any thread): the bundle's reports are
  /// already the finalized delivered set and `account` is its persisted
  /// loss account, so the shard skips report folding and checkpointing and
  /// hands the run — flagged replayed — straight to the run callback,
  /// preserving the original delivery/loss numbers in the shard counters.
  void submitReplay(std::size_t jobIndex, core::RunArtifacts&& artifacts,
                    const ApkLossAccount& account);

  /// Block until every queued item has been consumed and all run callbacks
  /// have returned. Call after producers quiesce, before reading results.
  /// Rethrows, once, the first exception a checkpoint hook or run callback
  /// threw since the last drain().
  void drain();

  /// True once a checkpoint hook or run callback has thrown since the last
  /// drain() (any thread). A job source polls it to stop dispatching work
  /// whose results the failed study cannot keep.
  [[nodiscard]] bool failed() const;

  /// Remove and return the pending (unclaimed-by-a-run) reports for an apk,
  /// deduplicated and sequence-ordered. Only frames already consumed are
  /// visible — drain() first for a complete view.
  [[nodiscard]] std::vector<core::UdpReport> takeReports(
      const std::string& apkSha256);

  /// Drop one apk's pending state outright (the admin evict op): its
  /// delivered-but-unclaimed reports, parked holes and dictionaries are
  /// discarded and counted under the eviction counters. Returns true when
  /// the apk had pending state.
  bool evictPending(const std::string& apkSha256);

  [[nodiscard]] IngestMetrics metrics() const;
  [[nodiscard]] std::size_t shardCount() const noexcept { return shards_.size(); }
  /// Shard an apk checksum routes to (exposed for tests and benches).
  [[nodiscard]] std::size_t shardOf(const std::string& apkSha256) const;

 private:
  struct Item {
    // Exactly one of frameBytes / run is set. A fresh run's account is
    // filled in at finalization; a replay's is the persisted one.
    std::vector<std::uint8_t> frameBytes;
    std::unique_ptr<RunDelivery> run;
    std::chrono::steady_clock::time_point enqueuedAt;
  };

  struct WorkerSeq {
    std::uint64_t maxSeq = 0;
    bool any = false;
  };

  /// A delivered frame whose signature ids are not all defined yet
  /// (the frame carrying the definition was lost or reordered behind it).
  /// Everything but the stack is known; the id list waits for defs.
  struct CompactReport {
    core::UdpReport base;  // stackSignatures empty until resolved
    std::vector<std::uint32_t> sigIds;
  };

  struct PendingApk {
    /// Delivered reports keyed (workerId, sequence): the map both
    /// deduplicates and restores send order.
    std::map<std::pair<std::uint32_t, std::uint64_t>, core::UdpReport> reports;
    /// Frames parked until their dictionary entries arrive. Disjoint from
    /// `reports`; dedup spans both.
    std::map<std::pair<std::uint32_t, std::uint64_t>, CompactReport> holes;
    /// Per-worker signature dictionary folded from frame defs.
    std::unordered_map<std::uint32_t,
                       std::unordered_map<std::uint32_t, std::string>>
        dicts;
    std::unordered_map<std::uint32_t, WorkerSeq> workers;
    std::uint64_t framesDelivered = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t outOfOrder = 0;
    std::list<std::string>::iterator orderIt;  // position in Shard::order
  };

  struct Shard {
    mutable std::mutex mutex;
    std::condition_variable_any notEmpty;
    std::condition_variable_any notFull;
    std::condition_variable_any drained;
    std::deque<Item> queue;
    bool busy = false;

    std::unordered_map<std::string, PendingApk> pending;
    std::list<std::string> order;  // pending apks, oldest first

    ShardMetrics counters;
    std::vector<double> latencyMs;  // ring buffer
    std::size_t latencyNext = 0;
    double busyMs = 0.0;

    std::jthread consumer;  // last: joins before the rest is destroyed
  };

  void enqueue(Shard& shard, Item&& item);
  void consumeLoop(std::stop_token stop, Shard& shard);
  void foldFrame(Shard& shard, std::span<const std::uint8_t> frameBytes);
  void finalizeRun(Shard& shard, RunDelivery&& delivery);
  /// Resolve any of `workerId`'s parked frames the dictionary now covers.
  /// Requires shard.mutex held.
  void resolveHolesLocked(Shard& shard, PendingApk& apk,
                          std::uint32_t workerId);
  /// Last-resort hole repair at run finalization: heal from the emulator's
  /// locally recorded report list (complete and sequence-ordered), each
  /// candidate verified against the hole's delivered metadata. Unrepairable
  /// holes are dropped and counted. Requires shard.mutex held.
  void repairHolesFromLocalLocked(Shard& shard, PendingApk& apk,
                                  const core::RunArtifacts& artifacts);
  /// Requires shard.mutex held.
  void evictIfOverCapacityLocked(Shard& shard);

  IngestConfig config_;
  RunCallback onRun_;
  CheckpointFn checkpoint_;
  std::atomic<std::uint64_t> received_{0};
  std::atomic<std::uint64_t> malformed_{0};
  mutable std::mutex runErrorMutex_;
  std::exception_ptr runError_;  // first exception a hook or callback threw
  std::chrono::steady_clock::time_point startedAt_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace libspector::ingest
