// spectord: the long-running collector daemon.
//
// Everything PRs 2–6 built runs in-process under orch::runStudy; the
// paper's Libspector is a *service* — a fleet of instrumented emulators
// streams reports at a collector that aggregates continuously and answers
// live queries. SpectorDaemon is that service shape, layered over
// ingest::ShardedIngest:
//
//  - clients connect over simulated duplex channels and speak the framed
//    protocol (protocol.hpp) on three surfaces: report ingest (with
//    session handshake + sequence resume), dashboards (the whole view as
//    a snapshot after the Hello, then one delta frame per run) and admin
//    ops;
//  - one event-loop thread owns every connection (the async-server
//    idiom): it pumps reads into incremental parsers, dispatches frames,
//    folds each run's DeltaMsg into the daemon's DashboardMirror with the
//    subscribers' own applyDelta, and fans the same message out through
//    bounded write queues — a lagging subscriber has deltas dropped and
//    resyncs from a snapshot, so ingest never blocks on a dashboard;
//  - heavy work stays on the router's shard consumer threads: the
//    daemon's run callback attributes each run there (after the router
//    checkpointed it), builds its DeltaMsg from the delivery and its
//    flow columns, queues it for the loop and folds the optional
//    accumulator. The loop's mirror is the only live view of the study:
//    each run is folded into it once.
//
// Consistency contract of the dashboard surface: snapshots and deltas for
// one connection are emitted by the same thread from the same mirror, so
// a subscriber that folds every delta into its snapshot reconstructs the
// daemon's mirror *exactly* (no double counting across the subscribe
// boundary, no missed runs): after drain(), every dashboard connection
// holds a mirror == dashboard() — the dashboard tests pin this.
//
// Each job index reaches the router once: fresh uploads and checkpoint
// replays share one daemon-wide set of the indices already handed over,
// so a re-upload (from any session) or a second resume is acked or
// skipped, never folded twice. A run whose checkpoint write fails is
// folded nowhere and leaves the set, so a re-run of its job can land.
//
// Multi-collector mode: each daemon owns a contiguous slice of the 64-bit
// fnv1a hash of package-name space (CollectorAssignment). RunComplete
// uploads for apps outside the slice are refused, so N collectors
// partition a study; orch::mergeStudies proves the merged result
// byte-identical to a single collector.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/analysis.hpp"
#include "ingest/router.hpp"
#include "orch/recovery.hpp"
#include "spectord/connection.hpp"
#include "spectord/protocol.hpp"

namespace libspector::spectord {

/// Which slice of the store one collector owns: collector `i` of `count`
/// owns the apps whose fnv1a64(package name) falls in the i-th contiguous
/// range of the 64-bit hash space. The key is the package name because
/// the plan knows it before the app is expanded (`AppStoreGenerator::plan`),
/// so a collector expands only what it owns; a world's package names are
/// unique (each ends in `.app<index>`), and `RunArtifacts::packageName`
/// carries the key to the daemon. Contiguous ranges (not modulo) so
/// growing the collector count splits ranges instead of reshuffling
/// every app.
struct CollectorAssignment {
  std::uint32_t index = 0;
  std::uint32_t count = 1;

  [[nodiscard]] std::uint32_t ownerOf(const std::string& packageName) const;
  [[nodiscard]] bool owns(const std::string& packageName) const {
    return ownerOf(packageName) == index;
  }
};

struct DaemonConfig {
  ingest::IngestConfig ingest;
  /// Total runs this collector expects (its share of the study), carried
  /// by the dashboard's snapshots. 0 = unknown.
  std::uint64_t expectedRuns = 0;
  /// Checkpoint directory for crash-safe `.spab` persistence; empty runs
  /// the daemon in-memory only (no checkpoints, no admin resume).
  std::string checkpointDirectory;
  CollectorAssignment assignment;
  /// Per-direction byte capacity of each client channel (the simulated
  /// kernel buffer).
  std::size_t channelCapacity = 64 * 1024;
  /// Write-queue budget per connection, counted against the bytes the
  /// subscriber's channel has not accepted yet: a delta frame that would
  /// exceed it behind a non-empty queue is dropped, and the subscriber
  /// resyncs from a snapshot once it has drained its queue. A delta into
  /// an empty queue is always accepted.
  std::size_t subscriberQueueBytes = 256 * 1024;
};

class SpectorDaemon {
 public:
  /// Produces one run's attributed flows
  /// (core::TrafficAttributor::attributeColumns in production).
  using AttributeFn =
      std::function<core::FlowColumns(const core::RunArtifacts&)>;

  /// `attribute` runs on the shard consumer threads; `accumulator`
  /// (optional) receives every run under its job index, the deterministic
  /// batch view. When `config.checkpointDirectory` is set the daemon owns
  /// an orch::CheckpointWriter, the router's checkpoint hook, so every
  /// fresh run is durable before it is published.
  explicit SpectorDaemon(DaemonConfig config, AttributeFn attribute,
                         core::StudyAccumulator* accumulator = nullptr);
  ~SpectorDaemon();

  SpectorDaemon(const SpectorDaemon&) = delete;
  SpectorDaemon& operator=(const SpectorDaemon&) = delete;

  /// Open a connection; returns the client end of a fresh duplex channel.
  /// Thread-safe. A connection opened after shutdown() is returned
  /// already closed.
  [[nodiscard]] ChannelEndpoint connect();

  /// Block until everything submitted so far is folded, checkpointed and
  /// published. Callable from any thread except the event loop's clients'
  /// frame handlers (the admin Drain op is how clients reach it). Throws
  /// what a failed checkpoint write threw (see ShardedIngest::drain).
  void drain();

  /// Graceful shutdown: drain the router (flushing `.spab`
  /// checkpoints), Bye every client, close every channel, stop the loop.
  /// Idempotent; also run by the destructor, so it never throws: a failed
  /// checkpoint write is logged.
  void shutdown();

  [[nodiscard]] bool running() const;

  /// A copy of the daemon's dashboard view (any thread): every run
  /// published so far, as every dashboard connection mirrors it.
  [[nodiscard]] DashboardMirror dashboard() const;

  struct ResumeResult {
    std::vector<std::uint64_t> replayed;  // job indices, in scan order
    std::size_t quarantined = 0;          // bundles the scan quarantined
  };
  /// Scan the checkpoint directory, replay every surviving run whose job
  /// index the router has not been handed yet (submitReplay keeps its
  /// persisted loss account), and drain the router. Serves the admin
  /// Resume op and runCollector's resume; any thread. Throws without a
  /// checkpoint directory, and what the scan or the drain throws.
  ResumeResult resumeFromCheckpoints();
  /// Router metrics with the daemon's service counters in `service`.
  [[nodiscard]] ingest::IngestMetrics metrics() const;

  /// The router (runCollector stops dispatching once it failed()).
  /// A run submitted straight into it bypasses the daemon's job set.
  [[nodiscard]] ingest::ShardedIngest& ingest() noexcept { return ingest_; }
  [[nodiscard]] const DaemonConfig& config() const noexcept {
    return config_;
  }

 private:
  /// Cross-connection client session: survives disconnects so a
  /// reconnecting client can resume and re-send only its unacked tail.
  /// Exactly one live connection may be attached at a time — a second
  /// Hello for a live session is refused (a client that reconnected
  /// because *it* saw a hangup races the daemon reaping the old
  /// connection, so an attach whose previous connection is peer-gone is
  /// adopted, not refused). Sessions with no live attach are swept by the
  /// admin Drain op.
  struct SessionRecord {
    std::uint64_t token = 0;
    std::uint64_t ackedFrames = 0;  // report frames accepted, cumulative
  };

  void loopMain();
  void wake();
  /// True when the loop has outstanding work (reads pending, publish
  /// queue non-empty, writes queued).
  bool pumpOnce();

  void handleFrame(Connection& conn, Frame&& frame);
  void handleHello(Connection& conn, const Frame& frame);
  void handleAdmin(Connection& conn, const AdminMsg& msg);
  /// Record `jobIndex` as handed to the router; false when it already
  /// was (fresh or replayed). Any thread.
  bool claimJob(std::uint64_t jobIndex);
  /// Forget `jobIndex` after its checkpoint write failed (shard thread).
  void releaseJob(std::uint64_t jobIndex);
  /// Drain the router for an admin op. A run that failed to checkpoint
  /// answers the op with ok = false and the reason; returns false then.
  bool drainForAdmin(AdminAckMsg& ack);
  void sendError(Connection& conn, std::uint16_t code, std::string_view what);

  /// Loop-thread only: the open, handshaken connection attached as
  /// `clientId`, excluding `except`; nullptr when none.
  [[nodiscard]] Connection* liveAttach(std::uint64_t clientId,
                                       const Connection* except);
  /// Loop-thread only: drop every session with no live attach. Returns the
  /// number swept (counted into sessionsExpired by the caller).
  std::size_t expireStaleSessions();

  /// Shard-thread run callback: attribute, queue the run's DeltaMsg for
  /// the loop, fold the accumulator.
  void onRun(ingest::RunDelivery&& delivery);
  /// Loop-thread only: fold the run into the mirror and fan its delta out.
  void publishRun(const DeltaMsg& delta);
  /// Loop-thread only: the snapshot a laggard is owed, once its write
  /// queue has drained.
  void sendResync(Connection& conn);
  [[nodiscard]] std::string statusJson() const;

  DaemonConfig config_;
  AttributeFn attribute_;
  core::StudyAccumulator* accumulator_;
  std::optional<orch::CheckpointWriter> checkpoints_;

  // Event-loop wake machinery (channel activity, publishes, connects).
  std::mutex wakeMutex_;
  std::condition_variable wakeCv_;
  bool wakePending_ = false;
  bool stopRequested_ = false;
  std::atomic<bool> shutdownStarted_{false};
  std::atomic<bool> loopExited_{false};
  /// Deltas enqueued but not yet fanned out (drain() waits on zero).
  std::atomic<std::uint64_t> pendingPublishes_{0};

  // New connections parked until the loop adopts them. Every channel
  // connect() hands out is armed with the loop waker; the loop disarms a
  // connection when it reaps it, and shutdown() disarms the survivors
  // once the loop is gone, so a client or proxy that outlives the daemon
  // cannot wake() into a destroyed object (and a long-lived daemon under
  // a reconnect storm does not pin every dead connection's pipes).
  std::mutex acceptMutex_;
  std::vector<std::unique_ptr<Connection>> accepted_;
  std::uint64_t nextConnId_ = 1;
  bool acceptingClosed_ = false;

  // Deltas queued by shard consumer threads for the loop to publish.
  std::mutex publishMutex_;
  std::deque<DeltaMsg> publishQueue_;

  // Loop-owned state (no lock: only loopMain touches these).
  std::vector<std::unique_ptr<Connection>> conns_;
  std::map<std::uint64_t, SessionRecord> sessions_;  // by clientId
  std::uint64_t nextSessionToken_ = 1;

  // The live view. Only the loop writes it, under dashboardMutex_ while
  // it applies a run; the loop reads it unlocked, other threads through
  // dashboard().
  mutable std::mutex dashboardMutex_;
  DashboardMirror dashboard_;

  mutable std::mutex countersMutex_;
  ingest::ServiceCounters counters_;

  // Job indices handed to the router, fresh or replayed, less those whose
  // checkpoint write failed (loop, shard threads, resumeFromCheckpoints'
  // caller).
  std::mutex foldedJobsMutex_;
  std::set<std::uint64_t> foldedJobs_;

  // After everything the run callback touches: its destructor joins the
  // shard threads, which finish any run still queued.
  ingest::ShardedIngest ingest_;
  std::thread loop_;  // last-ish: joined in shutdown()
};

}  // namespace libspector::spectord
