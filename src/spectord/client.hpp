// Client-side protocol speakers for the three spectord surfaces.
//
//  - IngestClient is an ingest::ReportSink over the wire that survives
//    connection death: every datagram the emulator supervisor emits
//    becomes a Report frame, and every finished run a RunComplete upload
//    (SpabEnvelope bytes). It opens connections through a connect
//    factory and keeps every report frame and run upload the daemon has
//    not acked; on hangup it reconnects with backoff (Reconnector,
//    resilient.hpp), resumes its session with the saved token, drops the
//    prefix the HelloAck acks, and re-sends the frame tail, then the run
//    tail. Uploads are pipelined: uploadRun sends and returns, later
//    calls fold the RunAcks, and flush() is the one place a verdict
//    reaches the caller. Emulator workers share one client behind one
//    mutex; its two waits (flush, waitAckedFrames) sleep on the
//    connection with the mutex released.
//  - DashboardClient subscribes by its Hello: a snapshot (the daemon's
//    whole DashboardMirror) replaces its mirror, and each delta is folded
//    with the applyDelta the daemon keeps its own view with, so once
//    drained it holds a mirror equal to SpectorDaemon::dashboard(). It is
//    the one dashboard client: a dashboard whose connection dies opens a
//    new one, whose snapshot makes its mirror whole.
//  - AdminClient is a simple request/response wrapper over Admin frames.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/artifacts.hpp"
#include "ingest/sink.hpp"
#include "spectord/channel.hpp"
#include "spectord/protocol.hpp"
#include "spectord/resilient.hpp"

namespace libspector::spectord {

/// Shared client plumbing: a channel endpoint plus an incremental parser,
/// with blocking frame send/receive. Not thread-safe by itself; the
/// clients below add locking where their surface needs it.
class ClientChannel {
 public:
  explicit ClientChannel(ChannelEndpoint endpoint)
      : endpoint_(std::move(endpoint)) {}

  /// A destructed client closes its socket: even a crashed process gets
  /// a kernel FIN. Only a dead machine leaves a half-open peer, and this
  /// in-process simulation has no dead machines — so the daemon may treat
  /// an unclosed peer as a live attach.
  ~ClientChannel() { endpoint_.close(); }
  ClientChannel(const ClientChannel&) = delete;
  ClientChannel& operator=(const ClientChannel&) = delete;

  /// Blocking whole-frame write; false when the daemon closed the channel.
  bool send(FrameType type, std::span<const std::uint8_t> body);
  /// The same for a frame encodeFrame already built.
  bool sendEncoded(std::span<const std::uint8_t> frame) {
    return endpoint_.writeAll(frame);
  }

  /// Non-blocking: drain whatever the daemon wrote, return the next frame.
  [[nodiscard]] std::optional<Frame> tryRead();

  /// Blocking read with a deadline; nullopt on timeout or EOF.
  [[nodiscard]] std::optional<Frame> read(std::chrono::milliseconds timeout);

  /// A handle on the connection's pipes, for a caller that sleeps on
  /// them (ChannelEndpoint::waitReadable) without holding this channel:
  /// the handle keeps the pipes alive, never the parser.
  [[nodiscard]] ChannelEndpoint endpoint() const { return endpoint_; }

  void close() { endpoint_.close(); }
  [[nodiscard]] bool peerClosed() const { return endpoint_.peerClosed(); }

 private:
  ChannelEndpoint endpoint_;
  FrameParser parser_;
  std::vector<std::uint8_t> scratch_;
};

/// Factory for a fresh daemon connection; called on every (re)connect.
/// `attempt` is the 0-based ordinal of the connection being opened, which
/// fault-injection tests use to script per-connection breakage.
using ConnectFn = std::function<ChannelEndpoint(std::size_t attempt)>;

struct IngestClientConfig {
  /// The backoff shape; the jitter is seeded from the client's clientId.
  ReconnectorConfig reconnect;
  /// Per-send RunAck wait for each upload; once an upload's verdict is
  /// overdue the connection is torn down and every pending upload re-sent
  /// on a fresh attach.
  std::chrono::milliseconds runAckTimeout{60000};
  /// Sends per upload before it fails loudly. A daemon that stays
  /// reachable but never acks would otherwise retry forever: every
  /// re-attach succeeds and resets the reconnect budget, so the upload
  /// needs its own.
  std::size_t runUploadAttempts = 8;
};

/// Report-ingest client. Construction connects and completes the Hello
/// handshake (backing off and retrying; throws once the reconnect budget
/// is spent). Thread-safe: a reconnect (backoff sleep included) happens
/// under the lock, so concurrent emulator workers stall rather than
/// interleave with a half-restored session.
class IngestClient final : public ingest::ReportSink {
 public:
  IngestClient(ConnectFn connect, std::uint64_t clientId,
               IngestClientConfig config = {});

  /// Buffers the payload in the unacked tail, then sends. On a dead
  /// transport: reconnect, resume, replay the tail (this frame included).
  void submitDatagram(std::span<const std::uint8_t> payload) override;

  /// Upload a finished run and return without waiting for its verdict.
  /// The frame is encoded outside the lock, kept in the run tail until
  /// its RunAck arrives and re-sent after every reconnect; a later call
  /// folds the verdict, and flush() waits for all of them.
  void uploadRun(std::uint64_t jobIndex, const core::RunArtifacts& artifacts);

  /// Wait until every upload has its verdict, reconnecting and re-sending
  /// as needed. A retry of an already-folded upload comes back accepted —
  /// still one verdict per upload. Throws if an upload spent its attempt
  /// budget. Returns the refusals among uploadRun's verdicts not returned
  /// by an earlier flush.
  std::vector<RunAckMsg> flush();

  /// Wait until the daemon has acked `frames` cumulative report frames,
  /// reconnecting as needed.
  bool waitAckedFrames(std::uint64_t frames, std::chrono::milliseconds timeout);

  [[nodiscard]] std::uint64_t sessionToken() const;
  /// Distinct report frames offered (retransmissions not re-counted).
  [[nodiscard]] std::uint64_t framesOffered() const;
  [[nodiscard]] std::uint64_t ackedFrames() const;
  /// Successful attaches after the first.
  [[nodiscard]] std::uint64_t reconnects() const;
  /// Tail frames re-sent on resumed sessions.
  [[nodiscard]] std::uint64_t framesResent() const;
  /// Sends of a run upload whose connection died or went silent before
  /// its verdict (each is re-sent unless its budget is spent).
  [[nodiscard]] std::uint64_t runsResent() const;
  /// Verdicts folded: uploads the daemon accepted (re-uploads included)
  /// and uploads it refused.
  [[nodiscard]] std::uint64_t runsAccepted() const;
  [[nodiscard]] std::uint64_t runsRefused() const;
  /// Resume requests the daemon answered with a fresh session (our old
  /// one was expired, e.g. by an admin drain while we were down).
  [[nodiscard]] std::uint64_t resumesRefused() const;

  /// Send Bye and return once the daemon has closed the connection (it
  /// does after reading the Bye, so every byte sent before it has reached
  /// the daemon), or after the handshake timeout. A dead connection gets
  /// no Bye and no reconnect.
  void bye();

 private:
  /// A run upload waiting for its verdict.
  struct PendingRun {
    std::uint64_t jobIndex = 0;
    /// The RunComplete frame (the run's SpabEnvelope), built once outside
    /// the lock and re-sent as is.
    std::vector<std::uint8_t> frame;
    std::size_t sends = 0;
    std::size_t connection = 0;  // the attach it was last sent on
    std::chrono::steady_clock::time_point deadline;
  };
  /// Attach (or re-attach) until the transport is live and the unacked
  /// tails replayed (frames, then runs); throws once the backoff budget
  /// is exhausted. Returns true when it performed an attach (and
  /// therefore already re-sent every tail frame and run), false when the
  /// transport was live all along.
  bool ensureConnectedLocked();
  /// A send on the live connection failed: abandon it and re-attach,
  /// which replays the tails.
  void reattachLocked();
  /// Drop the tail prefix the live session has acked.
  void pruneAckedLocked(std::uint64_t sessionAcked);
  /// Send (or re-send) an upload on the live connection.
  bool sendRunLocked(PendingRun& run);
  /// Fold one daemon frame: a ReportAck prunes the frame tail, a RunAck
  /// settles its upload.
  void foldLocked(const Frame& frame);
  /// Fold the live connection's frames; abandon it if the oldest
  /// upload's verdict is overdue.
  void collectLocked();
  /// The connection died or went silent: fold what it delivered, charge
  /// every upload sent on it one attempt, fail those out of budget, and
  /// close it.
  void abandonConnectionLocked();

  mutable std::mutex mutex_;
  ConnectFn connect_;
  const std::uint64_t clientId_;
  IngestClientConfig config_;
  Reconnector reconnector_;
  /// The live connection; empty between an abandon and the next attach.
  std::optional<ClientChannel> channel_;
  std::uint64_t session_ = 0;
  std::size_t connectCalls_ = 0;  // factory invocations (ordinal source)
  std::size_t connections_ = 0;   // attempts that completed the handshake
  /// Unacked tail: frame payloads with cumulative indices
  /// [tailBase_, tailBase_ + tail_.size()), so tailBase_ is the count of
  /// frames acked; pruned as acks arrive.
  std::deque<std::vector<std::uint8_t>> tail_;
  std::uint64_t tailBase_ = 0;
  /// Cumulative frame index the live session's ack 0 corresponds to.
  /// Zero for the first session and every resumed one; rebased to
  /// tailBase_ when the daemon refuses a resume (fresh session, acks
  /// restart at zero for the tail we replay into it).
  std::uint64_t ackBase_ = 0;
  /// Cumulative frame indices [0, sentHigh_) have been transmitted at
  /// least once; replaying below this line counts as a re-send.
  std::uint64_t sentHigh_ = 0;
  std::uint64_t framesResent_ = 0;
  /// Unacked run tail in send order (so deadlines ascend); pruned as
  /// RunAcks arrive. Bounded by the channel's backpressure.
  std::deque<PendingRun> runTail_;
  std::vector<RunAckMsg> refusals_;  // for the next flush
  std::string failure_;  // first upload that spent its budget
  std::uint64_t runsResent_ = 0;
  std::uint64_t runsAccepted_ = 0;
  std::uint64_t runsRefused_ = 0;
  std::uint64_t resumesRefused_ = 0;
};

class DashboardClient {
 public:
  /// Connects and subscribes: the daemon sends its whole view after the
  /// HelloAck, then one delta per folded run.
  DashboardClient(ChannelEndpoint endpoint, std::uint64_t clientId);

  /// Fold daemon frames until `done()` holds, checking it after every
  /// folded frame, or until the timeout; returns whether it holds. A
  /// caller that compares the mirror afterwards must wait for a condition
  /// that every frame it compares has landed.
  bool waitUntil(const std::function<bool()>& done,
                 std::chrono::milliseconds timeout);
  /// Wait until a snapshot has replaced the mirror.
  bool waitForSnapshot(std::chrono::milliseconds timeout);

  [[nodiscard]] const DashboardMirror& mirror() const noexcept {
    return mirror_;
  }
  [[nodiscard]] std::uint64_t snapshotsReceived() const noexcept {
    return snapshots_;
  }
  [[nodiscard]] std::uint64_t deltasReceived() const noexcept {
    return deltas_;
  }

  void close() { channel_.close(); }

 private:
  ClientChannel channel_;
  DashboardMirror mirror_;
  std::uint64_t snapshots_ = 0;
  std::uint64_t deltas_ = 0;
};

class AdminClient {
 public:
  AdminClient(ChannelEndpoint endpoint, std::uint64_t clientId);

  /// Send one admin op and block for its ack. Throws std::runtime_error
  /// on hangup or when no ack arrives within 60 s.
  AdminAckMsg request(AdminOp op, std::string arg = {});

  void close() { channel_.close(); }

 private:
  ClientChannel channel_;
};

}  // namespace libspector::spectord
