// Client-side protocol speakers for the three spectord surfaces.
//
//  - IngestClient is an ingest::ReportSink over the wire: every datagram
//    the emulator supervisor emits becomes a Report frame, run completion
//    becomes a RunComplete upload (SpabEnvelope bytes), and the session
//    handshake + cumulative acks give it reconnect-and-resume semantics.
//    Thread-safe like the in-process sinks it substitutes for (emulator
//    workers share one collector), by serializing frame writes. A fleet
//    that must survive connection death wraps it in ResilientIngestClient
//    (resilient.hpp).
//  - DashboardClient subscribes to topics and folds snapshots + deltas
//    into a DashboardMirror, the same fold the daemon keeps its own view
//    with: once drained, a subscriber to every topic holds a mirror equal
//    to SpectorDaemon::dashboard(). It is the one dashboard client: a
//    dashboard whose connection dies opens a new one, whose subscribes
//    bring snapshots that make its mirror whole.
//  - AdminClient is a simple request/response wrapper over Admin frames.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/artifacts.hpp"
#include "ingest/sink.hpp"
#include "spectord/channel.hpp"
#include "spectord/protocol.hpp"

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

  /// Block until the daemon's bytes are readable, EOF, or the timeout.
  /// Touches only the thread-safe pipe, never the parser.
  void waitReadable(std::chrono::milliseconds timeout) const {
    endpoint_.waitReadable(timeout);
  }

  void close() { endpoint_.close(); }
  [[nodiscard]] bool peerClosed() const { return endpoint_.peerClosed(); }

 private:
  ChannelEndpoint endpoint_;
  FrameParser parser_;
  std::vector<std::uint8_t> scratch_;
};

/// One RunComplete frame: the run's SpabEnvelope, framed for the wire.
/// Uploaders build it once, outside any client lock, and re-send it as is.
[[nodiscard]] std::vector<std::uint8_t> encodeRunUpload(
    std::uint64_t jobIndex, const core::RunArtifacts& artifacts);

/// Report-ingest client. Construction performs the Hello handshake and
/// blocks for the HelloAck, up to 10 s (throws std::runtime_error if the
/// daemon hangs up instead or the ack is late). Pass the session token of
/// a previous incarnation to resume: ackedFrames()/ackedRuns() then report
/// what the daemon already has, so the caller re-sends only its unacked
/// tail.
class IngestClient final : public ingest::ReportSink {
 public:
  IngestClient(ChannelEndpoint endpoint, std::uint64_t clientId,
               std::uint64_t resumeSession = 0);

  /// Frame and send one report datagram. Blocks on channel backpressure
  /// (the socket write would too); opportunistically folds any acks the
  /// daemon pushed back. Thread-safe.
  void submitDatagram(std::span<const std::uint8_t> payload) override;

  /// Send one run upload (encodeRunUpload's frame) and return without
  /// waiting for its verdict; false when the transport is dead.
  /// Thread-safe.
  bool uploadRun(std::span<const std::uint8_t> frame);

  /// Hand over every RunAck folded since the last call, first waiting up
  /// to `timeout` (with the lock released) for one when none is held.
  /// Empty on timeout or hangup. Thread-safe.
  [[nodiscard]] std::vector<RunAckMsg> takeRunAcks(
      std::chrono::milliseconds timeout = std::chrono::milliseconds(0));

  /// Upload a finished run and block for the daemon's verdict: uploadRun,
  /// then takeRunAcks until this job's ack arrives, for up to 60 s (then
  /// it throws). RunAcks for other jobs that arrive meanwhile are dropped,
  /// so one caller uploads at a time; a fleet sharing one connection uses
  /// ResilientIngestClient's uploadRun and flush.
  RunAckMsg completeRun(std::uint64_t jobIndex,
                        const core::RunArtifacts& artifacts);

  /// Wait until the daemon has acked at least `frames` report frames.
  bool waitAckedFrames(std::uint64_t frames, std::chrono::milliseconds timeout);

  [[nodiscard]] std::uint64_t sessionToken() const noexcept {
    return session_;
  }
  [[nodiscard]] bool resumed() const noexcept { return resumed_; }
  /// Daemon-acked cumulative report frames (across resumed sessions).
  [[nodiscard]] std::uint64_t ackedFrames() const;
  [[nodiscard]] std::uint64_t ackedRuns() const;
  /// Report frames this incarnation sent.
  [[nodiscard]] std::uint64_t framesSent() const;

  /// The transport is dead: a send failed or the daemon hung up. A down
  /// client never recovers by itself — reconnect (ResilientIngestClient)
  /// with the session token and re-send the unacked tail.
  [[nodiscard]] bool down() const;

  /// Polite goodbye + close.
  void bye();
  /// Hard close, as when the process gives up on a connection.
  void close() { channel_.close(); }

 private:
  /// Fold one daemon frame into client state. Locked by caller.
  void handleLocked(const Frame& frame);
  void pumpLocked();

  mutable std::mutex mutex_;
  ClientChannel channel_;
  std::uint64_t session_ = 0;
  bool resumed_ = false;
  std::uint64_t ackedFrames_ = 0;
  std::uint64_t ackedRuns_ = 0;
  std::uint64_t framesSent_ = 0;
  bool sendFailed_ = false;
  /// RunAcks folded but not yet handed over by takeRunAcks, in arrival
  /// order.
  std::vector<RunAckMsg> runAcks_;
  /// Job indices whose accepted ack was already counted into ackedRuns_
  /// (dedupe against re-delivered acks).
  std::set<std::uint64_t> countedRuns_;
};

class DashboardClient {
 public:
  DashboardClient(ChannelEndpoint endpoint, std::uint64_t clientId);

  void subscribe(Topic topic);

  /// Fold daemon frames until `done()` holds, checking it after every
  /// folded frame, or until the timeout; returns whether it holds. A
  /// caller that compares the mirror afterwards must wait for a condition
  /// that every frame it compares has landed.
  bool waitUntil(const std::function<bool()>& done,
                 std::chrono::milliseconds timeout);
  /// Wait until the mirror has folded a snapshot for `topic`.
  bool waitForSnapshot(Topic topic, std::chrono::milliseconds timeout);

  [[nodiscard]] const DashboardMirror& mirror() const noexcept {
    return mirror_;
  }
  [[nodiscard]] std::uint64_t snapshotsReceived(Topic topic) const {
    return snapshots_[static_cast<std::size_t>(topic)];
  }
  [[nodiscard]] std::uint64_t deltasReceived() const noexcept {
    return deltas_;
  }

  void close() { channel_.close(); }

 private:
  ClientChannel channel_;
  DashboardMirror mirror_;
  std::array<std::uint64_t, 4> snapshots_{};
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
