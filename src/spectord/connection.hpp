// Server-side per-connection state: the async-server idiom of a read
// buffer feeding an incremental parser, plus a bounded write queue with
// partial-write continuation.
//
// A Connection is owned and driven exclusively by the daemon's event-loop
// thread — it is a single-threaded state machine; the only concurrency is
// inside the channel pipes. Frames are split into two classes on the
// write side:
//
//  - control frames (acks, snapshots, admin replies, errors, bye) are
//    always queued — they are small, bounded in number, and the protocol
//    is meaningless without them;
//  - delta frames are droppable: when the bytes the channel has not
//    accepted would exceed the budget the delta is dropped and the daemon
//    owes the connection a snapshot-resync; a delta into an empty queue is
//    always accepted. Ingest never blocks on a slow dashboard,
//    and a slow dashboard is never cut off for lagging.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "spectord/channel.hpp"
#include "spectord/protocol.hpp"

namespace libspector::spectord {

class Connection {
 public:
  Connection(std::uint64_t id, ChannelEndpoint endpoint,
             std::size_t writeQueueBudget)
      : id_(id),
        endpoint_(std::move(endpoint)),
        writeQueueBudget_(writeQueueBudget) {}

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  // --- read side -----------------------------------------------------------

  /// Move whatever the peer has written into the parser. Returns the
  /// number of bytes consumed (0 = no progress).
  std::size_t pumpRead();

  /// Next fully-parsed frame, if any.
  [[nodiscard]] std::optional<Frame> nextFrame() { return parser_.next(); }

  [[nodiscard]] const FrameParser& parser() const noexcept { return parser_; }

  /// Peer closed and everything it sent has been consumed.
  [[nodiscard]] bool peerGone() const { return endpoint_.peerClosed(); }

  /// Peer closed its write side; buffered bytes may remain to drain.
  /// Liveness checks (one-attach-per-session) use this, not peerGone():
  /// a half-drained hangup is already dead, just not yet reaped.
  [[nodiscard]] bool peerHungUp() const { return endpoint_.peerHungUp(); }

  // --- write side ----------------------------------------------------------

  /// Queue a control frame (never dropped; queue may exceed its budget for
  /// these — the count of control frames per event is bounded).
  void sendControl(FrameType type, std::span<const std::uint8_t> body);

  /// Queue a delta frame, honouring the write budget: queued bytes are
  /// flushed into the channel first, and the frame is dropped only when
  /// what is still queued plus the frame would exceed the budget. Returns
  /// true when queued; false means the frame was dropped (the caller owes
  /// the connection a resync snapshot).
  bool sendDelta(std::span<const std::uint8_t> body);

  /// Push queued bytes into the channel as far as it will accept them.
  /// Returns true if any bytes moved.
  bool flushWrites();

  [[nodiscard]] bool writeQueueEmpty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t queuedBytes() const noexcept {
    return queuedBytes_;
  }

  /// Close the channel (both directions) immediately.
  void close();
  [[nodiscard]] bool closed() const noexcept { return closed_; }

  /// Detach the daemon's loop-waker hooks from the channel's pipes,
  /// waiting out any in-flight invocation. Called when the connection is
  /// reaped (and at shutdown for live ones) so a peer holding the other
  /// endpoint can neither wake a gone loop nor pin hook state.
  void disarmActivity() { endpoint_.disarmActivity(); }

  // --- protocol state (daemon-managed) -------------------------------------

  bool helloDone = false;
  ClientKind kind = ClientKind::Ingest;
  std::uint64_t clientId = 0;
  std::uint64_t session = 0;
  /// A dashboard connection that had a delta dropped: it gets no deltas
  /// until the snapshot it is owed goes out, once its write queue drains.
  bool resyncOwed = false;
  /// Report frames accepted since the last ReportAck went out.
  bool ackOwed = false;
  /// Parser counters already folded into the daemon aggregates.
  std::uint64_t garbageFolded = 0;
  std::uint64_t rejectedFolded = 0;
  /// Set by the daemon to end a connection after its queue drains.
  bool disconnectAfterFlush = false;

 private:
  const std::uint64_t id_;
  ChannelEndpoint endpoint_;
  const std::size_t writeQueueBudget_;
  FrameParser parser_;
  std::vector<std::uint8_t> readScratch_;
  std::deque<std::vector<std::uint8_t>> queue_;
  std::size_t frontOffset_ = 0;  // bytes of queue_.front() already written
  std::size_t queuedBytes_ = 0;
  bool closed_ = false;
};

}  // namespace libspector::spectord
