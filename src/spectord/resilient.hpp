// Reconnect-and-resume client tier for spectord.
//
// The base clients (client.hpp) speak the protocol over one connection
// and simply go `down()` when it dies. This layer makes them survivable:
//
//  - Reconnector is the backoff policy: capped exponential delays with
//    deterministic seeded jitter and a consecutive-failure budget. Each
//    ResilientIngestClient seeds its Reconnector from its clientId, so a
//    thundering herd of collectors de-synchronizes without tests losing
//    reproducibility.
//  - ResilientIngestClient wraps IngestClient behind a connect factory.
//    It remembers the session token, every unacked report frame and
//    every run upload still waiting for its RunAck; on hangup it
//    reconnects with backoff, re-handshakes with the saved token, drops
//    the prefix the daemon's HelloAck acks, and re-sends the frame tail,
//    then the run tail. Uploads are pipelined: uploadRun encodes its run
//    outside the lock, sends it and returns, and every later call folds
//    whatever RunAcks have arrived, so no worker waits on another
//    worker's verdict. An upload whose verdict is overdue is re-sent
//    until its attempt budget is spent — the daemon's per-session
//    completed-job dedupe makes the re-upload safe. flush() is the one
//    place a verdict or a spent budget reaches the caller.
//  - BreakerEndpoint is the matching fault injector: a man-in-the-middle
//    proxy that severs, stalls or truncates the byte stream at a scripted
//    client->daemon byte offset (deliberately mid-frame). Every fault
//    ends with a dead connection — the transport either delivers a
//    prefix in order or dies, never a mid-stream hole — which is the
//    invariant that makes cumulative-ack resume exact.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "spectord/channel.hpp"
#include "spectord/client.hpp"
#include "util/rng.hpp"

namespace libspector::spectord {

/// Capped exponential backoff with deterministic jitter.
struct ReconnectorConfig {
  std::chrono::milliseconds initialDelay{10};
  std::chrono::milliseconds maxDelay{2000};
  double multiplier = 2.0;
  /// Each delay is scaled by a factor drawn uniformly from
  /// [1 - jitter, 1 + jitter]; deterministic given the Reconnector's seed.
  double jitter = 0.25;
  /// Consecutive failed attempts before giving up; a successful attach
  /// resets the count.
  std::size_t maxAttempts = 10;
};

class Reconnector {
 public:
  /// `seed` drives the jitter stream: clients with different seeds draw
  /// different schedules.
  Reconnector(ReconnectorConfig config, std::uint64_t seed);

  /// Delay to sleep before the next attempt, advancing the schedule.
  /// Throws std::runtime_error once the attempt budget is exhausted.
  [[nodiscard]] std::chrono::milliseconds nextDelay();

  /// A connection attempt succeeded: the failure streak is over.
  void reset() noexcept { attempt_ = 0; }

  [[nodiscard]] std::size_t attempt() const noexcept { return attempt_; }
  [[nodiscard]] bool exhausted() const noexcept {
    return attempt_ >= config_.maxAttempts;
  }

 private:
  ReconnectorConfig config_;
  util::Rng rng_;
  std::size_t attempt_ = 0;
};

/// Scripted connection killer. Wraps a daemon-side endpoint in a proxy
/// whose clientEnd() is handed to the client under test; two pump threads
/// forward bytes both ways until the scheduled fault fires.
class BreakerEndpoint {
 public:
  enum class FaultKind : std::uint8_t {
    None,      // pass-through (still a proxy, never fires)
    Sever,     // close both directions at the scheduled offset
    Stall,     // freeze the client->daemon stream for `stall`, then sever
    Truncate,  // half-close toward the daemon first (EOF mid-frame), then
               // sever the client side after `stall`
  };
  struct Fault {
    FaultKind kind = FaultKind::None;
    /// Fires once this many client->daemon bytes were forwarded; offsets
    /// landing mid-frame are the interesting case.
    std::uint64_t afterClientBytes = 0;
    std::chrono::milliseconds stall{0};
  };

  /// The client-facing channel holds 64 KiB per direction.
  BreakerEndpoint(ChannelEndpoint upstream, Fault fault);
  ~BreakerEndpoint();
  BreakerEndpoint(const BreakerEndpoint&) = delete;
  BreakerEndpoint& operator=(const BreakerEndpoint&) = delete;

  /// The endpoint the client speaks to.
  [[nodiscard]] ChannelEndpoint clientEnd() const { return clientEnd_; }

  [[nodiscard]] bool fired() const { return fired_.load(); }
  /// Client->daemon bytes actually delivered upstream.
  [[nodiscard]] std::uint64_t forwardedToDaemon() const {
    return forwarded_.load();
  }

 private:
  void pumpToDaemon();
  void pumpToClient();

  ChannelEndpoint upstream_;
  ChannelEndpoint proxySide_;  // proxy's end of the client-facing channel
  ChannelEndpoint clientEnd_;
  Fault fault_;
  std::atomic<bool> fired_{false};
  std::atomic<std::uint64_t> forwarded_{0};
  std::thread toDaemon_;
  std::thread toClient_;
};

/// Factory for a fresh daemon connection; called on every (re)connect.
/// `attempt` is the 0-based ordinal of the connection being opened, which
/// fault-injection tests use to script per-connection breakage.
using ConnectFn = std::function<ChannelEndpoint(std::size_t attempt)>;

struct ResilientClientConfig {
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

/// IngestClient that survives connection death. Thread-safe like the
/// client it wraps; a reconnect (backoff sleep included) happens under
/// the lock, so concurrent emulator workers stall rather than interleave
/// with a half-restored session. Nothing waits for a verdict under the
/// lock: uploads are pipelined, and flush waits with the lock released.
class ResilientIngestClient final : public ingest::ReportSink {
 public:
  ResilientIngestClient(ConnectFn connect, std::uint64_t clientId,
                        ResilientClientConfig config = {});

  /// Buffers the payload in the unacked tail, then sends. On a dead
  /// transport: reconnect, resume, replay the tail (this frame included).
  void submitDatagram(std::span<const std::uint8_t> payload) override;

  /// Upload a finished run and return without waiting for its verdict.
  /// The frame is encoded outside the lock, kept in the run tail until
  /// its RunAck arrives and re-sent after every reconnect; a later call
  /// folds the verdict, and flush() waits for all of them.
  void uploadRun(std::uint64_t jobIndex, const core::RunArtifacts& artifacts);

  /// Wait until every upload has its verdict, reconnecting and re-sending
  /// as needed. A retry of an already-folded upload comes back accepted
  /// with `duplicate` set — still one verdict per upload. Throws if an
  /// upload spent its attempt budget. Returns the refusals among
  /// uploadRun's verdicts not returned by an earlier flush.
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
  /// Verdicts folded: uploads the daemon accepted (duplicates included)
  /// and uploads it refused.
  [[nodiscard]] std::uint64_t runsAccepted() const;
  [[nodiscard]] std::uint64_t runsRefused() const;
  /// Resume requests the daemon answered with a fresh session (our old
  /// one was expired, e.g. by an admin drain while we were down).
  [[nodiscard]] std::uint64_t resumesRefused() const;

  void bye();

 private:
  /// A run upload waiting for its verdict.
  struct PendingRun {
    std::uint64_t jobIndex = 0;
    std::vector<std::uint8_t> frame;  // encodeRunUpload, built once
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
  void pruneAckedLocked();
  void sendRunLocked(PendingRun& run);
  /// Fold the live connection's acks; abandon it if the oldest upload's
  /// verdict is overdue.
  void collectLocked();
  void applyRunAcksLocked(std::vector<RunAckMsg> acks);
  /// The connection died or went silent: charge every upload sent on it
  /// one attempt, fail those out of budget, and close it.
  void abandonConnectionLocked();

  mutable std::mutex mutex_;
  ConnectFn connect_;
  const std::uint64_t clientId_;
  ResilientClientConfig config_;
  Reconnector reconnector_;
  /// Shared so a caller waiting for verdicts with the lock released keeps
  /// the connection it sleeps on alive across a reconnect.
  std::shared_ptr<IngestClient> client_;
  std::uint64_t session_ = 0;
  std::size_t connectCalls_ = 0;  // factory invocations (ordinal source)
  std::size_t connections_ = 0;   // attempts that completed the handshake
  /// Unacked tail: frame payloads with cumulative indices
  /// [tailBase_, tailBase_ + tail_.size()); pruned as acks arrive.
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
  std::uint64_t framesOffered_ = 0;
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

}  // namespace libspector::spectord
