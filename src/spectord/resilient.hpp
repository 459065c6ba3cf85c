// Reconnect policy and fault injection for spectord's ingest client.
//
//  - Reconnector is the backoff policy: capped exponential delays with
//    deterministic seeded jitter and a consecutive-failure budget. Each
//    IngestClient (client.hpp) seeds its Reconnector from its clientId,
//    so a thundering herd of collectors de-synchronizes without tests
//    losing reproducibility.
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
#include <thread>

#include "spectord/channel.hpp"
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

  /// Client->daemon bytes forwarded upstream. A chunk is counted before
  /// it is written (and uncounted if the write fails), so once the
  /// client has seen the daemon answer or close after reading some
  /// bytes, those bytes are in the count.
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
  std::atomic<std::uint64_t> forwarded_{0};
  std::thread toDaemon_;
  std::thread toClient_;
};

}  // namespace libspector::spectord
