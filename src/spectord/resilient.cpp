#include "spectord/resilient.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace libspector::spectord {

using namespace std::chrono_literals;

// --- Reconnector -----------------------------------------------------------

Reconnector::Reconnector(ReconnectorConfig config, std::uint64_t seed)
    : config_(config), rng_(seed) {}

std::chrono::milliseconds Reconnector::nextDelay() {
  if (attempt_ >= config_.maxAttempts)
    throw std::runtime_error(
        "spectord reconnect: attempt budget exhausted after " +
        std::to_string(attempt_) + " consecutive failures");
  double base = static_cast<double>(config_.initialDelay.count());
  for (std::size_t i = 0; i < attempt_; ++i) base *= config_.multiplier;
  base = std::min(base, static_cast<double>(config_.maxDelay.count()));
  // Uniform jitter in [1 - j, 1 + j], drawn from the seeded stream so the
  // whole schedule is a pure function of (config, attempt history).
  const double factor = 1.0 + config_.jitter * (2.0 * rng_.uniform01() - 1.0);
  ++attempt_;
  const double jittered = std::max(0.0, base * factor);
  return std::chrono::milliseconds(static_cast<std::int64_t>(jittered));
}

// --- BreakerEndpoint -------------------------------------------------------

BreakerEndpoint::BreakerEndpoint(ChannelEndpoint upstream, Fault fault)
    : upstream_(std::move(upstream)), fault_(fault) {
  ChannelPair pair = makeChannel(64 * 1024);
  proxySide_ = pair.server;
  clientEnd_ = pair.client;
  toDaemon_ = std::thread([this] { pumpToDaemon(); });
  toClient_ = std::thread([this] { pumpToClient(); });
}

BreakerEndpoint::~BreakerEndpoint() {
  clientEnd_.close();
  upstream_.close();
  proxySide_.close();
  if (toDaemon_.joinable()) toDaemon_.join();
  if (toClient_.joinable()) toClient_.join();
}

void BreakerEndpoint::pumpToDaemon() {
  std::vector<std::uint8_t> buf;
  while (true) {
    buf.clear();
    const std::size_t n = proxySide_.readSome(buf);
    if (n == 0) {
      if (proxySide_.peerClosed() || upstream_.writeClosed()) break;
      proxySide_.waitReadable(50ms);
      continue;
    }
    const std::uint64_t before = forwarded_.load();
    if (fault_.kind != FaultKind::None &&
        before + n >= fault_.afterClientBytes) {
      // Deliver exactly up to the scheduled offset — mid-frame on
      // purpose — then kill the connection. Every kind ends dead: the
      // transport delivers an in-order prefix or nothing, never a hole,
      // which is what makes cumulative-ack resume exact.
      const std::size_t keep =
          fault_.afterClientBytes > before
              ? static_cast<std::size_t>(fault_.afterClientBytes - before)
              : 0;
      if (fault_.kind == FaultKind::Stall)
        std::this_thread::sleep_for(fault_.stall);
      if (keep > 0 && upstream_.writeAll({buf.data(), keep}))
        forwarded_.fetch_add(keep);
      upstream_.close();
      if (fault_.kind == FaultKind::Truncate)
        // The daemon already sees EOF mid-frame; the client keeps writing
        // into the doomed pipe for a beat before learning.
        std::this_thread::sleep_for(fault_.stall);
      proxySide_.close();
      return;
    }
    // Count before the write: the daemon may read these bytes and close
    // (after a Bye, say), and the client see that close, before
    // writeAll returns here.
    forwarded_.fetch_add(n);
    if (!upstream_.writeAll(buf)) {
      forwarded_.fetch_sub(n);
      break;
    }
  }
  // Natural teardown (either side closed): propagate to the other.
  upstream_.close();
  proxySide_.close();
}

void BreakerEndpoint::pumpToClient() {
  std::vector<std::uint8_t> buf;
  while (true) {
    buf.clear();
    const std::size_t n = upstream_.readSome(buf);
    if (n == 0) {
      if (upstream_.peerClosed() || proxySide_.writeClosed()) break;
      upstream_.waitReadable(50ms);
      continue;
    }
    if (!proxySide_.writeAll(buf)) break;
  }
  proxySide_.close();
}

}  // namespace libspector::spectord
