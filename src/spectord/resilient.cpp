#include "spectord/resilient.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

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
    if (fault_.kind != FaultKind::None && !fired_.load() &&
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
      fired_.store(true);
      upstream_.close();
      if (fault_.kind == FaultKind::Truncate)
        // The daemon already sees EOF mid-frame; the client keeps writing
        // into the doomed pipe for a beat before learning.
        std::this_thread::sleep_for(fault_.stall);
      proxySide_.close();
      return;
    }
    if (!upstream_.writeAll(buf)) break;
    forwarded_.fetch_add(n);
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

// --- ResilientIngestClient -------------------------------------------------

namespace {

/// Longest sleep of a caller waiting for verdicts. It sleeps on the
/// connection, so a RunAck wakes it at once; but another caller may fold
/// that RunAck first, and the slice bounds how late the sleeper notices.
constexpr std::chrono::milliseconds kVerdictPollSlice{5};

}  // namespace

ResilientIngestClient::ResilientIngestClient(ConnectFn connect,
                                             std::uint64_t clientId,
                                             ResilientClientConfig config)
    : connect_(std::move(connect)),
      clientId_(clientId),
      config_(config),
      reconnector_(config.reconnect, clientId) {
  const std::scoped_lock lock(mutex_);
  ensureConnectedLocked();
}

bool ResilientIngestClient::ensureConnectedLocked() {
  if (client_ && !client_->down()) return false;
  if (client_) abandonConnectionLocked();
  bool first = connections_ == 0 && reconnector_.attempt() == 0;
  while (true) {
    // First-ever attempt goes immediately; every retry waits out the
    // backoff schedule (which throws once the budget is exhausted).
    if (!first) std::this_thread::sleep_for(reconnector_.nextDelay());
    first = false;
    std::shared_ptr<IngestClient> fresh;
    try {
      fresh = std::make_shared<IngestClient>(connect_(connectCalls_++),
                                             clientId_, session_);
    } catch (const std::exception&) {
      continue;  // daemon unreachable or handshake refused: back off
    }
    ++connections_;
    if (!fresh->resumed()) {
      // Fresh session: the first attach, or the daemon expired ours (an
      // admin drain swept it while we were down). Its ack stream
      // restarts at zero for the tail we are about to replay, so rebase
      // the absolute accounting around tailBase_ — carrying the old
      // absolute indices would make pruning impossible and the tail grow
      // without bound. Frames the lost session folded but never acked do
      // get re-folded on replay; that is the cost of expiring a session
      // out from under a live client, surfaced by resumesRefused().
      if (session_ != 0) ++resumesRefused_;
      ackBase_ = tailBase_;
    }
    session_ = fresh->sessionToken();
    client_ = std::move(fresh);
    // Resume: the HelloAck's cumulative ack is an exact prefix of what we
    // offered (in-order transport), so drop that prefix and replay the
    // unacked tail verbatim. Runs go after the frames: a run's reports
    // reach the daemon before the run that finalizes them.
    pruneAckedLocked();
    bool died = false;
    std::uint64_t index = tailBase_;
    for (const auto& payload : tail_) {
      client_->submitDatagram(payload);
      if (index < sentHigh_) ++framesResent_;
      sentHigh_ = std::max(sentHigh_, ++index);
      if (client_->down()) {
        died = true;  // killed again mid-replay; the next attach re-acks
        break;
      }
    }
    for (auto run = runTail_.begin(); !died && run != runTail_.end(); ++run) {
      sendRunLocked(*run);
      died = client_->down();
    }
    if (died || client_->down()) {
      abandonConnectionLocked();
      continue;
    }
    reconnector_.reset();
    return true;
  }
}

void ResilientIngestClient::pruneAckedLocked() {
  if (!client_) return;
  const std::uint64_t acked = ackBase_ + client_->ackedFrames();
  while (tailBase_ < acked && !tail_.empty()) {
    tail_.pop_front();
    ++tailBase_;
  }
}

void ResilientIngestClient::sendRunLocked(PendingRun& run) {
  ++run.sends;
  run.connection = connections_;
  run.deadline = std::chrono::steady_clock::now() + config_.runAckTimeout;
  client_->uploadRun(run.frame);
}

void ResilientIngestClient::abandonConnectionLocked() {
  for (auto run = runTail_.begin(); run != runTail_.end();) {
    if (run->connection != connections_) {
      ++run;  // never reached this connection: nothing to charge
      continue;
    }
    ++runsResent_;
    // Fail loudly once the attempt budget is spent: a reachable daemon
    // that never acks resets the reconnect budget on every re-attach,
    // so without this cap a stuck pipeline retries forever.
    if (run->sends < config_.runUploadAttempts) {
      ++run;
      continue;
    }
    if (failure_.empty())
      failure_ = "spectord reconnect: run upload budget exhausted after " +
                 std::to_string(run->sends) + " attempts (jobIndex " +
                 std::to_string(run->jobIndex) + ")";
    run = runTail_.erase(run);
  }
  // Close before dropping: a caller sleeping on this connection holds a
  // reference, and must wake now rather than at the end of its slice.
  client_->close();
  client_.reset();
}

void ResilientIngestClient::applyRunAcksLocked(std::vector<RunAckMsg> acks) {
  for (RunAckMsg& ack : acks) {
    const auto run = std::find_if(
        runTail_.begin(), runTail_.end(),
        [&](const PendingRun& r) { return r.jobIndex == ack.jobIndex; });
    // No pending upload: a re-delivered ack for a verdict already folded.
    if (run == runTail_.end()) continue;
    ++(ack.accepted ? runsAccepted_ : runsRefused_);
    if (!ack.accepted) refusals_.push_back(std::move(ack));
    runTail_.erase(run);
  }
}

void ResilientIngestClient::collectLocked() {
  if (!client_) return;
  applyRunAcksLocked(client_->takeRunAcks());
  pruneAckedLocked();
  // Uploads are sent in order, so the oldest deadline is the front's. A
  // connection that leaves it overdue is silent: drop it, and the next
  // attach re-sends every pending upload.
  if (!runTail_.empty() &&
      std::chrono::steady_clock::now() >= runTail_.front().deadline)
    abandonConnectionLocked();
}

void ResilientIngestClient::submitDatagram(
    std::span<const std::uint8_t> payload) {
  const std::scoped_lock lock(mutex_);
  tail_.emplace_back(payload.begin(), payload.end());
  ++framesOffered_;
  // A transport already dead at entry means ensureConnectedLocked replays
  // the whole unacked tail — this frame included — so a direct send on
  // top of that would deliver (and fold) it twice, skewing the session's
  // cumulative ack stream.
  if (!ensureConnectedLocked()) {
    client_->submitDatagram(payload);
    sentHigh_ = std::max(sentHigh_, framesOffered_);
    // A failed send leaves the frame in the tail; reconnect replays it.
    if (client_->down()) ensureConnectedLocked();
  }
  collectLocked();
}

void ResilientIngestClient::uploadRun(std::uint64_t jobIndex,
                                      const core::RunArtifacts& artifacts) {
  PendingRun run;
  run.jobIndex = jobIndex;
  run.frame = encodeRunUpload(jobIndex, artifacts);
  const std::scoped_lock lock(mutex_);
  runTail_.push_back(std::move(run));
  // As with a report frame: a transport dead at entry replays the whole
  // run tail, this upload included.
  if (!ensureConnectedLocked()) {
    sendRunLocked(runTail_.back());
    if (client_->down()) ensureConnectedLocked();
  }
  collectLocked();
}

std::vector<RunAckMsg> ResilientIngestClient::flush() {
  std::unique_lock lock(mutex_);
  while (true) {
    collectLocked();
    if (runTail_.empty()) break;
    // A re-attach replays the run tail; fold and re-check before sleeping.
    if (ensureConnectedLocked()) continue;
    const auto slice = std::min(
        kVerdictPollSlice,
        std::chrono::ceil<std::chrono::milliseconds>(
            runTail_.front().deadline - std::chrono::steady_clock::now()));
    // Sleep on the connection with the lock released, so other workers'
    // reports and uploads go through meanwhile.
    const std::shared_ptr<IngestClient> live = client_;
    lock.unlock();
    std::vector<RunAckMsg> acks = live->takeRunAcks(slice);
    lock.lock();
    applyRunAcksLocked(std::move(acks));
  }
  if (!failure_.empty())
    throw std::runtime_error(std::exchange(failure_, std::string()));
  return std::exchange(refusals_, {});
}

bool ResilientIngestClient::waitAckedFrames(std::uint64_t frames,
                                            std::chrono::milliseconds timeout) {
  const std::scoped_lock lock(mutex_);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    ensureConnectedLocked();
    // `frames` counts offered frames absolutely; the live session's ack
    // stream may be rebased (refused resume), so translate before asking.
    const std::uint64_t target = frames > ackBase_ ? frames - ackBase_ : 0;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return ackBase_ + client_->ackedFrames() >= frames;
    const auto slice = std::min(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now),
        std::chrono::milliseconds(100));
    const bool acked = client_->waitAckedFrames(target, slice);
    collectLocked();
    if (acked) return true;
    // Fell through: slice elapsed or the channel died; the loop
    // re-attaches (a no-op while the transport is still live).
  }
}

std::uint64_t ResilientIngestClient::sessionToken() const {
  const std::scoped_lock lock(mutex_);
  return session_;
}

std::uint64_t ResilientIngestClient::framesOffered() const {
  const std::scoped_lock lock(mutex_);
  return framesOffered_;
}

std::uint64_t ResilientIngestClient::ackedFrames() const {
  const std::scoped_lock lock(mutex_);
  return client_ ? ackBase_ + client_->ackedFrames() : tailBase_;
}

std::uint64_t ResilientIngestClient::reconnects() const {
  const std::scoped_lock lock(mutex_);
  return connections_ > 0 ? connections_ - 1 : 0;
}

std::uint64_t ResilientIngestClient::framesResent() const {
  const std::scoped_lock lock(mutex_);
  return framesResent_;
}

std::uint64_t ResilientIngestClient::runsResent() const {
  const std::scoped_lock lock(mutex_);
  return runsResent_;
}

std::uint64_t ResilientIngestClient::runsAccepted() const {
  const std::scoped_lock lock(mutex_);
  return runsAccepted_;
}

std::uint64_t ResilientIngestClient::runsRefused() const {
  const std::scoped_lock lock(mutex_);
  return runsRefused_;
}

std::uint64_t ResilientIngestClient::resumesRefused() const {
  const std::scoped_lock lock(mutex_);
  return resumesRefused_;
}

void ResilientIngestClient::bye() {
  const std::scoped_lock lock(mutex_);
  if (client_) client_->bye();
  client_.reset();
}

}  // namespace libspector::spectord
