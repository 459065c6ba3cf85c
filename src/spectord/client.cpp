#include "spectord/client.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

namespace libspector::spectord {

using namespace std::chrono_literals;

bool ClientChannel::send(FrameType type, std::span<const std::uint8_t> body) {
  return endpoint_.writeAll(encodeFrame(type, body));
}

std::optional<Frame> ClientChannel::tryRead() {
  if (auto frame = parser_.next()) return frame;
  scratch_.clear();
  if (endpoint_.readSome(scratch_) == 0) return std::nullopt;
  parser_.feed(scratch_);
  return parser_.next();
}

std::optional<Frame> ClientChannel::read(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    if (auto frame = tryRead()) return frame;
    if (endpoint_.peerClosed()) return std::nullopt;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return std::nullopt;
    // Sleep the full remaining deadline on the pipe's condition variable:
    // a write or close on the peer side wakes the wait, so slicing the
    // timeout would only add wasted wakeups (which a real-socket
    // transport's epoll loop would amplify).
    endpoint_.waitReadable(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now));
  }
}

namespace {

/// How long a client waits for the HelloAck (and for the close after
/// its Bye).
constexpr auto kHandshakeTimeout = 10000ms;
/// How long an admin op waits for its ack.
constexpr auto kAckTimeout = 60000ms;
/// Longest sleep of an ingest caller waiting for acks. It sleeps on the
/// connection, so an ack wakes it at once; but another caller may fold
/// that ack first, and the slice bounds how late the sleeper notices.
constexpr auto kVerdictPollSlice = 5ms;

/// Time left until `deadline`, rounded up (zero or less once it passed).
std::chrono::milliseconds untilDeadline(
    std::chrono::steady_clock::time_point deadline) {
  return std::chrono::ceil<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
}

/// Hello -> HelloAck, throwing on refusal, hangup or timeout. A resumed
/// connection can carry frames queued for the old attach (ReportAck, Delta,
/// a racing Bye) ahead of the HelloAck; they are skipped, bounded by the
/// deadline — only an explicit Error refusal aborts the handshake.
HelloAckMsg handshake(ClientChannel& channel, std::uint64_t clientId,
                      ClientKind kind, std::uint64_t resumeSession = 0) {
  HelloMsg hello;
  hello.clientId = clientId;
  hello.kind = kind;
  hello.resumeSession = resumeSession;
  if (!channel.send(FrameType::Hello, hello.encode()))
    throw std::runtime_error("spectord client: daemon closed during Hello");
  const auto deadline = std::chrono::steady_clock::now() + kHandshakeTimeout;
  while (true) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline)
      throw std::runtime_error("spectord client: HelloAck timeout");
    auto frame = channel.read(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now));
    if (!frame)
      throw std::runtime_error("spectord client: no HelloAck before hangup");
    if (frame->type == FrameType::HelloAck)
      return HelloAckMsg::decode(frame->body);
    if (frame->type == FrameType::Error)
      throw std::runtime_error("spectord client: handshake refused: " +
                               ErrorMsg::decode(frame->body).message);
  }
}

}  // namespace

// --- IngestClient ----------------------------------------------------------

IngestClient::IngestClient(ConnectFn connect, std::uint64_t clientId,
                           IngestClientConfig config)
    : connect_(std::move(connect)),
      clientId_(clientId),
      config_(config),
      reconnector_(config.reconnect, clientId) {
  const std::scoped_lock lock(mutex_);
  ensureConnectedLocked();
}

bool IngestClient::ensureConnectedLocked() {
  if (channel_ && !channel_->peerClosed()) return false;
  if (channel_) abandonConnectionLocked();
  // The first-ever attempt goes immediately; every retry waits out the
  // backoff schedule (which throws once the budget is exhausted).
  for (bool first = connectCalls_ == 0;; first = false) {
    if (!first) std::this_thread::sleep_for(reconnector_.nextDelay());
    HelloAckMsg ack;
    try {
      channel_.emplace(connect_(connectCalls_++));
      ack = handshake(*channel_, clientId_, ClientKind::Ingest, session_);
    } catch (const std::exception&) {
      channel_.reset();
      continue;  // daemon unreachable or handshake refused: back off
    }
    ++connections_;
    if (!ack.resumed) {
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
    session_ = ack.session;
    // Resume: the HelloAck's cumulative ack is an exact prefix of what we
    // offered (in-order transport), so drop that prefix and replay the
    // unacked tail verbatim. Runs go after the frames: a run's reports
    // reach the daemon before the run that finalizes them.
    pruneAckedLocked(ack.ackedFrames);
    bool live = true;
    std::uint64_t index = tailBase_;
    for (auto frame = tail_.begin(); live && frame != tail_.end(); ++frame) {
      if (index < sentHigh_) ++framesResent_;
      sentHigh_ = std::max(sentHigh_, ++index);
      live = channel_->send(FrameType::Report, *frame);
    }
    for (auto run = runTail_.begin(); live && run != runTail_.end(); ++run)
      live = sendRunLocked(*run);
    if (live && !channel_->peerClosed()) {
      reconnector_.reset();
      return true;
    }
    abandonConnectionLocked();  // killed again mid-replay; re-attach
  }
}

void IngestClient::reattachLocked() {
  abandonConnectionLocked();
  ensureConnectedLocked();
}

void IngestClient::pruneAckedLocked(std::uint64_t sessionAcked) {
  const std::uint64_t acked = ackBase_ + sessionAcked;
  while (tailBase_ < acked && !tail_.empty()) {
    tail_.pop_front();
    ++tailBase_;
  }
}

bool IngestClient::sendRunLocked(PendingRun& run) {
  ++run.sends;
  run.connection = connections_;
  run.deadline = std::chrono::steady_clock::now() + config_.runAckTimeout;
  return channel_->sendEncoded(run.frame);
}

void IngestClient::foldLocked(const Frame& frame) {
  if (frame.type == FrameType::ReportAck) {
    pruneAckedLocked(ReportAckMsg::decode(frame.body).ackedFrames);
    return;
  }
  if (frame.type != FrameType::RunAck) return;  // Bye / Error: a close follows
  RunAckMsg ack = RunAckMsg::decode(frame.body);
  const auto run = std::find_if(
      runTail_.begin(), runTail_.end(),
      [&](const PendingRun& r) { return r.jobIndex == ack.jobIndex; });
  // No pending upload: a re-delivered ack for a verdict already folded.
  if (run == runTail_.end()) return;
  ++(ack.accepted ? runsAccepted_ : runsRefused_);
  if (!ack.accepted) refusals_.push_back(std::move(ack));
  runTail_.erase(run);
}

void IngestClient::collectLocked() {
  if (!channel_) return;
  while (auto frame = channel_->tryRead()) foldLocked(*frame);
  // Uploads are sent in order, so the oldest deadline is the front's. A
  // connection that leaves it overdue is silent: drop it, and the next
  // attach re-sends every pending upload.
  if (!runTail_.empty() &&
      std::chrono::steady_clock::now() >= runTail_.front().deadline)
    abandonConnectionLocked();
}

void IngestClient::abandonConnectionLocked() {
  // A verdict already in the pipe spares its upload a re-send.
  while (auto frame = channel_->tryRead()) foldLocked(*frame);
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
  // Closing wakes a caller sleeping on this connection's pipes.
  channel_.reset();
}

void IngestClient::submitDatagram(std::span<const std::uint8_t> payload) {
  const std::scoped_lock lock(mutex_);
  tail_.emplace_back(payload.begin(), payload.end());
  // A transport already dead at entry means ensureConnectedLocked replays
  // the whole unacked tail — this frame included — so a direct send on
  // top of that would deliver (and fold) it twice, skewing the session's
  // cumulative ack stream.
  if (!ensureConnectedLocked()) {
    sentHigh_ = std::max(sentHigh_, tailBase_ + tail_.size());
    // A failed send leaves the frame in the tail; the re-attach replays it.
    if (!channel_->send(FrameType::Report, payload)) reattachLocked();
  }
  collectLocked();
}

void IngestClient::uploadRun(std::uint64_t jobIndex,
                             const core::RunArtifacts& artifacts) {
  PendingRun run;
  run.jobIndex = jobIndex;
  run.frame = encodeFrame(
      FrameType::RunComplete,
      core::SpabEnvelope::encode(jobIndex, core::ApkLossAccount{}, artifacts));
  const std::scoped_lock lock(mutex_);
  runTail_.push_back(std::move(run));
  // As with a report frame: a transport dead at entry replays the whole
  // run tail, this upload included.
  if (!ensureConnectedLocked() && !sendRunLocked(runTail_.back()))
    reattachLocked();
  collectLocked();
}

std::vector<RunAckMsg> IngestClient::flush() {
  std::unique_lock lock(mutex_);
  while (true) {
    collectLocked();
    if (runTail_.empty()) break;
    // A re-attach replays the run tail; fold and re-check before sleeping.
    if (ensureConnectedLocked()) continue;
    // Sleep on the connection with the lock released, so other workers'
    // reports and uploads go through meanwhile. Another caller may fold
    // the RunAck that wakes us, so the slice bounds how late we notice.
    const auto slice =
        std::min(kVerdictPollSlice, untilDeadline(runTail_.front().deadline));
    const ChannelEndpoint live = channel_->endpoint();
    lock.unlock();
    live.waitReadable(slice);
    lock.lock();
  }
  if (!failure_.empty())
    throw std::runtime_error(std::exchange(failure_, std::string()));
  return std::exchange(refusals_, {});
}

bool IngestClient::waitAckedFrames(std::uint64_t frames,
                                   std::chrono::milliseconds timeout) {
  std::unique_lock lock(mutex_);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    ensureConnectedLocked();
    collectLocked();
    // `frames` counts offered frames absolutely, as tailBase_ does.
    if (tailBase_ >= frames) return true;
    const auto left = untilDeadline(deadline);
    if (left <= std::chrono::milliseconds(0)) return false;
    // collectLocked may have dropped a silent connection; re-attach first.
    if (!channel_) continue;
    // As in flush: sleep with the lock released.
    const ChannelEndpoint live = channel_->endpoint();
    lock.unlock();
    live.waitReadable(std::min(kVerdictPollSlice, left));
    lock.lock();
  }
}

std::uint64_t IngestClient::sessionToken() const {
  const std::scoped_lock lock(mutex_);
  return session_;
}

std::uint64_t IngestClient::framesOffered() const {
  const std::scoped_lock lock(mutex_);
  return tailBase_ + tail_.size();
}

std::uint64_t IngestClient::ackedFrames() const {
  const std::scoped_lock lock(mutex_);
  return tailBase_;
}

std::uint64_t IngestClient::reconnects() const {
  const std::scoped_lock lock(mutex_);
  return connections_ - 1;  // the constructor's attach is not a reconnect
}

std::uint64_t IngestClient::framesResent() const {
  const std::scoped_lock lock(mutex_);
  return framesResent_;
}

std::uint64_t IngestClient::runsResent() const {
  const std::scoped_lock lock(mutex_);
  return runsResent_;
}

std::uint64_t IngestClient::runsAccepted() const {
  const std::scoped_lock lock(mutex_);
  return runsAccepted_;
}

std::uint64_t IngestClient::runsRefused() const {
  const std::scoped_lock lock(mutex_);
  return runsRefused_;
}

std::uint64_t IngestClient::resumesRefused() const {
  const std::scoped_lock lock(mutex_);
  return resumesRefused_;
}

void IngestClient::bye() {
  const std::scoped_lock lock(mutex_);
  if (channel_ && !channel_->peerClosed() &&
      channel_->send(FrameType::Bye, ByeMsg{"done"}.encode())) {
    // The daemon closes the connection once it has read the Bye; read up
    // to that EOF, so everything sent before it has arrived.
    const auto deadline = std::chrono::steady_clock::now() + kHandshakeTimeout;
    while (auto frame = channel_->read(untilDeadline(deadline)))
      foldLocked(*frame);
  }
  channel_.reset();
}

// --- DashboardClient -------------------------------------------------------

DashboardClient::DashboardClient(ChannelEndpoint endpoint,
                                 std::uint64_t clientId)
    : channel_(std::move(endpoint)) {
  handshake(channel_, clientId, ClientKind::Dashboard);
}

bool DashboardClient::waitUntil(const std::function<bool()>& done,
                                std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    std::optional<Frame> frame = channel_.tryRead();
    if (!frame) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline || channel_.peerClosed()) return false;
      frame = channel_.read(
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                now));
      if (!frame) return false;
    }
    switch (frame->type) {
      case FrameType::Snapshot:
        mirror_ = DashboardMirror::decode(frame->body);
        ++snapshots_;
        break;
      case FrameType::Delta:
        mirror_.applyDelta(DeltaMsg::decode(frame->body));
        ++deltas_;
        break;
      default:
        break;  // Bye (shutdown): nothing to fold
    }
  }
  return true;
}

bool DashboardClient::waitForSnapshot(std::chrono::milliseconds timeout) {
  return waitUntil([&] { return snapshots_ > 0; }, timeout);
}

// --- AdminClient -----------------------------------------------------------

AdminClient::AdminClient(ChannelEndpoint endpoint, std::uint64_t clientId)
    : channel_(std::move(endpoint)) {
  handshake(channel_, clientId, ClientKind::Admin);
}

AdminAckMsg AdminClient::request(AdminOp op, std::string arg) {
  AdminMsg msg;
  msg.op = op;
  msg.arg = std::move(arg);
  if (!channel_.send(FrameType::Admin, msg.encode()))
    throw std::runtime_error("spectord admin: daemon closed");
  const auto deadline = std::chrono::steady_clock::now() + kAckTimeout;
  while (true) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline)
      throw std::runtime_error("spectord admin: ack timeout");
    auto frame = channel_.read(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now));
    if (!frame) throw std::runtime_error("spectord admin: hangup before ack");
    if (frame->type == FrameType::AdminAck)
      return AdminAckMsg::decode(frame->body);
    if (frame->type == FrameType::Error)
      throw std::runtime_error("spectord admin: refused: " +
                               ErrorMsg::decode(frame->body).message);
    // Bye while waiting (daemon shutting down) still races the ack in.
  }
}

}  // namespace libspector::spectord
