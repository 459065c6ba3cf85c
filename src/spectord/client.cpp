#include "spectord/client.hpp"

#include <stdexcept>
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

/// How long a client waits for the HelloAck.
constexpr auto kHandshakeTimeout = 10000ms;
/// How long a blocking RunComplete or admin op waits for its ack.
constexpr auto kAckTimeout = 60000ms;

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

std::vector<std::uint8_t> encodeRunUpload(std::uint64_t jobIndex,
                                          const core::RunArtifacts& artifacts) {
  return encodeFrame(
      FrameType::RunComplete,
      core::SpabEnvelope::encode(jobIndex, core::ApkLossAccount{}, artifacts));
}

IngestClient::IngestClient(ChannelEndpoint endpoint, std::uint64_t clientId,
                           std::uint64_t resumeSession)
    : channel_(std::move(endpoint)) {
  const HelloAckMsg ack =
      handshake(channel_, clientId, ClientKind::Ingest, resumeSession);
  session_ = ack.session;
  resumed_ = ack.resumed;
  ackedFrames_ = ack.ackedFrames;
  ackedRuns_ = ack.ackedRuns;
}

void IngestClient::handleLocked(const Frame& frame) {
  switch (frame.type) {
    case FrameType::ReportAck: {
      const ReportAckMsg ack = ReportAckMsg::decode(frame.body);
      if (ack.ackedFrames > ackedFrames_) ackedFrames_ = ack.ackedFrames;
      return;
    }
    case FrameType::RunAck: {
      RunAckMsg ack = RunAckMsg::decode(frame.body);
      // Dedupe by jobIndex before counting: a re-delivered ack (or the
      // daemon acking a resume re-upload it already has, ack.duplicate)
      // must not bump ackedRuns_ twice, and a fresh ack must replace a
      // stale entry rather than being silently discarded.
      if (ack.accepted && !ack.duplicate &&
          countedRuns_.insert(ack.jobIndex).second)
        ++ackedRuns_;
      runAcks_.push_back(std::move(ack));
      return;
    }
    default:
      return;  // Bye / Error: surfaced via peerClosed by the daemon close
  }
}

void IngestClient::pumpLocked() {
  while (auto frame = channel_.tryRead()) handleLocked(*frame);
}

void IngestClient::submitDatagram(std::span<const std::uint8_t> payload) {
  const std::scoped_lock lock(mutex_);
  // Pump before writing so a pile of acks never deadlocks both sides'
  // bounded buffers against each other.
  pumpLocked();
  if (channel_.send(FrameType::Report, payload))
    ++framesSent_;
  else
    sendFailed_ = true;
  pumpLocked();
}

bool IngestClient::uploadRun(std::span<const std::uint8_t> frame) {
  const std::scoped_lock lock(mutex_);
  pumpLocked();
  if (channel_.sendEncoded(frame)) return true;
  sendFailed_ = true;
  return false;
}

std::vector<RunAckMsg> IngestClient::takeRunAcks(
    std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    {
      const std::scoped_lock lock(mutex_);
      pumpLocked();
      if (!runAcks_.empty() || channel_.peerClosed() ||
          std::chrono::steady_clock::now() >= deadline)
        return std::exchange(runAcks_, {});
    }
    // Wait outside the lock: a submitDatagram on another thread must not
    // queue behind a caller waiting for a verdict.
    channel_.waitReadable(std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now()));
  }
}

RunAckMsg IngestClient::completeRun(std::uint64_t jobIndex,
                                    const core::RunArtifacts& artifacts) {
  if (!uploadRun(encodeRunUpload(jobIndex, artifacts)))
    throw std::runtime_error("spectord client: daemon closed during upload");
  const auto deadline = std::chrono::steady_clock::now() + kAckTimeout;
  while (true) {
    const auto now = std::chrono::steady_clock::now();
    for (RunAckMsg& ack : takeRunAcks(
             std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                   now)))
      if (ack.jobIndex == jobIndex) return std::move(ack);
    if (std::chrono::steady_clock::now() >= deadline)
      throw std::runtime_error("spectord client: RunAck timeout");
    if (channel_.peerClosed())
      throw std::runtime_error("spectord client: no RunAck before hangup");
  }
}

bool IngestClient::waitAckedFrames(std::uint64_t frames,
                                   std::chrono::milliseconds timeout) {
  const std::scoped_lock lock(mutex_);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    pumpLocked();
    if (ackedFrames_ >= frames) return true;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    auto frame = channel_.read(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now));
    if (!frame) return ackedFrames_ >= frames;
    handleLocked(*frame);
  }
}

std::uint64_t IngestClient::ackedFrames() const {
  const std::scoped_lock lock(mutex_);
  return ackedFrames_;
}

std::uint64_t IngestClient::ackedRuns() const {
  const std::scoped_lock lock(mutex_);
  return ackedRuns_;
}

std::uint64_t IngestClient::framesSent() const {
  const std::scoped_lock lock(mutex_);
  return framesSent_;
}

bool IngestClient::down() const {
  const std::scoped_lock lock(mutex_);
  return sendFailed_ || channel_.peerClosed();
}

void IngestClient::bye() {
  const std::scoped_lock lock(mutex_);
  channel_.send(FrameType::Bye, ByeMsg{"done"}.encode());
  channel_.close();
}

// --- DashboardClient -------------------------------------------------------

DashboardClient::DashboardClient(ChannelEndpoint endpoint,
                                 std::uint64_t clientId)
    : channel_(std::move(endpoint)) {
  handshake(channel_, clientId, ClientKind::Dashboard);
}

void DashboardClient::subscribe(Topic topic) {
  SubscribeMsg msg;
  msg.topic = topic;
  channel_.send(FrameType::Subscribe, msg.encode());
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
      case FrameType::Snapshot: {
        const SnapshotMsg snapshot = SnapshotMsg::decode(frame->body);
        mirror_.applySnapshot(snapshot);
        ++snapshots_[static_cast<std::size_t>(snapshot.topic)];
        break;
      }
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

bool DashboardClient::waitForSnapshot(Topic topic,
                                      std::chrono::milliseconds timeout) {
  return waitUntil([&] { return snapshotsReceived(topic) > 0; }, timeout);
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
