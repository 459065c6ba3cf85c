#include "spectord/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <utility>

#include "core/attribution.hpp"
#include "util/bytes.hpp"
#include "util/log.hpp"

namespace libspector::spectord {

using namespace std::chrono_literals;

namespace {

/// Byte sums by the pool ids of one id column, in first-flow order (the
/// order a Delta lists them in). A run touches few distinct libraries or
/// categories, so a linear probe over the sums is enough.
std::vector<std::pair<std::string, std::uint64_t>> bytesById(
    const core::FlowColumns& columns, const std::vector<std::uint32_t>& ids) {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> sums;
  for (std::size_t i = 0; i < columns.size(); ++i) {
    const std::uint64_t bytes = columns.sentBytes[i] + columns.recvBytes[i];
    const auto it = std::find_if(sums.begin(), sums.end(), [&](const auto& s) {
      return s.first == ids[i];
    });
    if (it == sums.end())
      sums.emplace_back(ids[i], bytes);
    else
      it->second += bytes;
  }
  std::vector<std::pair<std::string, std::uint64_t>> named;
  named.reserve(sums.size());
  for (const auto& [id, bytes] : sums)
    named.emplace_back(std::string(columns.pool->at(id).view()), bytes);
  return named;
}

/// One run's increment to the dashboard: its byte sums, per library and
/// library category, and its exact loss account.
DeltaMsg deltaOf(const ingest::RunDelivery& delivery,
                 const core::FlowColumns& columns) {
  DeltaMsg delta;
  delta.jobIndex = delivery.jobIndex;
  delta.apkSha256 = delivery.artifacts.apkSha256;
  delta.replayed = delivery.replayed;
  delta.flowCount = columns.size();
  for (std::size_t i = 0; i < columns.size(); ++i)
    delta.attributedBytes += columns.sentBytes[i] + columns.recvBytes[i];
  delta.unattributedBytes =
      core::unattributedTcpPayload(delivery.artifacts, columns);
  delta.bytesByLibrary = bytesById(columns, columns.originLibrary);
  delta.bytesByLibCategory = bytesById(columns, columns.libraryCategory);
  delta.account = delivery.account;
  return delta;
}

}  // namespace

std::uint32_t CollectorAssignment::ownerOf(
    const std::string& packageName) const {
  if (count <= 1) return 0;
  // Fixed-point range map: (h * count) >> 64 sends the i-th contiguous
  // slice of the hash space to collector i, with slice widths within one
  // of each other.
  const std::uint64_t h = util::fnv1a64(packageName);
  return static_cast<std::uint32_t>(
      (static_cast<unsigned __int128>(h) * count) >> 64);
}

SpectorDaemon::SpectorDaemon(DaemonConfig config, AttributeFn attribute,
                             core::StudyAccumulator* accumulator)
    : config_(std::move(config)),
      attribute_(std::move(attribute)),
      accumulator_(accumulator),
      ingest_(config_.ingest,
              [this](ingest::RunDelivery&& delivery) {
                onRun(std::move(delivery));
              },
              [this](const ingest::RunDelivery& delivery) {
                if (!checkpoints_) return;
                try {
                  checkpoints_->checkpoint(delivery.jobIndex,
                                           delivery.account,
                                           delivery.artifacts);
                } catch (...) {
                  // The run is folded nowhere: a later upload of its job
                  // (a re-run) must not be taken for a duplicate.
                  releaseJob(delivery.jobIndex);
                  throw;
                }
              }) {
  if (!config_.checkpointDirectory.empty())
    checkpoints_.emplace(config_.checkpointDirectory);
  dashboard_.expectedRuns = config_.expectedRuns;
  loop_ = std::thread([this] { loopMain(); });
}

SpectorDaemon::~SpectorDaemon() { shutdown(); }

ChannelEndpoint SpectorDaemon::connect() {
  auto pair = makeChannel(config_.channelCapacity, [this] { wake(); });
  {
    const std::scoped_lock lock(acceptMutex_);
    if (acceptingClosed_) {
      pair.server.disarmActivity();
      pair.server.close();
      return pair.client;
    }
    accepted_.push_back(std::make_unique<Connection>(
        nextConnId_++, pair.server, config_.subscriberQueueBytes));
  }
  wake();
  return pair.client;
}

void SpectorDaemon::onRun(ingest::RunDelivery&& delivery) {
  // Shard consumer thread, after the router checkpointed a fresh run:
  // attribution and the run's delta happen here; everything that touches
  // connections or the dashboard happens on the loop thread.
  core::FlowColumns columns = attribute_(delivery.artifacts);
  DeltaMsg delta = deltaOf(delivery, columns);
  {
    const std::scoped_lock lock(publishMutex_);
    publishQueue_.push_back(std::move(delta));
  }
  pendingPublishes_.fetch_add(1, std::memory_order_release);
  wake();
  if (accumulator_ != nullptr)
    accumulator_->addColumns(delivery.jobIndex, std::move(delivery.artifacts),
                             std::move(columns));
}

void SpectorDaemon::drain() {
  ingest_.drain();
  // Folded is not yet published: wait for the loop to apply and fan out
  // every queued delta, so callers observe snapshot == sum of deltas.
  while (pendingPublishes_.load(std::memory_order_acquire) != 0 &&
         !loopExited_.load(std::memory_order_acquire)) {
    wake();
    std::this_thread::sleep_for(1ms);
  }
}

void SpectorDaemon::shutdown() {
  {
    const std::scoped_lock lock(acceptMutex_);
    acceptingClosed_ = true;
  }
  // Shutdown also runs from the destructor, so a run that failed to
  // checkpoint is logged here, never thrown.
  if (!shutdownStarted_.exchange(true)) {
    try {
      ingest_.drain();
    } catch (const std::exception& error) {
      util::logWarn("spectord: shutdown: %s", error.what());
    }
  }
  {
    const std::scoped_lock lock(wakeMutex_);
    stopRequested_ = true;
    wakePending_ = true;
  }
  wakeCv_.notify_all();
  if (loop_.joinable() && loop_.get_id() != std::this_thread::get_id()) {
    loop_.join();
    // The loop is gone, so the waker is dead weight — detach it from
    // every connection still holding a channel (reaped ones were already
    // disarmed by the loop). A peer (client or fault proxy) that closes
    // its end after we are destroyed must find no hook, not a dangling
    // `this`. disarmActivity waits out any hook invocation in flight.
    std::vector<std::unique_ptr<Connection>> unadopted;
    {
      const std::scoped_lock lock(acceptMutex_);
      unadopted.swap(accepted_);
    }
    for (auto& conn : unadopted) {
      conn->disarmActivity();
      conn->close();
    }
    for (auto& conn : conns_) conn->disarmActivity();
  }
}

bool SpectorDaemon::running() const {
  return !loopExited_.load(std::memory_order_acquire);
}

ingest::IngestMetrics SpectorDaemon::metrics() const {
  ingest::IngestMetrics m = ingest_.metrics();
  const std::scoped_lock lock(countersMutex_);
  m.service = counters_;
  return m;
}

DashboardMirror SpectorDaemon::dashboard() const {
  const std::scoped_lock lock(dashboardMutex_);
  return dashboard_;
}

void SpectorDaemon::wake() {
  {
    const std::scoped_lock lock(wakeMutex_);
    wakePending_ = true;
  }
  wakeCv_.notify_all();
}

void SpectorDaemon::loopMain() {
  bool stop = false;
  while (!stop) {
    {
      std::unique_lock lock(wakeMutex_);
      wakeCv_.wait_for(lock, 20ms,
                       [&] { return wakePending_ || stopRequested_; });
      wakePending_ = false;
      stop = stopRequested_;
    }
    pumpOnce();
  }

  // Graceful exit: publish what's queued, say goodbye, flush what the
  // peers will accept, close everything.
  pumpOnce();
  for (auto& conn : conns_) {
    if (conn->closed()) continue;
    conn->sendControl(FrameType::Bye, ByeMsg{"shutdown"}.encode());
  }
  for (int attempt = 0; attempt < 50; ++attempt) {
    bool allFlushed = true;
    for (auto& conn : conns_) {
      if (conn->closed()) continue;
      conn->flushWrites();
      allFlushed = allFlushed && conn->writeQueueEmpty();
    }
    if (allFlushed) break;
    std::this_thread::sleep_for(1ms);
  }
  for (auto& conn : conns_) conn->close();
  loopExited_.store(true, std::memory_order_release);
}

bool SpectorDaemon::pumpOnce() {
  bool worked = false;

  {
    const std::scoped_lock lock(acceptMutex_);
    for (auto& conn : accepted_) conns_.push_back(std::move(conn));
    accepted_.clear();
  }

  // Read + dispatch per connection.
  for (auto& connPtr : conns_) {
    Connection& conn = *connPtr;
    if (conn.closed()) continue;
    while (true) {
      const std::size_t got = conn.pumpRead();
      bool parsedAny = false;
      while (auto frame = conn.nextFrame()) {
        parsedAny = true;
        worked = true;
        handleFrame(conn, std::move(*frame));
        if (conn.closed()) break;
      }
      if (conn.closed() || (got == 0 && !parsedAny)) break;
    }
    if (!conn.closed()) {
      const auto& parser = conn.parser();
      if (parser.garbageBytes() != conn.garbageFolded ||
          parser.rejectedFrames() != conn.rejectedFolded) {
        const std::scoped_lock lock(countersMutex_);
        counters_.protocolGarbageBytes +=
            parser.garbageBytes() - conn.garbageFolded;
        counters_.protocolRejectedFrames +=
            parser.rejectedFrames() - conn.rejectedFolded;
        conn.garbageFolded = parser.garbageBytes();
        conn.rejectedFolded = parser.rejectedFrames();
      }
      if (conn.ackOwed) {
        conn.ackOwed = false;
        ReportAckMsg ack;
        ack.ackedFrames = sessions_[conn.clientId].ackedFrames;
        conn.sendControl(FrameType::ReportAck, ack.encode());
      }
    }
  }

  // Publish finalized runs: fold into the mirror, fan out.
  std::deque<DeltaMsg> deltas;
  {
    const std::scoped_lock lock(publishMutex_);
    deltas.swap(publishQueue_);
  }
  for (const auto& delta : deltas) {
    worked = true;
    publishRun(delta);
    pendingPublishes_.fetch_sub(1, std::memory_order_release);
  }

  // Resync snapshots owed to laggards whose queues have drained.
  for (auto& connPtr : conns_) {
    if (!connPtr->closed()) sendResync(*connPtr);
  }

  // Flush, disconnect, reap.
  for (auto& connPtr : conns_) {
    Connection& conn = *connPtr;
    if (conn.closed()) continue;
    worked = conn.flushWrites() || worked;
    if (conn.disconnectAfterFlush || conn.peerGone()) conn.close();
  }
  std::erase_if(conns_, [](const std::unique_ptr<Connection>& conn) {
    // Reaping drops the daemon's last reference to the channel: disarm
    // the waker hooks so the peer's surviving endpoint neither pins this
    // connection's pipes nor wakes the loop for a dead connection.
    if (conn->closed()) conn->disarmActivity();
    return conn->closed();
  });
  return worked;
}

void SpectorDaemon::handleFrame(Connection& conn, Frame&& frame) {
  try {
    if (frame.type == FrameType::Hello) {
      handleHello(conn, frame);
      return;
    }
    if (frame.type == FrameType::Bye) {
      conn.disconnectAfterFlush = true;
      return;
    }
    if (!conn.helloDone) {
      sendError(conn, 1, "handshake required before any other frame");
      conn.disconnectAfterFlush = true;
      return;
    }
    switch (frame.type) {
      case FrameType::Report: {
        if (conn.kind != ClientKind::Ingest) {
          sendError(conn, 2, "Report on a non-ingest connection");
          return;
        }
        ingest_.submitDatagram(frame.body);
        ++sessions_[conn.clientId].ackedFrames;
        conn.ackOwed = true;
        return;
      }
      case FrameType::RunComplete: {
        if (conn.kind != ClientKind::Ingest) {
          sendError(conn, 2, "RunComplete on a non-ingest connection");
          return;
        }
        core::SpabEnvelope env = core::SpabEnvelope::decode(frame.body);
        RunAckMsg ack;
        ack.jobIndex = env.jobIndex;
        if (!config_.assignment.owns(env.artifacts.packageName)) {
          ack.accepted = false;
          char buf[64];
          std::snprintf(buf, sizeof(buf), "apk owned by collector %u",
                        config_.assignment.ownerOf(env.artifacts.packageName));
          ack.reason = buf;
          const std::scoped_lock lock(countersMutex_);
          ++counters_.runsRefused;
        } else if (!claimJob(env.jobIndex)) {
          // Already handed to the router: a run whose RunAck was lost,
          // re-sent by a resumed or a fresh session, or one a Resume
          // replayed. Ack it (the client needs closure) without folding it
          // again.
          ack.accepted = true;
          ack.reason = "duplicate upload (already folded)";
          const std::scoped_lock lock(countersMutex_);
          ++counters_.duplicateRunUploads;
        } else {
          ingest_.submitRun(static_cast<std::size_t>(env.jobIndex),
                            std::move(env.artifacts));
          ack.accepted = true;
        }
        conn.sendControl(FrameType::RunAck, ack.encode());
        return;
      }
      case FrameType::Admin: {
        if (conn.kind != ClientKind::Admin) {
          sendError(conn, 2, "Admin on a non-admin connection");
          return;
        }
        handleAdmin(conn, AdminMsg::decode(frame.body));
        return;
      }
      default:
        sendError(conn, 3, "unexpected frame type from client");
        return;
    }
  } catch (const util::DecodeError& err) {
    // The frame's crc passed but its body didn't decode: protocol skew,
    // not line noise — tell the client and keep the connection.
    sendError(conn, 4, err.what());
  }
}

Connection* SpectorDaemon::liveAttach(std::uint64_t clientId,
                                      const Connection* except) {
  for (auto& connPtr : conns_) {
    Connection& other = *connPtr;
    if (&other == except || other.closed() || !other.helloDone) continue;
    // A connection whose peer already hung up is dead, it just has not
    // been reaped (or even fully drained) yet — it must not block the
    // replacement attach.
    if (other.clientId == clientId && !other.peerHungUp()) return &other;
  }
  return nullptr;
}

std::size_t SpectorDaemon::expireStaleSessions() {
  std::size_t expired = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (liveAttach(it->first, nullptr) != nullptr) {
      ++it;
    } else {
      it = sessions_.erase(it);
      ++expired;
    }
  }
  return expired;
}

void SpectorDaemon::handleHello(Connection& conn, const Frame& frame) {
  const HelloMsg msg = HelloMsg::decode(frame.body);
  // A session may have at most one live attach: a second Hello while the
  // first connection is still alive is a misconfigured fleet (two workers
  // sharing a clientId) and would corrupt the cumulative ack stream.
  if (liveAttach(msg.clientId, &conn) != nullptr) {
    sendError(conn, 5, "clientId already attached on a live connection");
    conn.disconnectAfterFlush = true;
    const std::scoped_lock lock(countersMutex_);
    ++counters_.sessionAttachRefusals;
    return;
  }
  conn.helloDone = true;
  conn.kind = msg.kind;
  conn.clientId = msg.clientId;
  SessionRecord& sess = sessions_[msg.clientId];
  HelloAckMsg ack;
  if (msg.resumeSession != 0 && msg.resumeSession == sess.token) {
    ack.resumed = true;
    const std::scoped_lock lock(countersMutex_);
    ++counters_.sessionsResumed;
  } else {
    sess = SessionRecord{};
    sess.token = nextSessionToken_++;
    const std::scoped_lock lock(countersMutex_);
    ++counters_.sessionsOpened;
  }
  conn.session = sess.token;
  ack.session = sess.token;
  ack.ackedFrames = sess.ackedFrames;
  conn.sendControl(FrameType::HelloAck, ack.encode());
  // A dashboard connection subscribes by its Hello: the whole view now,
  // every run folded after it as a delta (the publish step below runs
  // after this dispatch, so no run is in both or in neither).
  if (conn.kind == ClientKind::Dashboard)
    conn.sendControl(FrameType::Snapshot, dashboard_.encode());
}

void SpectorDaemon::handleAdmin(Connection& conn, const AdminMsg& msg) {
  AdminAckMsg ack;
  ack.op = msg.op;
  ack.ok = true;
  switch (msg.op) {
    case AdminOp::Drain: {
      // Blocks the loop; an admin barrier is allowed to. The shard
      // consumers do the draining, so this cannot deadlock on the loop.
      if (!drainForAdmin(ack)) break;
      // Drain is the operator's housekeeping barrier: sweep sessions whose
      // client is gone so the table does not grow with every crashed
      // worker across a long-lived study.
      const std::size_t expired = expireStaleSessions();
      char buf[64];
      std::snprintf(buf, sizeof(buf), "drained, %zu stale sessions expired",
                    expired);
      ack.info = buf;
      const std::scoped_lock lock(countersMutex_);
      counters_.sessionsExpired += expired;
      break;
    }
    case AdminOp::EvictApk: {
      ack.ok = ingest_.evictPending(msg.arg);
      ack.info = ack.ok ? "evicted" : "no pending state for apk";
      break;
    }
    case AdminOp::Resume: {
      try {
        const ResumeResult resumed = resumeFromCheckpoints();
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "replayed %zu runs, quarantined %zu bundles",
                      resumed.replayed.size(), resumed.quarantined);
        ack.info = buf;
      } catch (const std::exception& error) {
        ack.ok = false;
        ack.info = error.what();
      }
      break;
    }
    case AdminOp::Status: {
      ack.info = statusJson();
      break;
    }
    case AdminOp::Shutdown: {
      {
        const std::scoped_lock lock(acceptMutex_);
        acceptingClosed_ = true;
      }
      ack.info = "shutting down";
      if (!shutdownStarted_.exchange(true)) (void)drainForAdmin(ack);
      {
        const std::scoped_lock lock(wakeMutex_);
        stopRequested_ = true;
      }
      break;
    }
  }
  conn.sendControl(FrameType::AdminAck, ack.encode());
}

SpectorDaemon::ResumeResult SpectorDaemon::resumeFromCheckpoints() {
  if (!checkpoints_) throw std::runtime_error("no checkpoint directory");
  orch::RecoveryReport report =
      orch::StudyRecovery::scan(checkpoints_->directory());
  ResumeResult result;
  result.quarantined = report.quarantined.size();
  // The scan leaves survivors in place, so a second resume (or one after
  // live uploads) finds runs the router already has: skip them.
  for (auto& run : report.runs) {
    if (!claimJob(run.jobIndex)) continue;
    result.replayed.push_back(run.jobIndex);
    ingest_.submitReplay(run.jobIndex, std::move(run.artifacts), run.account);
  }
  ingest_.drain();
  return result;
}

bool SpectorDaemon::claimJob(std::uint64_t jobIndex) {
  const std::scoped_lock lock(foldedJobsMutex_);
  return foldedJobs_.insert(jobIndex).second;
}

void SpectorDaemon::releaseJob(std::uint64_t jobIndex) {
  const std::scoped_lock lock(foldedJobsMutex_);
  foldedJobs_.erase(jobIndex);
}

bool SpectorDaemon::drainForAdmin(AdminAckMsg& ack) {
  try {
    ingest_.drain();
    return true;
  } catch (const std::exception& error) {
    ack.ok = false;
    ack.info = error.what();
    return false;
  }
}

void SpectorDaemon::sendError(Connection& conn, std::uint16_t code,
                              std::string_view what) {
  ErrorMsg err;
  err.code = code;
  err.message = std::string(what);
  conn.sendControl(FrameType::Error, err.encode());
}

void SpectorDaemon::publishRun(const DeltaMsg& delta) {
  // The daemon folds the run into its own mirror exactly as a subscriber
  // folds it, then sends every dashboard connection the same message.
  {
    const std::scoped_lock lock(dashboardMutex_);
    dashboard_.applyDelta(delta);
  }
  std::vector<std::uint8_t> body;  // encoded for the first subscriber
  for (auto& connPtr : conns_) {
    Connection& conn = *connPtr;
    // A connection owed a resync skips deltas: the runs they carry are
    // already inside the snapshot it will get.
    if (conn.closed() || conn.disconnectAfterFlush || !conn.helloDone ||
        conn.kind != ClientKind::Dashboard || conn.resyncOwed)
      continue;
    if (body.empty()) body = delta.encode();
    const bool sent = conn.sendDelta(body);
    {
      const std::scoped_lock lock(countersMutex_);
      ++(sent ? counters_.subscriberDeltasSent
              : counters_.subscriberDeltasDropped);
    }
    // Dropped: the view resyncs from a snapshot once the laggard has
    // drained its queue.
    if (!sent) conn.resyncOwed = true;
  }
}

void SpectorDaemon::sendResync(Connection& conn) {
  // A resync waits until the laggard drained its queue — re-queueing a
  // snapshot behind a full queue would grow it without bound.
  if (!conn.resyncOwed || !conn.writeQueueEmpty()) return;
  conn.sendControl(FrameType::Snapshot, dashboard_.encode());
  conn.resyncOwed = false;
  const std::scoped_lock lock(countersMutex_);
  ++counters_.subscriberSnapshotsResent;
}

std::string SpectorDaemon::statusJson() const {
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "{\"collector_index\": %u, \"collector_count\": %u, "
      "\"connections\": %zu, \"sessions\": %zu, \"runs_folded\": %llu, "
      "\"expected_runs\": %llu, \"checkpointing\": %s}",
      config_.assignment.index, config_.assignment.count, conns_.size(),
      sessions_.size(),
      static_cast<unsigned long long>(dashboard_.runsFolded),
      static_cast<unsigned long long>(dashboard_.expectedRuns),
      checkpoints_ ? "true" : "false");
  return buf;
}

}  // namespace libspector::spectord
