#include "ingest/router.hpp"

#include <algorithm>
#include <utility>

#include "util/bytes.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

namespace libspector::ingest {

namespace {

using Clock = std::chrono::steady_clock;

/// Per-shard ingest latency samples kept for the metrics percentiles (a
/// sliding window).
constexpr std::size_t kLatencyWindow = 8192;

[[nodiscard]] double millisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

[[nodiscard]] std::size_t resolveShardCount(std::size_t configured) {
  if (configured != 0) return configured;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace

ShardedIngest::ShardedIngest(IngestConfig config, RunCallback onRun,
                             CheckpointFn checkpoint)
    : config_(config),
      onRun_(std::move(onRun)),
      checkpoint_(std::move(checkpoint)),
      startedAt_(Clock::now()) {
  config_.queueCapacity = std::max<std::size_t>(1, config_.queueCapacity);
  config_.maxPendingApks = std::max<std::size_t>(1, config_.maxPendingApks);
  const std::size_t shardCount = resolveShardCount(config_.shards);
  shards_.reserve(shardCount);
  for (std::size_t i = 0; i < shardCount; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->counters.shard = i;
    shards_.push_back(std::move(shard));
  }
  // Consumers start after every shard exists (they only touch their own).
  for (auto& shard : shards_) {
    shard->consumer = std::jthread(
        [this, raw = shard.get()](std::stop_token stop) { consumeLoop(stop, *raw); });
  }
}

ShardedIngest::~ShardedIngest() {
  for (auto& shard : shards_) {
    shard->consumer.request_stop();
    const std::scoped_lock lock(shard->mutex);
    shard->notEmpty.notify_all();
  }
  // jthread members join in Shard destruction; consumers drain their queue
  // before exiting so no accepted item is ever silently discarded.
}

std::size_t ShardedIngest::shardOf(const std::string& apkSha256) const {
  return util::fnv1a64(apkSha256) % shards_.size();
}

void ShardedIngest::enqueue(Shard& shard, Item&& item) {
  std::unique_lock lock(shard.mutex);
  shard.notFull.wait(
      lock, [&] { return shard.queue.size() < config_.queueCapacity; });
  if (item.run == nullptr) ++shard.counters.framesRouted;
  shard.queue.push_back(std::move(item));
  shard.counters.queueDepthPeak =
      std::max(shard.counters.queueDepthPeak, shard.queue.size());
  shard.notEmpty.notify_one();
}

void ShardedIngest::submitDatagram(std::span<const std::uint8_t> payload) {
  received_.fetch_add(1, std::memory_order_relaxed);
  core::ReportFrame::Header header;
  try {
    header = core::ReportFrame::peek(payload);
  } catch (const util::DecodeError& err) {
    malformed_.fetch_add(1, std::memory_order_relaxed);
    util::logWarn("ingest: dropping malformed datagram: %s", err.what());
    return;
  }
  Item item;
  item.frameBytes.assign(payload.begin(), payload.end());
  item.enqueuedAt = Clock::now();
  enqueue(*shards_[header.shaKey % shards_.size()], std::move(item));
}

void ShardedIngest::submitRun(std::size_t jobIndex,
                              core::RunArtifacts&& artifacts) {
  const std::size_t shard = shardOf(artifacts.apkSha256);
  Item item;
  item.run = std::make_unique<RunDelivery>(
      RunDelivery{jobIndex, std::move(artifacts), {}, /*replayed=*/false});
  item.enqueuedAt = Clock::now();
  enqueue(*shards_[shard], std::move(item));
}

void ShardedIngest::submitReplay(std::size_t jobIndex,
                                 core::RunArtifacts&& artifacts,
                                 const ApkLossAccount& account) {
  const std::size_t shard = shardOf(artifacts.apkSha256);
  Item item;
  item.run = std::make_unique<RunDelivery>(
      RunDelivery{jobIndex, std::move(artifacts), account, /*replayed=*/true});
  item.enqueuedAt = Clock::now();
  enqueue(*shards_[shard], std::move(item));
}

void ShardedIngest::consumeLoop(std::stop_token stop, Shard& shard) {
  while (true) {
    Item item;
    {
      std::unique_lock lock(shard.mutex);
      if (!shard.notEmpty.wait(lock, stop,
                               [&] { return !shard.queue.empty(); })) {
        shard.drained.notify_all();
        return;  // stop requested and the queue is fully drained
      }
      item = std::move(shard.queue.front());
      shard.queue.pop_front();
      shard.busy = true;
      shard.notFull.notify_one();
    }
    const auto startedAt = Clock::now();
    if (item.run != nullptr) {
      // An exception escaping this thread would end the process: keep the
      // first one a checkpoint hook or run callback throws (a checkpoint
      // write that failed) for drain() and go on consuming.
      try {
        finalizeRun(shard, std::move(*item.run));
      } catch (...) {
        const std::scoped_lock lock(runErrorMutex_);
        if (runError_ == nullptr) runError_ = std::current_exception();
      }
    } else {
      foldFrame(shard, item.frameBytes);
    }
    const auto finishedAt = Clock::now();
    {
      const std::scoped_lock lock(shard.mutex);
      shard.busyMs += millisBetween(startedAt, finishedAt);
      const double latency = millisBetween(item.enqueuedAt, finishedAt);
      if (shard.latencyMs.size() < kLatencyWindow) {
        shard.latencyMs.push_back(latency);
      } else {
        shard.latencyMs[shard.latencyNext] = latency;
        shard.latencyNext = (shard.latencyNext + 1) % kLatencyWindow;
      }
      shard.busy = false;
      if (shard.queue.empty()) shard.drained.notify_all();
    }
  }
}

void ShardedIngest::foldFrame(Shard& shard,
                              std::span<const std::uint8_t> frameBytes) {
  core::ReportFrame frame;
  try {
    frame = core::ReportFrame::decode(frameBytes);
  } catch (const util::DecodeError& err) {
    // peek() validated the checksum, so this only fires on payloads that
    // are self-inconsistent end to end; still data, not an error.
    malformed_.fetch_add(1, std::memory_order_relaxed);
    util::logWarn("ingest: dropping undecodable frame: %s", err.what());
    return;
  }

  const std::scoped_lock lock(shard.mutex);
  auto [it, created] = shard.pending.try_emplace(frame.apkSha256);
  PendingApk& apk = it->second;
  if (created) {
    apk.orderIt = shard.order.insert(shard.order.end(), it->first);
    evictIfOverCapacityLocked(shard);
  }

  // Fold definitions before the dedup check: a duplicated datagram is
  // redundant as a *report* but its defs still heal the dictionary when
  // the first copy's defs arrived and later references were parked.
  auto& dict = apk.dicts[frame.workerId];
  bool newDefs = false;
  for (auto& [id, signature] : frame.defs)
    newDefs = dict.try_emplace(id, std::move(signature)).second || newDefs;

  ++apk.framesDelivered;
  const auto key = std::make_pair(frame.workerId, frame.sequence);
  if (apk.reports.contains(key) || apk.holes.contains(key)) {
    ++apk.duplicated;
    ++shard.counters.duplicated;
  } else {
    WorkerSeq& seq = apk.workers[frame.workerId];
    if (seq.any && frame.sequence < seq.maxSeq) {
      ++apk.outOfOrder;
      ++shard.counters.outOfOrder;
    }
    seq.maxSeq =
        seq.any ? std::max(seq.maxSeq, frame.sequence) : frame.sequence;
    seq.any = true;

    std::vector<std::string> stack;
    stack.reserve(frame.signatureIds.size());
    bool complete = true;
    for (const std::uint32_t id : frame.signatureIds) {
      const auto def = dict.find(id);
      if (def == dict.end()) {
        complete = false;
        break;
      }
      stack.push_back(def->second);
    }
    core::UdpReport report;
    report.apkSha256 = std::move(frame.apkSha256);
    report.socketPair = frame.socketPair;
    report.timestampMs = frame.timestampMs;
    report.requestOrdinal = frame.requestOrdinal;
    if (complete) {
      report.stackSignatures = std::move(stack);
      apk.reports.emplace(key, std::move(report));
    } else {
      // The defining frame is lost or still in flight: park everything we
      // know and wait for a healing def or the finalize-time repair.
      ++shard.counters.dictHoles;
      apk.holes.emplace(
          key, CompactReport{std::move(report), std::move(frame.signatureIds)});
    }
  }

  if (newDefs) resolveHolesLocked(shard, apk, frame.workerId);
  ++shard.counters.framesFolded;
}

void ShardedIngest::resolveHolesLocked(Shard& shard, PendingApk& apk,
                                       std::uint32_t workerId) {
  const auto& dict = apk.dicts[workerId];
  for (auto it = apk.holes.lower_bound({workerId, 0});
       it != apk.holes.end() && it->first.first == workerId;) {
    std::vector<std::string> stack;
    stack.reserve(it->second.sigIds.size());
    bool complete = true;
    for (const std::uint32_t id : it->second.sigIds) {
      const auto def = dict.find(id);
      if (def == dict.end()) {
        complete = false;
        break;
      }
      stack.push_back(def->second);
    }
    if (!complete) {
      ++it;
      continue;
    }
    core::UdpReport report = std::move(it->second.base);
    report.stackSignatures = std::move(stack);
    apk.reports.emplace(it->first, std::move(report));
    ++shard.counters.dictRepaired;
    it = apk.holes.erase(it);
  }
}

void ShardedIngest::repairHolesFromLocalLocked(
    Shard& shard, PendingApk& apk, const core::RunArtifacts& artifacts) {
  if (apk.holes.empty()) return;
  // The emulator records every emitted report locally in send order, so
  // when that list is complete, sequence s *is* artifacts.reports[s]. Each
  // candidate must still match the hole's delivered metadata (apk, socket
  // pair, timestamp, stack depth) before it is trusted — the hole's own
  // fields came off the wire checksummed, so a mismatch means the local
  // list is not what this frame described.
  const bool localComplete =
      artifacts.reportsEmitted > 0 &&
      artifacts.reports.size() == artifacts.reportsEmitted;
  for (auto it = apk.holes.begin(); it != apk.holes.end();) {
    bool repaired = false;
    const std::uint64_t sequence = it->first.second;
    if (localComplete && sequence < artifacts.reports.size()) {
      const core::UdpReport& candidate = artifacts.reports[sequence];
      const CompactReport& hole = it->second;
      if (candidate.apkSha256 == hole.base.apkSha256 &&
          candidate.socketPair == hole.base.socketPair &&
          candidate.timestampMs == hole.base.timestampMs &&
          candidate.stackSignatures.size() == hole.sigIds.size()) {
        core::UdpReport report = std::move(it->second.base);
        report.stackSignatures = candidate.stackSignatures;
        apk.reports.emplace(it->first, std::move(report));
        ++shard.counters.dictRepaired;
        repaired = true;
      }
    }
    if (!repaired) ++shard.counters.dictDropped;
    it = apk.holes.erase(it);
  }
}

void ShardedIngest::finalizeRun(Shard& shard, RunDelivery&& delivery) {
  if (delivery.replayed) {
    // The bundle already went through finalization once; its reports are
    // the delivered set and its persisted account is authoritative. Fold
    // the original numbers into the counters so a recovered study's
    // delivery/loss totals match the uninterrupted run exactly. It is
    // durable already, so it skips the checkpoint hook.
    {
      const std::scoped_lock lock(shard.mutex);
      ++shard.counters.runsCompleted;
      shard.counters.reportsDelivered += delivery.account.uniqueDelivered;
      shard.counters.reportsLost += delivery.account.lost;
    }
    if (onRun_) onRun_(std::move(delivery));
    return;
  }

  delivery.account.reportsEmitted = delivery.artifacts.reportsEmitted;

  bool channelLive = delivery.artifacts.reportsEmitted > 0;
  std::vector<core::UdpReport> deliveredReports;
  {
    const std::scoped_lock lock(shard.mutex);
    const auto it = shard.pending.find(delivery.artifacts.apkSha256);
    if (it != shard.pending.end()) {
      PendingApk& apk = it->second;
      channelLive = true;
      // Heal any dictionary holes from the locally recorded report list
      // before the account is computed: a repaired hole counts delivered
      // (its frame did arrive), an unrepairable one counts lost.
      repairHolesFromLocalLocked(shard, apk, delivery.artifacts);
      delivery.account.framesDelivered = apk.framesDelivered;
      delivery.account.uniqueDelivered = apk.reports.size();
      delivery.account.duplicated = apk.duplicated;
      delivery.account.outOfOrder = apk.outOfOrder;
      deliveredReports.reserve(apk.reports.size());
      for (auto& [key, report] : apk.reports)
        deliveredReports.push_back(std::move(report));
      shard.order.erase(apk.orderIt);
      shard.pending.erase(it);
    }
    delivery.account.lost =
        delivery.account.reportsEmitted > delivery.account.uniqueDelivered
            ? delivery.account.reportsEmitted - delivery.account.uniqueDelivered
            : 0;
    ++shard.counters.runsCompleted;
    shard.counters.reportsDelivered += delivery.account.uniqueDelivered;
    shard.counters.reportsLost += delivery.account.lost;
  }
  // When the report channel fed this router, the delivered set *is* the
  // run's report list (sequence-ordered and deduplicated, so with zero loss
  // it is byte-identical to what the emulator recorded locally). A run that
  // emitted nothing and routed nothing keeps its (empty) list untouched.
  if (channelLive) delivery.artifacts.reports = std::move(deliveredReports);

  // Hook and callback outside the lock: attribution is heavy, and
  // producers must be able to keep feeding the queue while it runs.
  // Durable before aggregated: a run that is checkpointed but not yet
  // folded is replayed on recovery, the reverse order would lose it, and a
  // checkpoint that throws keeps the run out of the callback.
  if (checkpoint_) checkpoint_(delivery);
  if (onRun_) onRun_(std::move(delivery));
}

void ShardedIngest::evictIfOverCapacityLocked(Shard& shard) {
  while (shard.pending.size() > config_.maxPendingApks && !shard.order.empty()) {
    const std::string& oldest = shard.order.front();
    const auto it = shard.pending.find(oldest);
    if (it != shard.pending.end()) {
      ++shard.counters.apksEvicted;
      shard.counters.reportsEvicted +=
          it->second.reports.size() + it->second.holes.size();
      shard.pending.erase(it);
    }
    shard.order.pop_front();
  }
}

void ShardedIngest::drain() {
  for (auto& shard : shards_) {
    std::unique_lock lock(shard->mutex);
    shard->drained.wait(lock,
                        [&] { return shard->queue.empty() && !shard->busy; });
  }
  std::exception_ptr error;
  {
    const std::scoped_lock lock(runErrorMutex_);
    error = std::exchange(runError_, nullptr);
  }
  if (error != nullptr) std::rethrow_exception(error);
}

bool ShardedIngest::failed() const {
  const std::scoped_lock lock(runErrorMutex_);
  return runError_ != nullptr;
}

std::vector<core::UdpReport> ShardedIngest::takeReports(
    const std::string& apkSha256) {
  Shard& shard = *shards_[shardOf(apkSha256)];
  const std::scoped_lock lock(shard.mutex);
  const auto it = shard.pending.find(apkSha256);
  if (it == shard.pending.end()) return {};
  std::vector<core::UdpReport> reports;
  reports.reserve(it->second.reports.size());
  for (auto& [key, report] : it->second.reports)
    reports.push_back(std::move(report));
  // Unresolved dictionary holes have no stack to return; with no run to
  // repair them from, they are dropped and counted.
  shard.counters.dictDropped += it->second.holes.size();
  shard.order.erase(it->second.orderIt);
  shard.pending.erase(it);
  return reports;
}

bool ShardedIngest::evictPending(const std::string& apkSha256) {
  Shard& shard = *shards_[shardOf(apkSha256)];
  const std::scoped_lock lock(shard.mutex);
  const auto it = shard.pending.find(apkSha256);
  if (it == shard.pending.end()) return false;
  ++shard.counters.apksEvicted;
  shard.counters.reportsEvicted +=
      it->second.reports.size() + it->second.holes.size();
  shard.order.erase(it->second.orderIt);
  shard.pending.erase(it);
  return true;
}

IngestMetrics ShardedIngest::metrics() const {
  IngestMetrics out;
  out.shards = shards_.size();

  const double wallMs = millisBetween(startedAt_, Clock::now());
  std::vector<double> allLatencies;
  for (const auto& shard : shards_) {
    const std::scoped_lock lock(shard->mutex);
    ShardMetrics m = shard->counters;
    m.queueDepth = shard->queue.size();
    m.utilization = wallMs > 0.0 ? shard->busyMs / wallMs : 0.0;
    m.latencySamples = shard->latencyMs.size();
    if (!shard->latencyMs.empty()) {
      m.latencyP50Ms = util::percentile(shard->latencyMs, 50.0);
      m.latencyP90Ms = util::percentile(shard->latencyMs, 90.0);
      m.latencyP99Ms = util::percentile(shard->latencyMs, 99.0);
      allLatencies.insert(allLatencies.end(), shard->latencyMs.begin(),
                          shard->latencyMs.end());
    }
    out.framesFolded += m.framesFolded;
    out.duplicated += m.duplicated;
    out.outOfOrder += m.outOfOrder;
    out.dictHoles += m.dictHoles;
    out.dictRepaired += m.dictRepaired;
    out.dictDropped += m.dictDropped;
    out.runsCompleted += m.runsCompleted;
    out.reportsDelivered += m.reportsDelivered;
    out.reportsLost += m.reportsLost;
    out.perShard.push_back(std::move(m));
  }
  if (!allLatencies.empty()) {
    out.latencyP50Ms = util::percentile(allLatencies, 50.0);
    out.latencyP90Ms = util::percentile(allLatencies, 90.0);
    out.latencyP99Ms = util::percentile(allLatencies, 99.0);
  }
  // Read the producer-side atomics *after* the shard counters: a datagram
  // increments received_ before it can ever fold, so this order keeps the
  // snapshot invariant framesFolded <= datagramsReceived.
  out.datagramsReceived = received_.load(std::memory_order_relaxed);
  out.datagramsMalformed = malformed_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace libspector::ingest
