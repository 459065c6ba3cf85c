// Observability surface of the ingest tier: per-shard and aggregate
// counters for everything the wire format makes detectable (loss,
// duplication, reordering, corruption), plus queue and latency behaviour,
// exported as JSON for dashboards.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace libspector::ingest {

struct ShardMetrics {
  std::size_t shard = 0;

  // Datagram path.
  std::uint64_t framesRouted = 0;     // accepted into this shard's queue
  std::uint64_t framesFolded = 0;     // consumed and folded into state
  std::uint64_t duplicated = 0;       // (workerId, sequence) already seen
  std::uint64_t outOfOrder = 0;       // arrived below the worker's max seq

  // Signature dictionary.
  std::uint64_t dictHoles = 0;     // frames parked awaiting a definition
  std::uint64_t dictRepaired = 0;  // holes healed (late defs or finalize repair)
  std::uint64_t dictDropped = 0;   // holes never resolved (counted lost)

  // Run path.
  std::uint64_t runsCompleted = 0;
  std::uint64_t reportsDelivered = 0;  // unique reports handed to runs
  std::uint64_t reportsLost = 0;       // emitted - unique delivered

  // Pending-state hygiene.
  std::uint64_t apksEvicted = 0;    // pending apks dropped by capacity policy
  std::uint64_t reportsEvicted = 0;

  // Queue behaviour.
  std::size_t queueDepth = 0;      // at snapshot time
  std::size_t queueDepthPeak = 0;
  double utilization = 0.0;        // consumer busy time / wall time

  // End-to-end ingest latency (enqueue -> fold), milliseconds, over a
  // sliding sample window.
  double latencyP50Ms = 0.0;
  double latencyP90Ms = 0.0;
  double latencyP99Ms = 0.0;
  std::size_t latencySamples = 0;
};

/// Service counters: filled in by spectord's daemon when the router runs
/// behind it, zero when it is driven in-process.
struct ServiceCounters {
  std::uint64_t sessionsOpened = 0;
  std::uint64_t sessionsResumed = 0;
  std::uint64_t sessionsExpired = 0;        // stale sessions swept on drain
  std::uint64_t sessionAttachRefusals = 0;  // second live attach refused
  std::uint64_t duplicateRunUploads = 0;    // resume re-uploads deduped
  std::uint64_t runsRefused = 0;  // RunComplete outside the owned slice
  std::uint64_t subscriberDeltasSent = 0;
  std::uint64_t subscriberDeltasDropped = 0;    // slow-subscriber drops
  std::uint64_t subscriberSnapshotsResent = 0;  // resyncs after drops
  std::uint64_t protocolGarbageBytes = 0;       // bytes skipped resyncing
  std::uint64_t protocolRejectedFrames = 0;     // bad crc/version/length
};

struct IngestMetrics {
  std::size_t shards = 0;
  std::uint64_t datagramsReceived = 0;   // every submitDatagram call
  std::uint64_t datagramsMalformed = 0;  // failed frame validation
  std::vector<ShardMetrics> perShard;

  // Aggregates over perShard (filled by ShardedIngest::metrics()).
  std::uint64_t framesFolded = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t outOfOrder = 0;
  std::uint64_t dictHoles = 0;
  std::uint64_t dictRepaired = 0;
  std::uint64_t dictDropped = 0;
  std::uint64_t runsCompleted = 0;
  std::uint64_t reportsDelivered = 0;
  std::uint64_t reportsLost = 0;
  double latencyP50Ms = 0.0;
  double latencyP90Ms = 0.0;
  double latencyP99Ms = 0.0;

  ServiceCounters service;

  /// Machine-readable export (stable key order, valid JSON).
  [[nodiscard]] std::string toJson() const;
};

}  // namespace libspector::ingest
