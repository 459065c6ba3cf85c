#include "ingest/metrics.hpp"

#include <cmath>
#include <cstdio>

namespace libspector::ingest {

namespace {

void appendKv(std::string& out, const char* key, std::uint64_t value,
              bool comma = true) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\": %llu%s", key,
                static_cast<unsigned long long>(value), comma ? ", " : "");
  out += buf;
}

void appendKv(std::string& out, const char* key, double value,
              bool comma = true) {
  // %.3f renders NaN/Inf (a zero-sample shard's percentiles) as bare
  // `nan`/`inf` tokens, which are not valid JSON — guard them to 0.0.
  if (!std::isfinite(value)) value = 0.0;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\": %.3f%s", key, value,
                comma ? ", " : "");
  out += buf;
}

}  // namespace

std::string IngestMetrics::toJson() const {
  std::string out = "{\n  ";
  appendKv(out, "shards", static_cast<std::uint64_t>(shards));
  appendKv(out, "datagrams_received", datagramsReceived);
  appendKv(out, "datagrams_malformed", datagramsMalformed);
  appendKv(out, "frames_folded", framesFolded);
  appendKv(out, "duplicated", duplicated);
  appendKv(out, "out_of_order", outOfOrder);
  appendKv(out, "dict_holes", dictHoles);
  appendKv(out, "dict_repaired", dictRepaired);
  appendKv(out, "dict_dropped", dictDropped);
  appendKv(out, "runs_completed", runsCompleted);
  appendKv(out, "reports_delivered", reportsDelivered);
  appendKv(out, "reports_lost", reportsLost);
  appendKv(out, "latency_p50_ms", latencyP50Ms);
  appendKv(out, "latency_p90_ms", latencyP90Ms);
  appendKv(out, "latency_p99_ms", latencyP99Ms);
  appendKv(out, "sessions_opened", service.sessionsOpened);
  appendKv(out, "sessions_resumed", service.sessionsResumed);
  appendKv(out, "sessions_expired", service.sessionsExpired);
  appendKv(out, "session_attach_refusals", service.sessionAttachRefusals);
  appendKv(out, "duplicate_run_uploads", service.duplicateRunUploads);
  appendKv(out, "runs_refused", service.runsRefused);
  appendKv(out, "subscriber_deltas_sent", service.subscriberDeltasSent);
  appendKv(out, "subscriber_deltas_dropped", service.subscriberDeltasDropped);
  appendKv(out, "subscriber_snapshots_resent",
           service.subscriberSnapshotsResent);
  appendKv(out, "protocol_garbage_bytes", service.protocolGarbageBytes);
  appendKv(out, "protocol_rejected_frames", service.protocolRejectedFrames);
  out += "\"per_shard\": [";
  for (std::size_t i = 0; i < perShard.size(); ++i) {
    const ShardMetrics& s = perShard[i];
    out += i == 0 ? "\n    {" : ",\n    {";
    appendKv(out, "shard", static_cast<std::uint64_t>(s.shard));
    appendKv(out, "frames_routed", s.framesRouted);
    appendKv(out, "frames_folded", s.framesFolded);
    appendKv(out, "duplicated", s.duplicated);
    appendKv(out, "out_of_order", s.outOfOrder);
    appendKv(out, "dict_holes", s.dictHoles);
    appendKv(out, "dict_repaired", s.dictRepaired);
    appendKv(out, "dict_dropped", s.dictDropped);
    appendKv(out, "runs_completed", s.runsCompleted);
    appendKv(out, "reports_delivered", s.reportsDelivered);
    appendKv(out, "reports_lost", s.reportsLost);
    appendKv(out, "apks_evicted", s.apksEvicted);
    appendKv(out, "reports_evicted", s.reportsEvicted);
    appendKv(out, "queue_depth", static_cast<std::uint64_t>(s.queueDepth));
    appendKv(out, "queue_depth_peak",
             static_cast<std::uint64_t>(s.queueDepthPeak));
    appendKv(out, "utilization", s.utilization);
    appendKv(out, "latency_p50_ms", s.latencyP50Ms);
    appendKv(out, "latency_p90_ms", s.latencyP90Ms);
    appendKv(out, "latency_p99_ms", s.latencyP99Ms);
    appendKv(out, "latency_samples",
             static_cast<std::uint64_t>(s.latencySamples), false);
    out += "}";
  }
  out += perShard.empty() ? "]\n}" : "\n  ]\n}";
  return out;
}

}  // namespace libspector::ingest
