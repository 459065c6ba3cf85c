// Multi-collector operation: N spectord daemons, each owning a contiguous
// slice of package-name hash space, together covering one study.
//
// runCollector drives one collector's share of a study *through the wire
// protocol*: the emulator fleet's datagrams flow as Report frames into a
// live daemon (which attributes, accounts loss and checkpoints each run),
// and the fleet's one IngestClient uploads run completions as pipelined
// RunComplete envelopes (the worker moves on; the verdicts are flushed at
// the end). CollectorOptions takes the client's backoff policy and a
// wrapper for its connections (a BreakerEndpoint, say; both come from
// resilient.hpp). The daemon's
// checkpoint directory is the collector's entire output — there is no
// in-process accumulator — which is what makes the cluster crash-safe and
// mergeable: orch::mergeStudies scans every collector's directory and
// replays the union through one order-restoring pipeline, producing study
// output byte-identical to a single-collector orch::runStudy at any
// collector count and through any kill/resume history (the cluster tests
// sweep exactly that). A resumed collector's daemon replays the
// directory's survivors itself, as the admin Resume op does, and hands
// the router each job index once.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "ingest/metrics.hpp"
#include "orch/study.hpp"
#include "spectord/daemon.hpp"
#include "spectord/resilient.hpp"

namespace libspector::spectord {

struct CollectorOptions {
  /// This collector's slice (index of count).
  std::uint32_t index = 0;
  std::uint32_t count = 1;
  /// Required: where this collector checkpoints its runs (one directory
  /// per collector; mergeStudies consumes them all).
  std::string checkpointDirectory;
  /// Resume a previous incarnation first: the daemon replays the
  /// directory's surviving runs (SpectorDaemon::resumeFromCheckpoints, the
  /// admin Resume op's path), then only the gaps are dispatched.
  bool resume = false;
  /// Simulated mid-study kill: dispatch at most this many owned jobs,
  /// then stop (in-flight jobs still finish and checkpoint — a process
  /// kill between runs). ~0 = run the full share.
  std::uint64_t jobLimit = ~0ULL;
  /// Optional wrapper around every daemon connection the collector's
  /// ingest client opens (`ordinal` = nth connection, 0-based). The chaos
  /// tests interpose a BreakerEndpoint here to kill connections mid-study.
  std::function<ChannelEndpoint(ChannelEndpoint endpoint, std::size_t ordinal)>
      channelWrapper;
  /// Backoff policy for the ingest client's reconnects.
  ReconnectorConfig reconnect;
};

struct CollectorResult {
  std::uint64_t jobsOwned = 0;      // owned jobs needing work this run
                                    // (resume-restored jobs excluded)
  std::uint64_t jobsDispatched = 0; // owned jobs actually run this time
  std::uint64_t jobsExpanded = 0;   // makeJob calls (owned jobs only)
  std::uint64_t runsAccepted = 0;   // RunComplete uploads the daemon took
  std::uint64_t runsReplayed = 0;   // restored from checkpoints (resume)
  std::uint64_t reconnects = 0;     // ingest connections re-opened
  std::uint64_t framesResent = 0;   // unacked report frames replayed
  std::uint64_t runsResent = 0;     // run uploads retried after a death
  ingest::IngestMetrics metrics;
};

/// Run collector `options.index`'s share of `config` against a live
/// daemon. Ownership hashes each app's package name, which the store's
/// plan knows, so only owned jobs are expanded and run; the emulator
/// fleet shares one IngestClient, uploads each run without waiting for
/// its verdict, and flushes every verdict before the daemon drains. The
/// client's Bye has reached the daemon before it shuts down, so a proxy
/// on the connection (channelWrapper) has forwarded every byte the
/// client wrote by the time runCollector returns.
/// A refused upload (client and daemon disagree on ownership) throws,
/// naming the job. A checkpoint write that fails stops the dispatch of
/// further jobs (runs in flight still finish, as with jobLimit) and
/// runCollector throws it.
[[nodiscard]] CollectorResult runCollector(const orch::StudyConfig& config,
                                           const CollectorOptions& options);

}  // namespace libspector::spectord
