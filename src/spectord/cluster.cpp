#include "spectord/cluster.hpp"

#include <atomic>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/attribution.hpp"
#include "orch/dispatcher.hpp"
#include "radar/corpus.hpp"
#include "spectord/client.hpp"
#include "util/log.hpp"
#include "vtsim/categorizer.hpp"

namespace libspector::spectord {

CollectorResult runCollector(const orch::StudyConfig& config,
                             const CollectorOptions& options) {
  if (options.checkpointDirectory.empty())
    throw std::invalid_argument(
        "runCollector: checkpointDirectory is the collector's output and "
        "must be set");
  const store::AppStoreGenerator generator(config.store);
  const CollectorAssignment assignment{options.index, options.count};

  static const radar::LibraryCorpus kCorpus = radar::LibraryCorpus::builtin();
  vtsim::DomainCategorizer categorizer(
      vtsim::defaultVendorPanel(), [&generator](const std::string& domain) {
        return generator.domainTruth(domain);
      });
  core::TrafficAttributor attributor(kCorpus, categorizer);

  DaemonConfig daemonConfig;
  daemonConfig.ingest = config.ingest;
  daemonConfig.checkpointDirectory = options.checkpointDirectory;
  daemonConfig.assignment = assignment;
  SpectorDaemon daemon(daemonConfig,
                       [&attributor](const core::RunArtifacts& artifacts) {
                         return attributor.attributeColumns(artifacts);
                       });

  CollectorResult result;
  const std::size_t appCount = generator.appCount();

  // Resume path: the daemon replays this directory's survivors itself
  // (with their persisted loss accounts; uploading them as RunComplete
  // frames would make the daemon recompute accounts from datagrams it
  // never saw), exactly as the admin Resume op does, and the dispatcher
  // skips what it replayed.
  std::vector<bool> done(appCount, false);
  if (options.resume) {
    for (const std::uint64_t index : daemon.resumeFromCheckpoints().replayed) {
      if (index >= appCount) continue;
      done[index] = true;
      ++result.runsReplayed;
    }
  }

  // The client survives connection death: it reconnects with backoff,
  // resumes its session and replays the unacked tail, so a
  // channelWrapper killing every connection still yields the same
  // checkpoints as an unbroken run.
  IngestClientConfig clientConfig;
  clientConfig.reconnect = options.reconnect;
  IngestClient client(
      [&daemon, &options](std::size_t ordinal) {
        ChannelEndpoint endpoint = daemon.connect();
        if (options.channelWrapper)
          endpoint = options.channelWrapper(std::move(endpoint), ordinal);
        return endpoint;
      },
      /*clientId=*/0x5bec0000ULL + options.index, clientConfig);

  {
    // Workers claim corpus indices from one cursor. Ownership hashes the
    // package name, which the plan knows before expansion, so a worker
    // expands (makeJob) only the jobs its collector owns: N collectors
    // expand each app once between them. Once a checkpoint write has
    // failed, the drain below throws, so no further job is handed out;
    // runs in flight still finish.
    std::atomic<std::size_t> cursor{0};
    std::atomic<std::uint64_t> expanded{0};
    std::mutex limitMutex;  // guards the jobLimit check and both counters

    orch::Dispatcher dispatcher(generator.farm(), &client, config.dispatcher);
    dispatcher.runConcurrent(
        [&]() -> std::optional<orch::Dispatcher::Job> {
          while (true) {
            if (daemon.ingest().failed()) return std::nullopt;
            const std::size_t index = cursor.fetch_add(1);
            if (index >= appCount) return std::nullopt;
            if (done[index]) continue;  // replayed on resume
            if (!assignment.owns(generator.plan(index).packageName)) continue;
            {
              const std::scoped_lock lock(limitMutex);
              if (result.jobsDispatched >= options.jobLimit)
                return std::nullopt;  // simulated mid-study kill
              // Owned is counted after the done[] skip: a resumed
              // collector reports only the gaps it still has to work, not
              // its whole share over again.
              ++result.jobsOwned;
              ++result.jobsDispatched;
            }
            expanded.fetch_add(1, std::memory_order_relaxed);
            auto job = generator.makeJob(index);
            return orch::Dispatcher::Job{std::move(job.apk),
                                         std::move(job.program), index};
          }
        },
        // Pipelined: the upload returns once sent, and its verdict is
        // folded by a later client call; the flush below waits for all.
        [&](std::size_t index, core::RunArtifacts&& artifacts) {
          client.uploadRun(index, artifacts);
        });
    result.jobsExpanded = expanded.load();
  }

  // Only a RunAck proves the daemon has read every frame sent before its
  // run, so every verdict is in before the drain. This collector uploads
  // only what its own assignment owns: a refusal means the client and the
  // daemon disagree on ownership, and the study would silently miss runs.
  const std::vector<RunAckMsg> refused = client.flush();
  result.runsAccepted = client.runsAccepted();
  if (!refused.empty())
    throw std::runtime_error(
        "runCollector: collector " + std::to_string(options.index) + "/" +
        std::to_string(options.count) + "'s daemon refused job " +
        std::to_string(refused.front().jobIndex) + " (" +
        refused.front().reason + "): client and daemon disagree on ownership");

  daemon.drain();
  result.metrics = daemon.metrics();
  result.reconnects = client.reconnects();
  result.framesResent = client.framesResent();
  result.runsResent = client.runsResent();
  // bye() returns once the daemon has read the Bye and closed, so the
  // shutdown below cannot cut it off.
  client.bye();
  daemon.shutdown();

  util::logInfo(
      "collector %u/%u: %llu owned, %llu dispatched, %llu accepted, %llu "
      "replayed, %llu reconnects",
      options.index, options.count,
      static_cast<unsigned long long>(result.jobsOwned),
      static_cast<unsigned long long>(result.jobsDispatched),
      static_cast<unsigned long long>(result.runsAccepted),
      static_cast<unsigned long long>(result.runsReplayed),
      static_cast<unsigned long long>(result.reconnects));
  return result;
}

}  // namespace libspector::spectord
