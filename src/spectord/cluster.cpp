#include "spectord/cluster.hpp"

#include <atomic>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/attribution.hpp"
#include "orch/dispatcher.hpp"
#include "orch/recovery.hpp"
#include "radar/corpus.hpp"
#include "spectord/client.hpp"
#include "util/log.hpp"
#include "util/sha256.hpp"
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

  // Resume path: re-inject this directory's survivors straight through the
  // pipeline (replayRun preserves the persisted loss accounts; uploading
  // them as RunComplete frames would make the daemon recompute accounts
  // from datagrams it never saw). The admin Resume op is the remote
  // equivalent for an already-running daemon.
  std::vector<bool> done(appCount, false);
  if (options.resume) {
    orch::RecoveryReport report =
        orch::StudyRecovery::scan(options.checkpointDirectory);
    for (auto& run : report.runs) {
      if (run.jobIndex >= appCount || done[run.jobIndex]) continue;
      done[run.jobIndex] = true;
      daemon.pipeline().replayRun(run.jobIndex, std::move(run.artifacts),
                                  run.account);
      ++result.runsReplayed;
    }
    daemon.pipeline().drain();
  }

  // The resilient client survives connection death: it reconnects with
  // backoff, resumes its session and replays the unacked tail, so a
  // channelWrapper killing every connection still yields the same
  // checkpoints as an unbroken run.
  ResilientClientConfig clientConfig;
  clientConfig.reconnect = options.reconnect;
  ResilientIngestClient client(
      [&daemon, &options](std::size_t ordinal) {
        ChannelEndpoint endpoint = daemon.connect();
        if (options.channelWrapper)
          endpoint = options.channelWrapper(std::move(endpoint), ordinal);
        return endpoint;
      },
      /*clientId=*/0x5bec0000ULL + options.index, clientConfig);
  result.sessionToken = client.sessionToken();

  {
    // Workers claim corpus indices from one cursor and expand them
    // themselves. Ownership hashes the apk digest, which only exists after
    // expansion, so every collector expands the whole corpus (minus what
    // it replayed) and keeps its owned share. Non-owned expansion is
    // wasted generation, not wasted emulation; the emulator tier only ever
    // sees owned jobs. Once a checkpoint write has failed, the drain below
    // throws, so no further job is handed out; runs in flight still finish.
    std::atomic<std::size_t> cursor{0};
    std::mutex limitMutex;  // guards the jobLimit check and both counters

    std::atomic<std::uint64_t> accepted{0};
    orch::Dispatcher dispatcher(generator.farm(), &client, config.dispatcher);
    dispatcher.runConcurrent(
        [&]() -> std::optional<orch::Dispatcher::Job> {
          while (true) {
            if (daemon.pipeline().failed()) return std::nullopt;
            const std::size_t index = cursor.fetch_add(1);
            if (index >= appCount) return std::nullopt;
            if (done[index]) continue;  // replayed on resume
            auto job = generator.makeJob(index);
            std::string sha = util::toHex(job.apk.sha256());
            if (!assignment.owns(sha)) continue;
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
            return orch::Dispatcher::Job{std::move(job.apk),
                                         std::move(job.program), index,
                                         std::move(sha)};
          }
        },
        [&](std::size_t index, core::RunArtifacts&& artifacts) {
          const RunAckMsg ack = client.completeRun(index, artifacts);
          if (ack.accepted) accepted.fetch_add(1, std::memory_order_relaxed);
        },
        [&](std::size_t index, const orch::Dispatcher::FailedJob&) {
          daemon.pipeline().skip(index);
        });
    result.runsAccepted = accepted.load();
  }

  daemon.drain();
  result.metrics = daemon.metrics();
  result.reconnects = client.reconnects();
  result.framesResent = client.framesResent();
  result.runsResent = client.runsResent();
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
