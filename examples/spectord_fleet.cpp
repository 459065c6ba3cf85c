// spectord_fleet — drive a small emulator fleet against a live spectord
// collector daemon, exercising all three protocol surfaces:
//
//   1. ingest: every worker's report datagrams and run bundles cross the
//      framed wire protocol into the daemon (IngestClient is a drop-in
//      ingest::ReportSink for the dispatcher fleet; workers upload each
//      run without waiting for its verdict, then one flush collects them
//      all);
//   2. dashboard: a subscriber watches the study land live — the daemon's
//      whole view as a snapshot after its Hello, then one delta per folded
//      run; the example exits 1 unless the subscriber's mirror ends equal
//      to the daemon's view;
//   3. admin: status, drain and graceful shutdown (flushing `.spab`
//      checkpoints to a per-process directory under the system temp
//      directory, removed at exit).
//
// Usage: spectord_fleet [apps] [workers]   (defaults: 12 apps, 3 workers)
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/attribution.hpp"
#include "orch/dispatcher.hpp"
#include "orch/study.hpp"
#include "radar/corpus.hpp"
#include "spectord/client.hpp"
#include "spectord/daemon.hpp"
#include "store/generator.hpp"
#include "util/strings.hpp"
#include "vtsim/categorizer.hpp"

using namespace libspector;

int main(int argc, char** argv) {
  std::optional<std::uint64_t> apps = 12;
  std::optional<std::uint64_t> workers = 3;  // 0 = one per hardware thread
  if (argc > 1) apps = util::parseWholeNumber(argv[1]);
  if (argc > 2) workers = util::parseWholeNumber(argv[2]);
  if (argc > 3 || !apps || *apps == 0 || !workers) {
    std::fprintf(stderr, "usage: spectord_fleet [apps>0] [workers]\n");
    return 2;
  }
  orch::StudyConfig config;
  config.store.appCount = *apps;
  config.store.seed = 7;
  config.store.methodScale = 0.05;
  config.dispatcher.workers = *workers;
  config.dispatcher.emulator.monkey.events = 100;
  config.dispatcher.emulator.monkey.throttleMs = 50;

  // Named per process: a second run (another build tree, a sanitizer lane
  // beside ctest) must not remove the directory this one checkpoints into.
  const auto checkpointDir =
      std::filesystem::temp_directory_path() /
      ("spectord_fleet_example_" + std::to_string(::getpid()));
  std::filesystem::remove_all(checkpointDir);
  // Removed on every exit, after the daemon below is gone.
  struct RemoveOnExit {
    std::filesystem::path path;
    ~RemoveOnExit() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } cleanup{checkpointDir};

  // --- the collector daemon -------------------------------------------
  const store::AppStoreGenerator generator(config.store);
  const radar::LibraryCorpus corpus = radar::LibraryCorpus::builtin();
  vtsim::DomainCategorizer categorizer(
      vtsim::defaultVendorPanel(), [&generator](const std::string& domain) {
        return generator.domainTruth(domain);
      });
  core::TrafficAttributor attributor(corpus, categorizer);

  spectord::DaemonConfig daemonConfig;
  daemonConfig.ingest = config.ingest;
  daemonConfig.expectedRuns = generator.appCount();
  daemonConfig.checkpointDirectory = checkpointDir.string();
  spectord::SpectorDaemon daemon(
      daemonConfig, [&attributor](const core::RunArtifacts& artifacts) {
        return attributor.attributeColumns(artifacts);
      });

  // --- dashboard surface: subscribe before any run lands ---------------
  spectord::DashboardClient dashboard(daemon.connect(), /*clientId=*/1);
  if (!dashboard.waitForSnapshot(std::chrono::milliseconds(5000))) {
    std::fprintf(stderr, "spectord_fleet: no dashboard snapshot arrived\n");
    return 1;
  }
  const spectord::DashboardMirror& mirror = dashboard.mirror();
  std::printf("dashboard: subscribed, %llu runs at snapshot\n",
              static_cast<unsigned long long>(mirror.runsFolded));

  // --- ingest surface: the emulator fleet, reports over the wire -------
  spectord::IngestClient sink(
      [&daemon](std::size_t) { return daemon.connect(); }, /*clientId=*/2);
  {
    // Each worker claims the next corpus index and expands the job itself.
    std::atomic<std::size_t> cursor{0};
    orch::Dispatcher dispatcher(generator.farm(), &sink, config.dispatcher);
    dispatcher.runConcurrent(
        [&]() -> std::optional<orch::Dispatcher::Job> {
          const std::size_t index = cursor.fetch_add(1);
          if (index >= generator.appCount()) return std::nullopt;
          auto job = generator.makeJob(index);
          return orch::Dispatcher::Job{.apk = std::move(job.apk),
                                       .program = std::move(job.program),
                                       .index = index};
        },
        [&](std::size_t index, core::RunArtifacts&& artifacts) {
          sink.uploadRun(index, artifacts);
        });
    (void)sink.flush();
    std::printf("fleet: %llu runs uploaded and accepted, %llu report "
                "frames acked\n",
                static_cast<unsigned long long>(sink.runsAccepted()),
                static_cast<unsigned long long>(sink.ackedFrames()));
    if (sink.runsAccepted() != generator.appCount()) {
      std::fprintf(stderr, "spectord_fleet: %llu of %llu runs accepted\n",
                   static_cast<unsigned long long>(sink.runsAccepted()),
                   static_cast<unsigned long long>(generator.appCount()));
      return 1;
    }
  }

  // --- watch the study land -------------------------------------------
  daemon.drain();
  // Every run is published now: the subscriber's mirror must reach the
  // daemon's view, as a whole struct.
  const spectord::DashboardMirror expected = daemon.dashboard();
  if (!dashboard.waitUntil([&] { return mirror == expected; },
                           std::chrono::milliseconds(5000))) {
    std::fprintf(stderr,
                 "spectord_fleet: dashboard mirror (%llu runs) differs from "
                 "the daemon's view (%llu runs)\n",
                 static_cast<unsigned long long>(mirror.runsFolded),
                 static_cast<unsigned long long>(expected.runsFolded));
    return 1;
  }
  std::printf("dashboard: %llu/%llu runs, %llu flows, %llu attributed "
              "bytes, %llu deltas received\n",
              static_cast<unsigned long long>(mirror.runsFolded),
              static_cast<unsigned long long>(mirror.expectedRuns),
              static_cast<unsigned long long>(mirror.totals.flowCount),
              static_cast<unsigned long long>(mirror.totals.attributedBytes),
              static_cast<unsigned long long>(dashboard.deltasReceived()));
  std::vector<std::pair<std::string, std::uint64_t>> libraries(
      mirror.totals.bytesByLibrary.begin(),
      mirror.totals.bytesByLibrary.end());
  std::sort(libraries.begin(), libraries.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  for (std::size_t i = 0; i < libraries.size() && i < 5; ++i)
    std::printf("  top library %zu: %-40s %llu bytes\n", i + 1,
                libraries[i].first.c_str(),
                static_cast<unsigned long long>(libraries[i].second));

  // --- admin surface ----------------------------------------------------
  spectord::AdminClient admin(daemon.connect(), /*clientId=*/3);
  std::printf("admin status: %s\n",
              admin.request(spectord::AdminOp::Status).info.c_str());
  admin.request(spectord::AdminOp::Drain);
  // The Shutdown ack comes back before the event loop winds down; give
  // the daemon a moment to flush checkpoints and close every channel.
  admin.request(spectord::AdminOp::Shutdown);
  for (int i = 0; i < 100 && daemon.running(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  std::printf("daemon running after shutdown: %s\n",
              daemon.running() ? "yes" : "no");
  return 0;
}
