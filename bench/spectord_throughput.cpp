// spectord wire throughput: framed Report datagrams from a fleet of
// IngestClients through the duplex-channel protocol (incremental parser,
// bounded write queues, single event-loop thread) into one collector
// daemon. The price of the service shape over in-process ingest is the
// protocol layer; this benchmark reports frames/sec per collector so the
// floor gate catches a regression in the daemon's event loop or parser.
// Both legs run the one ingest client: the steady leg over connections
// that never die, the storm leg over connections a BreakerEndpoint severs.
//
// Writes BENCH_spectord.json in the cwd.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/report.hpp"
#include "spectord/client.hpp"
#include "spectord/daemon.hpp"
#include "spectord/resilient.hpp"

namespace {

using namespace libspector;

constexpr std::size_t kApps = 32;
constexpr std::uint64_t kFramesPerApp = 1500;

core::UdpReport benchReport(const std::string& sha, std::uint64_t seq) {
  core::UdpReport report;
  report.apkSha256 = sha;
  report.socketPair = {{net::Ipv4Addr(10, 0, 2, 15),
                        static_cast<std::uint16_t>(1024 + (seq % 60000))},
                       {net::Ipv4Addr(198, 18, 0, 1), 443}};
  report.timestampMs = seq;
  report.stackSignatures = {
      "java.net.Socket.connect",
      "Lcom/squareup/okhttp/internal/io/RealConnection;->connectSocket()V",
      "Lcom/example/app/net/Api;->fetch()V"};
  return report;
}

/// Datagrams grouped per app: each app's ordered sequence must flow over
/// one client connection so the daemon's loss accounting sees a clean
/// stream (as it would from one emulator worker). Each app's frames come
/// from one encoder, as a supervisor sends them.
struct Corpus {
  Corpus() {
    perApp.resize(kApps);
    for (std::size_t app = 0; app < kApps; ++app) {
      perApp[app].reserve(kFramesPerApp);
      const std::string sha = "benchapp" + std::to_string(app);
      core::DictFrameEncoder encoder(static_cast<std::uint32_t>(app));
      for (std::uint64_t seq = 0; seq < kFramesPerApp; ++seq)
        perApp[app].push_back(encoder.encode(seq, benchReport(sha, seq)));
    }
  }
  std::vector<std::vector<std::vector<std::uint8_t>>> perApp;
};

const Corpus& corpus() {
  static const Corpus kCorpus;
  return kCorpus;
}

/// Stream the whole corpus into a fresh daemon from `clients` connections
/// (apps striped across clients); returns wall seconds until every frame
/// is acked and folded.
double streamCorpus(std::size_t clients) {
  spectord::DaemonConfig config;
  config.ingest.shards = 2;
  config.ingest.queueCapacity = 8192;
  spectord::SpectorDaemon daemon(
      config, [](const core::RunArtifacts&) {
        return core::FlowColumns{};
      });

  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&daemon, c, clients] {
        spectord::IngestClient client(
            [&daemon](std::size_t) { return daemon.connect(); },
            /*clientId=*/100 + c);
        for (std::size_t app = c; app < kApps; app += clients)
          for (const auto& datagram : corpus().perApp[app])
            client.submitDatagram(datagram);
        client.waitAckedFrames(client.framesOffered(),
                               std::chrono::milliseconds(60000));
        client.bye();
      });
    }
  }
  daemon.drain();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  daemon.shutdown();
  return seconds;
}

/// Reconnect storm: the same corpus, but every connection a client opens
/// is severed after `killEveryBytes` — each client rides through several
/// kill/backoff/resume/replay cycles. Reported separately; the steady-
/// state frames/sec above stays the gated headline.
struct StormStats {
  double seconds = 0;
  std::uint64_t reconnects = 0;
};

StormStats streamStorm(std::size_t clients, std::uint64_t killEveryBytes) {
  spectord::DaemonConfig config;
  config.ingest.shards = 2;
  config.ingest.queueCapacity = 8192;
  spectord::SpectorDaemon daemon(
      config, [](const core::RunArtifacts&) {
        return core::FlowColumns{};
      });

  std::atomic<std::uint64_t> reconnects{0};
  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&daemon, &reconnects, c, clients,
                            killEveryBytes] {
        std::vector<std::unique_ptr<spectord::BreakerEndpoint>> breakers;
        spectord::IngestClientConfig clientConfig;
        clientConfig.reconnect.initialDelay = std::chrono::milliseconds(1);
        clientConfig.reconnect.maxDelay = std::chrono::milliseconds(10);
        spectord::IngestClient client(
            [&daemon, &breakers, killEveryBytes](std::size_t) {
              spectord::BreakerEndpoint::Fault fault;
              fault.kind = spectord::BreakerEndpoint::FaultKind::Sever;
              fault.afterClientBytes = killEveryBytes;
              breakers.push_back(
                  std::make_unique<spectord::BreakerEndpoint>(daemon.connect(),
                                                              fault));
              return breakers.back()->clientEnd();
            },
            /*clientId=*/200 + c, clientConfig);
        for (std::size_t app = c; app < kApps; app += clients)
          for (const auto& datagram : corpus().perApp[app])
            client.submitDatagram(datagram);
        client.waitAckedFrames(client.framesOffered(),
                               std::chrono::milliseconds(60000));
        reconnects.fetch_add(client.reconnects());
        client.bye();
      });
    }
  }
  daemon.drain();
  StormStats stats;
  stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  stats.reconnects = reconnects.load();
  daemon.shutdown();
  return stats;
}

}  // namespace

int main() {
  const double total = static_cast<double>(kApps * kFramesPerApp);
  const std::size_t fleet =
      std::max<std::size_t>(2, std::thread::hardware_concurrency() / 2);

  const double oneSeconds = streamCorpus(1);
  const double fleetSeconds = streamCorpus(fleet);
  const double oneRate = total / oneSeconds;
  const double fleetRate = total / fleetSeconds;

  // Storm sizing: sever each connection after ~1/5 of a client's share so
  // every client rides through several kill/resume cycles and the final
  // connection still finishes.
  std::uint64_t clientBytes = 0;
  for (std::size_t app = 0; app < kApps; app += fleet)
    for (const auto& datagram : corpus().perApp[app])
      clientBytes += datagram.size() + 14;  // framed wire size
  const std::uint64_t killEvery =
      std::max<std::uint64_t>(clientBytes / 5, 4096);
  const StormStats storm = streamStorm(fleet, killEvery);
  const double stormRate = total / storm.seconds;

  std::printf("=== spectord wire throughput: %zu apps x %llu datagrams ===\n",
              kApps, static_cast<unsigned long long>(kFramesPerApp));
  std::printf("1 client  : %8.3f s  (%10.0f frames/s)\n", oneSeconds, oneRate);
  std::printf("%zu clients: %8.3f s  (%10.0f frames/s)\n", fleet,
              fleetSeconds, fleetRate);
  std::printf("storm     : %8.3f s  (%10.0f frames/s, %llu reconnects)\n",
              storm.seconds, stormRate,
              static_cast<unsigned long long>(storm.reconnects));

  if (std::FILE* json = std::fopen("BENCH_spectord.json", "w")) {
    std::fprintf(json,
                 "{\n"
                 "  \"apps\": %zu,\n"
                 "  \"datagrams\": %.0f,\n"
                 "  \"fleet_clients\": %zu,\n"
                 "  \"one_client_seconds\": %.6f,\n"
                 "  \"one_client_frames_per_sec\": %.1f,\n"
                 "  \"fleet_seconds\": %.6f,\n"
                 "  \"frames_per_sec\": %.1f,\n"
                 "  \"storm_kill_every_bytes\": %llu,\n"
                 "  \"storm_reconnects\": %llu,\n"
                 "  \"storm_seconds\": %.6f,\n"
                 "  \"storm_frames_per_sec\": %.1f\n"
                 "}\n",
                 kApps, total, fleet, oneSeconds, oneRate, fleetSeconds,
                 fleetRate, static_cast<unsigned long long>(killEvery),
                 static_cast<unsigned long long>(storm.reconnects),
                 storm.seconds, stormRate);
    std::fclose(json);
    std::printf("wrote BENCH_spectord.json\n");
  }
  return 0;
}
