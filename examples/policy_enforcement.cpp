// §IV-E "Security": close the loop between measurement and enforcement.
//
// Phase 1 measures a small population with Libspector and picks the most
// data-hungry advertisement/tracker origin-libraries. Phase 2 re-runs the
// same apps with a BorderPatrol-style PolicyModule blacklisting them, and
// reports the traffic (and §IV-D dollar/battery) savings.
//
// Usage: policy_enforcement [apps]
#include <cstdio>
#include <map>
#include <optional>

#include "core/attribution.hpp"
#include "core/cost.hpp"
#include "core/monitor.hpp"
#include "core/report.hpp"
#include "monkey/monkey.hpp"
#include "hook/xposed.hpp"
#include "orch/emulator.hpp"
#include "policy/module.hpp"
#include "radar/corpus.hpp"
#include "store/generator.hpp"
#include "util/strings.hpp"
#include "vtsim/categorizer.hpp"

using namespace libspector;

namespace {

struct Measurement {
  std::uint64_t totalBytes = 0;
  std::uint64_t antBytes = 0;
  std::size_t sockets = 0;
  std::size_t blocked = 0;
  std::map<std::string, std::uint64_t> bytesByOrigin;
};

Measurement measure(const store::AppStoreGenerator& generator,
                    core::TrafficAttributor& attributor,
                    const policy::PolicyEngine* engine) {
  Measurement out;
  for (std::size_t i = 0; i < generator.appCount(); ++i) {
    const auto job = generator.makeJob(i);

    util::SimClock clock;
    util::Rng rng(1000 + i);
    net::NetworkStack stack(generator.farm(), clock, rng.fork(1));
    core::MethodMonitor monitor;
    rt::Interpreter runtime(job.program, stack, monitor.tracer(), clock,
                            rng.fork(2));

    // The supervisor sends v3 dictionary frames: decode them with one
    // stream decoder per run, as the emulator's local sink does.
    std::vector<core::UdpReport> reports;
    core::ReportStreamDecoder decoder;
    stack.registerUdpSink(core::kDefaultCollectorEndpoint,
                          [&](const net::SockEndpoint&,
                              std::span<const std::uint8_t> payload) {
                            reports.push_back(decoder.decode(payload));
                          });
    hook::XposedFramework xposed;
    if (engine != nullptr)
      xposed.installModule(std::make_shared<policy::PolicyModule>(*engine));
    xposed.installModule(std::make_shared<core::SocketSupervisor>());
    xposed.attachToApp(runtime, job.apk);

    runtime.start();
    monkey::MonkeyConfig monkeyConfig;
    monkeyConfig.events = 1000;
    monkey::exercise(runtime, clock, monkeyConfig);

    core::RunArtifacts artifacts;
    artifacts.apkSha256 = util::toHex(job.apk.sha256());
    artifacts.packageName = job.apk.packageName;
    artifacts.appCategory = job.apk.appCategory;
    artifacts.capture = std::move(stack.capture());
    artifacts.reports = std::move(reports);

    out.sockets += runtime.socketsCreated();
    out.blocked += runtime.connectsBlocked();
    for (const auto& flow : attributor.attribute(artifacts)) {
      const std::uint64_t bytes = flow.sentBytes + flow.recvBytes;
      out.totalBytes += bytes;
      if (flow.antOrigin) out.antBytes += bytes;
      out.bytesByOrigin[flow.originLibrary.str()] += bytes;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  store::StoreConfig storeConfig;
  std::optional<std::uint64_t> apps = 120;
  if (argc > 1) apps = util::parseWholeNumber(argv[1]);
  if (argc > 2 || !apps || *apps == 0) {
    std::fprintf(stderr, "usage: policy_enforcement [apps>0]\n");
    return 2;
  }
  storeConfig.appCount = *apps;
  const store::AppStoreGenerator generator(storeConfig);

  const radar::LibraryCorpus corpus = radar::LibraryCorpus::builtin();
  vtsim::DomainCategorizer categorizer(
      vtsim::defaultVendorPanel(),
      [&generator](const std::string& domain) { return generator.domainTruth(domain); });
  core::TrafficAttributor attributor(corpus, categorizer);

  std::printf("Phase 1: measuring %zu apps without any policy...\n",
              generator.appCount());
  const Measurement before = measure(generator, attributor, nullptr);
  std::printf("  %s transferred over %zu sockets; AnT-origin share %.1f%%\n",
              util::humanBytes(static_cast<double>(before.totalBytes)).c_str(),
              before.sockets,
              100.0 * static_cast<double>(before.antBytes) /
                  static_cast<double>(before.totalBytes));

  // Pick blacklist candidates from the measurement (the a-priori knowledge
  // BorderPatrol lacks and Libspector provides).
  std::vector<std::pair<std::string, std::uint64_t>> heaviest(
      before.bytesByOrigin.begin(), before.bytesByOrigin.end());
  std::sort(heaviest.begin(), heaviest.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  policy::PolicyEngine engine;
  std::printf("\nBlacklisting the heaviest AnT origin-libraries:\n");
  int added = 0;
  for (const auto& [origin, bytes] : heaviest) {
    if (!radar::antLibraries().matches(origin)) continue;
    std::printf("  %-44s %10s\n", origin.c_str(),
                util::humanBytes(static_cast<double>(bytes)).c_str());
    engine.blockLibraryPrefix(origin);
    if (++added == 10) break;
  }

  std::printf("\nPhase 2: re-running the same apps under enforcement...\n");
  const Measurement after = measure(generator, attributor, &engine);
  std::printf("  %s transferred; %zu connections vetoed pre-socket\n",
              util::humanBytes(static_cast<double>(after.totalBytes)).c_str(),
              after.blocked);

  const double savedBytes = static_cast<double>(before.totalBytes) -
                            static_cast<double>(after.totalBytes);
  std::printf("\n== Savings ==\n");
  std::printf("traffic:   %s (%.1f%% of the unpoliced total)\n",
              util::humanBytes(savedBytes).c_str(),
              100.0 * savedBytes / static_cast<double>(before.totalBytes));
  const core::CostModel cost(core::DataPlanModel{}, core::EnergyModel{}, 8.0);
  const auto estimate =
      cost.estimate(savedBytes / static_cast<double>(generator.appCount()));
  std::printf("user cost: $%.2f/hour and %.1f%% battery per device (§IV-D model)\n",
              estimate.usdPerHour, 100.0 * estimate.batteryFraction);
  return 0;
}
