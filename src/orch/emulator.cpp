#include "orch/emulator.hpp"

#include "hook/xposed.hpp"
#include "rt/interpreter.hpp"
#include "util/bytes.hpp"
#include "rt/tracer.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"

namespace libspector::orch {

namespace {
/// Simulated time one background tick lasts.
constexpr std::uint32_t kBackgroundTickMs = 20 * 1000;
}  // namespace

EmulatorInstance::EmulatorInstance(const net::ServerFarm& farm,
                                   ingest::ReportSink* collector,
                                   EmulatorConfig config)
    : farm_(farm), collector_(collector), config_(config) {}

core::RunArtifacts EmulatorInstance::run(const dex::ApkFile& apk,
                                         const rt::AppProgram& program) {
  // Fresh image: everything below is constructed per run.
  util::SimClock clock;
  util::Rng rng(config_.seed);
  net::NetworkStack stack(farm_, clock, rng.fork(1), config_.stack);

  // Local + central report collection: the emulator's virtual router
  // forwards the supervisor's framed datagrams to the collection sink
  // verbatim (framing survives to the ingest tier); the local sink unwraps
  // them for the run's own artifact bundle.
  std::vector<core::UdpReport> localReports;
  core::ReportStreamDecoder localDecoder;
  stack.registerUdpSink(
      core::kDefaultCollectorEndpoint,
      [this, &localReports, &localDecoder](
          const net::SockEndpoint&, std::span<const std::uint8_t> payload) {
        try {
          localReports.push_back(localDecoder.decode(payload));
        } catch (const util::DecodeError&) {
          // v3 under datagram loss: a frame whose dictionary definition
          // was dropped before reaching this sink is a local loss, not an
          // error — reportsEmitted minus what lands here accounts for it,
          // and the ingest tier keeps its own exact per-apk account.
        }
        if (collector_ != nullptr) collector_->submitDatagram(payload);
      });

  core::MethodMonitor monitor;
  rt::Interpreter runtime(program, stack, monitor.tracer(), clock, rng.fork(2));
  runtime.setScenario(config_.scenario);

  // Apk identity, computed at most once per run: the job source's digest
  // when present, one hash of the apk's image otherwise. The supervisor is
  // primed with the same string so it never hashes the apk again; its
  // frame translation table reads `apk`, which outlives the run.
  const std::string apkSha256 = config_.apkSha256.empty()
                                    ? util::toHex(apk.sha256())
                                    : config_.apkSha256;

  hook::XposedFramework xposed;
  const auto supervisor = std::make_shared<core::SocketSupervisor>(
      core::kDefaultCollectorEndpoint, config_.workerId);
  supervisor->primeApkContext(apkSha256);
  xposed.installModule(supervisor);
  xposed.attachToApp(runtime, apk);

  runtime.start();
  const auto monkeyStats = monkey::exercise(runtime, clock, config_.monkey);

  // Background phase: the app keeps (sparsely) transmitting after the UI
  // session ends.
  for (std::uint32_t tick = 0; tick < config_.backgroundTicks; ++tick) {
    runtime.runBackgroundTick();
    clock.advance(kBackgroundTickMs);
  }

  // Pooled keep-alive connections FIN only now (a no-op outside the
  // scenario), so the capture records their teardown before collection.
  runtime.closePooledConnections();

  core::RunArtifacts artifacts;
  artifacts.apkSha256 = apkSha256;
  artifacts.packageName = apk.packageName;
  artifacts.appCategory = apk.appCategory;
  artifacts.capture = std::move(stack.capture());
  artifacts.reports = std::move(localReports);
  // Sender-side truth, carried on the reliable artifact path: the ingest
  // tier subtracts what actually arrived to get exact per-apk loss.
  artifacts.reportsEmitted = supervisor->reportsSent();
  artifacts.methodTraceFile = monitor.writeTraceFile();
  artifacts.coverage =
      core::MethodMonitor::computeCoverage(artifacts.methodTraceFile, apk);
  artifacts.monkeyEventsInjected = monkeyStats.eventsInjected;
  artifacts.runDurationMs = monkeyStats.elapsedMs;
  artifacts.requestBoundaries = monitor.requestBoundaries();
  return artifacts;
}

}  // namespace libspector::orch
