// One emulator instance (paper §II-B3).
//
// Every app runs in a *fresh* copy of the same image: same device profile,
// fresh network stack, fresh runtime, the Xposed framework with the Socket
// Supervisor installed, and the modified-ART Method Monitor attached.  The
// run exercises the app with the monkey and produces the artifact bundle.
#pragma once

#include <memory>

#include "core/artifacts.hpp"
#include "core/supervisor.hpp"
#include "dex/apk.hpp"
#include "ingest/sink.hpp"
#include "monkey/monkey.hpp"
#include "net/server.hpp"
#include "net/stack.hpp"
#include "rt/program.hpp"
#include "rt/scenario.hpp"

namespace libspector::orch {

struct EmulatorConfig {
  net::StackConfig stack;
  monkey::MonkeyConfig monkey;
  /// After the monkey finishes, the app sits in background for a few ticks
  /// and may keep transmitting (Rosen et al.; the paper's §IV-D relies on
  /// the 80%%-within-60s observation). Each tick lasts 20 simulated
  /// seconds.
  std::uint32_t backgroundTicks = 3;
  /// Seed for this instance's stochastic behaviour (RTTs, response sizes,
  /// monkey handler choice). The dispatcher derives one per app.
  std::uint64_t seed = 1;
  /// Stamped into every framed supervisor report so the ingest tier can
  /// account loss per (worker, sequence). The dispatcher passes the job
  /// index, which is unique per study.
  std::uint32_t workerId = 0;
  /// Precomputed hex sha256 of the apk under test (empty = hash at run
  /// start). A caller that already hashed the apk passes it on; either
  /// way the digest is computed at most once per run and shared with the
  /// supervisor.
  std::string apkSha256;
  /// Workload-scenario switches (§14). All off (the default) pins the
  /// legacy runtime byte for byte; each flag opens one new behaviour in
  /// the runtime (keep-alive pooling) — the matching store/generator flags
  /// put the triggering material in the apps.
  rt::ScenarioConfig scenario;
};

class EmulatorInstance {
 public:
  /// `farm` is the shared external-server world; `collector` receives the
  /// supervisor's raw report datagrams (may be nullptr in hermetic tests —
  /// reports are then collected from the local sink only).
  EmulatorInstance(const net::ServerFarm& farm, ingest::ReportSink* collector,
                   EmulatorConfig config);

  /// Install, exercise and tear down one app; returns the artifact bundle
  /// (capture, reports, method trace, coverage, run stats).
  [[nodiscard]] core::RunArtifacts run(const dex::ApkFile& apk,
                                       const rt::AppProgram& program);

 private:
  const net::ServerFarm& farm_;
  ingest::ReportSink* collector_;
  EmulatorConfig config_;
};

}  // namespace libspector::orch
