#include "orch/emulator.hpp"

#include <gtest/gtest.h>

#include "core/report.hpp"
#include "ingest/sink.hpp"
#include "util/sha256.hpp"

namespace libspector::orch {
namespace {

class EmulatorTest : public ::testing::Test {
 protected:
  EmulatorTest() {
    net::EndpointProfile profile;
    profile.domain = "api.example.com";
    profile.trueCategory = "info_tech";
    profile.responseLogMu = 8.5;
    farm_.addEndpoint(profile);

    apk_.packageName = "com.example.app";
    apk_.appCategory = "TOOLS";

    rt::NetRequestAction request;
    request.domain = "api.example.com";
    const auto helper = program_.addMethod("Lcom/lib/b;->a()V", {request});
    const auto task =
        program_.addMethod("Lcom/lib/b;->doInBackground()V",
                           {rt::CallAction{helper}});
    const auto handler = program_.addMethod("Lcom/example/app/H;->onClick()V",
                                            {rt::AsyncAction{task}});
    program_.uiHandlers.push_back(handler);
    program_.onCreate = program_.addMethod("Lcom/example/app/M;->onCreate()V", {});

    // Dex mirror of the program methods plus cold code.
    dex::DexFile dexFile;
    for (rt::MethodId id = 0; id < program_.methodCount(); ++id) {
      dex::ClassDef cls;
      cls.dottedName = "x";
      cls.methods.push_back({std::string(program_.method(id).signature)});
      dexFile.classes.push_back(std::move(cls));
    }
    dex::ClassDef cold;
    cold.dottedName = "com.example.app.Cold";
    for (int i = 0; i < 16; ++i)
      cold.methods.push_back(
          {"Lcom/example/app/Cold;->m" + std::to_string(i) + "()V"});
    dexFile.classes.push_back(cold);
    apk_.setDex(dex::writeDexFiles({dexFile}));
  }

  EmulatorConfig config(std::uint32_t events = 50) {
    EmulatorConfig config;
    config.monkey.events = events;
    config.monkey.throttleMs = 100;
    config.seed = 11;
    return config;
  }

  net::ServerFarm farm_;
  dex::ApkFile apk_;
  rt::AppProgram program_;
};

TEST_F(EmulatorTest, RunProducesCompleteArtifacts) {
  EmulatorInstance emulator(farm_, nullptr, config());
  const auto artifacts = emulator.run(apk_, program_);

  EXPECT_EQ(artifacts.apkSha256, util::toHex(apk_.sha256()));
  EXPECT_EQ(artifacts.packageName, "com.example.app");
  EXPECT_EQ(artifacts.appCategory, "TOOLS");
  EXPECT_EQ(artifacts.monkeyEventsInjected, 50u);
  EXPECT_GT(artifacts.runDurationMs, 0u);
  EXPECT_FALSE(artifacts.capture.packets().empty());
  EXPECT_FALSE(artifacts.reports.empty());
  EXPECT_FALSE(artifacts.methodTraceFile.empty());
}

TEST_F(EmulatorTest, OneReportPerCreatedSocket) {
  EmulatorInstance emulator(farm_, nullptr, config());
  const auto artifacts = emulator.run(apk_, program_);
  // 50 events, each handler run queues one async request: 50 sockets.
  EXPECT_EQ(artifacts.reports.size(), 50u);
  for (const auto& report : artifacts.reports) {
    EXPECT_EQ(report.apkSha256, artifacts.apkSha256);
    EXPECT_FALSE(report.stackSignatures.empty());
  }
}

TEST_F(EmulatorTest, ReportsMatchCaptureStreams) {
  EmulatorInstance emulator(farm_, nullptr, config(10));
  const auto artifacts = emulator.run(apk_, program_);
  for (const auto& report : artifacts.reports) {
    const auto volume = artifacts.capture.streamVolume(
        report.socketPair, 0, std::numeric_limits<util::SimTimeMs>::max());
    EXPECT_GT(volume.packetCount, 0u) << report.socketPair.str();
    EXPECT_GT(volume.payloadFromDst, 0u);
  }
}

TEST_F(EmulatorTest, CoverageComputedAgainstDex) {
  EmulatorInstance emulator(farm_, nullptr, config());
  const auto artifacts = emulator.run(apk_, program_);
  // 4 program methods executed out of 20 dex methods (16 cold ones).
  EXPECT_EQ(artifacts.coverage.totalMethods, 20u);
  EXPECT_EQ(artifacts.coverage.coveredMethods, 4u);
  EXPECT_NEAR(artifacts.coverage.ratio(), 4.0 / 20.0, 1e-9);
  // The trace also saw framework frames, so it is larger than the covered set.
  EXPECT_GT(artifacts.coverage.traceEntries, artifacts.coverage.coveredMethods);
}

TEST_F(EmulatorTest, CentralCollectorReceivesSameReports) {
  // A reliable central sink decoding the forwarded datagram stream.
  class DecodingSink final : public ingest::ReportSink {
   public:
    void submitDatagram(std::span<const std::uint8_t> payload) override {
      reports.push_back(decoder_.decode(payload));
    }
    std::vector<core::UdpReport> reports;

   private:
    core::ReportStreamDecoder decoder_;
  };
  DecodingSink collector;
  EmulatorInstance emulator(farm_, &collector, config(10));
  const auto artifacts = emulator.run(apk_, program_);
  ASSERT_EQ(collector.reports.size(), artifacts.reports.size());
  for (std::size_t i = 0; i < artifacts.reports.size(); ++i)
    EXPECT_EQ(collector.reports[i], artifacts.reports[i]);
}

TEST_F(EmulatorTest, FreshImagePerRunIsDeterministic) {
  EmulatorInstance emulator(farm_, nullptr, config(20));
  const auto first = emulator.run(apk_, program_);
  const auto second = emulator.run(apk_, program_);
  // Same seed, fresh state: identical captures and reports.
  EXPECT_EQ(first.capture, second.capture);
  ASSERT_EQ(first.reports.size(), second.reports.size());
  for (std::size_t i = 0; i < first.reports.size(); ++i)
    EXPECT_EQ(first.reports[i], second.reports[i]);
}

TEST_F(EmulatorTest, DifferentSeedsDifferentSchedules) {
  EmulatorInstance a(farm_, nullptr, config(20));
  auto otherConfig = config(20);
  otherConfig.seed = 99;
  EmulatorInstance b(farm_, nullptr, otherConfig);
  EXPECT_NE(a.run(apk_, program_).capture, b.run(apk_, program_).capture);
}

}  // namespace
}  // namespace libspector::orch
