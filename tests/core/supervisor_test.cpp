#include "core/supervisor.hpp"

#include <gtest/gtest.h>

#include "net/server.hpp"
#include "rt/tracer.hpp"
#include "util/sha256.hpp"

namespace libspector::core {
namespace {

class SupervisorTest : public ::testing::Test {
 protected:
  SupervisorTest() {
    net::EndpointProfile profile;
    profile.domain = "config.unityads.com";
    profile.trueCategory = "advertisements";
    farm_.addEndpoint(profile);

    apk_.packageName = "com.game.fun";
    apk_.appCategory = "GAME_ACTION";

    // Listing-1-style program: handler schedules an AsyncTask whose body
    // requests through an HTTP engine.
    rt::NetRequestAction request;
    request.domain = "config.unityads.com";
    request.engine = rt::HttpEngine::OkHttp;
    helper_ = program_.addMethod(
        "Lcom/unity3d/ads/android/cache/b;->a(Ljava/lang/String;)Ljava/lang/Object;",
        {request});
    task_ = program_.addMethod(
        "Lcom/unity3d/ads/android/cache/b;->doInBackground([Ljava/lang/String;)Ljava/lang/Object;",
        {rt::CallAction{helper_}});
    const auto handler = program_.addMethod(
        "Lcom/game/fun/ui/H;->onClick(Landroid/view/View;)V",
        {rt::AsyncAction{task_}});
    program_.uiHandlers.push_back(handler);

    // Dex holds the program methods.
    dex::DexFile dexFile;
    dex::ClassDef cls;
    cls.dottedName = "mixed";
    for (rt::MethodId id = 0; id < program_.methodCount(); ++id)
      cls.methods.push_back({std::string(program_.method(id).signature)});
    dexFile.classes.push_back(cls);
    apk_.setDex(dex::writeDexFiles({dexFile}));
  }

  net::ServerFarm farm_;
  util::SimClock clock_;
  rt::UniqueMethodTracer tracer_;
  dex::ApkFile apk_;
  rt::AppProgram program_;
  rt::MethodId helper_ = 0;
  rt::MethodId task_ = 0;
};

TEST_F(SupervisorTest, SendsOneReportPerSocketWithFullContext) {
  net::NetworkStack stack(farm_, clock_, util::Rng(3));
  rt::Interpreter runtime(program_, stack, tracer_, clock_, util::Rng(4));

  std::vector<UdpReport> received;
  ReportStreamDecoder decoder;
  stack.registerUdpSink(kDefaultCollectorEndpoint,
                        [&](const net::SockEndpoint&,
                            std::span<const std::uint8_t> payload) {
                          received.push_back(decoder.decode(payload));
                        });

  auto supervisor = std::make_shared<SocketSupervisor>();
  supervisor->onAppLoaded(runtime, apk_);
  runtime.dispatchUiEvent();
  runtime.dispatchUiEvent();

  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(supervisor->reportsSent(), 2u);
  const UdpReport& report = received[0];
  EXPECT_EQ(report.apkSha256, util::toHex(apk_.sha256()));

  // Socket pair from getsockname/getpeername: device first.
  EXPECT_EQ(report.socketPair.src.ip, net::Ipv4Addr(10, 0, 2, 15));
  EXPECT_EQ(report.socketPair.dst.port, 443);

  // Stack signatures innermost-first: socket connect down to FutureTask.
  ASSERT_GE(report.stackSignatures.size(), 4u);
  EXPECT_EQ(report.stackSignatures.front(), "java.net.Socket.connect");
  EXPECT_EQ(report.stackSignatures.back(), "java.util.concurrent.FutureTask.run");
}

TEST_F(SupervisorTest, AppFramesCarryFullTypeSignatures) {
  net::NetworkStack stack(farm_, clock_, util::Rng(3));
  rt::Interpreter runtime(program_, stack, tracer_, clock_, util::Rng(4));
  std::vector<UdpReport> received;
  ReportStreamDecoder decoder;
  stack.registerUdpSink(kDefaultCollectorEndpoint,
                        [&](const net::SockEndpoint&,
                            std::span<const std::uint8_t> payload) {
                          received.push_back(decoder.decode(payload));
                        });
  auto supervisor = std::make_shared<SocketSupervisor>();
  supervisor->onAppLoaded(runtime, apk_);
  runtime.dispatchUiEvent();

  ASSERT_EQ(received.size(), 1u);
  const auto& signatures = received[0].stackSignatures;
  // The unity3d helper and task appear as overload-precise signatures.
  EXPECT_NE(std::find(signatures.begin(), signatures.end(),
                      program_.method(helper_).signature),
            signatures.end());
  EXPECT_NE(std::find(signatures.begin(), signatures.end(),
                      program_.method(task_).signature),
            signatures.end());
}

TEST_F(SupervisorTest, TranslateFramePrefersMethodIdThenTable) {
  const dex::FrameTranslationTable table(apk_);
  // App frame: exact signature via method id.
  const rt::StackFrameSnapshot appFrame{
      "com.unity3d.ads.android.cache.b.a", static_cast<std::int32_t>(helper_)};
  EXPECT_EQ(translateFrame(appFrame, program_, table),
            program_.method(helper_).signature);
  // Framework frame present in dex: resolved through the table.
  const rt::StackFrameSnapshot dexFrame{"com.unity3d.ads.android.cache.b.a", -1};
  EXPECT_EQ(translateFrame(dexFrame, program_, table),
            program_.method(helper_).signature);
  // Pure framework frame: kept as the frame name.
  const rt::StackFrameSnapshot framework{"java.net.Socket.connect", -1};
  EXPECT_EQ(translateFrame(framework, program_, table), "java.net.Socket.connect");
}

TEST_F(SupervisorTest, ReportTimestampMatchesEmulatorClock) {
  net::NetworkStack stack(farm_, clock_, util::Rng(3));
  rt::Interpreter runtime(program_, stack, tracer_, clock_, util::Rng(4));
  std::vector<UdpReport> received;
  ReportStreamDecoder decoder;
  stack.registerUdpSink(kDefaultCollectorEndpoint,
                        [&](const net::SockEndpoint&,
                            std::span<const std::uint8_t> payload) {
                          received.push_back(decoder.decode(payload));
                        });
  auto supervisor = std::make_shared<SocketSupervisor>();
  supervisor->onAppLoaded(runtime, apk_);
  clock_.advance(5000);
  runtime.dispatchUiEvent();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_GE(received[0].timestampMs, 5000u);
  EXPECT_LE(received[0].timestampMs, clock_.now());
}

TEST_F(SupervisorTest, ReportsGoToConfiguredCollector) {
  const net::SockEndpoint custom{net::Ipv4Addr(10, 0, 2, 2), 7777};
  net::NetworkStack stack(farm_, clock_, util::Rng(3));
  rt::Interpreter runtime(program_, stack, tracer_, clock_, util::Rng(4));
  int hits = 0;
  stack.registerUdpSink(custom, [&](const net::SockEndpoint&,
                                    std::span<const std::uint8_t>) { ++hits; });
  auto supervisor = std::make_shared<SocketSupervisor>(custom);
  supervisor->onAppLoaded(runtime, apk_);
  runtime.dispatchUiEvent();
  EXPECT_EQ(hits, 1);
}

}  // namespace
}  // namespace libspector::core
