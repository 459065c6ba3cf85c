#include "policy/module.hpp"

#include <gtest/gtest.h>

#include "core/supervisor.hpp"
#include "net/server.hpp"
#include "rt/tracer.hpp"

namespace libspector::policy {
namespace {

class PolicyModuleTest : public ::testing::Test {
 protected:
  PolicyModuleTest() {
    for (const char* domain : {"config.unityads.com", "api.myapp.com"}) {
      net::EndpointProfile profile;
      profile.domain = domain;
      profile.trueCategory = "info_tech";
      farm_.addEndpoint(profile);
    }
    apk_.packageName = "com.fun.game";

    // Ad task (blacklistable) and first-party fetch on separate handlers.
    rt::NetRequestAction adRequest;
    adRequest.domain = "config.unityads.com";
    const auto adHelper = program_.addMethod(
        "Lcom/unity3d/ads/android/cache/b;->a()V", {adRequest});
    const auto adTask = program_.addMethod(
        "Lcom/unity3d/ads/android/cache/b;->doInBackground()V",
        {rt::CallAction{adHelper}});
    adHandler_ = program_.addMethod("Lcom/fun/game/ui/A;->onClick()V",
                                    {rt::AsyncAction{adTask}});
    rt::NetRequestAction ownRequest;
    ownRequest.domain = "api.myapp.com";
    appHandler_ = program_.addMethod("Lcom/fun/game/net/B;->refresh()V",
                                     {ownRequest});
    program_.uiHandlers = {adHandler_, appHandler_};
  }

  rt::Interpreter makeRuntime(net::NetworkStack& stack) {
    return rt::Interpreter(program_, stack, tracer_, clock_, util::Rng(4));
  }

  net::ServerFarm farm_;
  util::SimClock clock_;
  rt::UniqueMethodTracer tracer_;
  dex::ApkFile apk_;
  rt::AppProgram program_;
  rt::MethodId adHandler_ = 0;
  rt::MethodId appHandler_ = 0;
};

TEST_F(PolicyModuleTest, BlocksBlacklistedLibraryTrafficOnly) {
  PolicyEngine engine;
  engine.blockLibraryPrefix("com.unity3d.ads");
  auto module = std::make_shared<PolicyModule>(std::move(engine));

  net::NetworkStack stack(farm_, clock_, util::Rng(3));
  auto runtime = makeRuntime(stack);
  module->onAppLoaded(runtime, apk_);

  // Drive both handlers many times: ad connections must all be vetoed,
  // first-party ones must all succeed.
  for (int i = 0; i < 30; ++i) runtime.dispatchUiEvent();
  EXPECT_GT(runtime.connectsBlocked(), 0u);
  EXPECT_GT(runtime.socketsCreated(), 0u);
  EXPECT_EQ(module->blockedCount(), runtime.connectsBlocked());

  for (const auto& blocked : module->blockedLog()) {
    EXPECT_EQ(blocked.domain, "config.unityads.com");
    EXPECT_EQ(blocked.originLibrary, "com.unity3d.ads.android.cache");
    EXPECT_EQ(blocked.rule, "library:com.unity3d.ads");
  }

  // No packets to the blocked domain at all (the veto fires pre-connect,
  // before even DNS for that connection).
  for (const auto& pkt : stack.capture().packets()) {
    if (pkt.isDns()) {
      EXPECT_NE(pkt.dnsQname, "config.unityads.com");
    }
  }
}

TEST_F(PolicyModuleTest, CoexistsWithTheSocketSupervisor) {
  PolicyEngine engine;
  engine.blockLibraryPrefix("com.unity3d.ads");
  auto policyModule = std::make_shared<PolicyModule>(std::move(engine));
  auto supervisor = std::make_shared<core::SocketSupervisor>();

  net::NetworkStack stack(farm_, clock_, util::Rng(3));
  auto runtime = makeRuntime(stack);
  std::size_t reports = 0;
  stack.registerUdpSink(core::kDefaultCollectorEndpoint,
                        [&](const net::SockEndpoint&,
                            std::span<const std::uint8_t>) { ++reports; });

  hook::XposedFramework xposed;
  xposed.installModule(policyModule);
  xposed.installModule(supervisor);
  xposed.attachToApp(runtime, apk_);

  for (int i = 0; i < 30; ++i) runtime.dispatchUiEvent();

  // Every surviving socket was reported; no report for vetoed connects.
  EXPECT_EQ(reports, runtime.socketsCreated());
  EXPECT_EQ(runtime.socketsCreated() + runtime.connectsBlocked(), 30u);
}

TEST_F(PolicyModuleTest, PermissiveEngineBlocksNothing) {
  auto module = std::make_shared<PolicyModule>(PolicyEngine{});
  net::NetworkStack stack(farm_, clock_, util::Rng(3));
  auto runtime = makeRuntime(stack);
  module->onAppLoaded(runtime, apk_);
  for (int i = 0; i < 10; ++i) runtime.dispatchUiEvent();
  EXPECT_EQ(runtime.connectsBlocked(), 0u);
  EXPECT_EQ(module->blockedCount(), 0u);
  EXPECT_EQ(runtime.socketsCreated(), 10u);
}

}  // namespace
}  // namespace libspector::policy
