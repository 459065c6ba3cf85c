// End-to-end reproduction of Listing 1 + Listing 2: a unity3d-style ad
// fetch flows through the emulator, the Socket Supervisor, the collection
// server and the attribution pipeline, and must come out attributed to
// origin-library "com.unity3d.ads.android.cache", 2-level "com.unity3d",
// category Advertisement — exactly as the paper describes.
#include <gtest/gtest.h>

#include "core/attribution.hpp"
#include "orch/emulator.hpp"
#include "radar/corpus.hpp"
#include "vtsim/categorizer.hpp"

namespace libspector {
namespace {

class Listing1Test : public ::testing::Test {
 protected:
  Listing1Test() {
    net::EndpointProfile ads;
    ads.domain = "config.unityads.unity3d.com";
    ads.trueCategory = "advertisements";
    ads.responseLogMu = 9.5;
    farm_.addEndpoint(ads);

    apk_.packageName = "com.fun.game";
    apk_.appCategory = "GAME_SIMULATION";

    rt::NetRequestAction request;
    request.domain = "config.unityads.unity3d.com";
    request.engine = rt::HttpEngine::OkHttp;
    const auto helper = program_.addMethod(
        "Lcom/unity3d/ads/android/cache/b;->a(Ljava/lang/String;)Ljava/lang/Object;",
        {request});
    const auto task = program_.addMethod(
        "Lcom/unity3d/ads/android/cache/b;->doInBackground([Ljava/lang/String;)"
        "Ljava/lang/Object;",
        {rt::CallAction{helper}});
    const auto handler = program_.addMethod(
        "Lcom/fun/game/ui/Screen;->onClick(Landroid/view/View;)V",
        {rt::AsyncAction{task}});
    program_.uiHandlers.push_back(handler);

    dex::DexFile dexFile;
    dex::ClassDef cls;
    cls.dottedName = "all";
    for (rt::MethodId id = 0; id < program_.methodCount(); ++id)
      cls.methods.push_back({std::string(program_.method(id).signature)});
    dexFile.classes.push_back(cls);
    apk_.setDex(dex::writeDexFiles({dexFile}));
  }

  net::ServerFarm farm_;
  dex::ApkFile apk_;
  rt::AppProgram program_;
};

TEST_F(Listing1Test, FullPipelineRecoversPaperAttribution) {
  orch::EmulatorConfig config;
  config.monkey.events = 3;
  config.monkey.throttleMs = 100;
  orch::EmulatorInstance emulator(farm_, nullptr, config);
  const auto artifacts = emulator.run(apk_, program_);
  ASSERT_EQ(artifacts.reports.size(), 3u);

  // The report's stack trace has the Listing 1 shape.
  const auto& stack = artifacts.reports[0].stackSignatures;
  ASSERT_GE(stack.size(), 6u);
  EXPECT_EQ(stack.front(), "java.net.Socket.connect");
  EXPECT_TRUE(stack[1].starts_with("com.android.okhttp"));
  EXPECT_EQ(stack[stack.size() - 2], "android.os.AsyncTask$2.call");
  EXPECT_EQ(stack.back(), "java.util.concurrent.FutureTask.run");

  // Attribution: Listing 2's prediction for the origin.
  const auto corpus = radar::LibraryCorpus::builtin();
  vtsim::DomainCategorizer categorizer(
      vtsim::defaultVendorPanel(),
      [](const std::string&) { return std::string("advertisements"); });
  core::TrafficAttributor attributor(corpus, categorizer);
  const auto flows = attributor.attribute(artifacts);
  ASSERT_EQ(flows.size(), 3u);
  for (const auto& flow : flows) {
    EXPECT_EQ(flow.originLibrary, "com.unity3d.ads.android.cache");
    EXPECT_EQ(flow.twoLevelLibrary, "com.unity3d");
    EXPECT_EQ(flow.libraryCategory, "Advertisement");
    EXPECT_TRUE(flow.antOrigin);
    EXPECT_EQ(flow.domain, "config.unityads.unity3d.com");
    EXPECT_GT(flow.recvBytes, 0u);
    EXPECT_GT(flow.sentBytes, 0u);
    EXPECT_GT(flow.recvBytes, flow.sentBytes);
  }
}

TEST_F(Listing1Test, OriginSignatureIsTheDoInBackgroundOverload) {
  orch::EmulatorConfig config;
  config.monkey.events = 1;
  orch::EmulatorInstance emulator(farm_, nullptr, config);
  const auto artifacts = emulator.run(apk_, program_);
  const auto corpus = radar::LibraryCorpus::builtin();
  vtsim::DomainCategorizer categorizer(
      vtsim::defaultVendorPanel(),
      [](const std::string&) { return std::string("advertisements"); });
  core::TrafficAttributor attributor(corpus, categorizer);
  const auto flows = attributor.attribute(artifacts);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].originSignature,
            "Lcom/unity3d/ads/android/cache/b;->doInBackground([Ljava/lang/"
            "String;)Ljava/lang/Object;");
}

}  // namespace
}  // namespace libspector
