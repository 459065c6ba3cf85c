#include "policy/engine.hpp"

#include <gtest/gtest.h>

namespace libspector::policy {
namespace {

TEST(PolicyEngineTest, EmptyEngineAllowsEverything) {
  PolicyEngine engine;
  EXPECT_FALSE(engine.evaluateOrigin("com.mopub.mobileads", "ads.x.com").blocked);
  EXPECT_EQ(engine.ruleCount(), 0u);
}

TEST(PolicyEngineTest, LibraryPrefixBlocksHierarchically) {
  PolicyEngine engine;
  engine.blockLibraryPrefix("com.mopub");
  EXPECT_TRUE(engine.evaluateOrigin("com.mopub.mobileads", "x.com").blocked);
  EXPECT_TRUE(engine.evaluateOrigin("com.mopub", "x.com").blocked);
  EXPECT_FALSE(engine.evaluateOrigin("com.mopubx.other", "x.com").blocked);
  EXPECT_FALSE(engine.evaluateOrigin("com.myapp.net", "x.com").blocked);
  EXPECT_EQ(engine.evaluateOrigin("com.mopub.net", "x.com").rule,
            "library:com.mopub");
}

TEST(PolicyEngineTest, DomainRuleIsExact) {
  PolicyEngine engine;
  engine.blockDomain("tracker.evil.com");
  EXPECT_TRUE(engine.evaluateOrigin("com.app", "tracker.evil.com").blocked);
  EXPECT_FALSE(engine.evaluateOrigin("com.app", "api.evil.com").blocked);
  EXPECT_EQ(engine.evaluateOrigin("com.app", "tracker.evil.com").rule,
            "domain:tracker.evil.com");
}

TEST(PolicyEngineTest, AntBlacklistCoversTheList) {
  PolicyEngine engine;
  engine.blockAntLibraries();
  EXPECT_GT(engine.ruleCount(), 20u);
  EXPECT_TRUE(engine.evaluateOrigin("com.unity3d.ads.android.cache", "x").blocked);
  EXPECT_TRUE(engine.evaluateOrigin("com.flurry.sdk", "x").blocked);
  EXPECT_FALSE(engine.evaluateOrigin("com.unity3d.player", "x").blocked);
  EXPECT_FALSE(engine.evaluateOrigin("okhttp3.internal.http", "x").blocked);
}

TEST(PolicyEngineTest, EvaluateExtractsOriginFromStack) {
  PolicyEngine engine;
  engine.blockLibraryPrefix("com.unity3d.ads");
  // Listing 1's trace: origin is the doInBackground frame.
  const std::vector<std::string> trace = {
      "java.net.Socket.connect",
      "com.android.okhttp.internal.Platform.connectSocket",
      "com.unity3d.ads.android.cache.b.a",
      "com.unity3d.ads.android.cache.b.doInBackground",
      "android.os.AsyncTask$2.call",
      "java.util.concurrent.FutureTask.run",
  };
  EXPECT_TRUE(engine.evaluate(trace, "config.unityads.com").blocked);

  // First-party origin with the same destination is allowed: enforcement
  // is per-library, not per-endpoint — BorderPatrol's selling point.
  const std::vector<std::string> firstParty = {
      "java.net.Socket.connect",
      "com.myapp.net.Fetcher.fetch",
      "com.myapp.ui.Main.onClick",
  };
  EXPECT_FALSE(engine.evaluate(firstParty, "config.unityads.com").blocked);
}

TEST(PolicyEngineTest, LaunderedStackIsBlockedLikeTheMeasurement) {
  // The DESIGN.md §14 laundering: the SDK request is bounced through
  // Method.invoke from a junk-package trampoline. The measurement pipeline
  // elides the trampoline and attributes the SDK; enforcement must elect
  // the same origin, or a laundering library slips past its block rule.
  const std::vector<std::string> laundered = {
      "java.net.Socket.connect",
      "com.android.okhttp.internal.Platform.connectSocket",
      "com.unity3d.ads.android.cache.b.a",
      "com.unity3d.ads.android.cache.b.doInBackground",
      "java.lang.reflect.Method.invoke",
      "ab.c.x0.i0",
      "android.os.AsyncTask$2.call",
      "java.util.concurrent.FutureTask.run",
  };
  PolicyEngine byPrefix;
  byPrefix.blockLibraryPrefix("com.unity3d.ads");
  EXPECT_TRUE(byPrefix.evaluate(laundered, "config.unityads.com").blocked);
  PolicyEngine byAntList;
  byAntList.blockAntLibraries();
  EXPECT_TRUE(byAntList.evaluate(laundered, "config.unityads.com").blocked);
}

TEST(PolicyEngineTest, BuiltinOnlyStackHasNoOriginToMatch) {
  PolicyEngine engine;
  engine.blockLibraryPrefix("com.mopub");
  const std::vector<std::string> systemTrace = {
      "java.net.Socket.connect", "android.webkit.WebViewClient.onLoadResource",
      "java.lang.Thread.run"};
  EXPECT_FALSE(engine.evaluate(systemTrace, "x.com").blocked);
  // ...but a domain rule still catches it.
  engine.blockDomain("x.com");
  EXPECT_TRUE(engine.evaluate(systemTrace, "x.com").blocked);
}

TEST(PolicyEngineTest, RateLimitAllowsBudgetThenBlocks) {
  PolicyEngine engine;
  engine.rateLimitLibrary("com.mopub", /*maxConnects=*/2, /*windowMs=*/1000);
  // First two connections inside the window pass, the third is vetoed.
  EXPECT_FALSE(engine.evaluateOrigin("com.mopub.mobileads", "x", 100).blocked);
  EXPECT_FALSE(engine.evaluateOrigin("com.mopub.mobileads", "x", 200).blocked);
  const auto third = engine.evaluateOrigin("com.mopub.mobileads", "x", 300);
  EXPECT_TRUE(third.blocked);
  EXPECT_EQ(third.rule, "rate:com.mopub");
  // Window slides: after the first connect expires, budget frees up.
  EXPECT_FALSE(engine.evaluateOrigin("com.mopub.mobileads", "x", 1150).blocked);
  EXPECT_TRUE(engine.evaluateOrigin("com.mopub.mobileads", "x", 1160).blocked);
}

TEST(PolicyEngineTest, RateLimitDoesNotTouchOtherLibraries) {
  PolicyEngine engine;
  engine.rateLimitLibrary("com.mopub", 1, 1000);
  for (int i = 0; i < 10; ++i)
    EXPECT_FALSE(engine.evaluateOrigin("com.myapp.net", "x", 10 * i).blocked);
}

TEST(PolicyEngineTest, BlacklistTakesPrecedenceOverRateLimit) {
  PolicyEngine engine;
  engine.rateLimitLibrary("com.mopub", 100, 1000);
  engine.blockLibraryPrefix("com.mopub");
  EXPECT_EQ(engine.evaluateOrigin("com.mopub.network", "x", 0).rule,
            "library:com.mopub");
}

}  // namespace
}  // namespace libspector::policy
