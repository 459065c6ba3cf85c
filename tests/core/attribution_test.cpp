#include "core/attribution.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "util/strings.hpp"

namespace libspector::core {
namespace {

// ---------------------------------------------------------------------------
// Built-in frame filter (footnote 2)
// ---------------------------------------------------------------------------

TEST(BuiltinFilterTest, Footnote2Prefixes) {
  EXPECT_TRUE(isBuiltinFrame("android.os.AsyncTask$2.call"));
  EXPECT_TRUE(isBuiltinFrame("dalvik.system.VMStack.getThreadStackTrace"));
  EXPECT_TRUE(isBuiltinFrame("java.net.Socket.connect"));
  EXPECT_TRUE(isBuiltinFrame("java.util.concurrent.FutureTask.run"));
  EXPECT_TRUE(isBuiltinFrame("javax.net.ssl.SSLSocketFactory.createSocket"));
  EXPECT_TRUE(isBuiltinFrame("junit.framework.TestCase.run"));
  EXPECT_TRUE(isBuiltinFrame("org.apache.http.impl.client.AbstractHttpClient.execute"));
  EXPECT_TRUE(isBuiltinFrame("org.json.JSONObject.put"));
  EXPECT_TRUE(isBuiltinFrame("org.w3c.dom.Document.createElement"));
  EXPECT_TRUE(isBuiltinFrame("org.xml.sax.XMLReader.parse"));
  EXPECT_TRUE(isBuiltinFrame("org.xmlpull.v1.XmlPullParser.next"));
}

TEST(BuiltinFilterTest, PlatformOkHttpIsBuiltinButVolleyIsNot) {
  // Listing 1 eliminates com.android.okhttp.* as internal API calls, yet
  // Fig. 3 lists com.android.volley as a top origin-library.
  EXPECT_TRUE(isBuiltinFrame("com.android.okhttp.internal.Platform.connectSocket"));
  EXPECT_TRUE(isBuiltinFrame("com.android.okhttp.OkHttpClient$1.connectAndSetOwner"));
  EXPECT_FALSE(isBuiltinFrame("com.android.volley.toolbox.BasicNetwork.performRequest"));
}

TEST(BuiltinFilterTest, ThirdPartyFramesPass) {
  EXPECT_FALSE(isBuiltinFrame("com.unity3d.ads.android.cache.b.doInBackground"));
  EXPECT_FALSE(isBuiltinFrame("okhttp3.internal.http.RealInterceptorChain.proceed"));
  EXPECT_FALSE(isBuiltinFrame("com.myapp.net.Fetcher.fetch"));
  // androidx is not android.*
  EXPECT_FALSE(isBuiltinFrame("androidx.core.app.ComponentActivity.onCreate"));
}

TEST(BuiltinFilterTest, AcceptsSmaliSignatures) {
  EXPECT_TRUE(isBuiltinFrame("Landroid/os/AsyncTask$2;->call()Ljava/lang/Object;"));
  EXPECT_FALSE(isBuiltinFrame("Lcom/unity3d/ads/android/cache/b;->a()V"));
}

// ---------------------------------------------------------------------------
// Origin frame selection (Listing 1)
// ---------------------------------------------------------------------------

TEST(OriginFrameTest, Listing1SelectsLine12) {
  // Exact trace from Listing 1, innermost first.
  const std::vector<std::string> trace = {
      "java.net.Socket.connect",
      "com.android.okhttp.internal.Platform.connectSocket",
      "com.android.okhttp.Connection.connectSocket",
      "com.android.okhttp.Connection.connect",
      "com.android.okhttp.Connection.connectAndSetOwner",
      "com.android.okhttp.OkHttpClient$1.connectAndSetOwner",
      "com.android.okhttp.internal.http.HttpEngine.connect",
      "com.android.okhttp.internal.http.HttpEngine.sendRequest",
      "com.android.okhttp.internal.huc.HttpURLConnectionImpl.execute",
      "com.android.okhttp.internal.huc.HttpURLConnectionImpl.connect",
      "com.unity3d.ads.android.cache.b.a",
      "com.unity3d.ads.android.cache.b.doInBackground",  // <- line 12
      "android.os.AsyncTask$2.call",
      "java.util.concurrent.FutureTask.run",
  };
  const auto origin = originFrameIndex(trace);
  ASSERT_TRUE(origin.has_value());
  EXPECT_EQ(*origin, 11u);
  EXPECT_EQ(trace[*origin], "com.unity3d.ads.android.cache.b.doInBackground");
  EXPECT_EQ(packageOfEntry(trace[*origin]), "com.unity3d.ads.android.cache");
}

TEST(OriginFrameTest, AllBuiltinMeansNoOrigin) {
  const std::vector<std::string> trace = {
      "java.net.Socket.connect",
      "com.android.okhttp.internal.Platform.connectSocket",
      "android.os.Handler.dispatchMessage",
      "java.lang.Thread.run",
  };
  EXPECT_FALSE(originFrameIndex(trace).has_value());
}

TEST(OriginFrameTest, EmptyTrace) {
  EXPECT_FALSE(originFrameIndex({}).has_value());
}

TEST(OriginFrameTest, DirectCallPicksOutermostAppFrame) {
  // A synchronous handler call: the chronologically first app method is
  // the UI handler, not the library helper beneath it.
  const std::vector<std::string> trace = {
      "java.net.Socket.connect",
      "okhttp3.internal.connection.RealConnection.connect",
      "com.myapp.net.Api.fetch",
      "com.myapp.ui.MainActivity.onClick",
      "android.view.View.performClick",
  };
  const auto origin = originFrameIndex(trace);
  ASSERT_TRUE(origin.has_value());
  EXPECT_EQ(trace[*origin], "com.myapp.ui.MainActivity.onClick");
}

TEST(EntryHelpersTest, FrameAndPackageFromEitherForm) {
  EXPECT_EQ(frameNameOf("Lcom/foo/Bar;->baz(I)V"), "com.foo.Bar.baz");
  EXPECT_EQ(frameNameOf("com.foo.Bar.baz"), "com.foo.Bar.baz");
  EXPECT_EQ(packageOfEntry("Lcom/foo/Bar;->baz(I)V"), "com.foo");
  EXPECT_EQ(packageOfEntry("com.foo.Bar.baz"), "com.foo");
}

// ---------------------------------------------------------------------------
// End-to-end attribution over a hand-built run
// ---------------------------------------------------------------------------

class AttributorTest : public ::testing::Test {
 protected:
  AttributorTest()
      : corpus_(radar::LibraryCorpus::builtin()),
        categorizer_(vtsim::defaultVendorPanel(),
                     [](const std::string& domain) -> std::string {
                       if (domain.starts_with("ads")) return "advertisements";
                       if (domain.starts_with("cdn")) return "cdn";
                       return "business_and_finance";
                     }),
        attributor_(corpus_, categorizer_) {}

  static net::SocketPair pairWithPort(std::uint16_t srcPort,
                                      net::Ipv4Addr dst = net::Ipv4Addr(198, 18, 0, 5)) {
    return {{net::Ipv4Addr(10, 0, 2, 15), srcPort}, {dst, 443}};
  }

  /// DNS answer + data packets + report for one socket.
  void addFlow(RunArtifacts& run, std::uint16_t srcPort,
               const std::string& domain, net::Ipv4Addr serverIp,
               util::SimTimeMs when, std::uint32_t sentPayload,
               std::uint32_t recvPayload,
               std::vector<std::string> stack) {
    const auto pair = pairWithPort(srcPort, serverIp);
    run.capture.append(net::makeUdpPacket(when - 5, {{net::Ipv4Addr(10, 0, 2, 15), 0},
                                                     {net::Ipv4Addr(10, 0, 2, 3), 53}},
                                          70, 42, domain, serverIp));
    run.capture.append(net::makeTcpPacket(when + 1, pair, sentPayload + 40, sentPayload));
    run.capture.append(
        net::makeTcpPacket(when + 2, pair.reversed(), recvPayload + 40, recvPayload));
    UdpReport report;
    report.apkSha256 = run.apkSha256;
    report.socketPair = pair;
    report.timestampMs = when;
    report.stackSignatures = std::move(stack);
    run.reports.push_back(std::move(report));
  }

  RunArtifacts baseRun() {
    RunArtifacts run;
    run.apkSha256 = "feedface";
    run.packageName = "com.myapp";
    run.appCategory = "GAME_ACTION";
    return run;
  }

  /// Check every flow against an oracle built only from reference pieces:
  /// the naive CaptureFile::streamVolume scan over the flow's connection
  /// window, originFrameIndex, and the reference prefix matchers
  /// (LibraryCorpus::matchCategory and the AnT/common-library lists).
  void expectMatchesReference(const RunArtifacts& run,
                              const std::vector<FlowRecord>& flows) const {
    ASSERT_EQ(flows.size(), run.reports.size());
    for (std::size_t i = 0; i < flows.size(); ++i) {
      SCOPED_TRACE(i);
      const FlowRecord& flow = flows[i];
      // The window opens at the flow's report — 2 s earlier for a connect
      // report, whose handshake precedes the post-hook — and closes just
      // before the next report on the same socket.
      const UdpReport* owner = nullptr;
      util::SimTimeMs to = std::numeric_limits<util::SimTimeMs>::max();
      for (const auto& report : run.reports) {
        if (report.socketPair != flow.socketPair) continue;
        if (report.timestampMs == flow.connectTimeMs)
          owner = &report;
        else if (report.timestampMs > flow.connectTimeMs)
          to = std::min(to, report.timestampMs - 1);
      }
      ASSERT_NE(owner, nullptr);
      const util::SimTimeMs at = owner->timestampMs;
      const util::SimTimeMs from =
          owner->requestOrdinal > 0 ? at : at > 2000 ? at - 2000 : 0;
      const auto volume = run.capture.streamVolume(flow.socketPair, from, to);
      EXPECT_EQ(flow.sentBytes, volume.payloadFromSrc);
      EXPECT_EQ(flow.recvBytes, volume.payloadFromDst);
      EXPECT_EQ(flow.rttMs, volume.rttMs());
      EXPECT_EQ(flow.requestOrdinal, owner->requestOrdinal);

      const auto origin = originFrameIndex(owner->stackSignatures);
      EXPECT_EQ(flow.builtinOrigin, !origin.has_value());
      if (!origin) {
        EXPECT_EQ(flow.originLibrary.view(), "*-" + flow.domainCategory.str());
        EXPECT_EQ(flow.libraryCategory.view(), radar::kUnknownCategory);
        continue;
      }
      const std::string& frame = owner->stackSignatures[*origin];
      std::string library = packageOfEntry(frame);
      if (library.empty()) library = frameNameOf(frame);
      EXPECT_EQ(flow.originSignature.view(), frame);
      EXPECT_EQ(flow.originLibrary.view(), library);
      EXPECT_EQ(flow.twoLevelLibrary.view(), util::prefixLevels(library, 2));
      EXPECT_EQ(flow.libraryCategory.view(),
                corpus_.matchCategory(library).category);
      EXPECT_EQ(flow.antOrigin, radar::antLibraries().matches(library));
      EXPECT_EQ(flow.commonOrigin, radar::commonLibraries().matches(library));
    }
  }

  const std::vector<std::string> kAdStack = {
      "java.net.Socket.connect",
      "com.android.okhttp.internal.Platform.connectSocket",
      "Lcom/unity3d/ads/android/cache/b;->a(Ljava/lang/String;)V",
      "Lcom/unity3d/ads/android/cache/b;->doInBackground([Ljava/lang/String;)V",
      "android.os.AsyncTask$2.call",
      "java.util.concurrent.FutureTask.run"};

  radar::LibraryCorpus corpus_;
  vtsim::DomainCategorizer categorizer_;
  TrafficAttributor attributor_;
};

TEST_F(AttributorTest, AttributesListing1FlowCompletely) {
  auto run = baseRun();
  addFlow(run, 40000, "ads1.unityads.com", net::Ipv4Addr(198, 18, 0, 5), 1000,
          500, 18000, kAdStack);
  const auto flows = attributor_.attribute(run);
  ASSERT_EQ(flows.size(), 1u);
  const FlowRecord& flow = flows[0];
  EXPECT_EQ(flow.originLibrary, "com.unity3d.ads.android.cache");
  EXPECT_EQ(flow.twoLevelLibrary, "com.unity3d");
  EXPECT_EQ(flow.libraryCategory, "Advertisement");
  EXPECT_TRUE(flow.antOrigin);
  EXPECT_FALSE(flow.builtinOrigin);
  EXPECT_EQ(flow.domain, "ads1.unityads.com");
  EXPECT_EQ(flow.sentBytes, 500u);
  EXPECT_EQ(flow.recvBytes, 18000u);
  EXPECT_EQ(flow.appCategory, "GAME_ACTION");
}

TEST_F(AttributorTest, BuiltinOnlyStackBecomesStarLibrary) {
  auto run = baseRun();
  addFlow(run, 40001, "ads2.exchange.com", net::Ipv4Addr(198, 18, 0, 6), 2000,
          300, 9000,
          {"java.net.Socket.connect", "android.webkit.WebViewClient.onLoadResource",
           "java.lang.Thread.run"});
  const auto flows = attributor_.attribute(run);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_TRUE(flows[0].builtinOrigin);
  EXPECT_EQ(flows[0].libraryCategory, "Unknown");
  // Fig. 3's "*-Advertisement" convention (when the vote lands on ads).
  EXPECT_TRUE(flows[0].originLibrary.view().starts_with("*-"));
}

TEST_F(AttributorTest, FirstPartyOriginPredictsUnknownCategory) {
  auto run = baseRun();
  addFlow(run, 40002, "api7.backend.com", net::Ipv4Addr(198, 18, 0, 7), 3000,
          400, 5000,
          {"java.net.Socket.connect",
           "Lcom/myapp/net/Api;->fetch()V",
           "Lcom/myapp/ui/Main;->onClick(Landroid/view/View;)V"});
  const auto flows = attributor_.attribute(run);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].originLibrary, "com.myapp.ui");
  EXPECT_EQ(flows[0].libraryCategory, "Unknown");
  EXPECT_FALSE(flows[0].antOrigin);
}

TEST_F(AttributorTest, PortReuseDisambiguatedByTime) {
  // Two different sockets reuse the identical socket pair; each report must
  // only absorb its own window's packets (§III-E: counted separately).
  auto run = baseRun();
  addFlow(run, 41000, "ads3.net.com", net::Ipv4Addr(198, 18, 0, 8), 10000, 500,
          7000, kAdStack);
  addFlow(run, 41000, "ads3.net.com", net::Ipv4Addr(198, 18, 0, 8), 50000, 600,
          9000, kAdStack);
  const auto flows = attributor_.attribute(run);
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows[0].sentBytes, 500u);
  EXPECT_EQ(flows[0].recvBytes, 7000u);
  EXPECT_EQ(flows[1].sentBytes, 600u);
  EXPECT_EQ(flows[1].recvBytes, 9000u);
}

TEST_F(AttributorTest, DomainIsMostRecentResolutionForIp) {
  // Two domains resolve to one CDN address at different times; the flow
  // after the second resolution belongs to the second domain.
  auto run = baseRun();
  const auto cdnIp = net::Ipv4Addr(198, 18, 0, 9);
  run.capture.append(net::makeUdpPacket(
      100, {{net::Ipv4Addr(10, 0, 2, 15), 0}, {net::Ipv4Addr(10, 0, 2, 3), 53}},
      70, 42, "cdnA.edge.net", cdnIp));
  run.capture.append(net::makeUdpPacket(
      500, {{net::Ipv4Addr(10, 0, 2, 15), 0}, {net::Ipv4Addr(10, 0, 2, 3), 53}},
      70, 42, "cdnB.edge.net", cdnIp));
  const auto pair = pairWithPort(42000, cdnIp);
  run.capture.append(net::makeTcpPacket(1001, pair, 140, 100));
  UdpReport report;
  report.apkSha256 = run.apkSha256;
  report.socketPair = pair;
  report.timestampMs = 1000;
  report.stackSignatures = kAdStack;
  run.reports.push_back(report);

  const auto flows = attributor_.attribute(run);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].domain, "cdnB.edge.net");
  EXPECT_EQ(flows[0].domainCategory, "cdn");
}

TEST_F(AttributorTest, UnresolvedIpHasEmptyDomainUnknownCategory) {
  auto run = baseRun();
  const auto pair = pairWithPort(43000, net::Ipv4Addr(203, 0, 113, 1));
  run.capture.append(net::makeTcpPacket(1001, pair, 140, 100));
  UdpReport report;
  report.apkSha256 = run.apkSha256;
  report.socketPair = pair;
  report.timestampMs = 1000;
  report.stackSignatures = kAdStack;
  run.reports.push_back(report);

  const auto flows = attributor_.attribute(run);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_TRUE(flows[0].domain.empty());
  EXPECT_EQ(flows[0].domainCategory, vtsim::kUnknownDomainCategory);
}

TEST_F(AttributorTest, CommonLibraryFlagSet) {
  auto run = baseRun();
  addFlow(run, 44000, "api8.backend.com", net::Ipv4Addr(198, 18, 0, 10), 1500,
          300, 2000,
          {"java.net.Socket.connect",
           "Lokhttp3/internal/http/RealInterceptorChain;->proceed()V",
           "android.os.AsyncTask$2.call"});
  const auto flows = attributor_.attribute(run);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].originLibrary, "okhttp3.internal.http");
  EXPECT_EQ(flows[0].libraryCategory, "Development Aid");
  EXPECT_TRUE(flows[0].commonOrigin);
  EXPECT_FALSE(flows[0].antOrigin);
}

TEST_F(AttributorTest, FlowsSortedByConnectTime) {
  auto run = baseRun();
  addFlow(run, 45001, "ads4.x.com", net::Ipv4Addr(198, 18, 0, 11), 9000, 1, 1,
          kAdStack);
  addFlow(run, 45000, "ads4.x.com", net::Ipv4Addr(198, 18, 0, 11), 1000, 1, 1,
          kAdStack);
  const auto flows = attributor_.attribute(run);
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_LT(flows[0].connectTimeMs, flows[1].connectTimeMs);
}

TEST_F(AttributorTest, EmptyRunYieldsNoFlows) {
  EXPECT_TRUE(attributor_.attribute(baseRun()).empty());
}

TEST_F(AttributorTest, OutOfOrderHttpExchangesPickChronologicalHost) {
  // Regression: the DPI pass emits exchanges per stream, so the capture's
  // exchange log is not globally time-sorted. hostFor must return the
  // chronologically first in-window exchange, not the first one appended.
  auto run = baseRun();
  const auto pair = pairWithPort(46000, net::Ipv4Addr(198, 18, 0, 12));
  run.capture.append(net::makeTcpPacket(1001, pair, 140, 100));
  UdpReport report;
  report.apkSha256 = run.apkSha256;
  report.socketPair = pair;
  report.timestampMs = 1000;
  report.stackSignatures = kAdStack;
  run.reports.push_back(report);

  net::HttpExchange late;
  late.timestampMs = 5000;
  late.pair = pair;
  late.host = "late.example.com";
  net::HttpExchange early;
  early.timestampMs = 1200;
  early.pair = pair;
  early.host = "early.example.com";
  run.capture.appendHttp(late);   // appended first, happened later
  run.capture.appendHttp(early);

  const auto flows = attributor_.attribute(run);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].domain, "early.example.com");
}

TEST_F(AttributorTest, IndexedAndNaivePathsAgreeExactly) {
  // The capture index, the frame cache and the compiled program are pure
  // accelerations: flows must match the naive scan and the reference
  // matchers field for field, including on port-reuse windows.
  auto run = baseRun();
  addFlow(run, 47000, "ads5.y.com", net::Ipv4Addr(198, 18, 0, 13), 1000, 500,
          7000, kAdStack);
  addFlow(run, 47000, "ads5.y.com", net::Ipv4Addr(198, 18, 0, 13), 40000, 600,
          9000, kAdStack);
  addFlow(run, 47001, "api9.backend.com", net::Ipv4Addr(198, 18, 0, 14), 2000,
          400, 5000,
          {"java.net.Socket.connect", "Lcom/myapp/net/Api;->fetch()V",
           "Lcom/myapp/ui/Main;->onClick(Landroid/view/View;)V"});

  const auto flows = attributor_.attribute(run);
  expectMatchesReference(run, flows);
  // Domains come from the DNS answers laid down with each socket.
  ASSERT_EQ(flows.size(), 3u);
  EXPECT_EQ(flows[0].domain, "ads5.y.com");
  EXPECT_EQ(flows[0].domainCategory, "advertisements");
  EXPECT_EQ(flows[1].domain, "api9.backend.com");
  EXPECT_EQ(flows[1].domainCategory, "business_and_finance");
  EXPECT_EQ(flows[2].domain, "ads5.y.com");
  EXPECT_EQ(flows[2].domainCategory, "advertisements");
}

// ---------------------------------------------------------------------------
// Keep-alive request boundaries (§14): one socket, many logical requests
// from different call stacks.
// ---------------------------------------------------------------------------

class KeepAliveAttributorTest : public AttributorTest {
 protected:
  /// A connect report (ordinal 0) without the DNS/packet scaffolding of
  /// addFlow — boundary tests lay out their own packets.
  void addFlowReport(RunArtifacts& run, const net::SocketPair& pair,
                     util::SimTimeMs when, std::vector<std::string> stack) {
    UdpReport report;
    report.apkSha256 = run.apkSha256;
    report.socketPair = pair;
    report.timestampMs = when;
    report.stackSignatures = std::move(stack);
    run.reports.push_back(std::move(report));
  }

  /// A boundary report: the supervisor's request-boundary hook fired on an
  /// already-open socket (ordinal >= 1), stamped strictly after the
  /// previous request's last packet.
  void addBoundary(RunArtifacts& run, const net::SocketPair& pair,
                   util::SimTimeMs when, std::uint32_t ordinal,
                   std::vector<std::string> stack) {
    UdpReport report;
    report.apkSha256 = run.apkSha256;
    report.socketPair = pair;
    report.timestampMs = when;
    report.requestOrdinal = ordinal;
    report.stackSignatures = std::move(stack);
    run.reports.push_back(std::move(report));
  }

  const std::vector<std::string> kAnalyticsStack = {
      "java.net.Socket.connect",
      "com.android.okhttp.internal.http.HttpEngine.sendRequest",
      "Lcom/flurry/android/monolithic/sdk/impl/b;->a(Ljava/lang/String;)V",
      "Lcom/flurry/android/monolithic/sdk/impl/b;->doInBackground([Ljava/lang/String;)V",
      "android.os.AsyncTask$2.call"};
};

TEST_F(KeepAliveAttributorTest, SplitsOneSocketAcrossTwoLibraries) {
  // Request 0 (ads) opens the socket; request 1 (analytics) reuses it.
  // Attribution must yield two flows on the SAME socket pair, each owning
  // exactly its window's bytes, and the per-request totals must sum to the
  // whole capture.
  auto run = baseRun();
  const auto pair = pairWithPort(50000, net::Ipv4Addr(198, 18, 0, 20));
  run.capture.append(net::makeTcpPacket(1001, pair, 540, 500));
  run.capture.append(net::makeTcpPacket(1010, pair.reversed(), 7040, 7000));
  // Boundary stamped after every packet of request 0.
  run.capture.append(net::makeTcpPacket(2001, pair, 340, 300));
  run.capture.append(net::makeTcpPacket(2010, pair.reversed(), 2040, 2000));
  addFlowReport(run, pair, 1000, kAdStack);
  addBoundary(run, pair, 2000, 1, kAnalyticsStack);

  const auto flows = attributor_.attribute(run);
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows[0].originLibrary, "com.unity3d.ads.android.cache");
  EXPECT_EQ(flows[0].requestOrdinal, 0u);
  EXPECT_EQ(flows[0].sentBytes, 500u);
  EXPECT_EQ(flows[0].recvBytes, 7000u);
  EXPECT_EQ(flows[1].originLibrary, "com.flurry.android.monolithic.sdk.impl");
  EXPECT_EQ(flows[1].requestOrdinal, 1u);
  EXPECT_EQ(flows[1].sentBytes, 300u);
  EXPECT_EQ(flows[1].recvBytes, 2000u);
  EXPECT_EQ(flows[0].socketPair, flows[1].socketPair);
  EXPECT_EQ(flows[0].sentBytes + flows[0].recvBytes + flows[1].sentBytes +
                flows[1].recvBytes,
            run.capture.totalTcpPayloadBytes());
  // Per-request RTT: each window measures its own request->response gap.
  EXPECT_EQ(flows[0].rttMs, 9u);
  EXPECT_EQ(flows[1].rttMs, 9u);
}

TEST_F(KeepAliveAttributorTest, BoundaryAtASegmentSplitIsExact) {
  // The last segment of request 0 lands at boundary-1 and the first of
  // request 1 exactly at the boundary timestamp: no byte may be counted
  // twice or dropped.
  auto run = baseRun();
  const auto pair = pairWithPort(50001, net::Ipv4Addr(198, 18, 0, 21));
  run.capture.append(net::makeTcpPacket(1001, pair, 640, 600));
  run.capture.append(net::makeTcpPacket(1999, pair, 940, 900));  // last of 0
  run.capture.append(net::makeTcpPacket(2000, pair, 340, 300));  // first of 1
  addFlowReport(run, pair, 1000, kAdStack);
  addBoundary(run, pair, 2000, 1, kAnalyticsStack);

  const auto flows = attributor_.attribute(run);
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows[0].sentBytes, 1500u);
  EXPECT_EQ(flows[1].sentBytes, 300u);
  EXPECT_EQ(flows[0].sentBytes + flows[1].sentBytes,
            run.capture.totalTcpPayloadBytes());
}

TEST_F(KeepAliveAttributorTest, ZeroByteRequestYieldsAnEmptyFlow) {
  // A reused request that transferred nothing (cache hit / suppressed
  // send) still reported a boundary: it must surface as a zero-byte flow,
  // not absorb the neighbouring requests' bytes.
  auto run = baseRun();
  const auto pair = pairWithPort(50002, net::Ipv4Addr(198, 18, 0, 22));
  run.capture.append(net::makeTcpPacket(1001, pair, 540, 500));
  // Request 1's window [2000, 2999] is silent.
  run.capture.append(net::makeTcpPacket(3001, pair, 340, 300));
  addFlowReport(run, pair, 1000, kAdStack);
  addBoundary(run, pair, 2000, 1, kAnalyticsStack);
  addBoundary(run, pair, 3000, 2, kAdStack);

  const auto flows = attributor_.attribute(run);
  ASSERT_EQ(flows.size(), 3u);
  EXPECT_EQ(flows[1].sentBytes, 0u);
  EXPECT_EQ(flows[1].recvBytes, 0u);
  EXPECT_EQ(flows[1].rttMs, 0u);
  EXPECT_EQ(flows[0].sentBytes + flows[2].sentBytes,
            run.capture.totalTcpPayloadBytes());
}

TEST_F(KeepAliveAttributorTest, InterleavedResponsesConserveBytes) {
  // Request 0's response is still streaming when request 1 opens; windows
  // split by time, so the late bytes land in request 1's flow — the
  // invariant is conservation, not per-request purity (the capture cannot
  // attribute a byte to a logical request, only to a moment).
  auto run = baseRun();
  const auto pair = pairWithPort(50003, net::Ipv4Addr(198, 18, 0, 23));
  run.capture.append(net::makeTcpPacket(1001, pair, 240, 200));
  run.capture.append(net::makeTcpPacket(2001, pair, 440, 400));
  run.capture.append(net::makeTcpPacket(2010, pair.reversed(), 1040, 1000));
  run.capture.append(net::makeTcpPacket(2020, pair.reversed(), 2040, 2000));
  addFlowReport(run, pair, 1000, kAdStack);
  addBoundary(run, pair, 2000, 1, kAnalyticsStack);

  const auto flows = attributor_.attribute(run);
  ASSERT_EQ(flows.size(), 2u);
  std::uint64_t total = 0;
  for (const auto& flow : flows) total += flow.sentBytes + flow.recvBytes;
  EXPECT_EQ(total, run.capture.totalTcpPayloadBytes());
}

TEST_F(KeepAliveAttributorTest, FinMidRequestLeavesPayloadAlone) {
  // The pooled teardown FINs the socket after the last request; header-only
  // segments inside the final window add no data transfer.
  auto run = baseRun();
  const auto pair = pairWithPort(50004, net::Ipv4Addr(198, 18, 0, 24));
  run.capture.append(net::makeTcpPacket(1001, pair, 540, 500));
  run.capture.append(net::makeTcpPacket(2001, pair, 340, 300));
  run.capture.append(net::makeTcpPacket(2100, pair, 40, 0));             // FIN
  run.capture.append(net::makeTcpPacket(2101, pair.reversed(), 40, 0));  // ACK
  addFlowReport(run, pair, 1000, kAdStack);
  addBoundary(run, pair, 2000, 1, kAnalyticsStack);

  const auto flows = attributor_.attribute(run);
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows[1].sentBytes, 300u);
  EXPECT_EQ(flows[1].recvBytes, 0u);
  EXPECT_EQ(flows[0].sentBytes + flows[1].sentBytes,
            run.capture.totalTcpPayloadBytes());
}

TEST_F(KeepAliveAttributorTest, PerRequestHostsFollowTheirWindows) {
  // Regression for the one-logical-request-per-socket assumption in host
  // correlation: each reused request carries its own Host header, and each
  // flow must pick the exchange from ITS window, not the socket's first.
  auto run = baseRun();
  const auto pair = pairWithPort(50005, net::Ipv4Addr(198, 18, 0, 25));
  run.capture.append(net::makeTcpPacket(1001, pair, 240, 200));
  run.capture.append(net::makeTcpPacket(2001, pair, 240, 200));
  net::HttpExchange first;
  first.timestampMs = 1001;
  first.pair = pair;
  first.host = "ads6.first.com";
  net::HttpExchange second;
  second.timestampMs = 2001;
  second.pair = pair;
  second.host = "ads7.second.com";
  run.capture.appendHttp(first);
  run.capture.appendHttp(second);
  addFlowReport(run, pair, 1000, kAdStack);
  addBoundary(run, pair, 2000, 1, kAnalyticsStack);

  const auto flows = attributor_.attribute(run);
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows[0].domain, "ads6.first.com");
  EXPECT_EQ(flows[1].domain, "ads7.second.com");
}

TEST_F(KeepAliveAttributorTest, BoundaryReportStillResolvesDnsDomain) {
  // Regression: a boundary report's window starts at the boundary, long
  // after the DNS answer that resolved the server. The DNS fallback keys
  // on most-recent-resolution-at-report-time, not on the window.
  auto run = baseRun();
  const auto serverIp = net::Ipv4Addr(198, 18, 0, 26);
  const auto pair = pairWithPort(50006, serverIp);
  run.capture.append(net::makeUdpPacket(
      500, {{net::Ipv4Addr(10, 0, 2, 15), 0}, {net::Ipv4Addr(10, 0, 2, 3), 53}},
      70, 42, "cdn9.pool.net", serverIp));
  run.capture.append(net::makeTcpPacket(1001, pair, 240, 200));
  run.capture.append(net::makeTcpPacket(2001, pair, 240, 200));
  addFlowReport(run, pair, 1000, kAdStack);
  addBoundary(run, pair, 2000, 1, kAnalyticsStack);

  const auto flows = attributor_.attribute(run);
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows[0].domain, "cdn9.pool.net");
  EXPECT_EQ(flows[1].domain, "cdn9.pool.net");
}

TEST_F(KeepAliveAttributorTest, IndexedAndNaivePathsAgreeOnBoundaries) {
  // The capture index answers boundary windows exactly like the naive
  // scan, ordinals and RTT included, and each request keeps its own
  // origin.
  auto run = baseRun();
  const auto pair = pairWithPort(50007, net::Ipv4Addr(198, 18, 0, 27));
  run.capture.append(net::makeTcpPacket(1001, pair, 540, 500));
  run.capture.append(net::makeTcpPacket(1010, pair.reversed(), 840, 800));
  run.capture.append(net::makeTcpPacket(2001, pair, 340, 300));
  run.capture.append(net::makeTcpPacket(2015, pair.reversed(), 640, 600));
  addFlowReport(run, pair, 1000, kAdStack);
  addBoundary(run, pair, 2000, 1, kAnalyticsStack);

  const auto flows = attributor_.attribute(run);
  expectMatchesReference(run, flows);
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows[0].requestOrdinal, 0u);
  EXPECT_EQ(flows[1].requestOrdinal, 1u);
  EXPECT_NE(flows[0].originLibrary, flows[1].originLibrary);
}

}  // namespace
}  // namespace libspector::core
