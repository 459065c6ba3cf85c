// FlowColumns (SoA flow batches) and the columnar StudyAggregator fold:
// row(i) must reconstruct the row batch exactly, attributeColumns must
// carry the same flows as attribute, and a study folded columnar must
// render the bytes the retired row-at-a-time fold rendered (pinned).
#include "core/attribution.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "core/export.hpp"
#include "util/bytes.hpp"
#include "vtsim/categorizer.hpp"

namespace libspector::core {
namespace {

/// Size and FNV-64 of renderStudy() over makeRun(0..3) as the retired
/// row-at-a-time FlowRecord fold rendered it, recorded before that fold
/// was removed.
constexpr std::size_t kRowFoldStudyBytes = 3162;
constexpr std::uint64_t kRowFoldStudyDigest = 0xf80f80f7659eca5fULL;

void expectSameFlow(const FlowRecord& a, const FlowRecord& b) {
  EXPECT_EQ(a.apkSha256.view(), b.apkSha256.view());
  EXPECT_EQ(a.appPackage.view(), b.appPackage.view());
  EXPECT_EQ(a.appCategory.view(), b.appCategory.view());
  EXPECT_EQ(a.originLibrary.view(), b.originLibrary.view());
  EXPECT_EQ(a.originSignature.view(), b.originSignature.view());
  EXPECT_EQ(a.twoLevelLibrary.view(), b.twoLevelLibrary.view());
  EXPECT_EQ(a.libraryCategory.view(), b.libraryCategory.view());
  EXPECT_EQ(a.builtinOrigin, b.builtinOrigin);
  EXPECT_EQ(a.antOrigin, b.antOrigin);
  EXPECT_EQ(a.commonOrigin, b.commonOrigin);
  EXPECT_EQ(a.domain.view(), b.domain.view());
  EXPECT_EQ(a.domainCategory.view(), b.domainCategory.view());
  EXPECT_EQ(a.socketPair, b.socketPair);
  EXPECT_EQ(a.connectTimeMs, b.connectTimeMs);
  EXPECT_EQ(a.sentBytes, b.sentBytes);
  EXPECT_EQ(a.recvBytes, b.recvBytes);
}

/// Render every figure CSV plus the report — the same byte surface the
/// study tests compare — so "identical study" means identical output.
[[nodiscard]] std::string renderStudy(const StudyAggregator& study) {
  std::ostringstream out;
  writeFig2Csv(study, out);
  writeTopLibrariesCsv(study, 25, out);
  writeCdfCsv(study, out);
  writeFlowRatiosCsv(study, out);
  writeAntSharesCsv(study, out);
  writeCategoryAveragesCsv(study, out);
  writeHeatmapCsv(study, out);
  writeCoverageCsv(study, out);
  writeStudyReport(study, out);
  return out.str();
}

class FlowColumnsTest : public ::testing::Test {
 protected:
  FlowColumnsTest()
      : corpus_(radar::LibraryCorpus::builtin()),
        categorizer_(vtsim::defaultVendorPanel(),
                     [](const std::string& domain) -> std::string {
                       if (domain.starts_with("ads")) return "advertisements";
                       if (domain.starts_with("cdn")) return "cdn";
                       return "business_and_finance";
                     }),
        attributor_(corpus_, categorizer_) {}

  static net::SocketPair pairWithPort(std::uint16_t srcPort,
                                      net::Ipv4Addr dst) {
    return {{net::Ipv4Addr(10, 0, 2, 15), srcPort}, {dst, 443}};
  }

  /// DNS answer + data packets + report for one socket (the
  /// attribution_test recipe).
  void addFlow(RunArtifacts& run, std::uint16_t srcPort,
               const std::string& domain, net::Ipv4Addr serverIp,
               util::SimTimeMs when, std::uint32_t sentPayload,
               std::uint32_t recvPayload, std::vector<std::string> stack) {
    const auto pair = pairWithPort(srcPort, serverIp);
    run.capture.append(net::makeUdpPacket(
        when - 5,
        {{net::Ipv4Addr(10, 0, 2, 15), 0}, {net::Ipv4Addr(10, 0, 2, 3), 53}},
        70, 42, domain, serverIp));
    run.capture.append(
        net::makeTcpPacket(when + 1, pair, sentPayload + 40, sentPayload));
    run.capture.append(net::makeTcpPacket(when + 2, pair.reversed(),
                                          recvPayload + 40, recvPayload));
    UdpReport report;
    report.apkSha256 = run.apkSha256;
    report.socketPair = pair;
    report.timestampMs = when;
    report.stackSignatures = std::move(stack);
    run.reports.push_back(std::move(report));
  }

  /// One app run mixing every origin kind the fold distinguishes: AnT
  /// library, common library, first-party, and a fully built-in stack.
  RunArtifacts makeRun(int appIndex) {
    RunArtifacts run;
    run.apkSha256 = "sha" + std::to_string(appIndex);
    run.packageName = "com.app" + std::to_string(appIndex);
    run.appCategory = appIndex % 2 == 0 ? "GAME_ACTION" : "SOCIAL";
    const auto base = static_cast<std::uint16_t>(40000 + appIndex * 16);
    const auto serverA = net::Ipv4Addr(198, 18, 0, std::uint8_t(10 + appIndex));
    const auto serverB = net::Ipv4Addr(198, 18, 1, std::uint8_t(10 + appIndex));
    addFlow(run, base, "ads1.unityads.com", serverA, 1000,
            500 + appIndex, 18000, kAdStack);
    addFlow(run, base + 1, "cdn2.edge.net", serverB, 2000, 300,
            9000 + appIndex,
            {"java.net.Socket.connect",
             "Lokhttp3/internal/http/RealInterceptorChain;->proceed()V",
             "android.os.AsyncTask$2.call"});
    addFlow(run, base + 2, "api3.backend.com", serverA, 3000, 400, 5000,
            {"java.net.Socket.connect", "Lcom/myapp/net/Api;->fetch()V",
             "Lcom/myapp/ui/Main;->onClick(Landroid/view/View;)V"});
    addFlow(run, base + 3, "ads4.exchange.com", serverB, 4000, 300, 9000,
            {"java.net.Socket.connect",
             "android.webkit.WebViewClient.onLoadResource",
             "java.lang.Thread.run"});
    return run;
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

TEST_F(FlowColumnsTest, FromRowsRoundTripsEveryRow) {
  const auto run = makeRun(0);
  const std::vector<FlowRecord> flows = attributor_.attribute(run);
  ASSERT_EQ(flows.size(), 4u);
  // The batch covers built-in origins (kNoId signature column) and all
  // three flag bits.
  const FlowColumns columns =
      FlowColumns::fromRows(flows, attributor_.symbols());
  ASSERT_EQ(columns.size(), flows.size());
  EXPECT_EQ(columns.pool, &attributor_.symbols());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    SCOPED_TRACE(i);
    expectSameFlow(columns.row(i), flows[i]);
  }
}

TEST_F(FlowColumnsTest, FlagsColumnPacksTheOriginBooleans) {
  const auto run = makeRun(0);
  const std::vector<FlowRecord> flows = attributor_.attribute(run);
  const FlowColumns columns =
      FlowColumns::fromRows(flows, attributor_.symbols());
  ASSERT_EQ(columns.size(), flows.size());
  bool sawBuiltin = false, sawAnt = false, sawCommon = false;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ((columns.flags[i] & FlowColumns::kBuiltinOrigin) != 0,
              flows[i].builtinOrigin);
    EXPECT_EQ((columns.flags[i] & FlowColumns::kAntOrigin) != 0,
              flows[i].antOrigin);
    EXPECT_EQ((columns.flags[i] & FlowColumns::kCommonOrigin) != 0,
              flows[i].commonOrigin);
    if (flows[i].builtinOrigin) {
      sawBuiltin = true;
      EXPECT_EQ(columns.originSignature[i], util::Symbol::kNoId);
    }
    sawAnt |= flows[i].antOrigin;
    sawCommon |= flows[i].commonOrigin;
  }
  EXPECT_TRUE(sawBuiltin);
  EXPECT_TRUE(sawAnt);
  EXPECT_TRUE(sawCommon);
}

TEST_F(FlowColumnsTest, AttributeColumnsMatchesRowAttribution) {
  for (int app = 0; app < 3; ++app) {
    const auto run = makeRun(app);
    const std::vector<FlowRecord> flows = attributor_.attribute(run);
    const FlowColumns columns = attributor_.attributeColumns(run);
    ASSERT_EQ(columns.size(), flows.size());
    for (std::size_t i = 0; i < flows.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "app " << app << " flow " << i);
      expectSameFlow(columns.row(i), flows[i]);
    }
  }
}

TEST_F(FlowColumnsTest, EmptyRunYieldsEmptyColumns) {
  RunArtifacts run;
  run.apkSha256 = "deadbeef";
  run.packageName = "com.empty";
  run.appCategory = "SOCIAL";
  const FlowColumns columns = attributor_.attributeColumns(run);
  EXPECT_EQ(columns.size(), 0u);
}

TEST_F(FlowColumnsTest, ColumnarFoldRendersIdenticallyToRowFold) {
  StudyAggregator study;
  for (int app = 0; app < 4; ++app) {
    const auto run = makeRun(app);
    study.addAppColumns(run, attributor_.attributeColumns(run));
  }
  const std::string rendered = renderStudy(study);
  EXPECT_EQ(rendered.size(), kRowFoldStudyBytes);
  EXPECT_EQ(util::fnv1a64(rendered), kRowFoldStudyDigest);
}

TEST_F(FlowColumnsTest, AccumulatorRestoresDispatchOrder) {
  // Out-of-order delivery must fold in dispatch order and land on the same
  // bytes as the sequential fold.
  StudyAggregator study;
  StudyAccumulator accumulator(study);
  for (const std::size_t job : {2u, 0u, 3u, 1u}) {
    auto run = makeRun(static_cast<int>(job));
    auto columns = attributor_.attributeColumns(run);
    accumulator.addColumns(job, std::move(run), std::move(columns));
  }
  accumulator.finish();
  EXPECT_EQ(accumulator.appsFolded(), 4u);
  EXPECT_EQ(accumulator.pendingCount(), 0u);
  EXPECT_EQ(util::fnv1a64(renderStudy(study)), kRowFoldStudyDigest);
}

}  // namespace
}  // namespace libspector::core
