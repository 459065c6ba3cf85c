#include "core/analysis.hpp"

#include "core/supervisor.hpp"

#include <gtest/gtest.h>

namespace libspector::core {
namespace {

// Backs the test flows' symbols; static so every FlowRecord built here
// stays valid for the whole test binary (mirrors the attributor's pool).
util::SymbolPool& testPool() {
  static util::SymbolPool pool;
  return pool;
}

util::Symbol sym(std::string_view text) { return testPool().intern(text); }

FlowColumns columns(const std::vector<FlowRecord>& flows) {
  return FlowColumns::fromRows(flows, testPool());
}

FlowRecord flow(const std::string& app, const std::string& appCategory,
                const std::string& library, const std::string& libCategory,
                const std::string& domain, const std::string& domainCategory,
                std::uint64_t sent, std::uint64_t recv, bool ant = false,
                bool common = false) {
  FlowRecord record;
  record.apkSha256 = sym(app);
  record.appPackage = sym(app);
  record.appCategory = sym(appCategory);
  record.originLibrary = sym(library);
  record.twoLevelLibrary =
      sym(library.substr(0, library.find('.', library.find('.') + 1)));
  record.libraryCategory = sym(libCategory);
  record.domain = sym(domain);
  record.domainCategory = sym(domainCategory);
  record.sentBytes = sent;
  record.recvBytes = recv;
  record.antOrigin = ant;
  record.commonOrigin = common;
  return record;
}

RunArtifacts appRun(const std::string& sha, const std::string& category,
                    double coverage = 0.1, std::size_t totalMethods = 1000) {
  RunArtifacts run;
  run.apkSha256 = sha;
  run.packageName = sha;
  run.appCategory = category;
  run.coverage.totalMethods = totalMethods;
  run.coverage.coveredMethods =
      static_cast<std::size_t>(coverage * static_cast<double>(totalMethods));
  return run;
}

class AnalysisTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // App 1 (game): one ad flow, one engine flow.
    const std::vector<FlowRecord> app1 = {
        flow("app1", "GAME_ACTION", "com.unity3d.ads.cache", "Advertisement",
             "ads1.com", "advertisements", 100, 10000, /*ant=*/true),
        flow("app1", "GAME_ACTION", "com.unity3d.player", "Game Engine",
             "cdn1.net", "cdn", 200, 40000, false, /*common=*/true),
    };
    // App 2 (news): one first-party flow only.
    const std::vector<FlowRecord> app2 = {
        flow("app2", "NEWS_AND_MAGAZINES", "com.news.app.net", "Unknown",
             "api1.com", "business_and_finance", 50, 500),
    };
    // App 3 (tools): AnT-only traffic.
    const std::vector<FlowRecord> app3 = {
        flow("app3", "TOOLS", "com.unity3d.ads.cache", "Advertisement",
             "ads1.com", "advertisements", 10, 900, /*ant=*/true),
    };
    // App 4: no traffic at all.
    aggregator_.addAppColumns(appRun("app1", "GAME_ACTION", 0.20, 1000),
                              columns(app1));
    aggregator_.addAppColumns(appRun("app2", "NEWS_AND_MAGAZINES", 0.05, 2000),
                              columns(app2));
    aggregator_.addAppColumns(appRun("app3", "TOOLS", 0.10, 3000),
                              columns(app3));
    aggregator_.addAppColumns(appRun("app4", "TOOLS", 0.01, 4000), {});
  }

  StudyAggregator aggregator_;
};

TEST_F(AnalysisTest, Totals) {
  const auto totals = aggregator_.totals();
  EXPECT_EQ(totals.appCount, 4u);
  EXPECT_EQ(totals.flowCount, 4u);
  EXPECT_EQ(totals.sentBytes, 360u);
  EXPECT_EQ(totals.recvBytes, 51400u);
  EXPECT_EQ(totals.totalBytes, 51760u);
  EXPECT_EQ(totals.originLibraryCount, 3u);  // unity3d.ads.cache shared
  EXPECT_EQ(totals.domainCount, 3u);
}

TEST_F(AnalysisTest, TransferByLibCategory) {
  const auto byCategory = aggregator_.transferByLibCategory();
  EXPECT_EQ(byCategory.at("Advertisement"), 100u + 10000u + 10u + 900u);
  EXPECT_EQ(byCategory.at("Game Engine"), 40200u);
  EXPECT_EQ(byCategory.at("Unknown"), 550u);
}

TEST_F(AnalysisTest, Fig2Matrix) {
  const auto& matrix = aggregator_.transferByAppAndLibCategory();
  EXPECT_EQ(matrix.at("GAME_ACTION").at("Advertisement"), 10100u);
  EXPECT_EQ(matrix.at("GAME_ACTION").at("Game Engine"), 40200u);
  EXPECT_EQ(matrix.at("TOOLS").at("Advertisement"), 910u);
  EXPECT_FALSE(matrix.contains("FINANCE"));
}

TEST_F(AnalysisTest, TopLibraries) {
  const auto top = aggregator_.topOriginLibraries(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].name, "com.unity3d.player");
  EXPECT_EQ(top[0].bytes, 40200u);
  EXPECT_EQ(top[1].name, "com.unity3d.ads.cache");
  EXPECT_EQ(top[1].bytes, 11010u);

  const auto twoLevel = aggregator_.topTwoLevelLibraries(1);
  ASSERT_EQ(twoLevel.size(), 1u);
  EXPECT_EQ(twoLevel[0].name, "com.unity3d");
  EXPECT_EQ(twoLevel[0].bytes, 40200u + 11010u);
}

TEST_F(AnalysisTest, FlowRatios) {
  const auto appRatios = aggregator_.flowRatios(StudyAggregator::Entity::App);
  // app4 has no traffic -> skipped; three ratios remain, sorted.
  ASSERT_EQ(appRatios.ratios.size(), 3u);
  EXPECT_NEAR(appRatios.ratios[0], 10.0, 1e-9);                    // app2 500/50
  EXPECT_NEAR(appRatios.ratios[1], 90.0, 1e-9);                    // app3 900/10
  EXPECT_NEAR(appRatios.ratios.back(), 50000.0 / 300.0, 1e-9);     // app1
  const double expectedMean = (50000.0 / 300.0 + 10.0 + 90.0) / 3.0;
  EXPECT_NEAR(appRatios.mean, expectedMean, 1e-9);

  const auto domainRatios =
      aggregator_.flowRatios(StudyAggregator::Entity::Domain);
  EXPECT_EQ(domainRatios.ratios.size(), 3u);
}

TEST_F(AnalysisTest, AnTStats) {
  const auto stats = aggregator_.antStats();
  EXPECT_EQ(stats.appsWithTraffic, 3u);
  EXPECT_EQ(stats.antOnlyApps, 1u);  // app3
  EXPECT_EQ(stats.someAntApps, 2u);  // app1, app3
  EXPECT_EQ(stats.noAntApps, 1u);    // app2
  ASSERT_EQ(stats.antShare.size(), 3u);
  EXPECT_NEAR(stats.antShare.back(), 1.0, 1e-9);  // AnT-only app
  // Library flow ratios: AnT lib = unity3d.ads.cache (recv 10900/sent 110).
  EXPECT_NEAR(stats.antMeanFlowRatio, 10900.0 / 110.0, 1e-9);
  EXPECT_NEAR(stats.clMeanFlowRatio, 40000.0 / 200.0, 1e-9);
}

TEST_F(AnalysisTest, AveragesByCategory) {
  const auto perLibrary = aggregator_.avgBytesPerLibraryByCategory();
  EXPECT_NEAR(perLibrary.at("Advertisement"), 11010.0, 1e-9);  // one library
  EXPECT_NEAR(perLibrary.at("Game Engine"), 40200.0, 1e-9);

  const auto perDomain = aggregator_.avgBytesPerDomainByCategory();
  EXPECT_NEAR(perDomain.at("advertisements"), 11010.0, 1e-9);
  EXPECT_NEAR(perDomain.at("cdn"), 40200.0, 1e-9);

  const auto perApp = aggregator_.avgBytesPerAppByCategory();
  EXPECT_NEAR(perApp.at("GAME_ACTION"), 50300.0, 1e-9);
  EXPECT_NEAR(perApp.at("TOOLS"), 910.0 / 2.0, 1e-9);  // app4 dilutes
}

TEST_F(AnalysisTest, Heatmap) {
  const auto& heatmap = aggregator_.libraryDomainHeatmap();
  EXPECT_EQ(heatmap.at("Advertisement").at("advertisements"), 11010u);
  EXPECT_EQ(heatmap.at("Game Engine").at("cdn"), 40200u);
  EXPECT_EQ(heatmap.at("Unknown").at("business_and_finance"), 550u);
}

TEST_F(AnalysisTest, KnownLibraryCdnShare) {
  // Known (non-Unknown) traffic: 11010 ads + 40200 cdn; cdn share.
  EXPECT_NEAR(aggregator_.knownLibraryCdnShare(),
              40200.0 / (11010.0 + 40200.0), 1e-9);
}

TEST_F(AnalysisTest, CoverageStats) {
  const auto coverage = aggregator_.coverageStats();
  ASSERT_EQ(coverage.perApp.size(), 4u);
  EXPECT_NEAR(coverage.mean, (0.20 + 0.05 + 0.10 + 0.01) / 4.0, 1e-9);
  EXPECT_NEAR(coverage.meanMethodsPerApk, 2500.0, 1e-9);
  EXPECT_NEAR(coverage.fractionAboveMean, 0.5, 1e-9);  // 0.20 and 0.10
}

TEST_F(AnalysisTest, Concentration) {
  const auto concentration = aggregator_.concentration();
  // app1 alone holds ~97% of traffic.
  EXPECT_EQ(concentration.appsForHalf, 1u);
  EXPECT_EQ(concentration.librariesForHalf, 1u);
  EXPECT_EQ(concentration.domainsForHalf, 1u);
}

TEST_F(AnalysisTest, MeanBytesPerRun) {
  EXPECT_NEAR(aggregator_.meanBytesPerRun("Advertisement"), 11010.0 / 4.0, 1e-9);
  EXPECT_EQ(aggregator_.meanBytesPerRun("Payment"), 0.0);
}

TEST(AnalysisEdgeTest, EmptyStudy) {
  StudyAggregator aggregator;
  const auto totals = aggregator.totals();
  EXPECT_EQ(totals.appCount, 0u);
  EXPECT_EQ(totals.totalBytes, 0u);
  EXPECT_TRUE(aggregator.flowRatios(StudyAggregator::Entity::App).ratios.empty());
  EXPECT_EQ(aggregator.antStats().appsWithTraffic, 0u);
  EXPECT_EQ(aggregator.coverageStats().mean, 0.0);
  EXPECT_EQ(aggregator.knownLibraryCdnShare(), 0.0);
  EXPECT_EQ(aggregator.meanBytesPerRun("Advertisement"), 0.0);
}

TEST(AnalysisEdgeTest, UdpStatsSeparateReportsFromDns) {
  StudyAggregator aggregator;
  RunArtifacts run = appRun("app", "TOOLS");
  const net::SocketPair dnsPair{{net::Ipv4Addr(10, 0, 2, 15), 1000},
                                {net::Ipv4Addr(10, 0, 2, 3), 53}};
  run.capture.append(net::makeUdpPacket(1, dnsPair, 70, 42, "x.com",
                                        net::Ipv4Addr(198, 18, 0, 1)));
  const net::SocketPair reportPair{{net::Ipv4Addr(10, 0, 2, 15), 1001},
                                   kDefaultCollectorEndpoint};
  run.capture.append(net::makeUdpPacket(2, reportPair, 300, 272));
  const net::SocketPair tcpPair{{net::Ipv4Addr(10, 0, 2, 15), 1002},
                                {net::Ipv4Addr(198, 18, 0, 1), 443}};
  run.capture.append(net::makeTcpPacket(3, tcpPair, 1540, 1500));
  aggregator.addAppColumns(run, {});

  const auto& udp = aggregator.udpStats();
  EXPECT_EQ(udp.dnsBytes, 70u);
  EXPECT_EQ(udp.udpBytes, 70u);      // excludes Libspector reports
  EXPECT_EQ(udp.reportBytes, 300u);
  EXPECT_EQ(udp.totalBytes, 1910u);
}

TEST(AnalysisEdgeTest, UnsetRowFieldsFoldAsEmpty) {
  // fromRows columnarizes an unset Symbol field as kNoId; the fold reads it
  // as "", and an unset domain as no resolved domain.
  FlowRecord bare;
  bare.originLibrary = sym("com.lib.only");
  bare.sentBytes = 10;
  bare.recvBytes = 90;
  StudyAggregator aggregator;
  aggregator.addAppColumns(appRun("app", "TOOLS"), columns({bare}));

  const auto totals = aggregator.totals();
  EXPECT_EQ(totals.flowCount, 1u);
  EXPECT_EQ(totals.totalBytes, 100u);
  EXPECT_EQ(totals.originLibraryCount, 1u);
  EXPECT_EQ(totals.twoLevelLibraryCount, 1u);
  EXPECT_EQ(totals.domainCount, 0u);
  const auto byCategory = aggregator.transferByAppAndLibCategory();
  ASSERT_EQ(byCategory.size(), 1u);
  EXPECT_EQ(byCategory.at("").at(""), 100u);
}

}  // namespace
}  // namespace libspector::core
