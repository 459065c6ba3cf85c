#include "core/export.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

namespace libspector::core {
namespace {

// Static pool: test flows stay valid for the whole binary.
util::SymbolPool& testPool() {
  static util::SymbolPool pool;
  return pool;
}

util::Symbol sym(std::string_view text) { return testPool().intern(text); }

FlowRecord makeFlow(const std::string& library, const std::string& libCategory,
                    const std::string& domain, const std::string& domainCategory,
                    std::uint64_t sent, std::uint64_t recv) {
  FlowRecord flow;
  flow.originLibrary = sym(library);
  flow.twoLevelLibrary = sym(library);
  flow.libraryCategory = sym(libCategory);
  flow.domain = sym(domain);
  flow.domainCategory = sym(domainCategory);
  flow.appCategory = sym("TOOLS");
  flow.sentBytes = sent;
  flow.recvBytes = recv;
  flow.antOrigin = libCategory == "Advertisement";
  return flow;
}

StudyAggregator sampleStudy() {
  StudyAggregator study;
  RunArtifacts run;
  run.apkSha256 = "a1";
  run.appCategory = "TOOLS";
  run.coverage.coveredMethods = 10;
  run.coverage.totalMethods = 100;
  const std::vector<FlowRecord> flows = {
      makeFlow("com.unity3d.ads", "Advertisement", "ads.com", "advertisements",
               100, 9000),
      makeFlow("com.myapp.net", "Unknown", "api.com", "business_and_finance",
               50, 600)};
  study.addAppColumns(run, FlowColumns::fromRows(flows, testPool()));
  return study;
}

std::size_t countLines(const std::string& text) {
  std::size_t lines = 0;
  for (const char c : text)
    if (c == '\n') ++lines;
  return lines;
}

TEST(CsvFieldTest, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(csvField("plain"), "plain");
  EXPECT_EQ(csvField("has,comma"), "\"has,comma\"");
  EXPECT_EQ(csvField("has\"quote"), "\"has\"\"quote\"");
  EXPECT_EQ(csvField("multi\nline"), "\"multi\nline\"");
  EXPECT_EQ(csvField(""), "");
}

TEST(ExportTest, Fig2CsvHasHeaderAndRows) {
  std::ostringstream out;
  writeFig2Csv(sampleStudy(), out);
  const std::string text = out.str();
  EXPECT_TRUE(text.starts_with("app_category,library_category,bytes\n"));
  EXPECT_EQ(countLines(text), 3u);  // header + 2 category cells
  EXPECT_NE(text.find("TOOLS,Advertisement,9100"), std::string::npos);
}

TEST(ExportTest, HeatmapCsvMatchesAggregates) {
  std::ostringstream out;
  writeHeatmapCsv(sampleStudy(), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("Advertisement,advertisements,9100"), std::string::npos);
  EXPECT_NE(text.find("Unknown,business_and_finance,650"), std::string::npos);
}

TEST(ExportTest, CdfCsvCoversAllSixSeries) {
  std::ostringstream out;
  writeCdfCsv(sampleStudy(), out);
  const std::string text = out.str();
  for (const char* series :
       {"app_sent", "app_recv", "lib_sent", "lib_recv", "dns_sent", "dns_recv"})
    EXPECT_NE(text.find(series), std::string::npos) << series;
}

TEST(ExportTest, CoverageCsvOneRowPerApp) {
  std::ostringstream out;
  writeCoverageCsv(sampleStudy(), out);
  EXPECT_EQ(countLines(out.str()), 2u);  // header + 1 app
  EXPECT_NE(out.str().find("0,0.1"), std::string::npos);
}

TEST(ExportTest, DirectoryExportWritesAllFiles) {
  const std::string dir =
      ::testing::TempDir() + "/spector_csv_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  EXPECT_EQ(exportStudyCsv(sampleStudy(), dir), 8u);
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().extension(), ".csv");
    std::ifstream in(entry.path());
    std::string header;
    std::getline(in, header);
    EXPECT_FALSE(header.empty()) << entry.path();
    ++files;
  }
  EXPECT_EQ(files, 8u);
}

TEST(ExportTest, DirectoryExportThrowsWhenAWriteFails) {
  // /dev/full opens and then refuses every write with ENOSPC, as a full
  // disk does.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::filesystem::path dir =
      ::testing::TempDir() + "/spector_csv_full_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::filesystem::create_symlink("/dev/full", dir / "fig4_cdf.csv");
  EXPECT_THROW((void)exportStudyCsv(sampleStudy(), dir.string()),
               std::runtime_error);
}

TEST(ReportTest, MarkdownReportCoversEverySection) {
  std::ostringstream out;
  writeStudyReport(sampleStudy(), out);
  const std::string report = out.str();
  for (const char* heading :
       {"# Libspector study report", "## Totals", "## Transfer share",
        "## Top origin-libraries", "## AnT prevalence", "## Flow ratios",
        "## Method coverage", "## Context vs endpoints", "## User cost"}) {
    EXPECT_NE(report.find(heading), std::string::npos) << heading;
  }
  EXPECT_NE(report.find("com.unity3d.ads"), std::string::npos);
  EXPECT_NE(report.find("| Advertisement |"), std::string::npos);
}

TEST(ReportTest, EmptyStudyStillRendersValidReport) {
  std::ostringstream out;
  writeStudyReport(StudyAggregator{}, out);
  EXPECT_NE(out.str().find("apps analyzed: 0"), std::string::npos);
}

}  // namespace
}  // namespace libspector::core
