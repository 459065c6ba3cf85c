#include "core/export.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/cost.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace libspector::core {

std::string csvField(std::string_view value) {
  const bool needsQuoting =
      value.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needsQuoting) return std::string(value);
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void writeFig2Csv(const StudyAggregator& study, std::ostream& out) {
  out << "app_category,library_category,bytes\n";
  for (const auto& [appCategory, row] : study.transferByAppAndLibCategory()) {
    for (const auto& [libCategory, bytes] : row) {
      out << csvField(appCategory) << ',' << csvField(libCategory) << ','
          << bytes << '\n';
    }
  }
}

void writeTopLibrariesCsv(const StudyAggregator& study, std::size_t n,
                          std::ostream& out) {
  out << "rank,level,library,category,bytes\n";
  std::size_t rank = 1;
  for (const auto& entry : study.topOriginLibraries(n)) {
    out << rank++ << ",origin," << csvField(entry.name) << ','
        << csvField(entry.category) << ',' << entry.bytes << '\n';
  }
  rank = 1;
  for (const auto& entry : study.topTwoLevelLibraries(n)) {
    out << rank++ << ",two-level," << csvField(entry.name) << ','
        << csvField(entry.category) << ',' << entry.bytes << '\n';
  }
}

void writeCdfCsv(const StudyAggregator& study, std::ostream& out) {
  using Entity = StudyAggregator::Entity;
  out << "series,bytes,fraction\n";
  const auto emit = [&](const char* series, std::vector<double> values) {
    for (const auto& point : util::empiricalCdf(std::move(values), 128))
      out << series << ',' << point.value << ',' << point.fraction << '\n';
  };
  emit("app_sent", study.sentTotals(Entity::App));
  emit("app_recv", study.recvTotals(Entity::App));
  emit("lib_sent", study.sentTotals(Entity::Library));
  emit("lib_recv", study.recvTotals(Entity::Library));
  emit("dns_sent", study.sentTotals(Entity::Domain));
  emit("dns_recv", study.recvTotals(Entity::Domain));
}

void writeFlowRatiosCsv(const StudyAggregator& study, std::ostream& out) {
  using Entity = StudyAggregator::Entity;
  out << "series,index,ratio\n";
  const auto emit = [&](const char* series, Entity entity) {
    const auto stats = study.flowRatios(entity);
    for (std::size_t i = 0; i < stats.ratios.size(); ++i)
      out << series << ',' << i << ',' << stats.ratios[i] << '\n';
  };
  emit("apps", Entity::App);
  emit("libs", Entity::Library);
  emit("dns", Entity::Domain);
}

void writeAntSharesCsv(const StudyAggregator& study, std::ostream& out) {
  const auto ant = study.antStats();
  out << "index,ant_share,cl_share\n";
  for (std::size_t i = 0; i < ant.antShare.size(); ++i) {
    out << i << ',' << ant.antShare[i] << ','
        << (i < ant.clShare.size() ? ant.clShare[i] : 0.0) << '\n';
  }
}

void writeCategoryAveragesCsv(const StudyAggregator& study, std::ostream& out) {
  out << "kind,category,avg_bytes\n";
  for (const auto& [category, avg] : study.avgBytesPerLibraryByCategory())
    out << "library," << csvField(category) << ',' << avg << '\n';
  for (const auto& [category, avg] : study.avgBytesPerDomainByCategory())
    out << "domain," << csvField(category) << ',' << avg << '\n';
  for (const auto& [category, avg] : study.avgBytesPerAppByCategory())
    out << "app," << csvField(category) << ',' << avg << '\n';
}

void writeHeatmapCsv(const StudyAggregator& study, std::ostream& out) {
  out << "library_category,domain_category,bytes\n";
  for (const auto& [libCategory, row] : study.libraryDomainHeatmap()) {
    for (const auto& [domainCategory, bytes] : row) {
      out << csvField(libCategory) << ',' << csvField(domainCategory) << ','
          << bytes << '\n';
    }
  }
}

void writeCoverageCsv(const StudyAggregator& study, std::ostream& out) {
  out << "index,coverage\n";
  const auto coverage = study.coverageStats();
  for (std::size_t i = 0; i < coverage.perApp.size(); ++i)
    out << i << ',' << coverage.perApp[i] << '\n';
}

void writeStudyReport(const StudyAggregator& study, std::ostream& out) {
  const auto totals = study.totals();
  const double total = static_cast<double>(totals.totalBytes);

  out << "# Libspector study report\n\n";
  out << "## Totals (§IV-A)\n\n";
  out << "- apps analyzed: " << totals.appCount << "\n";
  out << "- transferred: " << util::humanBytes(total) << " (received "
      << util::humanBytes(static_cast<double>(totals.recvBytes)) << " / sent "
      << util::humanBytes(static_cast<double>(totals.sentBytes)) << ")\n";
  out << "- flows (sockets): " << totals.flowCount << "\n";
  out << "- origin-libraries: " << totals.originLibraryCount
      << ", 2-level libraries: " << totals.twoLevelLibraryCount
      << ", DNS domains: " << totals.domainCount << "\n";
  if (totals.unattributedBytes > 0)
    out << "- unattributed TCP payload (lost context reports): "
        << util::humanBytes(static_cast<double>(totals.unattributedBytes))
        << "\n";

  out << "\n## Transfer share by origin-library category (Fig. 2)\n\n";
  out << "| category | share | bytes |\n|---|---|---|\n";
  for (const auto& [category, bytes] : study.transferByLibCategory()) {
    char share[32];
    std::snprintf(share, sizeof(share), "%.2f%%",
                  total > 0 ? 100.0 * static_cast<double>(bytes) / total : 0.0);
    out << "| " << category << " | " << share << " | "
        << util::humanBytes(static_cast<double>(bytes)) << " |\n";
  }

  out << "\n## Top origin-libraries (Fig. 3)\n\n";
  for (const auto& entry : study.topOriginLibraries(10))
    out << "- `" << entry.name << "` — "
        << util::humanBytes(static_cast<double>(entry.bytes)) << " ["
        << entry.category << "]\n";

  const auto ant = study.antStats();
  out << "\n## AnT prevalence (Fig. 6)\n\n";
  if (ant.appsWithTraffic > 0) {
    const double withTraffic = static_cast<double>(ant.appsWithTraffic);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "- AnT-only apps: %.1f%%, some AnT: %.1f%%, AnT-free: %.1f%%\n",
                  100.0 * static_cast<double>(ant.antOnlyApps) / withTraffic,
                  100.0 * static_cast<double>(ant.someAntApps) / withTraffic,
                  100.0 * static_cast<double>(ant.noAntApps) / withTraffic);
    out << line;
    std::snprintf(line, sizeof(line),
                  "- flow-ratio aggressiveness: AnT %.1fx vs common %.1fx\n",
                  ant.antMeanFlowRatio, ant.clMeanFlowRatio);
    out << line;
  }

  out << "\n## Flow ratios (Fig. 5)\n\n";
  char ratios[160];
  std::snprintf(ratios, sizeof(ratios),
                "- mean received/sent: apps %.1fx, libraries %.1fx, domains %.1fx\n",
                study.flowRatios(StudyAggregator::Entity::App).mean,
                study.flowRatios(StudyAggregator::Entity::Library).mean,
                study.flowRatios(StudyAggregator::Entity::Domain).mean);
  out << ratios;

  const auto coverage = study.coverageStats();
  out << "\n## Method coverage (§IV-C)\n\n";
  char cov[160];
  std::snprintf(cov, sizeof(cov),
                "- mean coverage %.2f%% over %.0f methods/apk (%.1f%% of apps above the mean)\n",
                100.0 * coverage.mean, coverage.meanMethodsPerApk,
                100.0 * coverage.fractionAboveMean);
  out << cov;

  out << "\n## Context vs endpoints (Fig. 9 / §IV-E)\n\n";
  char cdn[120];
  std::snprintf(cdn, sizeof(cdn),
                "- known-library traffic on CDN domains: %.1f%% (invisible to "
                "DNS-only attribution)\n",
                100.0 * study.knownLibraryCdnShare());
  out << cdn;

  out << "\n## User cost (§IV-D, 8-minute sessions, $10/GB)\n\n";
  const CostModel model(DataPlanModel{}, EnergyModel{}, 8.0);
  out << "| category | bytes/run | $/hour | battery |\n|---|---|---|---|\n";
  for (const char* category :
       {"Advertisement", "Mobile Analytics", "Game Engine", "Social Network"}) {
    const auto estimate = model.estimate(study.meanBytesPerRun(category));
    char row[200];
    std::snprintf(row, sizeof(row), "| %s | %s | $%.3f | %.2f%% |\n", category,
                  util::humanBytes(estimate.bytesPerRun).c_str(),
                  estimate.usdPerHour, 100.0 * estimate.batteryFraction);
    out << row;
  }
}

std::size_t exportStudyCsv(const StudyAggregator& study,
                           const std::string& directory) {
  namespace fs = std::filesystem;
  fs::create_directories(directory);
  const auto write = [&](const char* name, const auto& writer) {
    std::ofstream out(fs::path(directory) / name, std::ios::trunc);
    writer(out);
    // Checked after close: a write the disk refused must not pass for a
    // complete figure.
    out.close();
    if (!out) throw std::runtime_error(std::string("exportStudyCsv: cannot write ") + name);
  };
  write("fig2_categories.csv", [&](std::ostream& o) { writeFig2Csv(study, o); });
  write("fig3_top_libraries.csv",
        [&](std::ostream& o) { writeTopLibrariesCsv(study, 25, o); });
  write("fig4_cdf.csv", [&](std::ostream& o) { writeCdfCsv(study, o); });
  write("fig5_ratios.csv", [&](std::ostream& o) { writeFlowRatiosCsv(study, o); });
  write("fig6_ant_shares.csv", [&](std::ostream& o) { writeAntSharesCsv(study, o); });
  write("fig7_category_averages.csv",
        [&](std::ostream& o) { writeCategoryAveragesCsv(study, o); });
  write("fig9_heatmap.csv", [&](std::ostream& o) { writeHeatmapCsv(study, o); });
  write("fig10_coverage.csv", [&](std::ostream& o) { writeCoverageCsv(study, o); });
  return 8;
}

}  // namespace libspector::core
