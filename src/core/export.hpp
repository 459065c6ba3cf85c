// CSV export of a study's figure datasets.
//
// Each writer emits one plot-ready file per paper figure so the evaluation
// can be re-plotted outside this repository (gnuplot/matplotlib). Fields
// containing commas or quotes are quoted per RFC 4180.
#pragma once

#include <ostream>
#include <string>

#include "core/analysis.hpp"

namespace libspector::core {

/// Escape one CSV field (RFC 4180 quoting when needed).
[[nodiscard]] std::string csvField(std::string_view value);

void writeFig2Csv(const StudyAggregator& study, std::ostream& out);
void writeTopLibrariesCsv(const StudyAggregator& study, std::size_t n,
                          std::ostream& out);
void writeCdfCsv(const StudyAggregator& study, std::ostream& out);
void writeFlowRatiosCsv(const StudyAggregator& study, std::ostream& out);
void writeAntSharesCsv(const StudyAggregator& study, std::ostream& out);
void writeCategoryAveragesCsv(const StudyAggregator& study, std::ostream& out);
void writeHeatmapCsv(const StudyAggregator& study, std::ostream& out);
void writeCoverageCsv(const StudyAggregator& study, std::ostream& out);

/// Human-readable markdown study report: the §IV evaluation in one page
/// (totals, category shares, top libraries, AnT prevalence, flow ratios,
/// coverage, heatmap takeaway, §IV-D costs).
void writeStudyReport(const StudyAggregator& study, std::ostream& out);

/// Write every figure dataset into `directory` (created if missing):
/// fig2_categories.csv, fig3_top_libraries.csv, fig4_cdf.csv,
/// fig5_ratios.csv, fig6_ant_shares.csv, fig7_category_averages.csv,
/// fig9_heatmap.csv, fig10_coverage.csv. Returns the number of files.
/// Throws std::filesystem::filesystem_error when the directory cannot be
/// created and std::runtime_error when a file cannot be opened or written.
std::size_t exportStudyCsv(const StudyAggregator& study,
                           const std::string& directory);

}  // namespace libspector::core
