// The §IV analysis pipeline: aggregates attributed flows across a whole
// study into the datasets behind every figure and table of the paper's
// evaluation.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/artifacts.hpp"
#include "core/attribution.hpp"
#include "util/symbol.hpp"

namespace libspector::core {

/// Accumulates one study; query methods expose figure-shaped views.
///
/// Entity state is keyed by the ids of a study-scoped util::SymbolPool and
/// stored *densely*: a vector slot per pool id (util::DenseSymbolMap), so
/// the per-flow fold is array probes, not hashing. addAppColumns translates
/// each batch's ids (into whatever attributor pool produced them) into the
/// aggregator's own pool through a per-source-pool dense translation table,
/// making the fold allocation-free after first sight of each string.
/// Move-only (it owns the pool its ids point into).
class StudyAggregator {
 public:
  StudyAggregator() = default;
  StudyAggregator(StudyAggregator&&) noexcept = default;
  StudyAggregator& operator=(StudyAggregator&&) noexcept = default;

  /// Fold one app's run and its attributed flow batch into the study,
  /// driven by contiguous id arrays and dense accumulators. An empty batch
  /// (FlowColumns{}, no pool) folds a zero-flow app. The symbol columns the
  /// fold reads must hold ids of `columns.pool`, as attributeColumns'
  /// always do, or Symbol::kNoId (a row field fromRows found unset), which
  /// folds as "" — and, in the domain column, as no resolved domain.
  void addAppColumns(const RunArtifacts& run, const FlowColumns& columns);

  // ---- §IV-A headline numbers -------------------------------------------

  struct Totals {
    std::uint64_t totalBytes = 0;
    std::uint64_t sentBytes = 0;   // device -> servers
    std::uint64_t recvBytes = 0;   // servers -> device
    std::size_t flowCount = 0;
    std::size_t appCount = 0;
    std::size_t originLibraryCount = 0;
    std::size_t twoLevelLibraryCount = 0;
    std::size_t domainCount = 0;
    /// TCP payload no flow covers (context reports lost in flight).
    std::uint64_t unattributedBytes = 0;
  };
  [[nodiscard]] Totals totals() const;

  /// UDP share of total traffic and DNS share of UDP (§III-E), excluding
  /// Libspector's own report datagrams.
  struct UdpStats {
    std::uint64_t udpBytes = 0;      // non-Libspector UDP
    std::uint64_t dnsBytes = 0;
    std::uint64_t reportBytes = 0;   // Libspector UDP reports
    std::uint64_t totalBytes = 0;    // everything in the captures
  };
  [[nodiscard]] const UdpStats& udpStats() const noexcept { return udp_; }

  // ---- Fig. 2 ------------------------------------------------------------

  /// app category -> (library category -> bytes). Materialized from the
  /// internal id-keyed matrix at query time (query methods are cold; the
  /// per-flow fold is the hot path).
  [[nodiscard]] std::map<std::string, std::map<std::string, std::uint64_t>>
  transferByAppAndLibCategory() const;
  /// library category -> total bytes (the legend percentages).
  [[nodiscard]] std::map<std::string, std::uint64_t> transferByLibCategory() const;

  // ---- Fig. 3 ------------------------------------------------------------

  struct RankedEntry {
    std::string name;
    std::uint64_t bytes = 0;
    std::string category;
  };
  [[nodiscard]] std::vector<RankedEntry> topOriginLibraries(std::size_t n) const;
  [[nodiscard]] std::vector<RankedEntry> topTwoLevelLibraries(std::size_t n) const;

  // ---- Fig. 4 / Fig. 5 ----------------------------------------------------

  enum class Entity { App, Library, Domain };
  /// Per-entity sent (device->server) byte totals, unordered.
  [[nodiscard]] std::vector<double> sentTotals(Entity entity) const;
  [[nodiscard]] std::vector<double> recvTotals(Entity entity) const;

  struct RatioStats {
    std::vector<double> ratios;  // sorted ascending
    double mean = 0.0;
  };
  /// Received/sent per app or library; for domains, bytes the domain's
  /// servers sent over bytes they received (the paper's inverted view).
  /// Entities with zero denominator are skipped.
  [[nodiscard]] RatioStats flowRatios(Entity entity) const;

  // ---- Fig. 6 ------------------------------------------------------------

  struct AnTStats {
    std::vector<double> antShare;  // per app: AnT bytes / total bytes, sorted
    std::vector<double> clShare;   // per app: common-library share, sorted
    double antShareMean = 0.0;
    double clShareMean = 0.0;
    std::size_t antOnlyApps = 0;   // traffic entirely AnT-origin
    std::size_t noAntApps = 0;     // zero AnT traffic (among apps with traffic)
    std::size_t someAntApps = 0;   // nonzero AnT traffic
    std::size_t appsWithTraffic = 0;
    double antMeanFlowRatio = 0.0;  // mean recv/sent across AnT libraries
    double clMeanFlowRatio = 0.0;   // ... across common libraries
  };
  [[nodiscard]] AnTStats antStats() const;

  // ---- Fig. 7 / Fig. 8 ----------------------------------------------------

  /// library category -> mean bytes per origin-library in that category.
  [[nodiscard]] std::map<std::string, double> avgBytesPerLibraryByCategory() const;
  /// domain category -> mean bytes per domain in that category.
  [[nodiscard]] std::map<std::string, double> avgBytesPerDomainByCategory() const;
  /// app category -> mean bytes per app.
  [[nodiscard]] std::map<std::string, double> avgBytesPerAppByCategory() const;

  // ---- Fig. 9 ------------------------------------------------------------

  /// library category -> (domain category -> bytes). Materialized from the
  /// internal id-keyed matrix at query time.
  [[nodiscard]] std::map<std::string, std::map<std::string, std::uint64_t>>
  libraryDomainHeatmap() const;
  /// Fraction of known-origin (non-built-in, categorized) traffic that
  /// lands on CDN domains — the §IV-E misclassification bound.
  [[nodiscard]] double knownLibraryCdnShare() const;

  // ---- Fig. 10 / §IV-C ----------------------------------------------------

  struct CoverageStats {
    std::vector<double> perApp;  // coverage ratios, sorted ascending
    double mean = 0.0;
    double meanMethodsPerApk = 0.0;
    double fractionAboveMean = 0.0;
  };
  [[nodiscard]] CoverageStats coverageStats() const;

  // ---- concentration (§IV-A "half of the total transfer") -----------------

  struct Concentration {
    std::size_t appsForHalf = 0;
    std::size_t librariesForHalf = 0;
    std::size_t domainsForHalf = 0;
  };
  [[nodiscard]] Concentration concentration() const;

  /// Mean bytes per app run attributed to a library category (cost model
  /// input: e.g. Advertisement bytes per 8-minute run).
  [[nodiscard]] double meanBytesPerRun(const std::string& libCategory) const;

  // ---- latency axis (§14, background-sync scenario) -----------------------

  struct LatencyEntry {
    std::string library;
    std::string category;
    std::uint64_t flows = 0;  // flows that measured an RTT
    double meanRttMs = 0.0;
  };
  /// Per origin-library mean capture-derived RTT over the flows that
  /// measured one (FlowRecord::rttMs != 0), descending by mean (ties by
  /// name). Libraries with no measured flow are omitted. Feeds the policy
  /// latency report and bench/fig11_latency_by_library.
  [[nodiscard]] std::vector<LatencyEntry> latencyByLibrary() const;

 private:
  struct EntityAgg {
    util::Symbol name;      // into pool_
    util::Symbol category;  // into pool_
    std::uint64_t sent = 0;
    std::uint64_t recv = 0;
    /// Latency axis: sum/count over flows whose window measured an RTT.
    std::uint64_t rttSumMs = 0;
    std::uint64_t rttFlows = 0;
    bool ant = false;
    bool common = false;
    bool present = false;  // dense tables have untouched slots
    [[nodiscard]] std::uint64_t total() const noexcept { return sent + recv; }
  };
  struct AppAgg {
    std::string category;
    std::uint64_t sent = 0;
    std::uint64_t recv = 0;
    std::uint64_t antBytes = 0;
    std::uint64_t clBytes = 0;
    double coverage = 0.0;
    std::size_t totalMethods = 0;
    [[nodiscard]] std::uint64_t total() const noexcept { return sent + recv; }
  };
  /// One cell of a category x category matrix. `used` (not zero-ness)
  /// drives materialization: the old map-based matrices kept zero-byte
  /// entries, and the rendered CSVs show them.
  struct MatrixCell {
    std::uint64_t bytes = 0;
    std::uint8_t used = 0;
  };

  [[nodiscard]] static std::vector<double> sortedTotals(
      const std::vector<std::uint64_t>& values);

  [[nodiscard]] AppAgg makeAppAgg(const RunArtifacts& run) const;
  EntityAgg& entityAt(util::DenseSymbolMap<EntityAgg>& table,
                      std::size_t& count, util::Symbol name);
  [[nodiscard]] std::uint32_t catSlot(util::Symbol category);
  void growCategoryMatrices();
  void bumpMatrix(std::vector<MatrixCell>& matrix, std::uint32_t a,
                  std::uint32_t b, std::uint64_t bytes);
  /// The per-flow half of addAppColumns (non-empty batches only).
  void foldFlows(const FlowColumns& columns, AppAgg& app);
  /// Per-run tail: UDP/report byte accounting.
  void foldRunPackets(const RunArtifacts& run);

  /// Study-scoped pool. Ids are assigned in fold order, which the
  /// StudyAccumulator makes deterministic (dispatch order), so id-keyed
  /// iteration below is deterministic first-appearance order; the rendered
  /// study depends on the per-flow field order the fold interns in.
  util::SymbolPool pool_;
  std::vector<AppAgg> apps_;
  /// Entity aggregates, dense by the entity name's pool id.
  util::DenseSymbolMap<EntityAgg> libraries_;  // origin-libraries
  util::DenseSymbolMap<EntityAgg> twoLevel_;   // 2-level roll-up
  util::DenseSymbolMap<EntityAgg> domains_;
  std::size_t libraryCount_ = 0;
  std::size_t twoLevelCount_ = 0;
  std::size_t domainCount_ = 0;
  /// Category symbols get small dense slot numbers (a study sees a dozen-ish
  /// distinct categories); the two figure matrices are slot x slot arrays
  /// with a shared stride, regrown on the rare new-category event.
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  util::DenseSymbolMap<std::uint32_t> catSlotOf_{kNoSlot};  // pool id -> slot
  std::vector<util::Symbol> catSlots_;                      // slot -> symbol
  std::size_t catStride_ = 0;
  std::vector<MatrixCell> byAppCatLibCat_;  // [appCat slot][libCat slot]
  std::vector<MatrixCell> heatmap_;         // [libCat slot][domainCat slot]
  /// Foreign pool id -> local symbol, one dense table per source pool
  /// (normally exactly one: the study's attributor).
  std::unordered_map<const util::SymbolPool*, std::vector<util::Symbol>>
      columnXlat_;
  UdpStats udp_;
  std::size_t flowCount_ = 0;
  std::uint64_t unattributedBytes_ = 0;
};

/// Thread-safe, order-restoring funnel in front of a StudyAggregator.
///
/// Parallel attribution workers finish out of order, but the aggregated
/// study must be byte-identical to a sequential run (the determinism
/// guarantee the study tests pin down). Workers hand each finished app in
/// under its dispatch index; the accumulator folds the contiguous prefix of
/// indices into the aggregator as soon as it is complete and buffers the
/// rest, so memory stays bounded by worker-count-sized reordering gaps, not
/// the whole study. Failed jobs are skip()ed so they never stall the
/// prefix.
class StudyAccumulator {
 public:
  explicit StudyAccumulator(StudyAggregator& study) : study_(study) {}

  /// Deliver app `jobIndex` and its flow batch (folded through
  /// StudyAggregator::addAppColumns). Thread-safe; folds eagerly when
  /// contiguous.
  void addColumns(std::size_t jobIndex, RunArtifacts&& run,
                  FlowColumns&& columns);

  /// Mark `jobIndex` as never arriving (failed job). Thread-safe.
  void skip(std::size_t jobIndex);

  /// Fold anything still buffered, in index order, tolerating gaps.
  /// Call once after the worker fleet has joined.
  void finish();

  [[nodiscard]] std::size_t appsFolded() const;
  /// Apps delivered but still waiting for a lower index (0 after finish()).
  [[nodiscard]] std::size_t pendingCount() const;

 private:
  struct PendingApp {
    RunArtifacts run;
    FlowColumns columns;
  };

  /// Fold one buffered app. Requires mutex_ held.
  void foldLocked(PendingApp&& app);

  /// Fold buffered apps while the next expected index is available.
  /// Requires mutex_ held.
  void drainLocked();

  mutable std::mutex mutex_;
  StudyAggregator& study_;
  std::size_t next_ = 0;          // lowest index not yet folded or skipped
  std::size_t folded_ = 0;
  std::map<std::size_t, std::optional<PendingApp>> pending_;  // nullopt = skipped
};

}  // namespace libspector::core
