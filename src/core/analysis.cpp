#include "core/analysis.hpp"

#include <algorithm>

#include "core/supervisor.hpp"

namespace libspector::core {

StudyAggregator::AppAgg StudyAggregator::makeAppAgg(
    const RunArtifacts& run) const {
  AppAgg app;
  app.category = run.appCategory;
  app.coverage = run.coverage.ratio();
  app.totalMethods = run.coverage.totalMethods;
  return app;
}

StudyAggregator::EntityAgg& StudyAggregator::entityAt(
    util::DenseSymbolMap<EntityAgg>& table, std::size_t& count,
    util::Symbol name) {
  EntityAgg& agg = table[name.id()];
  if (!agg.present) {
    agg.present = true;
    agg.name = name;
    ++count;
  }
  return agg;
}

std::uint32_t StudyAggregator::catSlot(util::Symbol category) {
  std::uint32_t& slot = catSlotOf_[category.id()];
  if (slot == kNoSlot) {
    slot = static_cast<std::uint32_t>(catSlots_.size());
    catSlots_.push_back(category);
    if (catSlots_.size() > catStride_) growCategoryMatrices();
  }
  return slot;
}

void StudyAggregator::growCategoryMatrices() {
  const std::size_t stride = std::max<std::size_t>(16, catStride_ * 2);
  const auto regrid = [&](std::vector<MatrixCell>& matrix) {
    std::vector<MatrixCell> grown(stride * stride);
    for (std::size_t a = 0; a < catStride_; ++a)
      for (std::size_t b = 0; b < catStride_; ++b)
        grown[a * stride + b] = matrix[a * catStride_ + b];
    matrix = std::move(grown);
  };
  regrid(byAppCatLibCat_);
  regrid(heatmap_);
  catStride_ = stride;
}

void StudyAggregator::bumpMatrix(std::vector<MatrixCell>& matrix,
                                 std::uint32_t a, std::uint32_t b,
                                 std::uint64_t bytes) {
  MatrixCell& cell = matrix[std::size_t{a} * catStride_ + b];
  cell.used = 1;
  cell.bytes += bytes;
}

void StudyAggregator::foldRunPackets(const RunArtifacts& run) {
  for (const auto& pkt : run.capture.packets()) {
    udp_.totalBytes += pkt.wireBytes;
    if (pkt.proto != net::Proto::Udp) continue;
    if (pkt.pair.dst == kDefaultCollectorEndpoint) {
      udp_.reportBytes += pkt.wireBytes;
    } else {
      udp_.udpBytes += pkt.wireBytes;
      if (pkt.isDns()) udp_.dnsBytes += pkt.wireBytes;
    }
  }
}

void StudyAggregator::addAppColumns(const RunArtifacts& run,
                                    const FlowColumns& columns) {
  AppAgg app = makeAppAgg(run);
  if (columns.size() != 0) foldFlows(columns, app);
  apps_.push_back(std::move(app));
  unattributedBytes_ += unattributedTcpPayload(run, columns);
  foldRunPackets(run);
}

void StudyAggregator::foldFlows(const FlowColumns& columns, AppAgg& app) {
  // Foreign-id translation as a dense array: source pools assign ids
  // contiguously, so a vector indexed by source id resolves each string
  // once per study — repeats across apps are free. The id-order query
  // iteration depends on the per-flow field order interned below.
  std::vector<util::Symbol>& xlat = columnXlat_[columns.pool];
  if (columns.pool->size() > xlat.size()) xlat.resize(columns.pool->size());
  const auto local = [&](std::uint32_t sourceId) -> util::Symbol {
    // A row field left unset (Symbol{}) columnarizes to kNoId; it stands
    // for "", so it folds as "".
    if (sourceId == util::Symbol::kNoId) return pool_.intern("");
    util::Symbol& cached = xlat[sourceId];
    if (cached.identity() == nullptr)
      cached = pool_.intern(columns.pool->at(sourceId).view());
    return cached;
  };
  // The id of "" in the source pool: a flow resolved a domain unless its
  // domain column holds that id or kNoId (an unset row field).
  const std::uint32_t emptyDomainId = columns.pool->find("").id();

  for (std::size_t i = 0; i < columns.size(); ++i) {
    const std::uint64_t sent = columns.sentBytes[i];
    const std::uint64_t recv = columns.recvBytes[i];
    const std::uint64_t bytes = sent + recv;
    const std::uint8_t flowFlags = columns.flags[i];
    const bool ant = (flowFlags & FlowColumns::kAntOrigin) != 0;
    const bool common = (flowFlags & FlowColumns::kCommonOrigin) != 0;
    app.sent += sent;
    app.recv += recv;
    if (ant) app.antBytes += bytes;
    if (common) app.clBytes += bytes;

    const util::Symbol originLibrary = local(columns.originLibrary[i]);
    const util::Symbol libraryCategory = local(columns.libraryCategory[i]);

    EntityAgg& lib = entityAt(libraries_, libraryCount_, originLibrary);
    lib.sent += sent;
    lib.recv += recv;
    lib.category = libraryCategory;
    lib.ant = lib.ant || ant;
    lib.common = lib.common || common;
    if (columns.rttMs[i] != 0) {
      lib.rttSumMs += columns.rttMs[i];
      ++lib.rttFlows;
    }

    const util::Symbol twoLevelLibrary = local(columns.twoLevelLibrary[i]);
    EntityAgg& two = entityAt(twoLevel_, twoLevelCount_, twoLevelLibrary);
    two.sent += sent;
    two.recv += recv;
    two.category = libraryCategory;

    const util::Symbol domainCategory = local(columns.domainCategory[i]);
    if (columns.domain[i] != emptyDomainId &&
        columns.domain[i] != util::Symbol::kNoId) {
      const util::Symbol domain = local(columns.domain[i]);
      EntityAgg& dom = entityAt(domains_, domainCount_, domain);
      dom.sent += sent;  // received by the domain's servers
      dom.recv += recv;  // sent by the domain's servers
      dom.category = domainCategory;
    }

    const util::Symbol appCategory = local(columns.appCategory[i]);
    bumpMatrix(byAppCatLibCat_, catSlot(appCategory), catSlot(libraryCategory),
               bytes);
    bumpMatrix(heatmap_, catSlot(libraryCategory), catSlot(domainCategory),
               bytes);
    ++flowCount_;
  }
}

StudyAggregator::Totals StudyAggregator::totals() const {
  Totals totals;
  for (const auto& app : apps_) {
    totals.sentBytes += app.sent;
    totals.recvBytes += app.recv;
  }
  totals.totalBytes = totals.sentBytes + totals.recvBytes;
  totals.flowCount = flowCount_;
  totals.appCount = apps_.size();
  totals.originLibraryCount = libraryCount_;
  totals.twoLevelLibraryCount = twoLevelCount_;
  totals.domainCount = domainCount_;
  totals.unattributedBytes = unattributedBytes_;
  return totals;
}

std::map<std::string, std::map<std::string, std::uint64_t>>
StudyAggregator::transferByAppAndLibCategory() const {
  // Materialize by `used`, not by nonzero bytes: the fold records a cell for
  // every observed (appCat, libCat) pair even when its byte total is zero,
  // and the rendered CSVs include those rows.
  std::map<std::string, std::map<std::string, std::uint64_t>> out;
  for (std::size_t a = 0; a < catSlots_.size(); ++a)
    for (std::size_t b = 0; b < catSlots_.size(); ++b) {
      const MatrixCell& cell = byAppCatLibCat_[a * catStride_ + b];
      if (!cell.used) continue;
      out[catSlots_[a].str()][catSlots_[b].str()] += cell.bytes;
    }
  return out;
}

std::map<std::string, std::uint64_t> StudyAggregator::transferByLibCategory()
    const {
  std::map<std::string, std::uint64_t> out;
  for (std::size_t a = 0; a < catSlots_.size(); ++a)
    for (std::size_t b = 0; b < catSlots_.size(); ++b) {
      const MatrixCell& cell = byAppCatLibCat_[a * catStride_ + b];
      if (!cell.used) continue;
      out[catSlots_[b].str()] += cell.bytes;
    }
  return out;
}

namespace {

std::vector<StudyAggregator::RankedEntry> topOf(
    std::vector<StudyAggregator::RankedEntry> entries, std::size_t n) {
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              if (a.bytes != b.bytes) return a.bytes > b.bytes;
              return a.name < b.name;  // deterministic tie-break
            });
  if (entries.size() > n) entries.resize(n);
  return entries;
}

}  // namespace

std::vector<StudyAggregator::RankedEntry> StudyAggregator::topOriginLibraries(
    std::size_t n) const {
  std::vector<RankedEntry> prepared;
  prepared.reserve(libraryCount_);
  for (const EntityAgg& agg : libraries_) {
    if (!agg.present) continue;
    prepared.push_back({agg.name.str(), agg.total(), agg.category.str()});
  }
  return topOf(std::move(prepared), n);
}

std::vector<StudyAggregator::RankedEntry> StudyAggregator::topTwoLevelLibraries(
    std::size_t n) const {
  std::vector<RankedEntry> prepared;
  prepared.reserve(twoLevelCount_);
  for (const EntityAgg& agg : twoLevel_) {
    if (!agg.present) continue;
    prepared.push_back({agg.name.str(), agg.total(), agg.category.str()});
  }
  return topOf(std::move(prepared), n);
}

std::vector<StudyAggregator::LatencyEntry> StudyAggregator::latencyByLibrary()
    const {
  std::vector<LatencyEntry> out;
  out.reserve(libraryCount_);
  for (const EntityAgg& agg : libraries_) {
    if (!agg.present || agg.rttFlows == 0) continue;
    out.push_back({agg.name.str(), agg.category.str(), agg.rttFlows,
                   static_cast<double>(agg.rttSumMs) /
                       static_cast<double>(agg.rttFlows)});
  }
  std::sort(out.begin(), out.end(),
            [](const LatencyEntry& a, const LatencyEntry& b) {
              if (a.meanRttMs != b.meanRttMs) return a.meanRttMs > b.meanRttMs;
              return a.library < b.library;
            });
  return out;
}

std::vector<double> StudyAggregator::sentTotals(Entity entity) const {
  std::vector<double> out;
  switch (entity) {
    case Entity::App:
      for (const auto& app : apps_) out.push_back(static_cast<double>(app.sent));
      break;
    case Entity::Library:
      for (const EntityAgg& agg : libraries_)
        if (agg.present) out.push_back(static_cast<double>(agg.sent));
      break;
    case Entity::Domain:
      for (const EntityAgg& agg : domains_)
        if (agg.present) out.push_back(static_cast<double>(agg.sent));
      break;
  }
  return out;
}

std::vector<double> StudyAggregator::recvTotals(Entity entity) const {
  std::vector<double> out;
  switch (entity) {
    case Entity::App:
      for (const auto& app : apps_) out.push_back(static_cast<double>(app.recv));
      break;
    case Entity::Library:
      for (const EntityAgg& agg : libraries_)
        if (agg.present) out.push_back(static_cast<double>(agg.recv));
      break;
    case Entity::Domain:
      for (const EntityAgg& agg : domains_)
        if (agg.present) out.push_back(static_cast<double>(agg.recv));
      break;
  }
  return out;
}

StudyAggregator::RatioStats StudyAggregator::flowRatios(Entity entity) const {
  RatioStats stats;
  const auto addRatio = [&](std::uint64_t numerator, std::uint64_t denominator) {
    if (denominator == 0) return;
    stats.ratios.push_back(static_cast<double>(numerator) /
                           static_cast<double>(denominator));
  };
  switch (entity) {
    case Entity::App:
      for (const auto& app : apps_) addRatio(app.recv, app.sent);
      break;
    case Entity::Library:
      for (const EntityAgg& agg : libraries_)
        if (agg.present) addRatio(agg.recv, agg.sent);
      break;
    case Entity::Domain:
      // The paper flips perspective for domains: what the domain's servers
      // send over what they receive.
      for (const EntityAgg& agg : domains_)
        if (agg.present) addRatio(agg.recv, agg.sent);
      break;
  }
  std::sort(stats.ratios.begin(), stats.ratios.end());
  double sum = 0.0;
  for (const double r : stats.ratios) sum += r;
  stats.mean = stats.ratios.empty() ? 0.0 : sum / static_cast<double>(stats.ratios.size());
  return stats;
}

StudyAggregator::AnTStats StudyAggregator::antStats() const {
  AnTStats stats;
  for (const auto& app : apps_) {
    const std::uint64_t total = app.total();
    if (total == 0) continue;
    ++stats.appsWithTraffic;
    const double antShare =
        static_cast<double>(app.antBytes) / static_cast<double>(total);
    const double clShare =
        static_cast<double>(app.clBytes) / static_cast<double>(total);
    stats.antShare.push_back(antShare);
    stats.clShare.push_back(clShare);
    if (app.antBytes == 0) ++stats.noAntApps;
    else ++stats.someAntApps;
    if (app.antBytes == total) ++stats.antOnlyApps;
  }
  std::sort(stats.antShare.begin(), stats.antShare.end());
  std::sort(stats.clShare.begin(), stats.clShare.end());
  const auto mean = [](const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    double sum = 0.0;
    for (const double v : values) sum += v;
    return sum / static_cast<double>(values.size());
  };
  stats.antShareMean = mean(stats.antShare);
  stats.clShareMean = mean(stats.clShare);

  std::vector<double> antRatios;
  std::vector<double> clRatios;
  for (const EntityAgg& agg : libraries_) {
    if (!agg.present || agg.sent == 0) continue;
    const double ratio =
        static_cast<double>(agg.recv) / static_cast<double>(agg.sent);
    if (agg.ant) antRatios.push_back(ratio);
    if (agg.common) clRatios.push_back(ratio);
  }
  stats.antMeanFlowRatio = mean(antRatios);
  stats.clMeanFlowRatio = mean(clRatios);
  return stats;
}

std::map<std::string, double> StudyAggregator::avgBytesPerLibraryByCategory()
    const {
  std::map<std::string, std::pair<std::uint64_t, std::size_t>> sums;
  for (const EntityAgg& agg : libraries_) {
    if (!agg.present) continue;
    auto& [bytes, count] = sums[agg.category.str()];
    bytes += agg.total();
    ++count;
  }
  std::map<std::string, double> out;
  for (const auto& [category, sum] : sums)
    out[category] = static_cast<double>(sum.first) / static_cast<double>(sum.second);
  return out;
}

std::map<std::string, double> StudyAggregator::avgBytesPerDomainByCategory()
    const {
  std::map<std::string, std::pair<std::uint64_t, std::size_t>> sums;
  for (const EntityAgg& agg : domains_) {
    if (!agg.present) continue;
    auto& [bytes, count] = sums[agg.category.str()];
    bytes += agg.total();
    ++count;
  }
  std::map<std::string, double> out;
  for (const auto& [category, sum] : sums)
    out[category] = static_cast<double>(sum.first) / static_cast<double>(sum.second);
  return out;
}

std::map<std::string, double> StudyAggregator::avgBytesPerAppByCategory() const {
  std::map<std::string, std::pair<std::uint64_t, std::size_t>> sums;
  for (const auto& app : apps_) {
    auto& [bytes, count] = sums[app.category];
    bytes += app.total();
    ++count;
  }
  std::map<std::string, double> out;
  for (const auto& [category, sum] : sums)
    out[category] = static_cast<double>(sum.first) / static_cast<double>(sum.second);
  return out;
}

std::map<std::string, std::map<std::string, std::uint64_t>>
StudyAggregator::libraryDomainHeatmap() const {
  std::map<std::string, std::map<std::string, std::uint64_t>> out;
  for (std::size_t a = 0; a < catSlots_.size(); ++a)
    for (std::size_t b = 0; b < catSlots_.size(); ++b) {
      const MatrixCell& cell = heatmap_[a * catStride_ + b];
      if (!cell.used) continue;
      out[catSlots_[a].str()][catSlots_[b].str()] += cell.bytes;
    }
  return out;
}

double StudyAggregator::knownLibraryCdnShare() const {
  std::uint64_t known = 0;
  std::uint64_t knownCdn = 0;
  for (std::size_t a = 0; a < catSlots_.size(); ++a) {
    if (catSlots_[a] == std::string_view("Unknown")) continue;
    for (std::size_t b = 0; b < catSlots_.size(); ++b) {
      const MatrixCell& cell = heatmap_[a * catStride_ + b];
      if (!cell.used) continue;
      known += cell.bytes;
      if (catSlots_[b] == std::string_view("cdn")) knownCdn += cell.bytes;
    }
  }
  return known == 0 ? 0.0
                    : static_cast<double>(knownCdn) / static_cast<double>(known);
}

StudyAggregator::CoverageStats StudyAggregator::coverageStats() const {
  CoverageStats stats;
  double methodSum = 0.0;
  for (const auto& app : apps_) {
    stats.perApp.push_back(app.coverage);
    methodSum += static_cast<double>(app.totalMethods);
  }
  std::sort(stats.perApp.begin(), stats.perApp.end());
  if (!apps_.empty()) {
    double sum = 0.0;
    for (const double c : stats.perApp) sum += c;
    stats.mean = sum / static_cast<double>(stats.perApp.size());
    stats.meanMethodsPerApk = methodSum / static_cast<double>(apps_.size());
    std::size_t above = 0;
    for (const double c : stats.perApp)
      if (c > stats.mean) ++above;
    stats.fractionAboveMean =
        static_cast<double>(above) / static_cast<double>(stats.perApp.size());
  }
  return stats;
}

std::vector<double> StudyAggregator::sortedTotals(
    const std::vector<std::uint64_t>& values) {
  std::vector<double> out(values.begin(), values.end());
  std::sort(out.begin(), out.end(), std::greater<>());
  return out;
}

StudyAggregator::Concentration StudyAggregator::concentration() const {
  const auto countForHalf = [](std::vector<std::uint64_t> totals) {
    std::uint64_t grand = 0;
    for (const std::uint64_t t : totals) grand += t;
    std::sort(totals.begin(), totals.end(), std::greater<>());
    std::uint64_t running = 0;
    std::size_t count = 0;
    for (const std::uint64_t t : totals) {
      if (running * 2 >= grand) break;
      running += t;
      ++count;
    }
    return count;
  };

  std::vector<std::uint64_t> appTotals;
  for (const auto& app : apps_) appTotals.push_back(app.total());
  std::vector<std::uint64_t> libTotals;
  for (const EntityAgg& agg : libraries_)
    if (agg.present) libTotals.push_back(agg.total());
  std::vector<std::uint64_t> domainTotals;
  for (const EntityAgg& agg : domains_)
    if (agg.present) domainTotals.push_back(agg.total());

  return {countForHalf(std::move(appTotals)), countForHalf(std::move(libTotals)),
          countForHalf(std::move(domainTotals))};
}

double StudyAggregator::meanBytesPerRun(const std::string& libCategory) const {
  if (apps_.empty()) return 0.0;
  const auto byCategory = transferByLibCategory();
  const auto it = byCategory.find(libCategory);
  if (it == byCategory.end()) return 0.0;
  return static_cast<double>(it->second) / static_cast<double>(apps_.size());
}

void StudyAccumulator::foldLocked(PendingApp&& app) {
  study_.addAppColumns(app.run, app.columns);
  ++folded_;
}

void StudyAccumulator::drainLocked() {
  while (true) {
    const auto it = pending_.begin();
    if (it == pending_.end() || it->first != next_) return;
    if (it->second.has_value()) foldLocked(std::move(*it->second));
    pending_.erase(it);
    ++next_;
  }
}

void StudyAccumulator::addColumns(std::size_t jobIndex, RunArtifacts&& run,
                                  FlowColumns&& columns) {
  const std::scoped_lock lock(mutex_);
  pending_.emplace(jobIndex, PendingApp{std::move(run), std::move(columns)});
  drainLocked();
}

void StudyAccumulator::skip(std::size_t jobIndex) {
  const std::scoped_lock lock(mutex_);
  pending_.emplace(jobIndex, std::nullopt);
  drainLocked();
}

void StudyAccumulator::finish() {
  const std::scoped_lock lock(mutex_);
  // Tolerate gaps (a worker that died without reporting): fold whatever
  // arrived, still in index order.
  for (auto& [index, app] : pending_) {
    if (!app.has_value()) continue;
    foldLocked(std::move(*app));
  }
  if (!pending_.empty()) next_ = pending_.rbegin()->first + 1;
  pending_.clear();
}

std::size_t StudyAccumulator::appsFolded() const {
  const std::scoped_lock lock(mutex_);
  return folded_;
}

std::size_t StudyAccumulator::pendingCount() const {
  const std::scoped_lock lock(mutex_);
  return pending_.size();
}

}  // namespace libspector::core
