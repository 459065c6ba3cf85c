#include "core/monitor.hpp"

#include <unordered_set>

namespace libspector::core {

CoverageResult MethodMonitor::computeCoverage(
    const std::vector<std::string>& traceFile, const dex::ApkFile& apk) {
  // Views into the apk's own signature strings: the set indexes the dex in
  // place for the length of this call.
  std::unordered_set<std::string_view> dexSet;
  dexSet.reserve(apk.totalMethodCount());
  for (const auto& dex : apk.dexFiles)
    for (const auto& cls : dex.classes)
      for (const auto& m : cls.methods) dexSet.insert(m.signature);
  CoverageResult result;
  result.totalMethods = apk.totalMethodCount();
  result.traceEntries = traceFile.size();
  for (const auto& entry : traceFile) {
    if (dexSet.contains(entry)) ++result.coveredMethods;
  }
  return result;
}

}  // namespace libspector::core
