#include "core/monitor.hpp"

#include <unordered_map>

namespace libspector::core {

CoverageResult MethodMonitor::computeCoverage(
    const std::vector<std::string>& traceFile, const dex::ApkFile& apk) {
  // Index the trace, not the dex: a run touches a few hundred of an apk's
  // thousands of methods. Each distinct entry maps to the number of times
  // the trace lists it; the first dex signature equal to it claims that
  // count, so an entry counts once per appearance in the trace however
  // often the dex repeats it.
  std::unordered_map<std::string_view, std::size_t> unclaimed;
  unclaimed.reserve(traceFile.size());
  for (const auto& entry : traceFile) ++unclaimed[entry];
  CoverageResult result;
  result.totalMethods = apk.totalMethodCount();
  result.traceEntries = traceFile.size();
  for (const auto& dex : apk.dexFiles)
    for (const auto& cls : dex.classes)
      for (const auto& m : cls.methods) {
        const auto it = unclaimed.find(m.signature);
        if (it == unclaimed.end()) continue;
        result.coveredMethods += it->second;
        it->second = 0;
      }
  return result;
}

}  // namespace libspector::core
