#include "core/monitor.hpp"

#include <algorithm>
#include <unordered_map>

namespace libspector::core {

namespace {

/// Whether `entry` is one of the apk's dex signatures, asked of the class
/// index: a signature "L<class part>;->..." that is its class's own sits
/// in the class whose dotted name is that class part; any other dex string
/// is a stray.
bool isDexSignature(std::string_view entry, const dex::ApkFile& apk) {
  const auto equal = [&apk, entry](std::size_t m) {
    return apk.signature(m) == entry;
  };
  const std::size_t arrow = entry.find(";->");
  if (!entry.empty() && entry.front() == 'L' && arrow != std::string_view::npos) {
    std::uint64_t hash = dex::kClassHashSeed;
    for (const char c : entry.substr(1, arrow - 1))
      hash = dex::classHashStep(hash, c == '/' ? '.' : c);
    for (const auto& key : apk.classesWithHash(hash))
      if (std::ranges::any_of(apk.classMethods(key.cls), equal)) return true;
  }
  return std::ranges::any_of(apk.strays(), equal);
}

}  // namespace

CoverageResult MethodMonitor::computeCoverage(
    const std::vector<std::string>& traceFile, const dex::ApkFile& apk) {
  // Index the trace, not the dex: a run touches a few hundred of an apk's
  // thousands of methods. Each distinct entry maps to the number of times
  // the trace lists it and counts that often when the dex holds it, once
  // however often the dex repeats it.
  std::unordered_map<std::string_view, std::size_t> appearances;
  appearances.reserve(traceFile.size());
  for (const auto& entry : traceFile) ++appearances[entry];
  CoverageResult result;
  result.totalMethods = apk.totalMethodCount();
  result.traceEntries = traceFile.size();
  for (const auto& [entry, count] : appearances)
    if (isDexSignature(entry, apk)) result.coveredMethods += count;
  return result;
}

}  // namespace libspector::core
