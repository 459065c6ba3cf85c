#include "policy/engine.hpp"

#include <algorithm>

#include "core/attribution.hpp"
#include "radar/ant.hpp"
#include "util/strings.hpp"

namespace libspector::policy {

void PolicyEngine::blockLibraryPrefix(std::string prefix) {
  libraryPrefixes_.push_back(std::move(prefix));
}

void PolicyEngine::blockDomain(std::string domain) {
  domains_.push_back(std::move(domain));
}

void PolicyEngine::blockAntLibraries() {
  for (const auto prefix : radar::antLibraries().prefixes())
    libraryPrefixes_.emplace_back(prefix);
}

void PolicyEngine::rateLimitLibrary(std::string prefix, std::size_t maxConnects,
                                    util::SimTimeMs windowMs) {
  rateLimits_.push_back({std::move(prefix), maxConnects, windowMs, {}});
}

PolicyDecision PolicyEngine::evaluateOrigin(std::string_view originLibrary,
                                            std::string_view domain,
                                            util::SimTimeMs nowMs) {
  for (const auto& prefix : libraryPrefixes_) {
    if (util::isHierarchicalPrefix(prefix, originLibrary))
      return {true, "library:" + prefix};
  }
  for (const auto& blocked : domains_) {
    if (domain == blocked) return {true, "domain:" + blocked};
  }
  for (RateLimit& limit : rateLimits_) {
    if (!util::isHierarchicalPrefix(limit.prefix, originLibrary)) continue;
    while (!limit.recent.empty() &&
           limit.recent.front() + limit.windowMs <= nowMs)
      limit.recent.pop_front();
    if (limit.recent.size() >= limit.maxConnects)
      return {true, "rate:" + limit.prefix};
    limit.recent.push_back(nowMs);  // allowed connect consumes budget
    return {};
  }
  return {};
}

PolicyDecision PolicyEngine::evaluate(std::span<const std::string> stackEntries,
                                      std::string_view domain,
                                      util::SimTimeMs nowMs) {
  // Same origin extraction the measurement pipeline uses: chronologically
  // first non-built-in frame, with laundering trampolines elided.
  const auto origin = core::originFrameIndex(stackEntries);
  std::string originLibrary;
  if (origin) originLibrary = core::packageOfEntry(stackEntries[*origin]);
  return evaluateOrigin(originLibrary, domain, nowMs);
}

}  // namespace libspector::policy
