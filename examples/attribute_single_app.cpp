// Deep-dive on a single app: install it in one emulator, exercise it, and
// walk through exactly what Libspector collects — the UDP context reports
// with their translated stack traces (Listing 1), the per-socket volume
// join against the capture, and the final origin-library attribution with
// Listing-2-style category votes.
//
// Usage: attribute_single_app [appIndex] [seed]
#include <cstdint>
#include <cstdio>
#include <optional>

#include "core/attribution.hpp"
#include "orch/emulator.hpp"
#include "radar/corpus.hpp"
#include "store/generator.hpp"
#include "util/strings.hpp"
#include "vtsim/categorizer.hpp"

using namespace libspector;

int main(int argc, char** argv) {
  std::optional<std::uint64_t> appIndex = 7;
  std::optional<std::uint64_t> seed = 20200629;
  if (argc > 1) appIndex = util::parseWholeNumber(argv[1]);
  if (argc > 2) seed = util::parseWholeNumber(argv[2]);
  // The store holds apps 0..appIndex, so appIndex + 1 must not wrap to 0.
  if (argc > 3 || !appIndex || *appIndex == UINT64_MAX || !seed) {
    std::fprintf(stderr, "usage: attribute_single_app [appIndex] [seed]\n");
    return 2;
  }

  store::StoreConfig storeConfig;
  storeConfig.appCount = *appIndex + 1;
  storeConfig.seed = *seed;
  const store::AppStoreGenerator generator(storeConfig);
  const auto& plan = generator.plan(*appIndex);
  auto job = generator.makeJob(*appIndex);

  std::printf("app:        %s\n", plan.packageName.c_str());
  std::printf("category:   %s\n", plan.appCategory.c_str());
  std::printf("dex:        %zu methods in %zu dex file(s)\n",
              job.apk.totalMethodCount(), job.apk.dexCount());
  std::printf("version:    %u (dexTimestamp %llu, vtScanDate %llu)\n",
              job.apk.versionCode,
              static_cast<unsigned long long>(job.apk.dexTimestamp),
              static_cast<unsigned long long>(job.apk.vtScanDate));

  orch::EmulatorConfig emulatorConfig;
  emulatorConfig.monkey.events = 1000;
  emulatorConfig.monkey.throttleMs = 500;
  emulatorConfig.seed = *seed + *appIndex;
  orch::EmulatorInstance emulator(generator.farm(), nullptr, emulatorConfig);
  const auto artifacts = emulator.run(job.apk, job.program);

  std::printf("\nrun:        %u monkey events over %.1f simulated minutes\n",
              artifacts.monkeyEventsInjected,
              static_cast<double>(artifacts.runDurationMs) / 60000.0);
  std::printf("capture:    %zu packets, %s on the wire\n",
              artifacts.capture.size(),
              util::humanBytes(static_cast<double>(artifacts.capture.totalWireBytes())).c_str());
  std::printf("coverage:   %.2f%% (%zu of %zu dex methods)\n",
              100.0 * artifacts.coverage.ratio(),
              artifacts.coverage.coveredMethods, artifacts.coverage.totalMethods);
  std::printf("reports:    %zu sockets observed by the Socket Supervisor\n",
              artifacts.reports.size());

  if (!artifacts.reports.empty()) {
    std::printf("\nFirst report's stack trace (innermost first, as in Listing 1):\n");
    const auto& report = artifacts.reports.front();
    for (std::size_t i = 0; i < report.stackSignatures.size(); ++i)
      std::printf("  %2zu  %s\n", i + 1, report.stackSignatures[i].c_str());
    std::printf("  socket pair: %s\n", report.socketPair.str().c_str());
  }

  // Offline attribution.
  const radar::LibraryCorpus corpus = radar::LibraryCorpus::builtin();
  vtsim::DomainCategorizer categorizer(
      vtsim::defaultVendorPanel(),
      [&generator](const std::string& domain) { return generator.domainTruth(domain); });
  core::TrafficAttributor attributor(corpus, categorizer);
  const auto flows = attributor.attribute(artifacts);

  std::printf("\nAttributed flows (%zu):\n", flows.size());
  std::printf("%-42s %-16s %-24s %10s %10s\n", "origin-library", "category",
              "domain", "sent", "recv");
  for (const auto& flow : flows) {
    std::printf("%-42s %-16s %-24s %10s %10s\n", flow.originLibrary.str().c_str(),
                flow.libraryCategory.str().c_str(),
                flow.domain.empty() ? "(unresolved)" : flow.domain.str().c_str(),
                util::humanBytes(static_cast<double>(flow.sentBytes)).c_str(),
                util::humanBytes(static_cast<double>(flow.recvBytes)).c_str());
  }

  // Listing-2-style vote explanation for the first non-built-in origin.
  for (const auto& flow : flows) {
    if (flow.builtinOrigin) continue;
    const auto prediction = corpus.predictCategory(flow.originLibrary);
    std::printf("\nCategory vote for %s (matched prefix '%s'):\n",
                flow.originLibrary.str().c_str(), prediction.matchedPrefix.c_str());
    for (const auto& [category, count] : prediction.votes)
      std::printf("  %-24s %d\n", category.c_str(), count);
    std::printf("  -> %s\n", prediction.category.c_str());
    break;
  }
  return 0;
}
