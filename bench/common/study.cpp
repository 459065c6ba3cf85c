#include "common/study.hpp"

#include <cstdlib>
#include <cstring>
#include <optional>

#include "orch/study.hpp"
#include "util/strings.hpp"

namespace libspector::bench {

StudyOptions optionsFromArgs(int argc, char** argv, StudyOptions defaults) {
  std::optional<std::uint64_t> apps = defaults.appCount;
  std::optional<std::uint64_t> seed = defaults.seed;
  if (argc > 1) apps = util::parseWholeNumber(argv[1]);
  if (const char* text = std::getenv("LIBSPECTOR_SEED"))
    seed = util::parseWholeNumber(text);
  if (argc > 2 || !apps || *apps == 0 || !seed) {
    const char* name = argc > 0 ? argv[0] : "bench";
    if (const char* slash = std::strrchr(name, '/')) name = slash + 1;
    std::fprintf(stderr,
                 "usage: %s [apps>0]   (environment: LIBSPECTOR_SEED=<whole "
                 "number> sets the store seed)\n",
                 name);
    std::exit(2);
  }
  defaults.appCount = static_cast<std::size_t>(*apps);
  defaults.seed = *seed;
  return defaults;
}

StudyResult runStudy(const StudyOptions& options) {
  store::StoreConfig storeConfig;
  storeConfig.appCount = options.appCount;
  storeConfig.seed = options.seed;
  storeConfig.methodScale = options.methodScale;
  storeConfig.scenarios = options.scenarios;

  StudyResult result;
  result.generator = std::make_unique<store::AppStoreGenerator>(storeConfig);

  orch::DispatcherConfig dispatcherConfig;
  dispatcherConfig.emulator.monkey.events = options.monkeyEvents;
  dispatcherConfig.emulator.monkey.throttleMs = options.throttleMs;
  dispatcherConfig.emulator.scenario = options.scenarios;
  auto output = orch::runStudy(*result.generator, dispatcherConfig);
  result.study = std::move(output.study);
  result.wallSeconds = output.wallSeconds;
  return result;
}

std::string bytesStr(double bytes) { return util::humanBytes(bytes); }

void printHeader(const std::string& title, const StudyOptions& options) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("(corpus: %zu apps, seed %llu, monkey %u events @ %u ms)\n\n",
              options.appCount,
              static_cast<unsigned long long>(options.seed),
              options.monkeyEvents, options.throttleMs);
}

}  // namespace libspector::bench
