// spectorctl — command-line front end for the Libspector pipeline.
//
//   spectorctl run --apps N [--seed S] [--workers W] --out DIR
//       Run a study; persist every app's artifact bundle (.spab), a world
//       manifest (domains.csv with the VT-categorizer ground truth), and
//       the figure CSVs into DIR.
//
//   spectorctl analyze --in DIR [--csv SUBDIR]
//       Re-run the offline pipeline over previously persisted artifacts —
//       measurement once, analysis many times, as with the paper's central
//       database of pcaps and trace files.
//
//   spectorctl inspect --in DIR --sha PREFIX
//       Dump one app's context reports and attributed flows.
//
//   spectorctl policy --apps N [--seed S] --block PREFIX [--block ...]
//       Enforcement dry-run: measure with the given library blacklist.
//
// A bad command line (--help, an unknown subcommand or option, an option
// without its value, a malformed number or 0 apps) prints the usage text
// and exits 2.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/analysis.hpp"
#include "core/attribution.hpp"
#include "core/export.hpp"
#include "hook/xposed.hpp"
#include "monkey/monkey.hpp"
#include "orch/database.hpp"
#include "orch/dispatcher.hpp"
#include "policy/module.hpp"
#include "radar/corpus.hpp"
#include "rt/tracer.hpp"
#include "store/generator.hpp"
#include "util/strings.hpp"
#include "vtsim/categorizer.hpp"

using namespace libspector;

namespace {

constexpr const char* kUsage =
    "usage: spectorctl <run|analyze|inspect|policy> [options]\n"
    "  run     --apps N>0 [--seed S] [--workers W] --out DIR\n"
    "  analyze --in DIR [--csv DIR] [--report FILE]\n"
    "  inspect --in DIR --sha PREFIX\n"
    "  policy  --apps N>0 [--seed S] --block PREFIX [--block ...]\n";

/// Prints `why` (if any) and the usage text; returns the exit status 2.
int usage(const char* why = nullptr) {
  if (why != nullptr) std::fprintf(stderr, "spectorctl: %s\n", why);
  std::fputs(kUsage, stderr);
  return 2;
}

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> blockPrefixes;
};

/// The options each subcommand takes; every one takes a value.
const std::map<std::string, std::set<std::string>> kOptions = {
    {"run", {"apps", "seed", "workers", "out"}},
    {"analyze", {"in", "csv", "report"}},
    {"inspect", {"in", "sha"}},
    {"policy", {"apps", "seed", "block"}},
};

/// The command line, or nullopt when it names no subcommand, an option the
/// subcommand does not take, or an option without its value.
std::optional<Args> parseArgs(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args args;
  args.command = argv[1];
  const auto allowed = kOptions.find(args.command);
  if (allowed == kOptions.end()) return std::nullopt;
  for (int i = 2; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (!flag.starts_with("--") || i + 1 >= argc) return std::nullopt;
    const std::string key(flag.substr(2));
    if (!allowed->second.contains(key)) return std::nullopt;
    if (key == "block") {
      args.blockPrefixes.emplace_back(argv[i + 1]);
    } else {
      args.options[key] = argv[i + 1];
    }
  }
  return args;
}

/// A whole-number option, `fallback` when absent, nullopt when malformed.
std::optional<std::uint64_t> optNumber(const Args& args, const std::string& key,
                                       std::uint64_t fallback) {
  const auto it = args.options.find(key);
  return it == args.options.end() ? fallback
                                  : util::parseWholeNumber(it->second);
}

std::string optStr(const Args& args, const std::string& key, std::string fallback = {}) {
  const auto it = args.options.find(key);
  return it == args.options.end() ? std::move(fallback) : it->second;
}

void printStudySummary(const core::StudyAggregator& study) {
  const auto totals = study.totals();
  std::printf("apps %zu, flows %zu, transferred %s (recv %s / sent %s)\n",
              totals.appCount, totals.flowCount,
              util::humanBytes(static_cast<double>(totals.totalBytes)).c_str(),
              util::humanBytes(static_cast<double>(totals.recvBytes)).c_str(),
              util::humanBytes(static_cast<double>(totals.sentBytes)).c_str());
  std::printf("origin-libraries %zu, domains %zu\n", totals.originLibraryCount,
              totals.domainCount);
  for (const auto& [category, bytes] : study.transferByLibCategory()) {
    std::printf("  %-24s %6.2f%%\n", category.c_str(),
                totals.totalBytes
                    ? 100.0 * static_cast<double>(bytes) /
                          static_cast<double>(totals.totalBytes)
                    : 0.0);
  }
}

int cmdRun(const Args& args) {
  const std::string outDir = optStr(args, "out");
  if (outDir.empty()) return usage("run: --out DIR is required");
  const auto apps = optNumber(args, "apps", 200);
  const auto seed = optNumber(args, "seed", 20200629);
  const auto workers = optNumber(args, "workers", 0);
  if (!apps || *apps == 0 || !seed || !workers)
    return usage("run: --apps needs a whole number > 0, --seed and "
                 "--workers whole numbers");
  store::StoreConfig config;
  config.appCount = *apps;
  config.seed = *seed;
  const store::AppStoreGenerator generator(config);

  orch::ResultDatabase db;
  orch::DispatcherConfig dispatcherConfig;
  dispatcherConfig.workers = *workers;
  orch::Dispatcher dispatcher(generator.farm(), nullptr, dispatcherConfig);
  std::size_t next = 0;
  dispatcher.run(
      [&]() -> std::optional<orch::Dispatcher::Job> {
        if (next >= generator.appCount()) return std::nullopt;
        const std::size_t index = next++;
        auto job = generator.makeJob(index);
        return orch::Dispatcher::Job{.apk = std::move(job.apk),
                                     .program = std::move(job.program),
                                     .index = index};
      },
      [&](core::RunArtifacts&& artifacts) { db.store(std::move(artifacts)); });

  const std::size_t saved = db.saveToDirectory(outDir);

  // World manifest: the domain ground truth the VT-simulator needs when the
  // artifacts are analyzed later (the paper scrapes VirusTotal once and
  // caches verdicts per domain).
  std::ofstream manifest(std::filesystem::path(outDir) / "domains.csv");
  manifest << "domain,truth\n";
  for (const auto& domain : generator.farm().allDomains())
    manifest << core::csvField(domain) << ','
             << core::csvField(generator.domainTruth(domain)) << '\n';

  std::printf("saved %zu artifact bundles + domains.csv to %s\n", saved,
              outDir.c_str());
  return 0;
}

std::map<std::string, std::string> loadDomainManifest(const std::string& dir) {
  std::map<std::string, std::string> truth;
  std::ifstream in(std::filesystem::path(dir) / "domains.csv");
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    const auto comma = line.rfind(',');
    if (comma == std::string::npos) continue;
    truth[line.substr(0, comma)] = line.substr(comma + 1);
  }
  return truth;
}

int cmdAnalyze(const Args& args) {
  const std::string inDir = optStr(args, "in");
  if (inDir.empty()) return usage("analyze: --in DIR is required");
  orch::ResultDatabase db;
  const auto load = db.loadFromDirectory(inDir);
  std::printf("loaded %zu artifact bundles from %s (%zu replaced)\n",
              load.loaded, inDir.c_str(), load.replaced);
  for (const auto& failure : load.failures)
    std::fprintf(stderr, "analyze: skipped corrupt bundle %s: %s\n",
                 failure.path.c_str(), failure.error.c_str());

  const auto truth = loadDomainManifest(inDir);
  const radar::LibraryCorpus corpus = radar::LibraryCorpus::builtin();
  vtsim::DomainCategorizer categorizer(
      vtsim::defaultVendorPanel(), [&truth](const std::string& domain) {
        const auto it = truth.find(domain);
        return it == truth.end() ? std::string("unknown") : it->second;
      });
  core::TrafficAttributor attributor(corpus, categorizer);
  core::StudyAggregator study;
  db.forEach([&](const core::RunArtifacts& artifacts) {
    study.addAppColumns(artifacts, attributor.attributeColumns(artifacts));
  });
  printStudySummary(study);

  const std::string csvDir = optStr(args, "csv");
  if (!csvDir.empty()) {
    const std::size_t files = core::exportStudyCsv(study, csvDir);
    std::printf("wrote %zu figure CSVs to %s\n", files, csvDir.c_str());
  }
  const std::string reportPath = optStr(args, "report");
  if (!reportPath.empty()) {
    std::ofstream report(reportPath, std::ios::trunc);
    core::writeStudyReport(study, report);
    std::printf("wrote study report to %s\n", reportPath.c_str());
  }
  return 0;
}

int cmdInspect(const Args& args) {
  const std::string inDir = optStr(args, "in");
  const std::string shaPrefix = optStr(args, "sha");
  if (inDir.empty() || shaPrefix.empty())
    return usage("inspect: --in DIR and --sha PREFIX are required");
  orch::ResultDatabase db;
  const auto load = db.loadFromDirectory(inDir);
  for (const auto& failure : load.failures)
    std::fprintf(stderr, "inspect: skipped corrupt bundle %s: %s\n",
                 failure.path.c_str(), failure.error.c_str());
  std::optional<core::RunArtifacts> found;
  db.forEach([&](const core::RunArtifacts& artifacts) {
    if (!found && artifacts.apkSha256.starts_with(shaPrefix))
      found = artifacts;
  });
  if (!found) {
    std::fprintf(stderr, "inspect: no bundle matching sha prefix %s\n",
                 shaPrefix.c_str());
    return 1;
  }
  std::printf("%s (%s, %s): %zu packets, %zu reports, coverage %.2f%%\n",
              found->apkSha256.c_str(), found->packageName.c_str(),
              found->appCategory.c_str(), found->capture.size(),
              found->reports.size(), 100.0 * found->coverage.ratio());
  const auto truth = loadDomainManifest(inDir);
  const radar::LibraryCorpus corpus = radar::LibraryCorpus::builtin();
  vtsim::DomainCategorizer categorizer(
      vtsim::defaultVendorPanel(), [&truth](const std::string& domain) {
        const auto it = truth.find(domain);
        return it == truth.end() ? std::string("unknown") : it->second;
      });
  core::TrafficAttributor attributor(corpus, categorizer);
  for (const auto& flow : attributor.attribute(*found)) {
    std::printf("  %-44s %-16s %-26s %9s/%9s\n", flow.originLibrary.str().c_str(),
                flow.libraryCategory.str().c_str(),
                flow.domain.empty() ? "(unresolved)" : flow.domain.str().c_str(),
                util::humanBytes(static_cast<double>(flow.sentBytes)).c_str(),
                util::humanBytes(static_cast<double>(flow.recvBytes)).c_str());
  }
  return 0;
}

int cmdPolicy(const Args& args) {
  if (args.blockPrefixes.empty())
    return usage("policy: at least one --block PREFIX is required");
  const auto apps = optNumber(args, "apps", 100);
  const auto seed = optNumber(args, "seed", 20200629);
  if (!apps || *apps == 0 || !seed)
    return usage("policy: --apps needs a whole number > 0, --seed a whole "
                 "number");
  store::StoreConfig config;
  config.appCount = *apps;
  config.seed = *seed;
  const store::AppStoreGenerator generator(config);

  policy::PolicyEngine engine;
  for (const auto& prefix : args.blockPrefixes) engine.blockLibraryPrefix(prefix);

  std::size_t sockets = 0;
  std::size_t blocked = 0;
  std::map<std::string, std::size_t> blockedByRule;
  for (std::size_t i = 0; i < generator.appCount(); ++i) {
    const auto job = generator.makeJob(i);
    util::SimClock clock;
    util::Rng rng(config.seed + i);
    net::NetworkStack stack(generator.farm(), clock, rng.fork(1));
    rt::UniqueMethodTracer tracer;
    rt::Interpreter runtime(job.program, stack, tracer, clock, rng.fork(2));
    auto module = std::make_shared<policy::PolicyModule>(engine);
    hook::XposedFramework xposed;
    xposed.installModule(module);
    xposed.attachToApp(runtime, job.apk);
    runtime.start();
    monkey::MonkeyConfig monkeyConfig;
    monkeyConfig.events = 1000;
    monkey::exercise(runtime, clock, monkeyConfig);
    sockets += runtime.socketsCreated();
    blocked += runtime.connectsBlocked();
    for (const auto& entry : module->blockedLog()) ++blockedByRule[entry.rule];
  }
  std::printf("%zu connections allowed, %zu vetoed\n", sockets, blocked);
  for (const auto& [rule, count] : blockedByRule)
    std::printf("  %-40s %zu\n", rule.c_str(), count);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parseArgs(argc, argv);
  if (!args) return usage();
  if (args->command == "run") return cmdRun(*args);
  if (args->command == "analyze") return cmdAnalyze(*args);
  if (args->command == "inspect") return cmdInspect(*args);
  return cmdPolicy(*args);
}
