// spectorctl — command-line front end for the Libspector pipeline.
//
//   spectorctl run --apps N [--seed S] [--workers W] --out DIR
//       Measure a study with orch::runStudy, which checkpoints every app's
//       artifact bundle (<sha>.spab) into DIR as its run completes and
//       writes the world manifest (domains.csv, with the VT-categorizer
//       ground truth) at the end. Each bundle is a pure function of its job
//       and is named by its sha, so DIR holds the same bytes at any
//       --workers. DIR must not hold a study yet (a .spab bundle): a second
//       world written into it would mix with the first.
//
//   spectorctl analyze --in DIR [--csv SUBDIR] [--report FILE]
//       Re-run the offline pipeline over a directory that `run` wrote —
//       measurement once, analysis many times, as with the paper's central
//       database of pcaps and trace files. Runs fold in job-index order,
//       so the figures are those of the study that measured DIR.
//
//   spectorctl inspect --in DIR --sha PREFIX
//       Dump the context reports and attributed flows of the lowest-indexed
//       app whose sha256 starts with PREFIX.
//
//   spectorctl policy --apps N [--seed S] --block PREFIX [--block ...]
//       Enforcement dry-run: measure with the given library blacklist.
//
// analyze and inspect read DIR with orch::StudyRecovery::scan, as
// resumeStudy does: they move corrupt bundles into DIR/quarantine/, each
// named in a `[WARN] recovery:` line on stderr, and delete torn .tmp files.
//
// A bad command line (--help, an unknown subcommand or option, an option
// without its value, a malformed number or 0 apps) prints the usage text
// and exits 2. An --in that is no directory, a run --out that already
// holds a study, or a file or directory that cannot be written (a
// checkpoint write included) prints `spectorctl: <reason>` and exits 1.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
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
#include "orch/recovery.hpp"
#include "orch/study.hpp"
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

/// Prints `why`; returns the exit status 1.
int fail(const std::string& why) {
  std::fprintf(stderr, "spectorctl: %s\n", why.c_str());
  return 1;
}

/// True when `dir` holds a study `run` wrote: a bundle. A path that is no
/// directory holds none.
bool holdsStudy(const std::filesystem::path& dir) {
  std::error_code error;
  if (!std::filesystem::is_directory(dir, error)) return false;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().extension() == ".spab") return true;
  return false;
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
  if (holdsStudy(outDir))
    return fail("run: " + outDir + " already holds a study");
  store::StoreConfig config;
  config.appCount = *apps;
  config.seed = *seed;
  const store::AppStoreGenerator generator(config);

  orch::DispatcherConfig dispatcherConfig;
  dispatcherConfig.workers = *workers;
  const orch::StudyOutput output =
      orch::runStudy(generator, dispatcherConfig, outDir);
  std::printf("saved %zu artifact bundles + domains.csv to %s\n",
              output.appsProcessed, outDir.c_str());
  return 0;
}

/// Attribution as `run` measured it: the builtin library corpus and the
/// domain ground truth `run` saved in `dir`/domains.csv.
struct SavedWorldAttributor {
  explicit SavedWorldAttributor(const std::string& dir) {
    std::ifstream in(std::filesystem::path(dir) / "domains.csv");
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
      const auto comma = line.rfind(',');
      if (comma == std::string::npos) continue;
      truth[line.substr(0, comma)] = line.substr(comma + 1);
    }
  }
  // The categorizer reads `truth` through `this`.
  SavedWorldAttributor(const SavedWorldAttributor&) = delete;
  SavedWorldAttributor& operator=(const SavedWorldAttributor&) = delete;

  std::map<std::string, std::string> truth;
  radar::LibraryCorpus corpus = radar::LibraryCorpus::builtin();
  vtsim::DomainCategorizer categorizer{
      vtsim::defaultVendorPanel(), [this](const std::string& domain) {
        const auto it = truth.find(domain);
        return it == truth.end() ? std::string("unknown") : it->second;
      }};
  core::TrafficAttributor attributor{corpus, categorizer};
};

int cmdAnalyze(const Args& args) {
  const std::string inDir = optStr(args, "in");
  if (inDir.empty()) return usage("analyze: --in DIR is required");
  // A scan reads a missing directory as an empty study.
  if (!std::filesystem::is_directory(inDir))
    return fail("analyze: no directory " + inDir);
  const orch::RecoveryReport stored = orch::StudyRecovery::scan(inDir);
  std::printf("loaded %zu artifact bundles from %s (%zu quarantined)\n",
              stored.runs.size(), inDir.c_str(), stored.quarantined.size());

  const SavedWorldAttributor world(inDir);
  // runStudy folds in job-index order too, so this is its study.
  core::StudyAggregator study;
  for (const auto& run : stored.runs)
    study.addAppColumns(run.artifacts,
                        world.attributor.attributeColumns(run.artifacts));
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
    report.close();
    if (!report)
      return fail("analyze: cannot write study report to " + reportPath);
    std::printf("wrote study report to %s\n", reportPath.c_str());
  }
  return 0;
}

int cmdInspect(const Args& args) {
  const std::string inDir = optStr(args, "in");
  const std::string shaPrefix = optStr(args, "sha");
  if (inDir.empty() || shaPrefix.empty())
    return usage("inspect: --in DIR and --sha PREFIX are required");
  if (!std::filesystem::is_directory(inDir))
    return fail("inspect: no directory " + inDir);
  const orch::RecoveryReport stored = orch::StudyRecovery::scan(inDir);
  // Runs come in job-index order: the lowest-indexed match wins.
  const auto match = std::find_if(
      stored.runs.begin(), stored.runs.end(),
      [&](const orch::RecoveredRun& run) {
        return run.artifacts.apkSha256.starts_with(shaPrefix);
      });
  if (match == stored.runs.end())
    return fail("inspect: no bundle matching sha prefix " + shaPrefix);
  const core::RunArtifacts& found = match->artifacts;
  std::printf("%s (%s, %s): %zu packets, %zu reports, coverage %.2f%%\n",
              found.apkSha256.c_str(), found.packageName.c_str(),
              found.appCategory.c_str(), found.capture.size(),
              found.reports.size(), 100.0 * found.coverage.ratio());
  const SavedWorldAttributor world(inDir);
  for (const auto& flow : world.attributor.attribute(found)) {
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
  // A filesystem error (an --out or --csv under a regular file, an
  // unreadable --in) is reported, not left to abort the process.
  try {
    if (args->command == "run") return cmdRun(*args);
    if (args->command == "analyze") return cmdAnalyze(*args);
    if (args->command == "inspect") return cmdInspect(*args);
    return cmdPolicy(*args);
  } catch (const std::exception& error) {
    return fail(error.what());
  }
}
