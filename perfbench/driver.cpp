// Study benchmark driver (perfbench/README.md has the workloads and metrics).
//
// One process runs one workload. With --trace 0 it times the workload's
// top-level library calls in back-to-back passes and reports the end-to-end
// metrics. With --trace 1 it drives the same corpus one app at a time
// through each layer's public leaf call, records a span around every call,
// and reports the per-layer metrics. Either way the last line of stdout is
// one JSON object with the keys correct, attempted, failed and metrics.
// perfbench/run.py builds this binary, is the one checker of the command
// line, and adds provenance; the driver trusts the flags run.py passes.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/analysis.hpp"
#include "core/attribution.hpp"
#include "core/export.hpp"
#include "orch/emulator.hpp"
#include "orch/recovery.hpp"
#include "orch/study.hpp"
#include "radar/corpus.hpp"
#include "spectord/cluster.hpp"
#include "store/generator.hpp"
#include "vtsim/categorizer.hpp"
#include "vtsim/vendor.hpp"

namespace {

namespace fs = std::filesystem;
using namespace libspector;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDefaultSeed = 20200629;
/// A timed run does its whole set-up at least this many times, and until
/// kSetupSeconds have been timed, and keeps the last; setup_s is the
/// median, which one slow repeat does not move. The time floor gives a
/// set-up of a few milliseconds enough repeats to steady its median.
constexpr std::size_t kSetupRepeats = 3;
constexpr double kSetupSeconds = 1.0;
/// Two collectors, one after the other, as in the collector workload.
constexpr std::uint32_t kCollectors = 2;

struct Workload {
  const char* name;
  /// Apps per world (one pass studies one world). Sized so a pass takes a
  /// few seconds or less on a 4-core machine: a real study, yet short
  /// enough that one run measures many passes and reports their median.
  std::size_t defaultApps;
  /// Distinct worlds a timed run cycles through, in whole cycles. Per-app
  /// cost varies between apps, so one small world's throughput depends on
  /// which apps its seed drew (by up to ±15% at 120 apps); the median over
  /// several worlds much less. Sized so a cycle takes well under the run
  /// length on a 4-core machine, so rounding up to whole cycles adds at
  /// most one cycle to a run.
  std::size_t worlds;
  /// Every workload scenario on (keep-alive reuse, adversarial apps,
  /// background sync), in the store and the emulator alike.
  bool scenarios;
  /// Digest of world 0's rendered study at kDefaultSeed and defaultApps.
  const char* pinnedDigest;
};

constexpr Workload kWorkloads[] = {
    {"campaign", 120, 8, false, "4c11a7b0da6fad7f"},
    {"replay", 100, 3, true, "b094659daa7e9dea"},
    {"collector", 120, 4, false, "4c11a7b0da6fad7f"},
};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  std::size_t apps = 0;
  std::uint64_t seconds = 0;
  bool trace = false;
  fs::path work;
  /// Negative self-test: truncate one bundle of the replay corpus.
  bool truncateSpab = false;
};

/// Reads the flags perfbench/run.py passes: --workload, --seed, --seconds,
/// --trace and --work always, --apps and --truncate-spab when asked for.
Args parseArgs(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  Args args;
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == std::string_view("--truncate-spab")) {
      args.truncateSpab = true;
    } else if (i + 1 < argc) {
      flags[argv[i]] = argv[i + 1];
      ++i;
    }
  }
  for (const Workload& w : kWorkloads)
    if (flags["--workload"] == w.name) args.workload = &w;
  if (args.workload == nullptr || flags["--work"].empty())
    throw std::invalid_argument("bad command line; run perfbench/run.py");
  args.seed = std::stoull(flags.at("--seed"));
  args.apps = flags.count("--apps") != 0 ? std::stoull(flags["--apps"])
                                          : args.workload->defaultApps;
  args.seconds = std::stoull(flags.at("--seconds"));
  args.trace = flags.at("--trace") == "1";
  args.work = flags["--work"];
  return args;
}

// ---- Clocks, CPU, memory ----------------------------------------------------

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Process user + system CPU seconds, all threads.
double cpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Resets the resident high-water mark to the current RSS (Linux), so the
/// next peakRssMb() covers only what runs after this call. Free heap pages
/// are returned to the system first, so the mark starts from live memory
/// rather than from whatever set-up left cached in the allocator.
bool resetPeakRss() {
  malloc_trim(0);
  std::ofstream clearRefs("/proc/self/clear_refs");
  clearRefs << "5";
  clearRefs.flush();
  return static_cast<bool>(clearRefs);
}

/// VmHWM of this process, in MB.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

double ratio(double numerator, double denominator) {
  return denominator != 0.0 ? numerator / denominator : 0.0;
}

// ---- Rendering and digests --------------------------------------------------

/// The study as users consume it: the markdown report plus every figure
/// CSV, written under `csvDirectory`. Returns the report text.
std::string renderStudy(const core::StudyAggregator& study,
                        const fs::path& csvDirectory) {
  std::ostringstream report;
  core::writeStudyReport(study, report);
  core::exportStudyCsv(study, csvDirectory.string());
  return std::move(report).str();
}

/// FNV-1a/64 over the report text, then each CSV's name and bytes in name
/// order.
std::string digestRendered(const std::string& reportText,
                           const fs::path& csvDirectory) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto add = [&hash](std::string_view bytes) {
    for (const unsigned char c : bytes) {
      hash ^= c;
      hash *= 0x100000001b3ULL;
    }
  };
  add(reportText);
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(csvDirectory))
    files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  for (const auto& file : files) {
    std::ifstream in(file, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    add(file.filename().string());
    add(bytes.str());
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(hash));
  return hex;
}

/// Render into a fresh directory and digest.
std::string renderDigest(const core::StudyAggregator& study,
                         const fs::path& directory) {
  fs::remove_all(directory);
  return digestRendered(renderStudy(study, directory), directory);
}

std::string toHex(std::span<const std::uint8_t> bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * bytes.size());
  for (const std::uint8_t byte : bytes) {
    out += kHex[byte >> 4];
    out += kHex[byte & 0xf];
  }
  return out;
}

// ---- Result -----------------------------------------------------------------

class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      fail("metric " + name + " is not finite");
      value = 0.0;
    }
    metrics_.push_back({name, value, unit});
  }

  void fail(const std::string& why) {
    correct_ = false;
    std::fprintf(stderr, "perfbench: FAIL: %s\n", why.c_str());
  }

  void expect(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }

  void operations(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// Human-readable lines, then the JSON line last. Returns the exit code.
  int print() {
    if (attempted_ == 0) fail("no operation was attempted");
    if (failed_ != 0)
      fail(std::to_string(failed_) + " of " + std::to_string(attempted_) +
           " operations failed");
    std::printf("  %-36s %18.6g %s\n", "failed_frac",
                ratio(static_cast<double>(failed_),
                      static_cast<double>(attempted_)),
                "ratio");
    for (const auto& m : metrics_)
      std::printf("  %-36s %18.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    std::string json = "{\"correct\": ";
    json += correct_ ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char number[64];
      const auto [end, ec] =
          std::to_chars(number, number + sizeof(number), metrics_[i].value);
      json += (i == 0 ? "\"" : ", \"") + metrics_[i].name +
              "\": {\"value\": " + std::string(number, end) +
              ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct_ ? 0 : 1;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---- Ingest counters (read only through IngestMetrics::toJson) --------------

/// Every value of `"key": <number>` in `json` at or after `from`.
std::vector<double> jsonNumbers(const std::string& json, std::string_view key,
                                std::size_t from = 0) {
  const std::string needle = "\"" + std::string(key) + "\": ";
  std::vector<double> values;
  for (auto at = json.find(needle, from); at != std::string::npos;
       at = json.find(needle, at + needle.size()))
    values.push_back(std::strtod(json.c_str() + at + needle.size(), nullptr));
  return values;
}

/// One study's ingest counters, summed over the pipelines that ran it.
struct IngestTally {
  double datagrams = 0;
  double reportsDelivered = 0;
  double reportsLost = 0;
  double foldP99Ms = 0;  // max over pipelines
  std::vector<double> shardUtilization;

  void add(const ingest::IngestMetrics& metrics) {
    const std::string json = metrics.toJson();
    const auto perShard = json.find("\"per_shard\"");
    const auto top = [&](std::string_view key) {
      const auto values = jsonNumbers(json.substr(0, perShard), key);
      if (values.empty())
        throw std::runtime_error("ingest metrics lack " + std::string(key));
      return values.front();
    };
    datagrams += top("datagrams_received");
    reportsDelivered += top("reports_delivered");
    reportsLost += top("reports_lost");
    foldP99Ms = std::max(foldP99Ms, top("latency_p99_ms"));
    for (const double u : jsonNumbers(json, "utilization", perShard))
      shardUtilization.push_back(u);
  }

  [[nodiscard]] std::uint64_t reportsEmitted() const {
    return static_cast<std::uint64_t>(reportsDelivered + reportsLost);
  }
};

// ---- Workload configuration -------------------------------------------------

/// Store seed of world `k` of a run. World 0 is the run's seed itself, so
/// the default seed studies the repository's default store and the traced
/// run sees the first timed pass's corpus; the others are splitmix64
/// derived, so nearby run seeds share no world.
std::uint64_t worldSeed(std::uint64_t seed, std::size_t k) {
  if (k == 0) return seed;
  std::uint64_t z = seed + k * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

orch::StudyConfig studyConfig(const Args& args, std::size_t world) {
  orch::StudyConfig config;
  config.store.appCount = args.apps;
  config.store.seed = worldSeed(args.seed, world);
  if (args.workload->scenarios) {
    rt::ScenarioConfig all;
    all.keepAliveReuse = true;
    all.adversarialApps = true;
    all.backgroundSync = true;
    config.store.scenarios = all;
    config.dispatcher.emulator.scenario = all;
  }
  return config;
}

/// Builds world 0 kSetupRepeats times; returns the last build and the
/// build times.
std::unique_ptr<store::AppStoreGenerator> buildWorld(
    const Args& args, std::vector<double>& seconds) {
  const store::StoreConfig config = studyConfig(args, 0).store;
  std::unique_ptr<store::AppStoreGenerator> world;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    world.reset();
    const auto start = Clock::now();
    world = std::make_unique<store::AppStoreGenerator>(config);
    seconds.push_back(since(start));
  }
  return world;
}

std::uint64_t spabBytes(const std::vector<fs::path>& directories) {
  std::uint64_t bytes = 0;
  for (const auto& directory : directories)
    for (const auto& entry : fs::directory_iterator(directory))
      if (entry.path().extension() == ".spab") bytes += entry.file_size();
  return bytes;
}

/// At the default seed and size, world 0 must render the pinned digest.
void checkPinned(const Args& args, const std::string& digest, Result& result) {
  if (args.seed == kDefaultSeed && args.apps == args.workload->defaultApps)
    result.expect(digest == args.workload->pinnedDigest,
                  "world 0 rendered " + digest + ", pinned " +
                      args.workload->pinnedDigest);
}

// ---- Timed runs -------------------------------------------------------------

/// Runs a workload's whole set-up repeatedly (see kSetupRepeats), each
/// time into the emptied `directory`, appends each one's time to `seconds`
/// and returns what the last one built. Dropping the previous build is not
/// timed.
template <class SetUp>
auto timeSetUp(const fs::path& directory, SetUp&& setUp,
               std::vector<double>& seconds) {
  using Built = std::invoke_result_t<SetUp&, const fs::path&>;
  Built built;
  double timed = 0;
  while (seconds.size() < kSetupRepeats || timed < kSetupSeconds) {
    built = Built();
    fs::remove_all(directory);
    fs::create_directories(directory);
    const auto start = Clock::now();
    built = setUp(directory);
    seconds.push_back(since(start));
    timed += seconds.back();
  }
  return built;
}

struct PassOutput {
  std::string reportText;  // CSVs are under <pass directory>/csv
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// One pass over world `world`, working in the fresh `directory`.
using PassFn =
    std::function<PassOutput(std::size_t world, const fs::path& directory)>;

/// Runs passes back to back, pass n over world n mod worlds, in whole
/// cycles until --seconds have elapsed, so every run takes its medians over
/// the same worlds however fast the host is. Reports the end-to-end metrics
/// as medians over passes. The RSS high-water mark is reset before each
/// pass, so each pass's peak is its own. Returns each world's digest; every
/// pass over a world must render the same one.
std::map<std::size_t, std::string> timePasses(const Args& args,
                                              const std::vector<double>& setup,
                                              const PassFn& pass,
                                              Result& result) {
  std::vector<double> appsPerSecond;
  std::vector<double> cpuMsPerApp;
  std::vector<double> peakMb;
  std::map<std::size_t, std::string> digests;
  bool peakReset = true;
  const std::size_t worlds = args.workload->worlds;
  const auto begin = Clock::now();
  for (std::size_t n = 0; n % worlds != 0 || since(begin) < args.seconds;
       ++n) {
    const std::size_t world = n % worlds;
    const fs::path directory = args.work / ("pass" + std::to_string(n));
    fs::remove_all(directory);
    fs::create_directories(directory);
    peakReset = resetPeakRss() && peakReset;
    const double cpuStart = cpuSeconds();
    const auto start = Clock::now();
    const PassOutput out = pass(world, directory);
    const double wall = since(start);
    const double cpu = cpuSeconds() - cpuStart;
    peakMb.push_back(peakRssMb());
    const std::string digest =
        digestRendered(out.reportText, directory / "csv");
    fs::remove_all(directory);
    const auto [seen, first] = digests.emplace(world, digest);
    result.expect(first || seen->second == digest,
                  "pass " + std::to_string(n) + " over world " +
                      std::to_string(world) + " rendered " + digest +
                      ", an earlier pass " + seen->second);
    result.operations(out.attempted, out.failed);
    const auto apps = static_cast<double>(args.apps);
    appsPerSecond.push_back(apps / wall);
    cpuMsPerApp.push_back(cpu * 1e3 / apps);
  }
  if (!peakReset)
    std::fprintf(stderr,
                 "perfbench: cannot reset the RSS high-water mark; "
                 "peak_rss_mb includes set-up\n");
  std::printf("%s: %zu passes, %zu whole cycles over %zu worlds of %zu apps\n",
              args.workload->name, appsPerSecond.size(),
              appsPerSecond.size() / worlds, worlds, args.apps);
  for (const auto& [world, digest] : digests)
    std::printf("  world %zu (store seed %llu) digest %s\n", world,
                static_cast<unsigned long long>(worldSeed(args.seed, world)),
                digest.c_str());
  const auto series = [](const char* label, const std::vector<double>& values) {
    std::printf("  %s:", label);
    for (const double v : values) std::printf(" %.4g", v);
    std::printf("\n");
  };
  series("apps/s per pass", appsPerSecond);
  series("cpu ms/app per pass", cpuMsPerApp);
  series("peak MB per pass", peakMb);
  std::printf("  %zu set-ups, median %.4g s\n", setup.size(), median(setup));
  result.metric("apps_per_s", median(appsPerSecond), "apps/s");
  result.metric("cpu_ms_per_app", median(cpuMsPerApp), "ms/app");
  result.metric("peak_rss_mb", median(peakMb), "MB");
  result.metric("setup_s", median(setup), "s");
  checkPinned(args, digests.at(0), result);
  return digests;
}

/// Set-up builds the run's worlds, which the passes study.
void timeCampaign(const Args& args, Result& result) {
  std::vector<double> setup;
  const auto worlds = timeSetUp(
      args.work / "setup",
      [&](const fs::path&) {
        std::vector<std::unique_ptr<store::AppStoreGenerator>> built;
        for (std::size_t k = 0; k < args.workload->worlds; ++k)
          built.push_back(std::make_unique<store::AppStoreGenerator>(
              studyConfig(args, k).store));
        return built;
      },
      setup);
  const orch::DispatcherConfig dispatcher = studyConfig(args, 0).dispatcher;
  timePasses(args, setup, [&](std::size_t world, const fs::path& directory) {
    const orch::StudyOutput out = orch::runStudy(*worlds[world], dispatcher);
    PassOutput pass;
    pass.reportText = renderStudy(out.study, directory / "csv");
    IngestTally ingest;
    ingest.add(out.ingestMetrics);
    const std::size_t folded = out.study.totals().appCount;
    pass.attempted = args.apps + ingest.reportsEmitted();
    pass.failed = (args.apps - std::min(folded, args.apps)) + out.appsFailed +
                  static_cast<std::uint64_t>(ingest.reportsLost);
    return pass;
  }, result);
}

/// Truncates the first bundle (by name) of `corpus` to 40 bytes.
void truncateOneBundle(const fs::path& corpus) {
  std::vector<fs::path> bundles;
  for (const auto& entry : fs::directory_iterator(corpus))
    if (entry.path().extension() == ".spab") bundles.push_back(entry.path());
  std::sort(bundles.begin(), bundles.end());
  if (bundles.empty()) throw std::runtime_error("replay corpus has no bundle");
  fs::resize_file(bundles.front(), 40);
  std::printf("replay: truncated %s\n", bundles.front().filename().c_str());
}

/// Set-up builds each world and writes its corpus with runStudy; the
/// passes merge the corpora back.
void timeReplay(const Args& args, Result& result) {
  const fs::path setupDirectory = args.work / "setup";
  const auto corpus = [&](std::size_t world) {
    return setupDirectory / ("corpus" + std::to_string(world));
  };
  std::vector<double> setup;
  const std::vector<std::string> writerDigests = timeSetUp(
      setupDirectory,
      [&](const fs::path& directory) {
        std::vector<std::string> digests;
        for (std::size_t k = 0; k < args.workload->worlds; ++k) {
          const orch::StudyConfig config = studyConfig(args, k);
          const store::AppStoreGenerator world(config.store);
          const orch::StudyOutput out =
              orch::runStudy(world, config.dispatcher, corpus(k).string());
          digests.push_back(renderDigest(out.study, directory / "writer"));
        }
        return digests;
      },
      setup);
  if (args.truncateSpab) truncateOneBundle(corpus(0));

  const auto digests = timePasses(args, setup, [&](std::size_t world,
                                                   const fs::path& directory) {
    const orch::MergeOutput merge =
        orch::mergeStudies(studyConfig(args, world), {corpus(world).string()});
    PassOutput pass;
    pass.reportText = renderStudy(merge.output.study, directory / "csv");
    const std::size_t folded = merge.output.study.totals().appCount;
    const std::size_t replayed = merge.output.appsReplayed;
    // An app that had to be re-run was not replayed: its bundle was
    // quarantined or missing.
    pass.attempted = args.apps;
    pass.failed = (args.apps - std::min(replayed, args.apps)) +
                  (args.apps - std::min(folded, args.apps)) +
                  merge.output.appsFailed;
    for (const auto& recovery : merge.recoveries)
      for (const auto& bad : recovery.quarantined)
        std::fprintf(stderr, "replay: quarantined %s (%s)\n", bad.file.c_str(),
                     bad.error.c_str());
    return pass;
  }, result);
  for (const auto& [world, digest] : digests)
    result.expect(digest == writerDigests[world],
                  "replay of world " + std::to_string(world) + " rendered " +
                      digest + ", the study that wrote it " +
                      writerDigests[world]);
}

spectord::CollectorOptions collectorOptions(std::uint32_t index,
                                            const fs::path& directory) {
  spectord::CollectorOptions options;
  options.index = index;
  options.count = kCollectors;
  options.checkpointDirectory = directory.string();
  return options;
}

/// The collectors build their own worlds inside the timed region, as a
/// real collector does. Set-up is the reference study that world 0's
/// merged digest is checked against: a world build and runStudy.
void timeCollector(const Args& args, Result& result) {
  std::vector<double> setup;
  const std::string reference = timeSetUp(
      args.work / "setup",
      [&](const fs::path& directory) {
        const orch::StudyConfig config = studyConfig(args, 0);
        const store::AppStoreGenerator world(config.store);
        return renderDigest(orch::runStudy(world, config.dispatcher).study,
                            directory / "reference");
      },
      setup);
  const auto digests = timePasses(args, setup, [&](std::size_t world,
                                                   const fs::path& directory) {
    const orch::StudyConfig config = studyConfig(args, world);
    std::vector<std::string> checkpoints;
    IngestTally ingest;
    for (std::uint32_t i = 0; i < kCollectors; ++i) {
      const fs::path checkpoint = directory / ("collector" + std::to_string(i));
      const spectord::CollectorResult collector =
          spectord::runCollector(config, collectorOptions(i, checkpoint));
      ingest.add(collector.metrics);
      checkpoints.push_back(checkpoint.string());
    }
    const orch::MergeOutput merge = orch::mergeStudies(config, checkpoints);
    PassOutput pass;
    pass.reportText = renderStudy(merge.output.study, directory / "csv");
    const std::size_t folded = merge.output.study.totals().appCount;
    const std::size_t replayed = merge.output.appsReplayed;
    pass.attempted = args.apps + ingest.reportsEmitted();
    pass.failed = (args.apps - std::min(replayed, args.apps)) +
                  (args.apps - std::min(folded, args.apps)) +
                  merge.output.appsFailed +
                  static_cast<std::uint64_t>(ingest.reportsLost);
    return pass;
  }, result);
  result.expect(digests.at(0) == reference,
                "merged collectors rendered " + digests.at(0) +
                    " for world 0, runStudy " + reference);
}

// ---- Traced runs ------------------------------------------------------------

/// Spans of one traced run, in seconds, by metric name.
class Ledger {
 public:
  template <class Fn>
  decltype(auto) span(const std::string& name, Fn&& fn) {
    const auto start = Clock::now();
    if constexpr (std::is_void_v<std::invoke_result_t<Fn>>) {
      fn();
      record(name, since(start));
    } else {
      auto value = fn();
      record(name, since(start));
      return value;
    }
  }

  [[nodiscard]] const std::vector<double>& samples(const std::string& name) {
    return spans_[name];
  }

  [[nodiscard]] double total(const std::string& name) {
    double sum = 0;
    for (const double s : spans_[name]) sum += s;
    return sum;
  }

 private:
  void record(const std::string& name, double seconds) {
    spans_[name].push_back(seconds);
  }

  std::map<std::string, std::vector<double>> spans_;
};

/// Per-run counts summed over a traced pass.
struct RunTally {
  std::uint64_t runs = 0;
  std::uint64_t flows = 0;
  std::uint64_t packets = 0;
  std::uint64_t reports = 0;
  std::uint64_t tcpPayload = 0;
  std::uint64_t attributed = 0;
  std::uint64_t conservationViolations = 0;

  void add(const core::RunArtifacts& run, const core::FlowColumns& flows) {
    std::uint64_t bytes = 0;
    for (std::size_t i = 0; i < flows.size(); ++i)
      bytes += flows.sentBytes[i] + flows.recvBytes[i];
    const std::uint64_t payload = run.capture.totalTcpPayloadBytes();
    ++runs;
    this->flows += flows.size();
    packets += run.capture.size();
    reports += run.reportsEmitted;
    tcpPayload += payload;
    attributed += std::min(bytes, payload);
    if (bytes > payload) ++conservationViolations;
  }
};

/// Attribution exactly as a study wires it: the builtin corpus and a
/// VirusTotal-simulating categorizer over the world's ground truth.
class Attribution {
 public:
  explicit Attribution(const store::AppStoreGenerator& world)
      : corpus_(radar::LibraryCorpus::builtin()),
        categorizer_(vtsim::defaultVendorPanel(),
                     [&world](const std::string& domain) {
                       return world.domainTruth(domain);
                     }),
        attributor_(corpus_, categorizer_) {}

  [[nodiscard]] const core::TrafficAttributor& attributor() const {
    return attributor_;
  }

 private:
  radar::LibraryCorpus corpus_;
  vtsim::DomainCategorizer categorizer_;
  core::TrafficAttributor attributor_;
};

/// The per-layer metrics, in output order, with their units. A traced run
/// emits all of them; a layer its workload never calls reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"store.world_build_ms", "ms"},
    {"store.make_job_us", "us/app"},
    {"store.jobs_expanded_per_app", "ratio"},
    {"dex.sha256_us", "us/app"},
    {"orch.emulate_us", "us/app"},
    {"orch.parallel_cpu_x", "ratio"},
    {"net.packets_per_app", "count"},
    {"core.reports_per_app", "count"},
    {"ingest.datagrams_per_app", "count"},
    {"ingest.fold_p99_ms", "ms"},
    {"ingest.shard_util", "ratio"},
    {"ingest.reports_lost", "count"},
    {"core.attribute_us", "us/app"},
    {"core.attribute_ns_per_flow", "ns/flow"},
    {"core.flows_per_app", "count"},
    {"core.unattributed_frac", "ratio"},
    {"core.conservation_violations", "count"},
    {"core.fold_us", "us/app"},
    {"core.render_ms", "ms"},
    {"orch.checkpoint_us", "us/app"},
    {"orch.spab_kb_per_app", "KB/app"},
    {"orch.recovery_scan_us", "us/bundle"},
    {"orch.merge_ms", "ms"},
    {"spectord.run_collector_ms_per_app", "ms/app"},
    {"spectord.wire_kb_per_app", "KB/app"},
    {"trace.unaccounted_frac", "ratio"},
};

/// What a traced run measured, by metric name (missing = 0).
class LayerValues {
 public:
  double& operator[](const std::string& name) { return values_[name]; }

  /// Median of a per-call span, scaled to the metric's unit; records the
  /// sample count and, when at least ten samples lie beyond the p99, the
  /// p99 as a `.p99` variant.
  void span(const std::string& name, const std::vector<double>& seconds,
            double scale) {
    if (seconds.empty()) return;
    values_[name] = median(seconds) * scale;
    samples_[name] = seconds.size();
    std::vector<double> sorted = seconds;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(0.99 * static_cast<double>(sorted.size())));
    const double p99 = sorted[rank - 1];
    const auto beyond = static_cast<std::size_t>(
        sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), p99));
    if (beyond >= 10) p99_[name] = p99 * scale;
  }

  void emit(Result& result) {
    for (const LayerMetric& m : kLayerMetrics) {
      result.metric(m.name, values_[m.name], m.unit);
      if (const auto it = p99_.find(m.name); it != p99_.end())
        result.metric(std::string(m.name) + ".p99", it->second, m.unit);
    }
    for (const auto& [name, n] : samples_)
      std::printf("  %-36s %18zu samples\n", name.c_str(), n);
  }

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::size_t> samples_;
  std::map<std::string, double> p99_;
};

/// Drives apps [0, appCount) one at a time through the calls a dispatcher
/// worker and an ingest shard make for each: makeJob, sha256, a fresh
/// emulator run under the dispatcher's per-app seed and worker id,
/// attributeColumns, the optional checkpoint, and the study fold.
void traceApps(const store::AppStoreGenerator& world,
               const orch::DispatcherConfig& dispatcher,
               const core::TrafficAttributor& attributor,
               orch::CheckpointWriter* checkpoints,
               core::StudyAggregator& study, Ledger& ledger, RunTally& tally) {
  for (std::size_t i = 0; i < world.appCount(); ++i) {
    const auto job =
        ledger.span("store.make_job_us", [&] { return world.makeJob(i); });
    orch::EmulatorConfig emulator = dispatcher.emulator;
    emulator.seed = dispatcher.baseSeed + i;
    emulator.workerId = static_cast<std::uint32_t>(i);
    emulator.apkSha256 =
        ledger.span("dex.sha256_us", [&] { return toHex(job.apk.sha256()); });
    const auto run = ledger.span("orch.emulate_us", [&] {
      return orch::EmulatorInstance(world.farm(), nullptr, emulator)
          .run(job.apk, job.program);
    });
    const auto flows = ledger.span(
        "core.attribute_us", [&] { return attributor.attributeColumns(run); });
    tally.add(run, flows);
    if (checkpoints != nullptr)
      ledger.span("orch.checkpoint_us", [&] {
        checkpoints->checkpoint(i, core::ApkLossAccount::fromArtifacts(run),
                                run);
      });
    ledger.span("core.fold_us", [&] { study.addAppColumns(run, flows); });
  }
}

void reportTally(const RunTally& tally, LayerValues& values) {
  const auto runs = static_cast<double>(tally.runs);
  values["net.packets_per_app"] =
      ratio(static_cast<double>(tally.packets), runs);
  values["core.reports_per_app"] =
      ratio(static_cast<double>(tally.reports), runs);
  values["core.flows_per_app"] = ratio(static_cast<double>(tally.flows), runs);
  values["core.unattributed_frac"] =
      ratio(static_cast<double>(tally.tcpPayload - tally.attributed),
            static_cast<double>(tally.tcpPayload));
  values["core.conservation_violations"] =
      static_cast<double>(tally.conservationViolations);
}

void reportIngest(const IngestTally& ingest, double apps, LayerValues& values) {
  values["ingest.datagrams_per_app"] = ratio(ingest.datagrams, apps);
  values["ingest.fold_p99_ms"] = ingest.foldP99Ms;
  values["ingest.shard_util"] =
      ratio(std::accumulate(ingest.shardUtilization.begin(),
                            ingest.shardUtilization.end(), 0.0),
            static_cast<double>(ingest.shardUtilization.size()));
  values["ingest.reports_lost"] = ingest.reportsLost;
}

/// Closes a traced window: the share of its wall time no span covers, and
/// each span's share for the human-readable ledger.
void reportWindow(Ledger& ledger, double windowSeconds, LayerValues& values,
                  const std::vector<std::string>& spans) {
  double covered = 0;
  for (const auto& name : spans) {
    const double total = ledger.total(name);
    covered += total;
    std::printf("  share of traced wall: %-28s %6.2f%%\n", name.c_str(),
                100.0 * ratio(total, windowSeconds));
  }
  values["trace.unaccounted_frac"] =
      std::max(0.0, 1.0 - ratio(covered, windowSeconds));
}

void traceCampaign(const Args& args, Result& result) {
  const orch::StudyConfig config = studyConfig(args, 0);
  std::vector<double> builds;
  const auto world = buildWorld(args, builds);
  LayerValues values;
  values.span("store.world_build_ms", builds, 1e3);

  // The timed path once, for its digest, ingest counters and parallel CPU.
  const double referenceCpuStart = cpuSeconds();
  const orch::StudyOutput reference = orch::runStudy(*world, config.dispatcher);
  const double referenceCpu = cpuSeconds() - referenceCpuStart;
  const std::string referenceDigest =
      renderDigest(reference.study, args.work / "reference");
  checkPinned(args, referenceDigest, result);
  IngestTally ingest;
  ingest.add(reference.ingestMetrics);

  Attribution attribution(*world);
  core::StudyAggregator study;
  Ledger ledger;
  RunTally tally;
  const fs::path csv = args.work / "trace";
  const double cpuStart = cpuSeconds();
  const auto begin = Clock::now();
  traceApps(*world, config.dispatcher, attribution.attributor(), nullptr, study,
            ledger, tally);
  const std::string text = ledger.span(
      "core.render_ms", [&] { return renderStudy(study, csv); });
  const double window = since(begin);
  const double cpu = cpuSeconds() - cpuStart;

  const std::string digest = digestRendered(text, csv);
  result.expect(digest == referenceDigest, "traced pass rendered " + digest +
                                               ", runStudy " + referenceDigest);
  const auto apps = static_cast<double>(args.apps);
  for (const char* name : {"store.make_job_us", "dex.sha256_us",
                           "orch.emulate_us", "core.attribute_us",
                           "core.fold_us"})
    values.span(name, ledger.samples(name), 1e6);
  values.span("core.render_ms", ledger.samples("core.render_ms"), 1e3);
  values["store.jobs_expanded_per_app"] =
      ratio(static_cast<double>(ledger.samples("store.make_job_us").size()),
            static_cast<double>(study.totals().appCount));
  values["orch.parallel_cpu_x"] = ratio(referenceCpu, cpu);
  values["core.attribute_ns_per_flow"] =
      ratio(ledger.total("core.attribute_us") * 1e9,
            static_cast<double>(tally.flows));
  reportTally(tally, values);
  reportIngest(ingest, apps, values);
  reportWindow(ledger, window, values,
               {"store.make_job_us", "dex.sha256_us", "orch.emulate_us",
                "core.attribute_us", "core.fold_us", "core.render_ms"});
  const std::uint64_t missing =
      args.apps - std::min<std::uint64_t>(tally.runs, args.apps);
  result.operations(args.apps + tally.reports,
                    missing + tally.conservationViolations);
  values.emit(result);
}

void traceReplay(const Args& args, Result& result) {
  const orch::StudyConfig config = studyConfig(args, 0);
  std::vector<double> builds;
  const auto world = buildWorld(args, builds);
  LayerValues values;
  values.span("store.world_build_ms", builds, 1e3);

  // The timed path: the corpus runStudy writes, merged back a few times.
  const fs::path written = args.work / "written";
  const std::string writerDigest = renderDigest(
      orch::runStudy(*world, config.dispatcher, written.string()).study,
      args.work / "writer");
  std::vector<double> mergeSeconds;
  std::vector<double> mergeCpuPerApp;
  IngestTally ingest;
  std::string mergeDigest;
  for (int i = 0; i < 5; ++i) {
    const double cpuStart = cpuSeconds();
    const auto start = Clock::now();
    const orch::MergeOutput merge =
        orch::mergeStudies(config, {written.string()});
    mergeSeconds.push_back(since(start));
    mergeCpuPerApp.push_back((cpuSeconds() - cpuStart) /
                             static_cast<double>(args.apps));
    if (i == 0) ingest.add(merge.output.ingestMetrics);
    mergeDigest = renderDigest(merge.output.study, args.work / "merged");
  }
  result.expect(mergeDigest == writerDigest, "replay rendered " + mergeDigest +
                                                 ", its corpus's study " +
                                                 writerDigest);
  checkPinned(args, mergeDigest, result);

  // Traced set-up: the same corpus written one app at a time through
  // CheckpointWriter::checkpoint.
  const fs::path corpus = args.work / "corpus";
  {
    Attribution attribution(*world);
    core::StudyAggregator study;
    Ledger setupLedger;
    RunTally setupTally;
    orch::CheckpointWriter writer(corpus.string());
    traceApps(*world, config.dispatcher, attribution.attributor(), &writer,
              study, setupLedger, setupTally);
    const std::string digest = renderDigest(study, args.work / "setup");
    result.expect(digest == writerDigest, "traced set-up rendered " + digest +
                                              ", runStudy " + writerDigest);
    values.span("orch.checkpoint_us", setupLedger.samples("orch.checkpoint_us"),
                1e6);
  }
  values["orch.spab_kb_per_app"] =
      ratio(static_cast<double>(spabBytes({corpus})) / 1024.0,
            static_cast<double>(args.apps));

  // Traced replay: scan, then attribute and fold each recovered run.
  Attribution attribution(*world);
  core::StudyAggregator study;
  Ledger ledger;
  RunTally tally;
  const fs::path csv = args.work / "trace";
  const double cpuStart = cpuSeconds();
  const auto begin = Clock::now();
  const orch::RecoveryReport recovered =
      ledger.span("orch.recovery_scan_us",
                  [&] { return orch::StudyRecovery::scan(corpus.string()); });
  for (const orch::RecoveredRun& run : recovered.runs) {
    const auto flows = ledger.span("core.attribute_us", [&] {
      return attribution.attributor().attributeColumns(run.artifacts);
    });
    tally.add(run.artifacts, flows);
    ledger.span("core.fold_us",
                [&] { study.addAppColumns(run.artifacts, flows); });
  }
  const std::string text = ledger.span(
      "core.render_ms", [&] { return renderStudy(study, csv); });
  const double window = since(begin);
  const double cpu = cpuSeconds() - cpuStart;

  const std::string digest = digestRendered(text, csv);
  result.expect(digest == mergeDigest,
                "traced replay rendered " + digest + ", mergeStudies " +
                    mergeDigest);
  result.expect(recovered.quarantined.empty(),
                std::to_string(recovered.quarantined.size()) +
                    " bundles quarantined");
  const auto apps = static_cast<double>(args.apps);
  const auto bundles = static_cast<double>(recovered.runs.size() +
                                           recovered.quarantined.size());
  values["orch.recovery_scan_us"] =
      ratio(ledger.total("orch.recovery_scan_us") * 1e6, bundles);
  values.span("core.attribute_us", ledger.samples("core.attribute_us"), 1e6);
  values.span("core.fold_us", ledger.samples("core.fold_us"), 1e6);
  values.span("core.render_ms", ledger.samples("core.render_ms"), 1e3);
  values.span("orch.merge_ms", mergeSeconds, 1e3);
  values["orch.parallel_cpu_x"] = ratio(median(mergeCpuPerApp), cpu / apps);
  values["core.attribute_ns_per_flow"] =
      ratio(ledger.total("core.attribute_us") * 1e9,
            static_cast<double>(tally.flows));
  reportTally(tally, values);
  reportIngest(ingest, apps, values);
  reportWindow(ledger, window, values,
               {"orch.recovery_scan_us", "core.attribute_us", "core.fold_us",
                "core.render_ms"});
  const std::uint64_t missing =
      args.apps - std::min<std::uint64_t>(tally.runs, args.apps);
  result.operations(args.apps, missing + recovered.quarantined.size() +
                                   tally.conservationViolations);
  values.emit(result);
}

void traceCollector(const Args& args, Result& result) {
  const orch::StudyConfig config = studyConfig(args, 0);
  std::vector<double> builds;
  const auto world = buildWorld(args, builds);
  LayerValues values;
  values.span("store.world_build_ms", builds, 1e3);
  const std::string referenceDigest = renderDigest(
      orch::runStudy(*world, config.dispatcher).study, args.work / "reference");
  checkPinned(args, referenceDigest, result);

  Ledger ledger;
  std::vector<fs::path> checkpoints;
  std::vector<double> msPerApp;
  std::uint64_t jobsOwned = 0;
  std::uint64_t wireBytes = 0;
  IngestTally ingest;
  const fs::path csv = args.work / "trace";
  const auto begin = Clock::now();
  for (std::uint32_t i = 0; i < kCollectors; ++i) {
    checkpoints.push_back(args.work / ("collector" + std::to_string(i)));
    // A pass-through proxy on every connection counts client->daemon bytes.
    std::vector<std::unique_ptr<spectord::BreakerEndpoint>> proxies;
    spectord::CollectorOptions options =
        collectorOptions(i, checkpoints.back());
    options.channelWrapper = [&proxies](spectord::ChannelEndpoint upstream,
                                        std::size_t) {
      proxies.push_back(std::make_unique<spectord::BreakerEndpoint>(
          std::move(upstream), spectord::BreakerEndpoint::Fault{}));
      return proxies.back()->clientEnd();
    };
    const spectord::CollectorResult collector =
        ledger.span("spectord.run_collector",
                    [&] { return spectord::runCollector(config, options); });
    msPerApp.push_back(
        ledger.samples("spectord.run_collector").back() * 1e3 /
        static_cast<double>(std::max<std::uint64_t>(collector.jobsOwned, 1)));
    jobsOwned += collector.jobsOwned;
    for (const auto& proxy : proxies) wireBytes += proxy->forwardedToDaemon();
    ingest.add(collector.metrics);
  }
  std::vector<std::string> directories(checkpoints.begin(), checkpoints.end());
  const orch::MergeOutput merge = ledger.span(
      "orch.merge_ms", [&] { return orch::mergeStudies(config, directories); });
  const std::string text = ledger.span(
      "core.render_ms", [&] { return renderStudy(merge.output.study, csv); });
  const double window = since(begin);

  const std::string digest = digestRendered(text, csv);
  result.expect(digest == referenceDigest,
                "merged collectors rendered " + digest + ", runStudy " +
                    referenceDigest);

  // Conservation and per-run counts, read back from the checkpoints after
  // the traced window closes.
  Attribution attribution(*world);
  RunTally tally;
  for (const auto& directory : directories)
    for (const orch::RecoveredRun& run :
         orch::StudyRecovery::scan(directory).runs)
      tally.add(run.artifacts,
                attribution.attributor().attributeColumns(run.artifacts));

  const auto apps = static_cast<double>(args.apps);
  values["store.jobs_expanded_per_app"] =
      ratio(kCollectors * apps, static_cast<double>(jobsOwned));
  values["spectord.run_collector_ms_per_app"] = median(msPerApp);
  values["spectord.wire_kb_per_app"] =
      ratio(static_cast<double>(wireBytes) / 1024.0, apps);
  values["orch.spab_kb_per_app"] =
      ratio(static_cast<double>(spabBytes(checkpoints)) / 1024.0, apps);
  values.span("orch.merge_ms", ledger.samples("orch.merge_ms"), 1e3);
  values.span("core.render_ms", ledger.samples("core.render_ms"), 1e3);
  reportTally(tally, values);
  reportIngest(ingest, apps, values);
  reportWindow(ledger, window, values,
               {"spectord.run_collector", "orch.merge_ms", "core.render_ms"});
  const std::uint64_t missing =
      args.apps - std::min<std::uint64_t>(tally.runs, args.apps);
  result.operations(args.apps + ingest.reportsEmitted(),
                    missing + static_cast<std::uint64_t>(ingest.reportsLost) +
                        tally.conservationViolations);
  values.emit(result);
}

unsigned affinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

void printProvenance(const Args& args) {
  std::printf(
      "provenance {\"workload\": \"%s\", \"trace\": %d, \"seed\": %llu, "
      "\"apps\": %zu, \"seconds\": %llu, \"nproc\": %u, "
      "\"hardware_concurrency\": %u, \"compiler\": \"%s %s\", "
      "\"build_type\": \"%s\", \"cxx_flags\": \"%s\"}\n",
      args.workload->name, args.trace ? 1 : 0,
      static_cast<unsigned long long>(args.seed), args.apps,
      static_cast<unsigned long long>(args.seconds), affinityCpus(),
      std::thread::hardware_concurrency(),
#if defined(__clang__)
      "clang",
#elif defined(__GNUC__)
      "gcc",
#else
      "unknown",
#endif
      __VERSION__, PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parseArgs(argc, argv);
    printProvenance(args);
    Result result;
    fs::create_directories(args.work);
    const std::string name = args.workload->name;
    if (name == "campaign") {
      args.trace ? traceCampaign(args, result) : timeCampaign(args, result);
    } else if (name == "replay") {
      args.trace ? traceReplay(args, result) : timeReplay(args, result);
    } else {
      args.trace ? traceCollector(args, result) : timeCollector(args, result);
    }
    return result.print();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_driver: %s\n", error.what());
    return 1;
  }
}
