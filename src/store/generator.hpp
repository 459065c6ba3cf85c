// The synthetic app-store world (substitute for Google Play + AndroZoo).
//
// Construction builds the *world*: every remote endpoint (with ground-truth
// generic categories driving the VirusTotal simulator), and a lightweight
// plan for each app — category, archetype, bundled libraries, their
// endpoints, method-count and coverage targets, repository versions.
// makeJob(i) then deterministically expands plan i into a full
// (ApkFile, AppProgram) pair, so a 25,000-app corpus is generated lazily by
// the dispatcher's workers instead of being held in memory.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "dex/apk.hpp"
#include "net/server.hpp"
#include "rt/program.hpp"
#include "rt/scenario.hpp"
#include "store/catalog.hpp"
#include "store/repository.hpp"
#include "util/rng.hpp"

namespace libspector::store {

struct StoreConfig {
  std::size_t appCount = 2000;
  std::uint64_t seed = 20200629;  // DSN 2020 opening day
  /// Scales dex method counts (1.0 reproduces the paper's ~49k methods per
  /// apk; the default keeps large studies fast while preserving ratios).
  double methodScale = 0.15;
  /// Fraction of repository packages that are ARM-only (filtered by §III-A).
  double armOnlyFraction = 0.06;
  /// Workload-scenario switches (§14). All off (the default) generates the
  /// legacy store byte for byte; every scenario addition draws from an rng
  /// forked off plan.seed, never from the planning stream, so enabling one
  /// flag cannot shift what the others (or the legacy material) generate.
  rt::ScenarioConfig scenarios;
};

/// A planned traffic source within one app.
struct PlannedSource {
  /// Index into libraryProfiles(), or -1 for first-party code.
  int profileIndex = -1;
  /// Dotted package its network-active task methods live in.
  std::string taskPackage;
  /// Destination domains, one task method per domain.
  std::vector<std::string> domains;
  /// Relative request rates per domain (aligned with `domains`): categories
  /// with large responses get proportionally fewer requests so byte totals
  /// follow the profile's destination byte-mix.
  std::vector<double> domainWeights;
  /// Expected requests per run across all this source's domains.
  double meanRequestsPerRun = 0.0;
  double initRequestProb = 0.0;
  std::uint32_t requestBytesMin = 200;
  std::uint32_t requestBytesMax = 1500;
  /// Large initial transfer at startup (game-engine content download).
  bool initialDownload = false;
};

struct AppPlan {
  std::string packageName;
  std::string appCategory;
  CategoryClass cls = CategoryClass::Other;
  std::uint64_t seed = 0;

  enum class Archetype { AntFree, AntOnly, Mixed };
  Archetype archetype = Archetype::Mixed;

  std::vector<PlannedSource> sources;
  /// Libraries present in the dex but never exercised (plus all in sources).
  std::vector<int> bundledProfiles;

  std::size_t totalMethods = 5000;
  double coverageTarget = 0.095;
  int uiHandlers = 40;

  /// Framework-originated ad traffic (the "*-Advertisement" rows of Fig 3).
  bool systemAdTraffic = false;
  std::string systemAdDomain;

  /// Repository versions for this package; `chosenVersion` is what §III-A
  /// selection picked (always valid for planned apps).
  std::vector<ApkVersionInfo> versions;
  std::size_t chosenVersion = 0;

  // --- §14 scenario extensions (defaults = legacy plan) --------------------
  /// backgroundSync: a first-party endpoint polled only from background
  /// ticks, with no UI trigger at all. Empty = none planned.
  std::string syncDomain;
  /// Per-tick fire probability of the sync poller.
  double syncProb = 0.0;
};

class AppStoreGenerator {
 public:
  explicit AppStoreGenerator(StoreConfig config);

  [[nodiscard]] const StoreConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t appCount() const noexcept { return plans_.size(); }

  /// The shared external-server world (immutable after construction).
  [[nodiscard]] const net::ServerFarm& farm() const noexcept { return farm_; }

  /// Ground-truth generic category of a world domain ("unknown" otherwise);
  /// plug this into vtsim::DomainCategorizer as the truth lookup.
  [[nodiscard]] std::string domainTruth(const std::string& domain) const;

  [[nodiscard]] const AppPlan& plan(std::size_t index) const {
    return plans_.at(index);
  }

  /// Expand plan `index` into the runnable app. Deterministic and
  /// thread-safe (const).
  struct Job {
    dex::ApkFile apk;
    rt::AppProgram program;
  };
  [[nodiscard]] Job makeJob(std::size_t index) const;

  /// The AndroZoo-style repository view used by the §III-A selection tests:
  /// planned apps plus the ARM-only packages the filter rejected.
  [[nodiscard]] const std::vector<RepositoryEntry>& repository() const noexcept {
    return repository_;
  }

 private:
  class DomainWorld;

  void planApp(std::size_t index, util::Rng& rng, DomainWorld& world);

  struct LibraryEndpoint {
    std::string domain;
    std::string category;      // generic domain category
    double requestWeight = 1;  // deflated by the category's mean response
  };

  StoreConfig config_;
  net::ServerFarm farm_;
  std::unordered_map<std::string, std::string> domainTruth_;
  /// Endpoints owned by each library profile (index-aligned).
  std::vector<std::vector<LibraryEndpoint>> libraryEndpoints_;
  std::vector<AppPlan> plans_;
  std::vector<RepositoryEntry> repository_;
};

}  // namespace libspector::store
