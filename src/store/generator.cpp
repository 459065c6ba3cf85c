#include "store/generator.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <memory_resource>
#include <stdexcept>
#include <unordered_set>

#include "util/strings.hpp"

namespace libspector::store {

namespace {

constexpr double kAntFreeFraction = 0.10;
constexpr double kAntOnlyFraction = 0.34;
/// Events the monkey is expected to deliver per run; trigger-guard
/// probabilities are calibrated against this so mean request counts hold.
constexpr std::uint32_t kExpectedMonkeyEvents = 960;

/// `n` in decimal, held by the object: a piece of a name written from
/// pieces, with no string built for it.
class Decimal {
 public:
  explicit Decimal(std::size_t n) noexcept
      : size_(static_cast<std::size_t>(
            std::to_chars(digits_, digits_ + sizeof digits_, n).ptr -
            digits_)) {}
  operator std::string_view() const noexcept { return {digits_, size_}; }

 private:
  char digits_[20] = {};
  std::size_t size_;
};

/// Bulk (cold) library code: classes of up to kBulkMethodsPerClass
/// methods, method k of a class being "m<k>(I)I".
constexpr std::size_t kBulkMethodsPerClass = 16;
constexpr std::string_view kBulkMembers[kBulkMethodsPerClass] = {
    "m0(I)I", "m1(I)I", "m2(I)I",  "m3(I)I",  "m4(I)I",  "m5(I)I",
    "m6(I)I", "m7(I)I", "m8(I)I",  "m9(I)I",  "m10(I)I", "m11(I)I",
    "m12(I)I", "m13(I)I", "m14(I)I", "m15(I)I"};

std::string sanitizeSlug(std::string_view prefix) {
  // "com.unity3d.ads" -> "unity3d-ads"
  std::string_view body = prefix;
  if (body.starts_with("com.")) body.remove_prefix(4);
  else if (body.starts_with("org.")) body.remove_prefix(4);
  else if (body.starts_with("net.")) body.remove_prefix(4);
  else if (body.starts_with("io.")) body.remove_prefix(3);
  std::string out(body);
  std::replace(out.begin(), out.end(), '.', '-');
  return out;
}

bool isAntCategory(std::string_view radarCategory) {
  return radarCategory == "Advertisement" || radarCategory == "Mobile Analytics";
}

}  // namespace

// ---------------------------------------------------------------------------
// DomainWorld: endpoint creation with per-category sharing pools.
// ---------------------------------------------------------------------------

class AppStoreGenerator::DomainWorld {
 public:
  DomainWorld(net::ServerFarm& farm,
              std::unordered_map<std::string, std::string>& truth)
      : farm_(farm), truth_(truth) {}

  std::string acquire(std::string_view category, std::string_view ownerSlug,
                      util::Rng& rng) {
    auto& pool = pools_[std::string(category)];
    if (!pool.empty() && rng.chance(reuseProbability(category)))
      return rng.pick(pool);

    const int id = ++counters_[std::string(category)];
    static constexpr std::string_view kTlds[] = {"com", "net", "io", "org", "co"};
    std::string domain = std::string(stemOf(category)) + std::to_string(id);
    domain += ".";
    // Heavily shared infrastructure (CDNs) is third-party and generic --
    // "cdn3.edgecache.net", not a brand host. This is exactly what defeats
    // hostname-based attribution (paper intro).
    if (category == "cdn") {
      domain += "edgecache.";
    } else if (!ownerSlug.empty()) {
      domain += ownerSlug;
      domain += ".";
    }
    domain += kTlds[static_cast<std::size_t>(id) % std::size(kTlds)];

    const ResponseProfile response = responseProfileFor(category);
    net::EndpointProfile profile;
    profile.domain = domain;
    profile.trueCategory = std::string(category);
    profile.responseLogMu = response.logMu;
    profile.responseLogSigma = response.logSigma;
    profile.minResponseBytes = response.minBytes;
    profile.maxResponseBytes = response.maxBytes;

    std::optional<net::Ipv4Addr> sharedIp;
    if (category == "cdn" && !cdnHosts_.empty() && rng.chance(0.55))
      sharedIp = rng.pick(cdnHosts_);
    const net::Ipv4Addr ip = farm_.addEndpoint(std::move(profile), sharedIp);
    if (category == "cdn" && !sharedIp) cdnHosts_.push_back(ip);
    // CDN frontends are multi-homed: DNS rotates across several A records
    // as TTLs expire, so one domain maps to different addresses over a run.
    if (category == "cdn") {
      const std::uint64_t extra = rng.uniform(1, 3);
      for (std::uint64_t a = 0; a < extra; ++a)
        farm_.addAlternateAddress(domain);
    }

    truth_[domain] = std::string(category);
    pool.push_back(domain);
    return domain;
  }

 private:
  static double reuseProbability(std::string_view category) {
    if (category == "cdn") return 0.97;
    if (category == "social_networks") return 0.75;
    if (category == "analytics") return 0.55;
    if (category == "advertisements") return 0.28;
    if (category == "business_and_finance") return 0.55;
    if (category == "info_tech") return 0.55;
    if (category == "internet_services") return 0.55;
    if (category == "unknown") return 0.50;
    if (category == "games") return 0.20;
    return 0.35;
  }

  static std::string_view stemOf(std::string_view category) {
    if (category == "advertisements") return "adserv";
    if (category == "analytics") return "metrics";
    if (category == "cdn") return "cdn";
    if (category == "business_and_finance") return "api";
    if (category == "info_tech") return "svc";
    if (category == "internet_services") return "cloud";
    if (category == "social_networks") return "social";
    if (category == "communication") return "msg";
    if (category == "education") return "learn";
    if (category == "entertainment") return "media";
    if (category == "news") return "news";
    if (category == "games") return "game";
    if (category == "lifestyle") return "life";
    if (category == "health") return "health";
    if (category == "adult") return "adult";
    if (category == "malicious") return "mal";
    return "host";
  }

  net::ServerFarm& farm_;
  std::unordered_map<std::string, std::string>& truth_;
  std::unordered_map<std::string, std::vector<std::string>> pools_;
  std::unordered_map<std::string, int> counters_;
  std::vector<net::Ipv4Addr> cdnHosts_;
};

// ---------------------------------------------------------------------------
// World construction.
// ---------------------------------------------------------------------------

AppStoreGenerator::AppStoreGenerator(StoreConfig config) : config_(config) {
  if (config_.appCount == 0)
    throw std::invalid_argument("AppStoreGenerator: appCount == 0");
  util::Rng rng(config_.seed);
  DomainWorld world(farm_, domainTruth_);

  // Library-owned endpoints. The endpoint *set* follows the byte-share mix
  // (largest-remainder, so every significant category is represented);
  // request *rates* per endpoint are deflated by the category's mean
  // response size, which makes realized byte totals land on the mix.
  const auto& profiles = libraryProfiles();
  libraryEndpoints_.resize(profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const LibraryProfile& profile = profiles[i];
    const std::string slug = sanitizeSlug(profile.prefix);
    const auto& mix = profile.destinationMix;
    const auto requestWeights = requestWeightsFromByteMix(mix);

    // Guarantee one endpoint per category with a meaningful byte share,
    // then distribute the rest by largest remainder over byte shares.
    std::size_t significant = 0;
    for (const auto& [category, share] : mix)
      if (share >= 0.03) ++significant;
    const std::size_t total = std::max<std::size_t>(
        static_cast<std::size_t>(profile.domainCount), significant);

    std::vector<std::size_t> counts(mix.size(), 0);
    std::vector<std::pair<double, std::size_t>> remainders;
    std::size_t assigned = 0;
    for (std::size_t m = 0; m < mix.size(); ++m) {
      const double exact = mix[m].second * static_cast<double>(total);
      counts[m] = static_cast<std::size_t>(exact);
      if (mix[m].second >= 0.03 && counts[m] == 0) counts[m] = 1;
      assigned += counts[m];
      remainders.emplace_back(exact - std::floor(exact), m);
    }
    std::sort(remainders.rbegin(), remainders.rend());
    for (std::size_t r = 0; assigned < total && r < remainders.size(); ++r) {
      ++counts[remainders[r].second];
      ++assigned;
    }

    for (std::size_t m = 0; m < mix.size(); ++m) {
      if (counts[m] == 0) continue;
      // Split the category's request weight over its endpoints so the
      // per-category rate is independent of endpoint multiplicity.
      const double perEndpointWeight =
          requestWeights[m] / static_cast<double>(counts[m]);
      for (std::size_t d = 0; d < counts[m]; ++d) {
        libraryEndpoints_[i].push_back({world.acquire(mix[m].first, slug, rng),
                                        std::string(mix[m].first),
                                        perEndpointWeight});
      }
    }
  }

  plans_.reserve(config_.appCount);
  for (std::size_t i = 0; i < config_.appCount; ++i) planApp(i, rng, world);

  // Repository view: the planned (analyzable) packages plus ARM-only ones
  // the §III-A filter must reject.
  repository_.reserve(plans_.size() + 16);
  for (const auto& plan : plans_)
    repository_.push_back({plan.packageName, plan.versions});
  const auto armOnlyCount = static_cast<std::size_t>(
      std::lround(static_cast<double>(config_.appCount) * config_.armOnlyFraction));
  for (std::size_t i = 0; i < armOnlyCount; ++i) {
    ApkVersionInfo version;
    version.versionCode = 1;
    version.dexTimestamp = 1'500'000'000 + i;
    version.abis = {"armeabi-v7a"};
    repository_.push_back(
        {"com.armonly.app" + std::to_string(i), {version}});
  }
}

std::string AppStoreGenerator::domainTruth(const std::string& domain) const {
  const auto it = domainTruth_.find(domain);
  return it == domainTruth_.end() ? "unknown" : it->second;
}

void AppStoreGenerator::planApp(std::size_t index, util::Rng& rng,
                                DomainWorld& world) {
  static const char* kWords[] = {"pixel", "nova",  "turbo", "happy", "magic",
                                 "swift", "lucky", "prime", "hyper", "metro"};
  AppPlan plan;
  plan.seed = rng.next() | 1;

  // Category by store weight.
  const auto& categories = appCategories();
  static thread_local std::vector<double> weights;  // static: same every call
  if (weights.size() != categories.size()) {
    weights.clear();
    for (const auto& category : categories)
      weights.push_back(appCountWeight(category));
  }
  plan.appCategory = categories[rng.weightedIndex(weights)];
  plan.cls = classOf(plan.appCategory);
  plan.packageName = std::string("com.") + kWords[rng.uniform(0, 9)] +
                     kWords[rng.uniform(0, 9)] + ".app" + std::to_string(index);

  const double archetypeRoll = rng.uniform01();
  plan.archetype = archetypeRoll < kAntFreeFraction ? AppPlan::Archetype::AntFree
                   : archetypeRoll < kAntFreeFraction + kAntOnlyFraction
                       ? AppPlan::Archetype::AntOnly
                       : AppPlan::Archetype::Mixed;

  // Library inclusion.
  const auto& profiles = libraryProfiles();
  std::vector<int> included;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const LibraryProfile& profile = profiles[i];
    if (plan.archetype == AppPlan::Archetype::AntFree &&
        isAntCategory(profile.radarCategory))
      continue;
    if (rng.chance(inclusionProbability(plan.cls, profile)))
      included.push_back(static_cast<int>(i));
  }
  if (plan.archetype == AppPlan::Archetype::AntOnly) {
    const bool hasAnt = std::any_of(included.begin(), included.end(), [&](int i) {
      return isAntCategory(profiles[static_cast<std::size_t>(i)].radarCategory);
    });
    if (!hasAnt) included.insert(included.begin(), 0);  // gms.ads
  }
  plan.bundledProfiles = included;

  // Traffic sources from active libraries.
  const double intensity = contentIntensity(plan.appCategory);
  for (const int profileIndex : included) {
    const LibraryProfile& profile = profiles[static_cast<std::size_t>(profileIndex)];
    const bool ant = isAntCategory(profile.radarCategory);
    if (plan.archetype == AppPlan::Archetype::AntOnly && !ant)
      continue;  // bundled but never exercised

    PlannedSource source;
    source.profileIndex = profileIndex;
    source.taskPackage = std::string(rng.pick(profile.activeSubpackages));
    // ProGuard-style obfuscation: many apps ship the same SDK with its
    // internals renamed one level deeper, multiplying the distinct
    // origin-library packages observed across the store (the paper sees
    // 8,652 of them) while prefix matching still recovers the category.
    if (rng.chance(0.40)) {
      static constexpr char kObf[] = {'a', 'b', 'c', 'd', 'e', 'f'};
      source.taskPackage += std::string(".") + kObf[rng.uniform(0, 5)];
    }
    const auto& endpoints = libraryEndpoints_[static_cast<std::size_t>(profileIndex)];
    // The source targets the library's whole endpoint roster; request-rate
    // weights (deflated by mean response size) decide how often each is
    // hit, so realized byte totals follow the destination byte-mix and the
    // per-run subset of contacted endpoints emerges from guard randomness.
    for (const auto& endpoint : endpoints) {
      source.domains.push_back(endpoint.domain);
      source.domainWeights.push_back(endpoint.requestWeight);
    }

    double requestScale = 1.0;
    if (profile.radarCategory == "Advertisement")
      requestScale = plan.cls == CategoryClass::Game ? 1.35
                     : plan.cls == CategoryClass::Media ? 1.0
                                                        : 0.85;
    else if (profile.radarCategory == "Development Aid")
      requestScale = intensity;
    else if (profile.radarCategory == "Game Engine")
      requestScale = plan.cls == CategoryClass::Game ? 1.5 : 0.2;
    source.meanRequestsPerRun =
        profile.meanRequestsPerRun * requestScale * rng.lognormal(0.0, 0.4);
    source.initRequestProb = profile.initRequestProb;
    source.requestBytesMin = profile.requestBytesMin;
    source.requestBytesMax = profile.requestBytesMax;
    source.initialDownload = profile.radarCategory == "Game Engine" &&
                             plan.cls == CategoryClass::Game &&
                             plan.archetype == AppPlan::Archetype::Mixed;
    plan.sources.push_back(std::move(source));
  }

  // First-party (developer-authored) traffic.
  if (plan.archetype != AppPlan::Archetype::AntOnly && rng.chance(0.85)) {
    PlannedSource source;
    source.profileIndex = -1;
    source.taskPackage = plan.packageName + ".net";
    const auto& mix = firstPartyDestinationMix(plan.cls);
    const auto requestWeights = requestWeightsFromByteMix(mix);
    const std::size_t domainCount = rng.uniform(1, 3);
    const std::string slug = "app" + std::to_string(index % 64);
    for (std::size_t d = 0; d < domainCount; ++d) {
      // Categories drawn by request rate; requests split evenly over the
      // app's own domains -> byte totals follow the first-party byte-mix.
      const std::size_t pick = rng.weightedIndex(requestWeights);
      source.domains.push_back(world.acquire(mix[pick].first, slug, rng));
      source.domainWeights.push_back(1.0);
    }
    source.meanRequestsPerRun = 7.0 * intensity * rng.lognormal(0.0, 0.55);
    source.initRequestProb = 0.5;
    source.requestBytesMin = 200;
    source.requestBytesMax = 700;
    plan.sources.push_back(std::move(source));
  }

  // Framework-originated advertisement traffic.
  if (plan.archetype == AppPlan::Archetype::Mixed && rng.chance(0.12)) {
    plan.systemAdTraffic = true;
    plan.systemAdDomain = world.acquire("advertisements", "exchange", rng);
  }

  // Method-count and coverage targets.
  const double rawMethods = rng.lognormal(std::log(42000.0), 0.55);
  plan.totalMethods = static_cast<std::size_t>(std::clamp(
      rawMethods * config_.methodScale, 300.0, 400000.0 * config_.methodScale));
  plan.coverageTarget =
      std::clamp(rng.lognormal(std::log(0.075), 0.75), 0.002, 0.55);
  plan.uiHandlers = static_cast<int>(rng.uniform(30, 110));

  // Repository versions (§III-A inputs).
  const std::size_t versionCount = rng.uniform(1, 3);
  const bool allDefaultDex = rng.chance(0.10);
  std::uint64_t timestamp = 1'400'000'000 + rng.uniform(0, 100'000'000);
  for (std::size_t v = 0; v < versionCount; ++v) {
    ApkVersionInfo version;
    version.versionCode = static_cast<std::uint32_t>(10 * (v + 1));
    version.dexTimestamp =
        allDefaultDex ? dex::kDefaultDexTimestamp : timestamp + v * 10'000'000;
    version.vtScanDate =
        rng.chance(allDefaultDex ? 1.0 : 0.7)
            ? 1'530'000'000 + rng.uniform(0, 30'000'000) + v * 1'000'000
            : 0;
    const double abiRoll = rng.uniform01();
    if (abiRoll < 0.30) {
      // pure-Java apk: no native libraries
    } else if (abiRoll < 0.80) {
      version.abis = {"x86", "armeabi-v7a"};
    } else {
      version.abis = {"x86_64", "x86", "arm64-v8a"};
    }
    plan.versions.push_back(std::move(version));
  }
  const auto chosen = selectApkVersion(plan.versions);
  plan.chosenVersion = chosen.value_or(0);

  // --- §14 scenario extensions: appended strictly after every legacy draw,
  // fed by an rng forked off plan.seed, so the flags-off world (and every
  // legacy field above) is byte-identical whatever the flags say.
  if (config_.scenarios.backgroundSync) {
    util::Rng syncRng(plan.seed ^ 0xB6C5'59ECULL);
    if (syncRng.chance(0.5)) {
      plan.syncDomain = world.acquire("internet_services",
                                      "sync" + std::to_string(index % 32),
                                      syncRng);
      plan.syncProb = 0.6;
    }
  }

  plans_.push_back(std::move(plan));
}

// ---------------------------------------------------------------------------
// Job expansion: plan -> (ApkFile, AppProgram).
// ---------------------------------------------------------------------------

AppStoreGenerator::Job AppStoreGenerator::makeJob(std::size_t index) const {
  const AppPlan& plan = plans_.at(index);
  util::Rng rng(plan.seed);
  const auto& profiles = libraryProfiles();

  rt::AppProgram program;
  // Every program method also goes into the dex, in its class. Each class
  // name is written once, from pieces, into one arena; a method keeps its
  // class's (offset, size) there, by method id, so the dex assembly can
  // key classes by views that no later append moves. The program writes
  // each signature into its own arena from the class name and the member
  // pieces.
  struct ClassName {
    std::size_t offset = 0;  // into classNames
    std::size_t size = 0;
  };
  std::string classNames;
  std::size_t classNamesWritten = 0;
  std::vector<ClassName> programClasses;
  const auto addClass = [&](std::initializer_list<std::string_view> pieces) {
    const std::size_t offset = classNames.size();
    for (const std::string_view piece : pieces) classNames += piece;
    ++classNamesWritten;
    return ClassName{offset, classNames.size() - offset};
  };
  const auto addProgramMethod =
      [&](ClassName cls, std::initializer_list<std::string_view> member,
          std::vector<rt::Action> body) {
        const rt::MethodId id = program.addMethod(
            std::string_view(classNames).substr(cls.offset, cls.size), member,
            std::move(body));
        programClasses.push_back(cls);
        return id;
      };

  // --- Traffic sources: helper -> task -> enqueue chains -------------------
  struct BuiltSource {
    std::vector<rt::MethodId> enqueuers;  // one per destination domain
    const PlannedSource* plan = nullptr;
  };
  std::vector<BuiltSource> builtSources;
  builtSources.reserve(plan.sources.size());

  // §14 keep-alive: requests to a domain that more than one source targets
  // (shared CDN-style infrastructure) ride one pooled connection per
  // domain, so a single socket ends up carrying logical requests issued
  // from *different* call stacks.
  std::unordered_map<std::string_view, int> domainSourceCount;
  if (config_.scenarios.keepAliveReuse) {
    for (const auto& source : plan.sources) {
      std::unordered_set<std::string_view> seen;
      for (const auto& domain : source.domains)
        if (seen.insert(domain).second) ++domainSourceCount[domain];
    }
  }
  // §14 adversarial apps: SDK sources launder their request stacks through
  // reflection trampolines in junk packages, or spoof builtin-named
  // wrapper frames. Laundering draws come from a forked rng and only
  // *insert* wrapper methods whose execution draws nothing, so the twin
  // app (flag off, same plan) replays the identical runtime rng stream.
  util::Rng advRng(plan.seed ^ 0xAD7E'25A1ULL);

  for (const auto& source : plan.sources) {
    BuiltSource built;
    built.plan = &source;
    const bool sync = source.profileIndex < 0 && rng.chance(0.5);

    enum class Launder { None, Reflect, Spoof };
    Launder launder = Launder::None;
    std::string junkPackage;
    if (config_.scenarios.adversarialApps && source.profileIndex >= 0 &&
        advRng.chance(0.6)) {
      if (advRng.chance(0.35)) {
        launder = Launder::Spoof;
      } else {
        launder = Launder::Reflect;
        // Junk dispatcher package: every component at most two characters,
        // exactly what the elision pass's junk-package rule keys on.
        static constexpr char kJunk[] = {'a', 'b', 'c', 'd',
                                         'e', 'f', 'g', 'h'};
        const std::uint64_t depth = advRng.uniform(2, 4);
        for (std::uint64_t c = 0; c < depth; ++c) {
          if (c != 0) junkPackage += '.';
          junkPackage += kJunk[advRng.uniform(0, 7)];
          if (advRng.chance(0.4)) junkPackage += kJunk[advRng.uniform(0, 7)];
        }
      }
    }
    for (std::size_t d = 0; d < source.domains.size(); ++d) {
      const Decimal domainIndex(d);
      const ClassName cls = addClass(
          {source.taskPackage, ".b",
           d == 0 ? std::string_view() : std::string_view(domainIndex)});
      rt::NetRequestAction request;
      request.domain = source.domains[d];
      request.port = rng.chance(0.85) ? 443 : 80;
      request.requestBytesMin = source.requestBytesMin;
      request.requestBytesMax = source.requestBytesMax;
      request.transfers =
          source.initialDownload ? 2 : (rng.chance(0.3) ? 2 : 1);
      request.engine = static_cast<rt::HttpEngine>(rng.uniform(0, 2));
      if (config_.scenarios.keepAliveReuse) {
        const auto it = domainSourceCount.find(source.domains[d]);
        request.keepAlive =
            (it != domainSourceCount.end() && it->second > 1) ||
            source.domains[d].find(".edgecache.") != std::string::npos;
        // Pooled requests pin the HTTPS port (overriding the draw above,
        // which still happens so the rng stream matches the flag-off
        // world): one "domain:443" pool key per CDN host means two
        // libraries' requests genuinely share a connection.
        if (request.keepAlive) request.port = 443;
      }

      // HTTP-level identifiers: some SDKs label their traffic with an
      // identifying User-Agent, the rest rides the platform default -- the
      // mix that makes header-based attribution unreliable (paper intro).
      if (source.profileIndex >= 0) {
        const LibraryProfile& sourceProfile =
            profiles[static_cast<std::size_t>(source.profileIndex)];
        request.path = std::string(requestPathFor(sourceProfile.radarCategory));
        const UserAgentProfile ua = userAgentProfileFor(sourceProfile.prefix);
        if (!ua.sdkUserAgent.empty() && rng.chance(ua.identifyProb))
          request.userAgent = std::string(ua.sdkUserAgent);
        request.post = sourceProfile.radarCategory == "Mobile Analytics" &&
                       rng.chance(0.8);
      } else {
        request.path = std::string(requestPathFor("Unknown"));
        if (rng.chance(0.30))
          request.userAgent =
              plan.packageName + "/" +
              std::to_string(plan.versions[plan.chosenVersion].versionCode) +
              " (Android 7.1.1)";
        request.post = rng.chance(0.25);
      }

      // Listing 1 shape: b.a holds the request, b.doInBackground calls it.
      const rt::MethodId helper = addProgramMethod(
          cls, {"a(Ljava/lang/String;)Ljava/lang/Object;"}, {request});
      const rt::MethodId task = addProgramMethod(
          cls, {"doInBackground([Ljava/lang/String;)Ljava/lang/Object;"},
          {rt::CallAction{helper}});
      // Laundering wraps the *outermost* app frame of the request stack:
      // what the async queue runs is the trampoline, so the raw origin
      // scan sees junk (or a builtin-looking frame) where doInBackground
      // should be. Elision (and the footnote-2 filter for spoofs) must see
      // through to the SDK frame underneath.
      rt::MethodId entry = task;
      if (launder == Launder::Reflect) {
        entry = addProgramMethod(
            addClass({junkPackage, ".x", Decimal(builtSources.size())}),
            {"i", domainIndex, "()V"}, {rt::ReflectiveCallAction{task}});
      } else if (launder == Launder::Spoof) {
        entry = addProgramMethod(
            addClass({"android.support.v7.sync.Dispatch",
                      Decimal(builtSources.size())}),
            {"run", domainIndex, "()V"}, {rt::CallAction{task}});
      }
      if (sync) {
        // Developer code on the UI thread calls straight into the fetch.
        built.enqueuers.push_back(entry);
      } else {
        const rt::MethodId enqueue =
            addProgramMethod(cls, {"request()V"}, {rt::AsyncAction{entry}});
        built.enqueuers.push_back(enqueue);
      }
    }
    builtSources.push_back(std::move(built));
  }

  // --- Coverage subtrees -----------------------------------------------------
  const auto buildSubtree = [&](const std::string& packageBase, int treeId,
                                std::size_t size) -> std::optional<rt::MethodId> {
    if (size == 0) return std::nullopt;
    // Hub chain, each hub calling up to 24 empty leaves; depth stays well
    // under the interpreter's call-depth limit.
    constexpr std::size_t kLeavesPerHub = 24;
    std::vector<rt::MethodId> hubs;
    std::size_t made = 0;
    int hubIndex = 0;
    while (made < size) {
      const ClassName cls = addClass(
          {packageBase, ".T", Decimal(treeId), "H", Decimal(hubIndex)});
      std::vector<rt::Action> body;
      const std::size_t leaves = std::min(kLeavesPerHub, size - made);
      body.reserve(leaves);
      for (std::size_t l = 0; l < leaves; ++l) {
        const rt::MethodId leaf =
            addProgramMethod(cls, {"w", Decimal(l), "(I)I"}, {});
        body.push_back(rt::CallAction{leaf});
        ++made;
      }
      const rt::MethodId hub = addProgramMethod(cls, {"run()V"}, std::move(body));
      ++made;  // the hub itself counts
      hubs.push_back(hub);
      ++hubIndex;
      if (hubs.size() > 40) break;  // keep depth bounded
    }
    // Chain hubs: hub[i] also calls hub[i+1]; build links by rewriting
    // bodies is impossible (methods are immutable once added), so add
    // chain wrappers instead.
    rt::MethodId next = hubs.back();
    for (std::size_t i = hubs.size() - 1; i-- > 0;) {
      next = addProgramMethod(
          addClass({packageBase, ".T", Decimal(treeId), "C", Decimal(i)}),
          {"step()V"}, {rt::CallAction{hubs[i]}, rt::CallAction{next}});
    }
    return next;
  };

  const auto reachableBudget = static_cast<std::size_t>(
      plan.coverageTarget * static_cast<double>(plan.totalMethods));
  const std::size_t handlerCount = static_cast<std::size_t>(plan.uiHandlers);

  // A quarter of covered code sits inside bundled library packages (their
  // glue code runs even when the library produces no traffic).
  std::vector<std::string> subtreePackages = {plan.packageName + ".ui"};
  for (const int profileIndex : plan.bundledProfiles) {
    if (subtreePackages.size() >= 4) break;
    subtreePackages.push_back(
        std::string(profiles[static_cast<std::size_t>(profileIndex)].prefix) +
        ".internal");
  }

  const std::size_t onCreateShare = reachableBudget / 8;
  const std::size_t perHandler =
      handlerCount == 0 ? 0 : (reachableBudget - onCreateShare) / handlerCount;

  // --- Handlers ---------------------------------------------------------------
  // Expected monkey hits per handler, for trigger-guard calibration.
  const double hitsPerHandler =
      static_cast<double>(kExpectedMonkeyEvents) /
      static_cast<double>(std::max<std::size_t>(handlerCount, 1));

  struct PendingGuard {
    double prob;
    rt::MethodId target;
  };
  std::vector<std::vector<PendingGuard>> handlerGuards(handlerCount);

  const auto spreadGuards = [&](rt::MethodId target, double expectedPerRun) {
    if (handlerCount == 0 || expectedPerRun <= 0.0) return;
    double probPerHandler = expectedPerRun / hitsPerHandler;
    std::size_t attachments = 1;
    if (probPerHandler > 0.9) {
      attachments = static_cast<std::size_t>(std::ceil(probPerHandler / 0.9));
      attachments = std::min(attachments, handlerCount);
      probPerHandler = probPerHandler / static_cast<double>(attachments);
    }
    for (std::size_t a = 0; a < attachments; ++a) {
      const std::size_t handler = rng.uniform(0, handlerCount - 1);
      handlerGuards[handler].push_back({std::min(probPerHandler, 1.0), target});
    }
  };

  for (const auto& built : builtSources) {
    // Split the source's request budget over its domains by request weight
    // (falls back to an even split when weights are missing or degenerate).
    const auto& weights = built.plan->domainWeights;
    double weightSum = 0.0;
    if (weights.size() == built.enqueuers.size())
      for (const double w : weights) weightSum += w;
    for (std::size_t e = 0; e < built.enqueuers.size(); ++e) {
      const double share =
          weightSum > 0.0 ? weights[e] / weightSum
                          : 1.0 / static_cast<double>(built.enqueuers.size());
      spreadGuards(built.enqueuers[e], built.plan->meanRequestsPerRun * share);
    }
  }

  // Background tasks (Rosen et al.): analytics flush their event queues
  // and ad SDKs prefetch after the app is backgrounded.
  for (std::size_t b = 0; b < builtSources.size(); ++b) {
    const BuiltSource& built = builtSources[b];
    if (built.plan->profileIndex < 0) continue;
    const LibraryProfile& sourceProfile =
        profiles[static_cast<std::size_t>(built.plan->profileIndex)];
    double backgroundProb = 0.0;
    if (sourceProfile.radarCategory == "Mobile Analytics") backgroundProb = 0.5;
    else if (sourceProfile.radarCategory == "Advertisement") backgroundProb = 0.25;
    else if (sourceProfile.radarCategory == "Utility") backgroundProb = 0.30;
    if (backgroundProb <= 0.0) continue;
    const rt::MethodId task = addProgramMethod(
        addClass({built.plan->taskPackage, ".BgSync", Decimal(b)}),
        {"run()V"}, {rt::GuardAction{backgroundProb, built.enqueuers.front()}});
    program.backgroundTasks.push_back(task);
  }

  // §14 background sync: a first-party poller whose *only* call site is
  // the background-tick queue — traffic with no UI cause at all.
  if (config_.scenarios.backgroundSync && !plan.syncDomain.empty()) {
    rt::NetRequestAction request;
    request.domain = plan.syncDomain;
    request.port = 443;
    request.path = "/sync";
    request.requestBytesMin = 120;
    request.requestBytesMax = 420;
    request.transfers = 1;
    const ClassName cls = addClass({plan.packageName, ".sync.Poller"});
    const rt::MethodId fetch = addProgramMethod(cls, {"fetch()V"}, {request});
    const rt::MethodId poll = addProgramMethod(
        cls, {"run()V"}, {rt::GuardAction{plan.syncProb, fetch}});
    program.backgroundTasks.push_back(poll);
  }

  // Framework-originated ad traffic trigger.
  if (plan.systemAdTraffic) {
    rt::SystemRequestAction request;
    request.domain = plan.systemAdDomain;
    const rt::MethodId trigger = addProgramMethod(
        addClass({plan.packageName, ".ui.WebBanner"}), {"refresh()V"},
        {request});
    spreadGuards(trigger, 2.5);
  }

  std::vector<rt::MethodId> handlers;
  handlers.reserve(handlerCount);
  for (std::size_t h = 0; h < handlerCount; ++h) {
    const std::string& base = subtreePackages[h % subtreePackages.size()];
    const auto subtree = buildSubtree(base, static_cast<int>(h), perHandler);
    std::vector<rt::Action> body;
    body.reserve((subtree ? 1 : 0) + handlerGuards[h].size() + 1);
    if (subtree) body.push_back(rt::CallAction{*subtree});
    for (const auto& guard : handlerGuards[h])
      body.push_back(rt::GuardAction{guard.prob, guard.target});
    body.push_back(rt::SleepAction{static_cast<std::uint32_t>(rng.uniform(0, 3))});
    handlers.push_back(addProgramMethod(
        addClass({plan.packageName, ".ui.Handler", Decimal(h)}),
        {"onClick(Landroid/view/View;)V"}, std::move(body)));
  }

  // --- onCreate -----------------------------------------------------------------
  std::vector<rt::Action> onCreateBody;
  onCreateBody.reserve(1 + builtSources.size());
  if (const auto subtree =
          buildSubtree(subtreePackages.front(), 9999, onCreateShare))
    onCreateBody.push_back(rt::CallAction{*subtree});
  for (const auto& built : builtSources) {
    if (built.plan->initRequestProb <= 0.0) continue;
    onCreateBody.push_back(rt::GuardAction{
        built.plan->initialDownload ? 0.95 : built.plan->initRequestProb,
        built.enqueuers.front()});
  }
  const rt::MethodId onCreate = addProgramMethod(
      addClass({plan.packageName, ".ui.MainActivity"}),
      {"onCreate(Landroid/os/Bundle;)V"}, std::move(onCreateBody));

  program.onCreate = onCreate;
  program.uiHandlers = std::move(handlers);

  // --- Dex assembly ----------------------------------------------------------
  dex::ApkFile apk;
  apk.packageName = plan.packageName;
  apk.appCategory = plan.appCategory;
  const ApkVersionInfo& version = plan.versions.at(plan.chosenVersion);
  apk.versionCode = version.versionCode;
  apk.dexTimestamp = version.dexTimestamp;
  apk.vtScanDate = version.vtScanDate;
  apk.abis = version.abis;

  // Bulk (cold) library code, kBulkMembers in each class.
  struct BulkClass {
    ClassName name;
    std::size_t methods = 0;
  };
  std::vector<BulkClass> bulkClasses;
  std::size_t methodCount = program.methodCount();
  const auto addBulk = [&](std::string_view package, std::string_view suffix,
                           std::size_t count) {
    std::size_t made = 0;
    for (std::size_t classIndex = 0; made < count; ++classIndex) {
      const std::size_t inClass =
          std::min<std::size_t>(kBulkMethodsPerClass, count - made);
      bulkClasses.push_back(
          {addClass({package, suffix, ".a", Decimal(classIndex)}), inClass});
      made += inClass;
    }
    methodCount += count;
  };

  for (const int profileIndex : plan.bundledProfiles) {
    const LibraryProfile& profile = profiles[static_cast<std::size_t>(profileIndex)];
    const auto bulk = static_cast<std::size_t>(
        static_cast<double>(profile.bulkMethods) * config_.methodScale);
    addBulk(profile.prefix, ".internal", bulk);
  }
  if (methodCount < plan.totalMethods)
    addBulk(plan.packageName, ".gen", plan.totalMethods - methodCount);

  // Group methods into classes. Entry e < programCount is program method
  // e; entry programCount + b is bulk class b. A class keeps its entries
  // in a chain (first, next..., last) in the order they arrived.
  //
  // The dex's class order is this map's iteration order, and every apk
  // digest depends on it. It is the order of the
  // std::unordered_map<std::string, ...> this assembly always used,
  // because the key hash is the same (std::hash<std::string_view> equals
  // std::hash<std::string>), the keys arrive in the same sequence (program
  // methods in id order, then bulk classes), neither map reserves and the
  // allocator does not change the bucket policy. The map's nodes and
  // buckets come from one block sized for the most classes there can be
  // (every class name written, repeats included): a 40-byte node plus the
  // bucket arrays the map grows through, which a monotonic resource keeps.
  struct ClassEntries {
    std::uint32_t first = 0;
    std::uint32_t last = 0;
    std::size_t methods = 0;
  };
  constexpr std::uint32_t kEndOfClass = ~std::uint32_t{0};
  constexpr std::size_t kClassMapBytesPerClass = 80;
  const std::size_t programCount = program.methodCount();
  std::pmr::monotonic_buffer_resource classMapMemory(
      classNamesWritten * kClassMapBytesPerClass);
  std::pmr::unordered_map<std::string_view, std::uint32_t> classOf(
      &classMapMemory);
  std::vector<ClassEntries> classes;
  classes.reserve(classNamesWritten);
  std::vector<std::uint32_t> nextEntry(programCount + bulkClasses.size(),
                                       kEndOfClass);
  std::size_t imageBytes = 4;
  const auto place = [&](ClassName className, std::uint32_t entry,
                         std::size_t methods) {
    const std::string_view name =
        std::string_view(classNames).substr(className.offset, className.size);
    const auto [it, fresh] =
        classOf.try_emplace(name, static_cast<std::uint32_t>(classes.size()));
    if (fresh) {
      classes.push_back({entry, entry, 0});
      imageBytes += 4 + name.size() + 4;
    } else {
      nextEntry[classes[it->second].last] = entry;
      classes[it->second].last = entry;
    }
    classes[it->second].methods += methods;
  };
  for (std::size_t id = 0; id < programCount; ++id) {
    const auto method = static_cast<rt::MethodId>(id);
    place(programClasses[id], method, 1);
    imageBytes += 4 + program.method(method).signature.size();
  }
  for (std::size_t b = 0; b < bulkClasses.size(); ++b) {
    const BulkClass& bulk = bulkClasses[b];
    place(bulk.name, static_cast<std::uint32_t>(programCount + b),
          bulk.methods);
    // "L<class>;-><member>".
    for (std::size_t k = 0; k < bulk.methods; ++k)
      imageBytes += 4 + 1 + bulk.name.size + 3 + kBulkMembers[k].size();
  }

  // Multi-dex: respect the 64k method-reference limit per dex file. Each
  // signature is written once, straight into the apk's dex image.
  constexpr std::size_t kDexMethodLimit = 65536;
  dex::DexWriter dex;
  // Each dex file adds its class count; splits are rare, so this is a hint.
  dex.reserve(imageBytes + 4 * (2 + methodCount / kDexMethodLimit),
              classes.size(), methodCount);
  dex.beginDex();
  std::size_t inCurrentDex = 0;
  for (const auto& [name, index] : classOf) {
    const ClassEntries& cls = classes[index];
    if (inCurrentDex + cls.methods > kDexMethodLimit) {
      dex.beginDex();
      inCurrentDex = 0;
    }
    inCurrentDex += cls.methods;
    dex.beginClass(name);
    for (std::uint32_t entry = cls.first; entry != kEndOfClass;
         entry = nextEntry[entry]) {
      if (entry < programCount) {
        dex.addMethod(program.method(entry).signature);
        continue;
      }
      for (std::size_t k = 0; k < bulkClasses[entry - programCount].methods;
           ++k)
        dex.addOwnMethod(kBulkMembers[k]);
    }
  }
  apk.setDex(std::move(dex));

  return Job{std::move(apk), std::move(program)};
}

}  // namespace libspector::store
