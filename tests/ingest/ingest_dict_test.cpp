// Dictionary frames through ShardedIngest: under seeded loss /
// duplication / reordering the router must deliver exactly the run the
// channel let through — the sender's reports at every delivered sequence,
// and the loss account that delivery implies — with holes (frames whose
// defining datagram is lost or late) healed by later defs or by the
// finalize-time repair from the locally recorded report list, and every
// unhealable hole counted, never silently dropped.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "ingest/chaos.hpp"
#include "ingest/router.hpp"

namespace libspector::ingest {
namespace {

const std::vector<std::string>& signaturePool() {
  static const std::vector<std::string> kPool = {
      "java.net.Socket.connect",
      "com.android.okhttp.internal.Platform.connectSocket",
      "Lcom/unity3d/ads/android/cache/b;->a(Ljava/lang/String;)V",
      "Lcom/unity3d/ads/android/cache/b;->doInBackground([Ljava/lang/String;)V",
      "Lcom/google/ads/internal/c;->run()V",
      "Lcom/flurry/android/monolithic/sdk/impl/ado;->a(Ljava/lang/Runnable;)V",
      "android.os.AsyncTask$2.call",
      "java.util.concurrent.FutureTask.run"};
  return kPool;
}

/// Report `seq` of a run: a 4-deep stack sliding over the signature pool,
/// so consecutive frames share most — but not all — of the dictionary.
core::UdpReport runReport(const std::string& sha, std::uint64_t seq) {
  core::UdpReport report;
  report.apkSha256 = sha;
  report.socketPair = {{net::Ipv4Addr(10, 0, 2, 15),
                        static_cast<std::uint16_t>(40000 + seq)},
                       {net::Ipv4Addr(198, 18, 0, 1), 443}};
  report.timestampMs = seq;
  const auto& pool = signaturePool();
  for (std::uint64_t i = 0; i < 4; ++i)
    report.stackSignatures.push_back(pool[(seq + i) % pool.size()]);
  return report;
}

/// The run-completion artifacts. `withLocalReports` mirrors the emulator's
/// locally recorded (complete, send-ordered) report list.
core::RunArtifacts artifactsFor(const std::string& sha, std::uint64_t emitted,
                                bool withLocalReports) {
  core::RunArtifacts artifacts;
  artifacts.apkSha256 = sha;
  artifacts.packageName = "com.app." + sha;
  artifacts.reportsEmitted = emitted;
  if (withLocalReports)
    for (std::uint64_t seq = 0; seq < emitted; ++seq)
      artifacts.reports.push_back(runReport(sha, seq));
  return artifacts;
}

/// Passes every datagram through to `downstream`, recording the sequence
/// each one carries in arrival order.
class SequenceRecorder final : public ReportSink {
 public:
  explicit SequenceRecorder(ReportSink& downstream) : downstream_(downstream) {}
  void submitDatagram(std::span<const std::uint8_t> payload) override {
    arrivals.push_back(core::ReportFrame::peek(payload).sequence);
    downstream_.submitDatagram(payload);
  }
  std::vector<std::uint64_t> arrivals;

 private:
  ReportSink& downstream_;
};

struct ChaosOutcome {
  std::vector<RunDelivery> deliveries;
  IngestMetrics metrics;
  std::vector<std::uint64_t> arrivals;  // sequences the channel delivered
};

/// One run of `count` reports from one encoder, pushed through a seeded
/// ChaosChannel into a single-shard ingest.
ChaosOutcome runUnderChaos(const ChaosConfig& chaosConfig,
                           std::uint64_t count) {
  ChaosOutcome outcome;
  IngestConfig config;
  config.shards = 1;
  ShardedIngest ingest(config, [&](RunDelivery&& delivery) {
    outcome.deliveries.push_back(std::move(delivery));
  });
  SequenceRecorder recorder(ingest);
  {
    ChaosChannel chaos(recorder, chaosConfig);
    core::DictFrameEncoder encoder(7);
    for (std::uint64_t seq = 0; seq < count; ++seq)
      chaos.submitDatagram(encoder.encode(seq, runReport("chaotic", seq)));
    chaos.flush();
  }
  ingest.submitRun(0, artifactsFor("chaotic", count, true));
  ingest.drain();
  outcome.metrics = ingest.metrics();
  outcome.arrivals = std::move(recorder.arrivals);
  return outcome;
}

TEST(IngestDictTest, V3DeliversTheSentRunUnderChaos) {
  const ChaosConfig schedules[] = {
      {.lossProb = 0.0, .dupProb = 0.0, .reorderWindow = 0, .seed = 1},
      {.lossProb = 0.3, .dupProb = 0.0, .reorderWindow = 0, .seed = 42},
      {.lossProb = 0.0, .dupProb = 0.4, .reorderWindow = 0, .seed = 7},
      {.lossProb = 0.0, .dupProb = 0.0, .reorderWindow = 6, .seed = 9},
      {.lossProb = 0.25, .dupProb = 0.25, .reorderWindow = 5, .seed = 99},
  };
  constexpr std::uint64_t kCount = 40;
  for (const auto& schedule : schedules) {
    const auto outcome = runUnderChaos(schedule, kCount);
    ASSERT_EQ(outcome.deliveries.size(), 1u);

    // What the channel delivered implies the run: the sender's reports at
    // the distinct delivered sequences, in send order, and an account
    // that replays the arrival order.
    core::ApkLossAccount expected;
    expected.reportsEmitted = kCount;
    std::set<std::uint64_t> seen;
    for (const std::uint64_t seq : outcome.arrivals) {
      ++expected.framesDelivered;
      if (!seen.empty() && seq < *seen.rbegin() && !seen.contains(seq))
        ++expected.outOfOrder;
      if (!seen.insert(seq).second) ++expected.duplicated;
    }
    expected.uniqueDelivered = seen.size();
    expected.lost = kCount - seen.size();
    std::vector<core::UdpReport> expectedReports;
    for (const std::uint64_t seq : seen)
      expectedReports.push_back(runReport("chaotic", seq));

    EXPECT_EQ(outcome.deliveries[0].artifacts.reports, expectedReports)
        << "loss=" << schedule.lossProb << " dup=" << schedule.dupProb
        << " reorder=" << schedule.reorderWindow;
    EXPECT_EQ(outcome.deliveries[0].account, expected)
        << "loss=" << schedule.lossProb << " dup=" << schedule.dupProb
        << " reorder=" << schedule.reorderWindow;
    // Every hole the schedule opened was healed or counted, never leaked.
    EXPECT_EQ(outcome.metrics.dictHoles,
              outcome.metrics.dictRepaired + outcome.metrics.dictDropped);
  }
}

TEST(IngestDictTest, ZeroChaosV3RunIsLossless) {
  const ChaosConfig clean{.lossProb = 0, .dupProb = 0, .reorderWindow = 0};
  const auto outcome = runUnderChaos(clean, 25);
  ASSERT_EQ(outcome.deliveries.size(), 1u);
  const auto& account = outcome.deliveries[0].account;
  EXPECT_EQ(account.uniqueDelivered, 25u);
  EXPECT_EQ(account.lost, 0u);
  EXPECT_EQ(outcome.metrics.framesFolded, 25u);
  EXPECT_EQ(outcome.metrics.dictHoles, 0u);
  // With zero loss the delivered set is the emulator's local list exactly.
  EXPECT_EQ(outcome.deliveries[0].artifacts.reports,
            artifactsFor("chaotic", 25, true).reports);
}

TEST(IngestDictTest, LateDefinitionHealsAParkedFrame) {
  std::vector<RunDelivery> deliveries;
  IngestConfig config;
  config.shards = 1;
  ShardedIngest ingest(config, [&](RunDelivery&& delivery) {
    deliveries.push_back(std::move(delivery));
  });

  core::DictFrameEncoder encoder(7);
  const auto defining = encoder.encode(0, runReport("heal", 0));
  const auto dependent = encoder.encode(1, runReport("heal", 1));

  // The dependent frame arrives first: three of its four signature ids are
  // defined only in frame 0, so it parks as a hole.
  ingest.submitDatagram(dependent);
  ingest.drain();
  EXPECT_EQ(ingest.metrics().dictHoles, 1u);
  EXPECT_EQ(ingest.metrics().dictRepaired, 0u);

  // The late defining frame resolves it.
  ingest.submitDatagram(defining);
  ingest.drain();
  EXPECT_EQ(ingest.metrics().dictRepaired, 1u);

  ingest.submitRun(0, artifactsFor("heal", 2, false));
  ingest.drain();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].account.uniqueDelivered, 2u);
  EXPECT_EQ(deliveries[0].account.lost, 0u);
  EXPECT_EQ(deliveries[0].account.outOfOrder, 1u);
  const std::vector<core::UdpReport> expected = {runReport("heal", 0),
                                                 runReport("heal", 1)};
  EXPECT_EQ(deliveries[0].artifacts.reports, expected);
}

TEST(IngestDictTest, FinalizeRepairsHolesFromTheCompleteLocalList) {
  std::vector<RunDelivery> deliveries;
  IngestConfig config;
  config.shards = 1;
  ShardedIngest ingest(config, [&](RunDelivery&& delivery) {
    deliveries.push_back(std::move(delivery));
  });

  // The defining frame is lost outright; only the dependent one arrives.
  core::DictFrameEncoder encoder(7);
  (void)encoder.encode(0, runReport("repair", 0));  // "lost" on the wire
  ingest.submitDatagram(encoder.encode(1, runReport("repair", 1)));

  // The run completes with the emulator's complete local list: the hole's
  // stack is recovered from reports[sequence] after metadata verification.
  ingest.submitRun(0, artifactsFor("repair", 2, true));
  ingest.drain();

  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(ingest.metrics().dictRepaired, 1u);
  EXPECT_EQ(ingest.metrics().dictDropped, 0u);
  // Frame 1 was delivered (and repaired); frame 0 is honest channel loss.
  EXPECT_EQ(deliveries[0].account.uniqueDelivered, 1u);
  EXPECT_EQ(deliveries[0].account.lost, 1u);
  const std::vector<core::UdpReport> expected = {runReport("repair", 1)};
  EXPECT_EQ(deliveries[0].artifacts.reports, expected);
}

TEST(IngestDictTest, UnrepairableHoleIsDroppedAndCountedLost) {
  std::vector<RunDelivery> deliveries;
  IngestConfig config;
  config.shards = 1;
  ShardedIngest ingest(config, [&](RunDelivery&& delivery) {
    deliveries.push_back(std::move(delivery));
  });

  core::DictFrameEncoder encoder(7);
  (void)encoder.encode(0, runReport("drop", 0));
  ingest.submitDatagram(encoder.encode(1, runReport("drop", 1)));

  // The local list is incomplete (the local sink is lossy too), so the
  // hole cannot be verified against anything — it must be dropped and the
  // account must charge it as loss rather than invent a stack.
  ingest.submitRun(0, artifactsFor("drop", 2, false));
  ingest.drain();

  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(ingest.metrics().dictDropped, 1u);
  EXPECT_EQ(ingest.metrics().dictRepaired, 0u);
  EXPECT_EQ(deliveries[0].account.framesDelivered, 1u);
  EXPECT_EQ(deliveries[0].account.uniqueDelivered, 0u);
  EXPECT_EQ(deliveries[0].account.lost, 2u);
  EXPECT_TRUE(deliveries[0].artifacts.reports.empty());
}

TEST(IngestDictTest, DuplicateDatagramsOfDictFramesAreCountedOnce) {
  std::vector<RunDelivery> deliveries;
  IngestConfig config;
  config.shards = 1;
  ShardedIngest ingest(config, [&](RunDelivery&& delivery) {
    deliveries.push_back(std::move(delivery));
  });

  core::DictFrameEncoder encoder(7);
  const auto first = encoder.encode(0, runReport("dup", 0));
  const auto second = encoder.encode(1, runReport("dup", 1));
  ingest.submitDatagram(first);
  ingest.submitDatagram(first);
  ingest.submitDatagram(second);
  ingest.submitDatagram(second);
  ingest.submitRun(0, artifactsFor("dup", 2, false));
  ingest.drain();

  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].account.framesDelivered, 4u);
  EXPECT_EQ(deliveries[0].account.uniqueDelivered, 2u);
  EXPECT_EQ(deliveries[0].account.duplicated, 2u);
  EXPECT_EQ(deliveries[0].account.lost, 0u);
}

TEST(IngestDictTest, MetricsJsonCarriesDictionaryCounters) {
  IngestConfig config;
  config.shards = 1;
  ShardedIngest ingest(config);
  core::DictFrameEncoder encoder(7);
  ingest.submitDatagram(encoder.encode(1, runReport("json", 1)));
  ingest.drain();
  const std::string json = ingest.metrics().toJson();
  EXPECT_NE(json.find("\"dict_holes\""), std::string::npos);
  EXPECT_NE(json.find("\"dict_repaired\""), std::string::npos);
  EXPECT_NE(json.find("\"dict_dropped\""), std::string::npos);
}

}  // namespace
}  // namespace libspector::ingest
