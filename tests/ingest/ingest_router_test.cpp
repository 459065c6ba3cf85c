// ShardedIngest: framed-wire accounting (loss, duplication, reordering,
// corruption — detected and counted per apk), bounded queues that block a
// producer when full, sharded consumers, and the metrics surface.
#include "ingest/router.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>

#include "util/bytes.hpp"

namespace libspector::ingest {
namespace {

core::UdpReport sampleReport(const std::string& sha, std::uint64_t seq) {
  core::UdpReport report;
  report.apkSha256 = sha;
  report.socketPair = {{net::Ipv4Addr(10, 0, 2, 15),
                        static_cast<std::uint16_t>(40000 + seq)},
                       {net::Ipv4Addr(198, 18, 0, 1), 443}};
  report.timestampMs = seq;  // lets tests recover send order from content
  report.stackSignatures = {"java.net.Socket.connect",
                            "Lcom/lib/b;->doInBackground()V"};
  return report;
}

/// A frame that stands alone: a fresh encoder defines every signature id
/// the frame references, and a worker's stacks are identical, so each
/// frame's ids agree with every other frame's of the same worker.
std::vector<std::uint8_t> frameBytes(const std::string& sha,
                                     std::uint32_t workerId,
                                     std::uint64_t seq) {
  return core::DictFrameEncoder(workerId).encode(seq, sampleReport(sha, seq));
}

core::RunArtifacts runFor(const std::string& sha, std::uint64_t emitted) {
  core::RunArtifacts artifacts;
  artifacts.apkSha256 = sha;
  artifacts.packageName = "com.app." + sha;
  artifacts.reportsEmitted = emitted;
  return artifacts;
}

TEST(ReportFrameTest, RoundTripsThroughWire) {
  const auto bytes = frameBytes("aaa", 7, 42);
  const auto frame = core::ReportFrame::decode(bytes);
  EXPECT_EQ(frame.encode(), bytes);
  EXPECT_EQ(frame.workerId, 7u);
  EXPECT_EQ(frame.sequence, 42u);
  EXPECT_EQ(frame.apkSha256, "aaa");
  core::ReportStreamDecoder decoder;
  EXPECT_EQ(decoder.decode(bytes), sampleReport("aaa", 42));

  const auto header = core::ReportFrame::peek(bytes);
  EXPECT_EQ(header.workerId, 7u);
  EXPECT_EQ(header.sequence, 42u);
  EXPECT_EQ(header.shaKey, util::fnv1a64("aaa"));
}

TEST(ReportFrameTest, RawReportIsNotMistakenForAFrame) {
  const auto raw = sampleReport("aaa", 0).encode();
  EXPECT_THROW((void)core::ReportFrame::peek(raw), util::DecodeError);
  EXPECT_THROW((void)core::ReportFrame::decode(raw), util::DecodeError);
  core::ReportStreamDecoder decoder;
  EXPECT_THROW((void)decoder.decode(raw), util::DecodeError);
  EXPECT_EQ(decoder.decode(frameBytes("aaa", 1, 5)), sampleReport("aaa", 5));
}

TEST(ReportFrameTest, TruncationIsRejected) {
  const auto valid = frameBytes("aaa", 3, 9);
  for (std::size_t len = 0; len < valid.size(); ++len) {
    const std::span<const std::uint8_t> cut(valid.data(), len);
    EXPECT_THROW((void)core::ReportFrame::decode(cut), util::DecodeError);
    EXPECT_THROW((void)core::ReportFrame::peek(cut), util::DecodeError);
  }
}

TEST(ShardedIngestTest, AccountsLossDuplicationAndReorderingExactly) {
  std::vector<RunDelivery> deliveries;
  IngestConfig config;
  config.shards = 2;
  ShardedIngest ingest(config, [&](RunDelivery&& d) {
    deliveries.push_back(std::move(d));
  });

  // Worker 7 emits sequences 0..9; the "network" loses {2,5}, duplicates
  // {1,3,8} and delivers the rest shuffled.
  std::vector<std::uint64_t> arrivals = {9, 1, 0, 3, 1, 8, 4, 3, 6, 7, 8};
  for (const auto seq : arrivals)
    ingest.submitDatagram(frameBytes("lossy", 7, seq));
  ingest.submitRun(0, runFor("lossy", 10));
  ingest.drain();

  ASSERT_EQ(deliveries.size(), 1u);
  const auto& account = deliveries[0].account;
  EXPECT_EQ(account.reportsEmitted, 10u);
  EXPECT_EQ(account.framesDelivered, 11u);  // 8 unique + 3 duplicates
  EXPECT_EQ(account.uniqueDelivered, 8u);
  EXPECT_EQ(account.duplicated, 3u);
  EXPECT_EQ(account.lost, 2u);
  EXPECT_GT(account.outOfOrder, 0u);

  // Delivered reports come out deduplicated and in send order.
  const auto& reports = deliveries[0].artifacts.reports;
  ASSERT_EQ(reports.size(), 8u);
  for (std::size_t i = 1; i < reports.size(); ++i)
    EXPECT_LT(reports[i - 1].timestampMs, reports[i].timestampMs);
}

TEST(ShardedIngestTest, ZeroLossReproducesTheSenderReportListExactly) {
  std::vector<RunDelivery> deliveries;
  ShardedIngest ingest({}, [&](RunDelivery&& d) {
    deliveries.push_back(std::move(d));
  });

  std::vector<core::UdpReport> sent;
  for (std::uint64_t seq = 0; seq < 6; ++seq) {
    sent.push_back(sampleReport("clean", seq));
    ingest.submitDatagram(frameBytes("clean", 1, seq));
  }
  ingest.submitRun(3, runFor("clean", 6));
  ingest.drain();

  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].jobIndex, 3u);
  EXPECT_EQ(deliveries[0].account.lost, 0u);
  EXPECT_EQ(deliveries[0].account.duplicated, 0u);
  EXPECT_EQ(deliveries[0].artifacts.reports, sent);
}

TEST(ShardedIngestTest, RunWithDeadChannelKeepsItsOwnReports) {
  // reportsEmitted == 0 and no frames ever routed: the run's locally
  // collected report list must pass through untouched.
  std::vector<RunDelivery> deliveries;
  ShardedIngest ingest({}, [&](RunDelivery&& d) {
    deliveries.push_back(std::move(d));
  });
  auto artifacts = runFor("local", 0);
  artifacts.reports = {sampleReport("local", 0)};
  ingest.submitRun(0, std::move(artifacts));
  ingest.drain();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].artifacts.reports.size(), 1u);
  EXPECT_EQ(deliveries[0].account.lost, 0u);
}

TEST(ShardedIngestTest, BlockBackpressureLosesNothing) {
  IngestConfig config;
  config.shards = 1;
  config.queueCapacity = 2;  // far smaller than the burst
  ShardedIngest ingest(config);
  constexpr std::uint64_t kFrames = 500;
  for (std::uint64_t seq = 0; seq < kFrames; ++seq)
    ingest.submitDatagram(frameBytes("burst", 1, seq));
  ingest.drain();
  const auto metrics = ingest.metrics();
  EXPECT_EQ(metrics.framesFolded, kFrames);
  EXPECT_EQ(ingest.takeReports("burst").size(), kFrames);
}

TEST(ShardedIngestTest, RoutesEveryShaToAStableShard) {
  IngestConfig config;
  config.shards = 4;
  ShardedIngest ingest(config);
  ASSERT_EQ(ingest.shardCount(), 4u);
  for (int i = 0; i < 32; ++i) {
    const std::string sha = "app" + std::to_string(i);
    const std::size_t shard = ingest.shardOf(sha);
    EXPECT_LT(shard, 4u);
    EXPECT_EQ(shard, ingest.shardOf(sha));  // stable
    ingest.submitDatagram(frameBytes(sha, 1, 0));
  }
  ingest.drain();
  const auto metrics = ingest.metrics();
  std::uint64_t folded = 0;
  for (const auto& shard : metrics.perShard) folded += shard.framesFolded;
  EXPECT_EQ(folded, 32u);
  EXPECT_EQ(metrics.framesFolded, 32u);
}

TEST(ShardedIngestTest, TakeReportsDrainsUnclaimedState) {
  ShardedIngest ingest;
  ingest.submitDatagram(frameBytes("orphan", 2, 1));
  ingest.submitDatagram(frameBytes("orphan", 2, 0));
  ingest.submitDatagram(frameBytes("orphan", 2, 0));  // duplicate
  ingest.drain();
  const auto reports = ingest.takeReports("orphan");
  ASSERT_EQ(reports.size(), 2u);  // deduplicated
  EXPECT_EQ(reports[0].timestampMs, 0u);  // send order restored
  EXPECT_EQ(reports[1].timestampMs, 1u);
  EXPECT_TRUE(ingest.takeReports("orphan").empty());
}

TEST(ShardedIngestTest, EvictsOldestPendingApkOverCapacity) {
  IngestConfig config;
  config.shards = 1;
  config.maxPendingApks = 2;
  ShardedIngest ingest(config);
  ingest.submitDatagram(frameBytes("first", 1, 0));
  ingest.submitDatagram(frameBytes("second", 1, 0));
  ingest.submitDatagram(frameBytes("third", 1, 0));
  ingest.drain();
  const auto metrics = ingest.metrics();
  EXPECT_EQ(metrics.perShard[0].apksEvicted, 1u);
  EXPECT_EQ(metrics.perShard[0].reportsEvicted, 1u);
  EXPECT_TRUE(ingest.takeReports("first").empty());  // the oldest went
  EXPECT_EQ(ingest.takeReports("third").size(), 1u);
}

TEST(ShardedIngestTest, MalformedDatagramsAreCountedNotFatal) {
  ShardedIngest ingest;
  ingest.submitDatagram(std::vector<std::uint8_t>{0x01, 0x02, 0x03});
  ingest.submitDatagram({});
  auto truncated = frameBytes("mal", 1, 0);
  truncated.resize(truncated.size() / 2);
  ingest.submitDatagram(truncated);
  // Raw (unframed) report encodings are rejected on the sharded path: the
  // router needs the header to route without decoding payloads.
  ingest.submitDatagram(sampleReport("mal", 0).encode());
  // So is a checksummed datagram in the retired v1 layout, which carried
  // the whole report record in every frame: no sender emits it.
  const auto record = sampleReport("mal", 2).encode();
  util::ByteWriter body;
  body.u32(1);                       // workerId
  body.u64(2);                       // sequence
  body.u64(util::fnv1a64("mal"));    // shaKey
  body.str({reinterpret_cast<const char*>(record.data()), record.size()});
  util::ByteWriter v1;
  v1.u32(0x4652534C);                // "LSRF"
  v1.u8(1);                          // version
  v1.u32(util::crc32(body.data()));
  v1.raw(body.data());
  ingest.submitDatagram(v1.data());
  ingest.submitDatagram(frameBytes("mal", 1, 1));
  ingest.drain();
  const auto metrics = ingest.metrics();
  EXPECT_EQ(metrics.datagramsReceived, 6u);
  EXPECT_EQ(metrics.datagramsMalformed, 5u);
  EXPECT_EQ(metrics.framesFolded, 1u);
}

TEST(ShardedIngestTest, RunCallbackExceptionIsRethrownByDrain) {
  // A run callback that throws (a checkpoint write that failed) runs on a
  // shard's consumer thread: the consumer must keep going, and drain()
  // hands the first error to its caller, once.
  std::vector<std::size_t> finalized;
  IngestConfig config;
  config.shards = 1;
  ShardedIngest ingest(config, [&](RunDelivery&& d) {
    if (d.jobIndex == 1 || d.jobIndex == 2)
      throw std::runtime_error("cannot write run " +
                               std::to_string(d.jobIndex));
    finalized.push_back(d.jobIndex);
  });
  for (std::size_t i = 0; i < 4; ++i)
    ingest.submitRun(i, runFor("app" + std::to_string(i), 0));

  // failed() reads true as soon as a callback has thrown, before drain().
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!ingest.failed() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  EXPECT_TRUE(ingest.failed());

  try {
    ingest.drain();
    ADD_FAILURE() << "drain() did not rethrow the callback's exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "cannot write run 1");
  }
  EXPECT_FALSE(ingest.failed());
  EXPECT_EQ(finalized, (std::vector<std::size_t>{0, 3}));
  EXPECT_EQ(ingest.metrics().runsCompleted, 4u);
  EXPECT_NO_THROW(ingest.drain());
}

TEST(ShardedIngestTest, CheckpointsEachFreshRunBeforeItsCallbackAndNoReplay) {
  // Durable before aggregated: a fresh run's checkpoint returns before its
  // callback starts, a replay reaches the callback with no checkpoint, and
  // a run whose checkpoint throws reaches no callback while later runs
  // still do; drain() rethrows that error once.
  std::vector<std::string> events;  // one shard: one consumer thread
  IngestConfig config;
  config.shards = 1;
  ShardedIngest ingest(
      config,
      [&](RunDelivery&& d) {
        events.push_back("callback " + std::to_string(d.jobIndex) +
                         (d.replayed ? " replayed" : ""));
      },
      [&](const RunDelivery& d) {
        events.push_back("checkpoint " + std::to_string(d.jobIndex));
        if (d.jobIndex == 1) throw std::runtime_error("cannot write run 1");
        events.push_back("checkpointed " + std::to_string(d.jobIndex));
      });
  ingest.submitRun(0, runFor("fresh0", 0));
  ingest.submitRun(1, runFor("fresh1", 0));
  core::RunArtifacts recovered;
  recovered.apkSha256 = "replayed2";
  ApkLossAccount account;
  account.reportsEmitted = 3;
  account.uniqueDelivered = 3;
  ingest.submitReplay(2, std::move(recovered), account);
  ingest.submitRun(3, runFor("fresh3", 0));

  try {
    ingest.drain();
    ADD_FAILURE() << "drain() did not rethrow the checkpoint's exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "cannot write run 1");
  }
  EXPECT_NO_THROW(ingest.drain());
  EXPECT_EQ(events, (std::vector<std::string>{
                        "checkpoint 0", "checkpointed 0", "callback 0",
                        "checkpoint 1", "callback 2 replayed", "checkpoint 3",
                        "checkpointed 3", "callback 3"}));
  EXPECT_EQ(ingest.metrics().runsCompleted, 4u);
}

TEST(ShardedIngestTest, MetricsExportAsWellFormedJson) {
  IngestConfig config;
  config.shards = 2;
  ShardedIngest ingest(config);
  for (std::uint64_t seq = 0; seq < 8; ++seq)
    ingest.submitDatagram(frameBytes("json", 1, seq));
  ingest.submitRun(0, runFor("json", 8));
  ingest.drain();

  const auto json = ingest.metrics().toJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* key :
       {"\"shards\"", "\"datagrams_received\"", "\"datagrams_malformed\"",
        "\"frames_folded\"", "\"duplicated\"",
        "\"out_of_order\"", "\"runs_completed\"", "\"reports_delivered\"",
        "\"reports_lost\"", "\"latency_p50_ms\"", "\"latency_p99_ms\"",
        "\"runs_refused\"",
        "\"per_shard\"", "\"queue_depth_peak\"", "\"utilization\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;
}

TEST(ShardedIngestTest, AutoShardCountUsesHardwareConcurrency) {
  IngestConfig config;
  config.shards = 0;
  ShardedIngest ingest(config);
  EXPECT_GE(ingest.shardCount(), 1u);
}

}  // namespace
}  // namespace libspector::ingest
