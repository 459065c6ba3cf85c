// The spectord daemon end to end over simulated duplex channels: session
// handshake + resume (spoken in raw frames), wire ingest equal to an
// in-process router that attributes and folds, exact loss accounting
// through a chaos channel, a snapshot of the whole view after a dashboard
// Hello and one delta per run built from the run's delivery and flows,
// dashboard mirrors equal to the daemon's own view (early, mid-study,
// prompt and resynced subscribers), bounded slow-subscriber handling (drop
// deltas, resync from a snapshot), and the admin surface (status, evict,
// drain, resume-from-checkpoint, shutdown).
#include "spectord/daemon.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/attribution.hpp"
#include "core/export.hpp"
#include "ingest/chaos.hpp"
#include "orch/emulator.hpp"
#include "radar/corpus.hpp"
#include "spectord/client.hpp"
#include "store/generator.hpp"
#include "util/sha256.hpp"
#include "vtsim/categorizer.hpp"

namespace libspector::spectord {
namespace {

using namespace std::chrono_literals;

/// A connect factory that opens a plain connection to `daemon` each time.
ConnectFn connectTo(SpectorDaemon& daemon) {
  return [&daemon](std::size_t) { return daemon.connect(); };
}

/// Speak the handshake by hand: send Hello on a raw channel and return
/// the daemon's reply (nullopt if none came).
std::optional<Frame> helloReply(ClientChannel& channel, std::uint64_t clientId,
                                ClientKind kind = ClientKind::Ingest,
                                std::uint64_t resumeSession = 0) {
  HelloMsg hello;
  hello.clientId = clientId;
  hello.kind = kind;
  hello.resumeSession = resumeSession;
  if (!channel.send(FrameType::Hello, hello.encode())) return std::nullopt;
  return channel.read(5000ms);
}

/// Open a raw dashboard connection by hand: its Hello subscribes, so the
/// HelloAck is followed by a snapshot of the daemon's whole view. Returns
/// that view (nullopt if the replies were not those two frames).
std::optional<DashboardMirror> dashboardHello(ClientChannel& channel,
                                              std::uint64_t clientId) {
  const auto ack = helloReply(channel, clientId, ClientKind::Dashboard);
  if (!ack || ack->type != FrameType::HelloAck) return std::nullopt;
  const auto snapshot = channel.read(5000ms);
  if (!snapshot || snapshot->type != FrameType::Snapshot) return std::nullopt;
  return DashboardMirror::decode(snapshot->body);
}

class SpectordDaemonTest : public ::testing::Test {
 protected:
  SpectordDaemonTest()
      : generator_(storeConfig()),
        corpus_(radar::LibraryCorpus::builtin()),
        categorizer_(vtsim::defaultVendorPanel(),
                     [this](const std::string& domain) {
                       return generator_.domainTruth(domain);
                     }),
        attributor_(corpus_, categorizer_) {}

  static store::StoreConfig storeConfig() {
    store::StoreConfig config;
    config.appCount = 8;
    config.seed = 42;
    config.methodScale = 0.05;
    return config;
  }

  static DaemonConfig daemonConfig() {
    DaemonConfig config;
    config.ingest.shards = 2;
    return config;
  }

  std::unique_ptr<SpectorDaemon> makeDaemon(
      DaemonConfig config, core::StudyAccumulator* accumulator = nullptr) {
    return std::make_unique<SpectorDaemon>(
        std::move(config),
        [this](const core::RunArtifacts& artifacts) {
          return attributor_.attributeColumns(artifacts);
        },
        accumulator);
  }

  core::RunArtifacts runApp(std::size_t index, ingest::ReportSink* collector) {
    orch::EmulatorConfig config;
    config.monkey.events = 80;
    config.monkey.throttleMs = 50;
    config.seed = 1000 + index;
    config.workerId = static_cast<std::uint32_t>(index);
    orch::EmulatorInstance emulator(generator_.farm(), collector, config);
    const auto job = generator_.makeJob(index);
    return emulator.run(job.apk, job.program);
  }

  store::AppStoreGenerator generator_;
  radar::LibraryCorpus corpus_;
  vtsim::DomainCategorizer categorizer_;
  core::TrafficAttributor attributor_;
};

TEST_F(SpectordDaemonTest, FramesBeforeHelloAreRejected) {
  auto daemon = makeDaemon(daemonConfig());
  ClientChannel channel(daemon->connect());
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  ASSERT_TRUE(channel.send(FrameType::Report, payload));
  const auto frame = channel.read(5000ms);
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, FrameType::Error);
  EXPECT_EQ(ErrorMsg::decode(frame->body).code, 1u);
}

TEST_F(SpectordDaemonTest, WrongSurfaceFrameIsRejected) {
  auto daemon = makeDaemon(daemonConfig());
  DashboardClient dashboard(daemon->connect(), /*clientId=*/77);
  // A dashboard connection must not be able to inject reports.
  // Reach under the client: open a second raw channel as Dashboard.
  ClientChannel channel(daemon->connect());
  ASSERT_TRUE(dashboardHello(channel, /*clientId=*/78).has_value());
  const std::vector<std::uint8_t> payload = {9, 9};
  ASSERT_TRUE(channel.send(FrameType::Report, payload));
  const auto frame = channel.read(5000ms);
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, FrameType::Error);
  EXPECT_EQ(ErrorMsg::decode(frame->body).code, 2u);
}

TEST_F(SpectordDaemonTest, UnassignedFrameTypeIsAnsweredWithError) {
  // Frame type 8 names no frame: the daemon answers it with Error code 3,
  // like any frame type a client does not send, and the dashboard
  // connection keeps receiving deltas.
  auto daemon = makeDaemon(daemonConfig());
  ClientChannel dashboard(daemon->connect());
  ASSERT_TRUE(dashboardHello(dashboard, /*clientId=*/80).has_value());

  ASSERT_TRUE(dashboard.send(static_cast<FrameType>(8), {}));
  const auto error = dashboard.read(5000ms);
  ASSERT_TRUE(error.has_value());
  ASSERT_EQ(error->type, FrameType::Error);
  EXPECT_EQ(ErrorMsg::decode(error->body).code, 3u);

  IngestClient client(connectTo(*daemon), /*clientId=*/12);
  client.uploadRun(0, runApp(0, &client));
  ASSERT_TRUE(client.flush().empty());
  daemon->drain();
  const auto delta = dashboard.read(10000ms);
  ASSERT_TRUE(delta.has_value());
  ASSERT_EQ(delta->type, FrameType::Delta);
  EXPECT_EQ(DeltaMsg::decode(delta->body).jobIndex, 0u);
  client.bye();
}

TEST_F(SpectordDaemonTest, UnassignedAdminOpIsAnsweredWithError) {
  // Admin op byte 2 names no operation: the body does not decode, which
  // the daemon answers with Error code 4, and the connection stays usable.
  auto daemon = makeDaemon(daemonConfig());
  ClientChannel channel(daemon->connect());
  const auto ack = helloReply(channel, /*clientId=*/79, ClientKind::Admin);
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(ack->type, FrameType::HelloAck);

  AdminMsg unassigned;
  unassigned.op = static_cast<AdminOp>(2);
  ASSERT_TRUE(channel.send(FrameType::Admin, unassigned.encode()));
  const auto frame = channel.read(5000ms);
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, FrameType::Error);
  EXPECT_EQ(ErrorMsg::decode(frame->body).code, 4u);

  AdminMsg status;
  status.op = AdminOp::Status;
  ASSERT_TRUE(channel.send(FrameType::Admin, status.encode()));
  const auto answer = channel.read(5000ms);
  ASSERT_TRUE(answer.has_value());
  ASSERT_EQ(answer->type, FrameType::AdminAck);
  EXPECT_TRUE(AdminAckMsg::decode(answer->body).ok);
}

TEST_F(SpectordDaemonTest, WireIngestMatchesInProcessPipeline) {
  // Daemon side: datagrams and run uploads cross the framed protocol.
  core::StudyAggregator wireStudy;
  core::StudyAccumulator wireAccumulator(wireStudy);
  auto daemon = makeDaemon(daemonConfig(), &wireAccumulator);
  {
    IngestClient client(connectTo(*daemon), /*clientId=*/1);
    for (std::size_t i = 0; i < 4; ++i) client.uploadRun(i, runApp(i, &client));
    EXPECT_TRUE(client.flush().empty());
    EXPECT_EQ(client.runsAccepted(), 4u);
    EXPECT_TRUE(client.waitAckedFrames(client.framesOffered(), 10000ms));
    client.bye();
  }
  daemon->drain();

  // Reference side: the same runs submitted straight into a router whose
  // run callback attributes and folds.
  core::StudyAggregator directStudy;
  core::StudyAccumulator directAccumulator(directStudy);
  ingest::ShardedIngest router(
      daemonConfig().ingest, [&](ingest::RunDelivery&& delivery) {
        core::FlowColumns columns =
            attributor_.attributeColumns(delivery.artifacts);
        directAccumulator.addColumns(delivery.jobIndex,
                                     std::move(delivery.artifacts),
                                     std::move(columns));
      });
  for (std::size_t i = 0; i < 4; ++i) {
    auto artifacts = runApp(i, &router);
    router.submitRun(i, std::move(artifacts));
  }
  router.drain();

  // Both sides folded the same four runs into the same study.
  wireAccumulator.finish();
  directAccumulator.finish();
  const auto wire = wireStudy.totals();
  const auto direct = directStudy.totals();
  EXPECT_EQ(wire.appCount, 4u);
  EXPECT_EQ(wire.appCount, direct.appCount);
  EXPECT_EQ(wire.flowCount, direct.flowCount);
  EXPECT_EQ(wire.totalBytes, direct.totalBytes);
  EXPECT_EQ(wire.unattributedBytes, direct.unattributedBytes);
  EXPECT_EQ(wireStudy.transferByLibCategory(),
            directStudy.transferByLibCategory());
  std::ostringstream wireReport;
  std::ostringstream directReport;
  core::writeStudyReport(wireStudy, wireReport);
  core::writeStudyReport(directStudy, directReport);
  EXPECT_EQ(wireReport.str(), directReport.str());

  const auto metrics = daemon->metrics();
  EXPECT_EQ(metrics.runsCompleted, 4u);
  EXPECT_EQ(metrics.reportsLost, 0u);
  EXPECT_EQ(metrics.service.sessionsOpened, 1u);
}

TEST_F(SpectordDaemonTest, ChaosChannelDamageIsAccountedExactly) {
  auto daemon = makeDaemon(daemonConfig());
  IngestClient client(connectTo(*daemon), /*clientId=*/5);

  ingest::ChaosConfig chaosConfig;
  chaosConfig.lossProb = 0.05;
  chaosConfig.dupProb = 0.05;
  chaosConfig.reorderWindow = 4;
  chaosConfig.seed = 7;
  ingest::ChaosChannel chaos(client, chaosConfig);

  struct Expected {
    std::string sha;
    std::uint64_t emitted = 0;
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
  };
  std::vector<Expected> expected;
  for (std::size_t i = 0; i < generator_.appCount(); ++i) {
    const std::uint64_t droppedBefore = chaos.dropped();
    const std::uint64_t duplicatedBefore = chaos.duplicated();
    auto artifacts = runApp(i, &chaos);
    chaos.flush();
    Expected e;
    e.sha = artifacts.apkSha256;
    e.emitted = artifacts.reportsEmitted;
    e.dropped = chaos.dropped() - droppedBefore;
    e.duplicated = chaos.duplicated() - duplicatedBefore;
    expected.push_back(e);
    client.uploadRun(i, artifacts);
  }
  EXPECT_TRUE(client.flush().empty());
  daemon->drain();

  // The daemon survived the damaged stream and reconstructed the channel's
  // exact per-apk damage from sequence accounting alone.
  const auto accounts = daemon->dashboard().accounts;
  ASSERT_EQ(accounts.size(), expected.size());
  bool anyDamage = false;
  for (const auto& e : expected) {
    ASSERT_TRUE(accounts.contains(e.sha)) << e.sha;
    const auto& account = accounts.at(e.sha);
    EXPECT_EQ(account.reportsEmitted, e.emitted) << e.sha;
    EXPECT_EQ(account.lost, e.dropped) << e.sha;
    EXPECT_EQ(account.duplicated, e.duplicated) << e.sha;
    EXPECT_EQ(account.uniqueDelivered, e.emitted - e.dropped) << e.sha;
    anyDamage = anyDamage || account.lost + account.duplicated > 0;
  }
  EXPECT_TRUE(anyDamage) << "chaos injected no faults; test is vacuous";

  // Every frame the client actually put on the wire was acked.
  EXPECT_TRUE(client.waitAckedFrames(client.framesOffered(), 10000ms));
  client.bye();
}

TEST_F(SpectordDaemonTest, PublishesOneDeltaPerRun) {
  // Each run's DeltaMsg is built on its shard thread from the delivery and
  // its flow columns; the loop sends it to every dashboard connection as
  // the run lands. A raw dashboard connection keeps every frame it reads.
  auto daemon = makeDaemon(daemonConfig());
  ClientChannel dashboard(daemon->connect());
  // The (empty) view comes first, so every run below arrives as a delta.
  const auto view = dashboardHello(dashboard, /*clientId=*/400);
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(*view == DashboardMirror{});

  IngestClient client(connectTo(*daemon), /*clientId=*/10);
  constexpr std::size_t kRuns = 4;
  std::uint64_t flows = 0;
  std::uint64_t attributed = 0;
  for (std::size_t i = 0; i < kRuns; ++i) {
    auto artifacts = runApp(i, &client);
    const std::string sha = artifacts.apkSha256;
    client.uploadRun(i, artifacts);
    ASSERT_TRUE(client.flush().empty());
    daemon->drain();
    // One delta for this run, published as the run lands.
    const auto frame = dashboard.read(10000ms);
    ASSERT_TRUE(frame.has_value()) << "run " << i;
    ASSERT_EQ(frame->type, FrameType::Delta) << "run " << i;
    const DeltaMsg delta = DeltaMsg::decode(frame->body);
    EXPECT_EQ(delta.jobIndex, i);
    EXPECT_EQ(delta.apkSha256, sha);
    EXPECT_FALSE(delta.replayed);
    flows += delta.flowCount;
    attributed += delta.attributedBytes;
    // Zero loss: every reported socket keeps its context.
    EXPECT_EQ(delta.unattributedBytes, 0u);
    EXPECT_EQ(delta.account.lost, 0u);
    EXPECT_GT(delta.account.reportsEmitted, 0u);
    // The per-library and per-category sums split the run's bytes.
    std::uint64_t byLibrary = 0;
    for (const auto& [library, bytes] : delta.bytesByLibrary)
      byLibrary += bytes;
    EXPECT_EQ(byLibrary, delta.attributedBytes);
    std::uint64_t byCategory = 0;
    for (const auto& [category, bytes] : delta.bytesByLibCategory)
      byCategory += bytes;
    EXPECT_EQ(byCategory, delta.attributedBytes);
  }
  EXPECT_GT(flows, 0u);
  EXPECT_GT(attributed, 0u);
  EXPECT_EQ(daemon->metrics().service.subscriberDeltasSent, kRuns);
  client.bye();
}

TEST_F(SpectordDaemonTest, SessionResumesAcrossReconnect) {
  auto daemon = makeDaemon(daemonConfig());
  std::uint64_t token = 0;
  std::uint64_t sent = 0;
  {
    IngestClient client(connectTo(*daemon), /*clientId=*/9);
    client.uploadRun(0, runApp(0, &client));
    EXPECT_TRUE(client.flush().empty());
    ASSERT_TRUE(client.waitAckedFrames(client.framesOffered(), 10000ms));
    token = client.sessionToken();
    sent = client.framesOffered();
    // Drop the connection without a Bye: a crashed fleet worker.
  }
  daemon->drain();

  // The daemon's side of resume, in raw frames.
  {
    // Same clientId + the session token: the daemon reports everything it
    // already accepted, so a client re-sends only the unacked tail (here:
    // nothing).
    ClientChannel channel(daemon->connect());
    const auto reply =
        helloReply(channel, /*clientId=*/9, ClientKind::Ingest, token);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, FrameType::HelloAck);
    const HelloAckMsg ack = HelloAckMsg::decode(reply->body);
    EXPECT_TRUE(ack.resumed);
    EXPECT_EQ(ack.session, token);
    EXPECT_EQ(ack.ackedFrames, sent);
  }
  {
    // Wrong token: fresh session, no inherited acks.
    ClientChannel channel(daemon->connect());
    const auto reply =
        helloReply(channel, /*clientId=*/9, ClientKind::Ingest, token + 999);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, FrameType::HelloAck);
    const HelloAckMsg ack = HelloAckMsg::decode(reply->body);
    EXPECT_FALSE(ack.resumed);
    EXPECT_EQ(ack.ackedFrames, 0u);
  }
  const auto service = daemon->metrics().service;
  EXPECT_EQ(service.sessionsResumed, 1u);
  EXPECT_EQ(service.sessionsOpened, 2u);
}

TEST_F(SpectordDaemonTest, DashboardMirrorReconstructsDaemonStateExactly) {
  auto config = daemonConfig();
  config.expectedRuns = 4;
  auto daemon = makeDaemon(std::move(config));

  // First subscriber sees an empty snapshot, then every run as a delta.
  DashboardClient early(daemon->connect(), /*clientId=*/100);
  ASSERT_TRUE(early.waitForSnapshot(5000ms));

  // Another thread reads the daemon's view while runs land: every copy is
  // one whole run boundary, never half a run (each run is a distinct apk).
  std::uint64_t reads = 0;
  std::jthread reader([&](std::stop_token landed) {
    std::uint64_t last = 0;
    while (!landed.stop_requested()) {
      const DashboardMirror view = daemon->dashboard();
      EXPECT_EQ(view.totals.bytesByApp.size(), view.runsFolded);
      EXPECT_EQ(view.accounts.size(), view.runsFolded);
      EXPECT_GE(view.runsFolded, last);
      last = view.runsFolded;
      ++reads;
      std::this_thread::yield();
    }
  });

  IngestClient client(connectTo(*daemon), /*clientId=*/2);
  std::optional<DashboardClient> mid;
  for (std::size_t i = 0; i < 4; ++i) {
    client.uploadRun(i, runApp(i, &client));
    EXPECT_TRUE(client.flush().empty());
    if (i == 1) {
      // A subscriber joining mid-study: its snapshot + the remaining
      // deltas must land on the same final state (no double count across
      // the subscribe boundary, no missed run).
      daemon->drain();
      mid.emplace(daemon->connect(), /*clientId=*/102);
    }
  }
  daemon->drain();
  reader.request_stop();
  reader.join();
  EXPECT_GT(reads, 0u);

  DashboardClient late(daemon->connect(), /*clientId=*/101);

  const DashboardMirror reference = daemon->dashboard();
  EXPECT_EQ(reference.runsFolded, 4u);
  EXPECT_EQ(reference.expectedRuns, 4u);
  EXPECT_EQ(reference.accounts.size(), 4u);
  EXPECT_EQ(reference.totals.bytesByApp.size(), 4u);
  EXPECT_GT(reference.totals.attributedBytes, 0u);
  EXPECT_GT(reference.reportsDelivered, 0u);
  // Each subscriber's mirror converges to the daemon's view as a whole.
  for (DashboardClient* dashboard : {&early, &*mid, &late})
    EXPECT_TRUE(dashboard->waitUntil(
        [&] { return dashboard->mirror() == reference; }, 10000ms));
  EXPECT_GT(early.deltasReceived(), 0u);
  EXPECT_GT(daemon->metrics().service.subscriberDeltasSent, 0u);
  EXPECT_EQ(daemon->metrics().service.subscriberDeltasDropped, 0u);
  client.bye();
}

TEST_F(SpectordDaemonTest, PromptSubscriberGetsEveryDeltaUnderATightBudget) {
  // The budget counts what the subscriber's channel has not accepted, and
  // a delta into an empty queue always goes out: a subscriber that reads
  // after every run gets every delta, even with a budget smaller than one
  // delta, and never needs a resync.
  constexpr std::size_t kRuns = 4;
  auto config = daemonConfig();
  config.subscriberQueueBytes = 256;
  config.expectedRuns = kRuns;
  auto daemon = makeDaemon(std::move(config));

  DashboardClient dashboard(daemon->connect(), /*clientId=*/210);
  ASSERT_TRUE(dashboard.waitForSnapshot(5000ms));

  IngestClient client(connectTo(*daemon), /*clientId=*/11);
  for (std::size_t i = 0; i < kRuns; ++i) {
    client.uploadRun(i, runApp(i, &client));
    ASSERT_TRUE(client.flush().empty());
    daemon->drain();
    ASSERT_TRUE(dashboard.waitUntil(
        [&] { return dashboard.deltasReceived() == i + 1; }, 10000ms))
        << "run " << i << ": " << dashboard.deltasReceived() << " deltas";
  }

  EXPECT_TRUE(dashboard.mirror() == daemon->dashboard());
  EXPECT_EQ(dashboard.snapshotsReceived(), 1u);
  EXPECT_EQ(dashboard.deltasReceived(), kRuns);
  const auto service = daemon->metrics().service;
  EXPECT_EQ(service.subscriberDeltasDropped, 0u);
  EXPECT_EQ(service.subscriberDeltasSent, kRuns);
  EXPECT_EQ(service.subscriberSnapshotsResent, 0u);
  client.bye();
}

TEST_F(SpectordDaemonTest, SlowSubscriberIsBoundedAndResyncsWithoutStallingIngest) {
  auto config = daemonConfig();
  // A channel a silent subscriber fills within a run or two, and a budget
  // small enough that the deltas queued behind it overflow fast.
  config.channelCapacity = 1024;
  config.subscriberQueueBytes = 256;
  auto daemon = makeDaemon(std::move(config));

  DashboardClient dashboard(daemon->connect(), /*clientId=*/200);
  ASSERT_TRUE(dashboard.waitForSnapshot(5000ms));

  // The subscriber goes silent; ingest must finish regardless.
  IngestClient client(connectTo(*daemon), /*clientId=*/3);
  for (std::size_t i = 0; i < generator_.appCount(); ++i)
    client.uploadRun(i, runApp(i, &client));
  ASSERT_TRUE(client.flush().empty());
  daemon->drain();
  EXPECT_EQ(daemon->dashboard().runsFolded, generator_.appCount());

  // Once the silent reader's channel is full, deltas wait in its queue,
  // and a delta that would take the queue past the 256-byte budget is
  // dropped (arming a resync). Once armed, the remaining runs ride the
  // pending snapshot instead of the delta stream, so attempts never
  // exceed one per run.
  const auto service = daemon->metrics().service;
  EXPECT_GT(service.subscriberDeltasDropped, 0u);
  EXPECT_LE(service.subscriberDeltasSent + service.subscriberDeltasDropped,
            generator_.appCount());

  // Once the subscriber drains, the resync snapshot restores exactness:
  // the whole mirror equals the daemon's view.
  const DashboardMirror reference = daemon->dashboard();
  EXPECT_TRUE(dashboard.waitUntil(
      [&] { return dashboard.mirror() == reference; }, 10000ms));
  // The first snapshot plus at least one resync.
  EXPECT_GE(dashboard.snapshotsReceived(), 2u);
  EXPECT_GT(daemon->metrics().service.subscriberSnapshotsResent, 0u);
  client.bye();
}

TEST_F(SpectordDaemonTest, AdminStatusDrainAndEvict) {
  auto daemon = makeDaemon(daemonConfig());
  AdminClient admin(daemon->connect(), /*clientId=*/300);

  const AdminAckMsg status = admin.request(AdminOp::Status);
  EXPECT_TRUE(status.ok);
  EXPECT_NE(status.info.find("\"runs_folded\""), std::string::npos);

  // Stream a run's datagrams but never complete the run: pending state.
  IngestClient client(connectTo(*daemon), /*clientId=*/6);
  auto artifacts = runApp(0, &client);
  ASSERT_TRUE(client.waitAckedFrames(client.framesOffered(), 10000ms));
  const AdminAckMsg drained = admin.request(AdminOp::Drain);
  EXPECT_TRUE(drained.ok);

  const AdminAckMsg evicted = admin.request(AdminOp::EvictApk,
                                            artifacts.apkSha256);
  EXPECT_TRUE(evicted.ok) << evicted.info;
  // Second evict: nothing left.
  const AdminAckMsg again = admin.request(AdminOp::EvictApk,
                                          artifacts.apkSha256);
  EXPECT_FALSE(again.ok);
  std::uint64_t evictedApks = 0;
  for (const auto& shard : daemon->metrics().perShard)
    evictedApks += shard.apksEvicted;
  EXPECT_EQ(evictedApks, 1u);
  client.bye();
}

TEST_F(SpectordDaemonTest, AdminResumeReplaysCheckpointsAndShutdownStops) {
  // Named per process: two test runs (ctest and a sanitizer lane, say) may
  // overlap.
  const auto directory =
      std::filesystem::path(::testing::TempDir()) /
      ("spectord_admin_resume_" + std::to_string(::getpid()));
  std::filesystem::remove_all(directory);

  DashboardMirror before;
  {
    auto config = daemonConfig();
    config.checkpointDirectory = directory.string();
    auto daemon = makeDaemon(std::move(config));
    IngestClient client(connectTo(*daemon), /*clientId=*/7);
    for (std::size_t i = 0; i < 3; ++i) client.uploadRun(i, runApp(i, &client));
    ASSERT_TRUE(client.flush().empty());
    daemon->drain();
    before = daemon->dashboard();
    EXPECT_EQ(before.runsFolded, 3u);
    client.bye();
    daemon->shutdown();
    EXPECT_FALSE(daemon->running());
  }

  {
    auto config = daemonConfig();
    config.checkpointDirectory = directory.string();
    auto daemon = makeDaemon(std::move(config));
    AdminClient admin(daemon->connect(), /*clientId=*/301);

    const AdminAckMsg resumed = admin.request(AdminOp::Resume);
    EXPECT_TRUE(resumed.ok);
    EXPECT_NE(resumed.info.find("replayed 3 runs"), std::string::npos)
        << resumed.info;
    // The scan leaves the bundles in place: a second Resume finds the same
    // runs and must not fold them again.
    const AdminAckMsg again = admin.request(AdminOp::Resume);
    EXPECT_TRUE(again.ok);
    EXPECT_NE(again.info.find("replayed 0 runs"), std::string::npos)
        << again.info;

    // The replayed runs rebuild the whole view: totals, the persisted
    // loss accounts and the progress counters.
    daemon->drain();
    EXPECT_TRUE(daemon->dashboard() == before);

    // Graceful shutdown over the wire: the daemon stops and further
    // connects come back closed.
    const AdminAckMsg bye = admin.request(AdminOp::Shutdown);
    EXPECT_TRUE(bye.ok);
    for (int i = 0; i < 200 && daemon->running(); ++i)
      std::this_thread::sleep_for(10ms);
    EXPECT_FALSE(daemon->running());
    auto endpoint = daemon->connect();
    EXPECT_TRUE(endpoint.peerClosed() || endpoint.writeClosed());
  }
  std::filesystem::remove_all(directory);
}

TEST_F(SpectordDaemonTest, AdminOpsReportAFailedCheckpointWrite) {
  // A checkpoint write that fails runs on a shard thread. The admin op
  // that drains next answers ok = false with the reason, once; the daemon
  // keeps serving, and shutdown() logs such a failure instead of throwing.
  const auto directory =
      std::filesystem::path(::testing::TempDir()) /
      ("spectord_admin_unwritable_" + std::to_string(::getpid()));
  std::filesystem::remove_all(directory);
  // A directory where an app's temporary bundle goes: its checkpoint write
  // cannot open the file. Apps 0, 2 and 3 fail; app 1 checkpoints.
  for (const std::size_t index : {0, 2, 3}) {
    const std::string sha =
        util::toHex(generator_.makeJob(index).apk.sha256());
    std::filesystem::create_directories(directory / (sha + ".spab.tmp"));
  }
  auto config = daemonConfig();
  config.checkpointDirectory = directory.string();
  const auto complete = [&](IngestClient& client, std::size_t index) {
    client.uploadRun(index, runApp(index, &client));
    ASSERT_TRUE(client.flush().empty());
  };

  {
    auto daemon = makeDaemon(config);
    AdminClient admin(daemon->connect(), /*clientId=*/302);
    IngestClient client(connectTo(*daemon), /*clientId=*/8);
    complete(client, 0);
    complete(client, 1);
    const AdminAckMsg drained = admin.request(AdminOp::Drain);
    EXPECT_FALSE(drained.ok);
    EXPECT_NE(drained.info.find("recovery: cannot write"), std::string::npos)
        << drained.info;
    EXPECT_TRUE(admin.request(AdminOp::Drain).ok);
    EXPECT_TRUE(admin.request(AdminOp::Status).ok);

    complete(client, 2);
    const AdminAckMsg bye = admin.request(AdminOp::Shutdown);
    EXPECT_FALSE(bye.ok);
    EXPECT_NE(bye.info.find("recovery: cannot write"), std::string::npos)
        << bye.info;
    for (int i = 0; i < 200 && daemon->running(); ++i)
      std::this_thread::sleep_for(10ms);
    EXPECT_FALSE(daemon->running());
  }
  {
    auto daemon = makeDaemon(config);
    IngestClient client(connectTo(*daemon), /*clientId=*/9);
    complete(client, 3);
    client.bye();
    EXPECT_NO_THROW(daemon->shutdown());
  }
  EXPECT_EQ(orch::StudyRecovery::scan(directory.string()).runs.size(), 1u);
  std::filesystem::remove_all(directory);
}

TEST_F(SpectordDaemonTest, RunWhoseCheckpointFailedCanBeRunAgain) {
  // A run whose checkpoint write fails is folded nowhere, so the daemon
  // does not count its job as handed over: once the directory is writable
  // again, a re-run of the job (fresh reports, then the upload) is folded
  // and checkpointed, not acked as a duplicate.
  const auto directory =
      std::filesystem::path(::testing::TempDir()) /
      ("spectord_rerun_" + std::to_string(::getpid()));
  std::filesystem::remove_all(directory);
  const auto blocker =
      directory /
      (util::toHex(generator_.makeJob(0).apk.sha256()) + ".spab.tmp");
  std::filesystem::create_directories(blocker);
  auto config = daemonConfig();
  config.checkpointDirectory = directory.string();
  {
    auto daemon = makeDaemon(config);
    AdminClient admin(daemon->connect(), /*clientId=*/303);
    IngestClient client(connectTo(*daemon), /*clientId=*/13);
    client.uploadRun(0, runApp(0, &client));
    ASSERT_TRUE(client.flush().empty());
    EXPECT_FALSE(admin.request(AdminOp::Drain).ok);

    std::filesystem::remove_all(blocker);
    client.uploadRun(0, runApp(0, &client));
    ASSERT_TRUE(client.flush().empty());
    EXPECT_TRUE(admin.request(AdminOp::Drain).ok);
    const DashboardMirror view = daemon->dashboard();
    EXPECT_EQ(view.runsFolded, 1u);
    EXPECT_EQ(view.reportsLost, 0u);
    EXPECT_EQ(daemon->metrics().service.duplicateRunUploads, 0u);
    client.bye();
  }
  EXPECT_EQ(orch::StudyRecovery::scan(directory.string()).runs.size(), 1u);
  std::filesystem::remove_all(directory);
}

TEST_F(SpectordDaemonTest, RunCompleteOutsideOwnedSliceIsRefused) {
  // Find two apps with different owners under a 4-way split.
  const CollectorAssignment probe{0, 4};
  std::optional<std::size_t> ownedIndex, foreignIndex;
  std::vector<core::RunArtifacts> runs;
  {
    // Hash the apks first (cheap single runs through a throwaway daemon's
    // client would also work, but the emulator needs *some* sink).
    ingest::ShardedIngest scratch({.shards = 1});
    for (std::size_t i = 0; i < generator_.appCount(); ++i) {
      runs.push_back(runApp(i, &scratch));
      if (probe.owns(runs.back().packageName)) {
        if (!ownedIndex) ownedIndex = i;
      } else if (!foreignIndex) {
        foreignIndex = i;
      }
    }
    scratch.drain();
  }
  ASSERT_TRUE(ownedIndex.has_value());
  ASSERT_TRUE(foreignIndex.has_value());

  auto config = daemonConfig();
  config.assignment = probe;
  auto daemon = makeDaemon(std::move(config));
  IngestClient client(connectTo(*daemon), /*clientId=*/8);

  client.uploadRun(*ownedIndex, runs[*ownedIndex]);
  client.uploadRun(*foreignIndex, runs[*foreignIndex]);
  const std::vector<RunAckMsg> refused = client.flush();
  ASSERT_EQ(refused.size(), 1u);
  EXPECT_EQ(refused.front().jobIndex, *foreignIndex);
  EXPECT_FALSE(refused.front().accepted);
  EXPECT_NE(refused.front().reason.find("owned by collector"),
            std::string::npos)
      << refused.front().reason;

  daemon->drain();
  EXPECT_EQ(daemon->metrics().service.runsRefused, 1u);
  EXPECT_EQ(daemon->dashboard().runsFolded, 1u);
  client.bye();
}

}  // namespace
}  // namespace libspector::spectord
