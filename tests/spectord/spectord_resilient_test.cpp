// The ingest client's reconnect tier: deterministic backoff schedules, a
// client that survives scripted connection kills (BreakerEndpoint) by
// resuming its session and re-sending only the unacked tail, the
// daemon's hardened session table (one live attach per clientId,
// stale-session expiry on drain, spoken in raw frames), the ack-path
// dedupe (duplicate RunComplete uploads, pre-ack handshake frames), the
// pipelined run uploads (one verdict per upload, collected by flush), a
// Bye that reaches the daemon before bye() returns, and waits that never
// hold the client's lock against another thread's reports.
#include "spectord/resilient.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/attribution.hpp"
#include "orch/emulator.hpp"
#include "radar/corpus.hpp"
#include "spectord/client.hpp"
#include "spectord/daemon.hpp"
#include "store/generator.hpp"
#include "vtsim/categorizer.hpp"

namespace libspector::spectord {
namespace {

using namespace std::chrono_literals;

ReconnectorConfig testBackoff() {
  ReconnectorConfig config;
  config.initialDelay = 1ms;
  config.maxDelay = 20ms;
  config.maxAttempts = 10;
  return config;
}

IngestClientConfig testConfig() {
  IngestClientConfig config;
  config.reconnect = testBackoff();
  return config;
}

/// A connect factory that opens a plain connection to `daemon` each time.
ConnectFn connectTo(SpectorDaemon& daemon) {
  return [&daemon](std::size_t) { return daemon.connect(); };
}

/// Speak the ingest handshake by hand: send Hello on a raw channel and
/// return the daemon's reply (nullopt if none came).
std::optional<Frame> helloReply(ClientChannel& channel, std::uint64_t clientId,
                                std::uint64_t resumeSession = 0) {
  HelloMsg hello;
  hello.clientId = clientId;
  hello.resumeSession = resumeSession;
  if (!channel.send(FrameType::Hello, hello.encode())) return std::nullopt;
  return channel.read(5000ms);
}

/// Keeps every report datagram an emulator emits.
struct CaptureSink final : ingest::ReportSink {
  std::vector<std::vector<std::uint8_t>> frames;
  void submitDatagram(std::span<const std::uint8_t> payload) override {
    frames.emplace_back(payload.begin(), payload.end());
  }
};

class SpectordResilientTest : public ::testing::Test {
 protected:
  SpectordResilientTest()
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

  std::unique_ptr<SpectorDaemon> makeDaemon() {
    DaemonConfig config;
    config.ingest.shards = 2;
    return std::make_unique<SpectorDaemon>(
        std::move(config), [this](const core::RunArtifacts& artifacts) {
          return attributor_.attributeColumns(artifacts);
        });
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

// --- Reconnector -----------------------------------------------------------

TEST(ReconnectorTest, BackoffScheduleIsDeterministicWithPinnedJitter) {
  ReconnectorConfig config;
  config.initialDelay = 10ms;
  config.maxDelay = 200ms;
  config.multiplier = 2.0;
  config.jitter = 0.25;
  config.maxAttempts = 6;
  constexpr std::uint64_t kSeed = 42;

  // The whole schedule is a pure function of the config and the seed:
  // exponential base 10,20,40,80,160,320 capped at 200, each scaled by
  // seeded jitter in [0.75, 1.25]. Pinned so an accidental reseed or
  // formula change shows.
  Reconnector reconnector(config, kSeed);
  const std::vector<std::int64_t> expected = {7, 18, 43, 96, 199, 226};
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(reconnector.nextDelay().count(), expected[i]) << "attempt " << i;
  // Budget exhausted: the seventh attempt must throw, not sleep forever.
  EXPECT_TRUE(reconnector.exhausted());
  EXPECT_THROW((void)reconnector.nextDelay(), std::runtime_error);

  // Identical config and seed replay the identical schedule.
  Reconnector replay(config, kSeed);
  for (const std::int64_t delay : expected)
    EXPECT_EQ(replay.nextDelay().count(), delay);

  // A successful attach resets the failure streak and the budget.
  Reconnector resetting(config, kSeed);
  for (int i = 0; i < 3; ++i) (void)resetting.nextDelay();
  resetting.reset();
  EXPECT_EQ(resetting.attempt(), 0u);
  EXPECT_FALSE(resetting.exhausted());
}

TEST(ReconnectorTest, JitterStaysInsideTheConfiguredBand) {
  ReconnectorConfig config;
  config.initialDelay = 100ms;
  config.maxDelay = 100000ms;
  config.multiplier = 1.0;  // flat base isolates the jitter factor
  config.jitter = 0.5;
  config.maxAttempts = 200;
  Reconnector reconnector(config, /*seed=*/99);
  for (int i = 0; i < 200; ++i) {
    const auto delay = reconnector.nextDelay().count();
    EXPECT_GE(delay, 50);
    EXPECT_LE(delay, 150);
  }
}

// --- Handshake and ack-path fixes ------------------------------------------

TEST(SpectordHandshakeTest, PreAckFramesAreSkippedNotFatal) {
  // A resumed connection can carry frames queued for the old attach ahead
  // of the HelloAck. Hand-roll a server that sends exactly that.
  ChannelPair pair = makeChannel(4096);
  std::thread server([endpoint = pair.server]() mutable {
    std::vector<std::uint8_t> buf;
    while (endpoint.readable() == 0) endpoint.waitReadable(50ms);
    endpoint.readSome(buf);  // the Hello; content irrelevant here
    ReportAckMsg stale;
    stale.ackedFrames = 5;
    endpoint.writeAll(encodeFrame(FrameType::ReportAck, stale.encode()));
    RunAckMsg run;
    run.jobIndex = 7;
    run.accepted = true;
    endpoint.writeAll(encodeFrame(FrameType::RunAck, run.encode()));
    HelloAckMsg ack;
    ack.session = 99;
    endpoint.writeAll(encodeFrame(FrameType::HelloAck, ack.encode()));
  });
  // No retry: a handshake the stale frames failed would throw here.
  IngestClientConfig config = testConfig();
  config.reconnect.maxAttempts = 0;
  IngestClient client([&](std::size_t) { return pair.client; },
                      /*clientId=*/1, config);
  server.join();
  EXPECT_EQ(client.sessionToken(), 99u);
}

TEST_F(SpectordResilientTest, DuplicateRunUploadIsAckedOnceAndNotRefolded) {
  auto daemon = makeDaemon();
  IngestClient client(connectTo(*daemon), /*clientId=*/9, testConfig());
  const auto artifacts = runApp(0, &client);
  client.uploadRun(0, artifacts);
  EXPECT_TRUE(client.flush().empty());

  // A resumed client whose RunAck was lost re-sends the upload. The
  // daemon must ack it (the client needs closure) without folding the
  // run twice: one verdict per upload.
  client.uploadRun(0, artifacts);
  EXPECT_TRUE(client.flush().empty());
  EXPECT_EQ(client.runsAccepted(), 2u);

  daemon->drain();
  EXPECT_EQ(daemon->metrics().runsCompleted, 1u);
  EXPECT_EQ(daemon->metrics().service.duplicateRunUploads, 1u);
  client.bye();
  daemon->shutdown();
}

// --- Session-table hardening -----------------------------------------------

TEST_F(SpectordResilientTest, SecondLiveAttachOnSameClientIdIsRefused) {
  auto daemon = makeDaemon();
  std::uint64_t token = 0;
  {
    IngestClient live(connectTo(*daemon), /*clientId=*/9, testConfig());
    // Two workers sharing a clientId would corrupt the cumulative ack
    // stream; while the first attach is live the second must be refused.
    ClientChannel second(daemon->connect());
    const auto refusal = helloReply(second, /*clientId=*/9);
    ASSERT_TRUE(refusal.has_value());
    ASSERT_EQ(refusal->type, FrameType::Error);
    EXPECT_EQ(ErrorMsg::decode(refusal->body).code, 5u);
    EXPECT_EQ(daemon->metrics().service.sessionAttachRefusals, 1u);

    // The refused handshake must not have disturbed the live session.
    live.uploadRun(0, runApp(0, &live));
    EXPECT_TRUE(live.flush().empty());
    EXPECT_EQ(live.runsAccepted(), 1u);
    token = live.sessionToken();
    // Destroyed without a Bye: the connection hangs up.
  }

  // Once the first connection hung up, the same clientId attaches at
  // once — a dead-but-unreaped connection must not block its own
  // replacement.
  ClientChannel replacement(daemon->connect());
  const auto reply = helloReply(replacement, /*clientId=*/9, token);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, FrameType::HelloAck);
  EXPECT_TRUE(HelloAckMsg::decode(reply->body).resumed);
  daemon->shutdown();
}

TEST_F(SpectordResilientTest, AdminDrainExpiresStaleSessions) {
  auto daemon = makeDaemon();
  std::uint64_t token = 0;
  core::RunArtifacts artifacts;
  {
    IngestClient client(connectTo(*daemon), /*clientId=*/9, testConfig());
    artifacts = runApp(0, &client);
    client.uploadRun(0, artifacts);
    EXPECT_TRUE(client.flush().empty());
    token = client.sessionToken();
    client.bye();
  }
  // An admin drain sweeps sessions with no live attach out of the table.
  AdminClient admin(daemon->connect(), /*clientId=*/300);
  const AdminAckMsg drained = admin.request(AdminOp::Drain);
  EXPECT_TRUE(drained.ok);
  EXPECT_GE(daemon->metrics().service.sessionsExpired, 1u);

  // The old token no longer resumes: the daemon forgot the session, so
  // the client gets a fresh one with nothing acked.
  ClientChannel comeback(daemon->connect());
  const auto reply = helloReply(comeback, /*clientId=*/9, token);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, FrameType::HelloAck);
  const HelloAckMsg ack = HelloAckMsg::decode(reply->body);
  EXPECT_FALSE(ack.resumed);
  EXPECT_NE(ack.session, token);
  EXPECT_EQ(ack.ackedFrames, 0u);

  // A client whose session expired re-sends its unacked run tail into the
  // fresh session: the daemon already has job 0, so the re-upload is acked
  // and not folded again.
  ASSERT_TRUE(comeback.send(
      FrameType::RunComplete,
      core::SpabEnvelope::encode(0, core::ApkLossAccount{}, artifacts)));
  const auto runAck = comeback.read(5000ms);
  ASSERT_TRUE(runAck.has_value());
  ASSERT_EQ(runAck->type, FrameType::RunAck);
  const RunAckMsg verdict = RunAckMsg::decode(runAck->body);
  EXPECT_EQ(verdict.jobIndex, 0u);
  EXPECT_TRUE(verdict.accepted);
  daemon->drain();
  EXPECT_EQ(daemon->metrics().runsCompleted, 1u);
  EXPECT_EQ(daemon->metrics().service.duplicateRunUploads, 1u);
  daemon->shutdown();
}

// --- The client under scripted kills --------------------------------------

TEST_F(SpectordResilientTest, IngestClientSurvivesSeverAndLosesNothing) {
  auto daemon = makeDaemon();
  std::vector<std::unique_ptr<BreakerEndpoint>> breakers;

  // Calibrate the first kill to land mid-report-stream: replay app 0
  // through a counting sink (the emulator is deterministic, so the real
  // run emits the identical bytes) and sever halfway into its reports —
  // that tears a report frame, which only the unacked-tail replay can
  // recover.
  struct CountingSink final : ingest::ReportSink {
    std::uint64_t wireBytes = 0;
    void submitDatagram(std::span<const std::uint8_t> payload) override {
      wireBytes += encodeFrame(FrameType::Report, payload).size();
    }
  } counter;
  (void)runApp(0, &counter);
  ASSERT_GT(counter.wireBytes, 0u);
  HelloMsg hello;
  hello.clientId = 9;
  hello.kind = ClientKind::Ingest;
  const std::uint64_t severAt =
      encodeFrame(FrameType::Hello, hello.encode()).size() +
      counter.wireBytes / 2;

  IngestClient client(
      [&](std::size_t ordinal) {
        BreakerEndpoint::Fault fault;
        if (ordinal == 0) {
          // Kill the first connection mid-stream, deliberately mid-frame.
          fault.kind = BreakerEndpoint::FaultKind::Sever;
          fault.afterClientBytes = severAt;
        } else if (ordinal == 1) {
          fault.kind = BreakerEndpoint::FaultKind::Truncate;
          fault.afterClientBytes = 9001;
          fault.stall = 2ms;
        }
        breakers.push_back(
            std::make_unique<BreakerEndpoint>(daemon->connect(), fault));
        return breakers.back()->clientEnd();
      },
      /*clientId=*/9, testConfig());

  for (std::size_t i = 0; i < 4; ++i) client.uploadRun(i, runApp(i, &client));
  const std::vector<RunAckMsg> refused = client.flush();
  EXPECT_TRUE(refused.empty());
  EXPECT_EQ(client.runsAccepted(), 4u);
  ASSERT_TRUE(client.waitAckedFrames(client.framesOffered(), 10000ms));
  EXPECT_EQ(client.reconnects(), 2u);
  EXPECT_GT(client.framesResent(), 0u);
  // Exact, not best-effort: every offered frame was folded exactly once,
  // so the cumulative ack equals the offered count. A transport found
  // dead on entry to submitDatagram must not deliver the new frame both
  // via the tail replay and a direct send (which would over-advance the
  // ack stream and later prune a genuinely-unacked frame).
  EXPECT_EQ(client.ackedFrames(), client.framesOffered());

  daemon->drain();
  const auto metrics = daemon->metrics();
  // Every datagram the emulators emitted arrived exactly once: the
  // severed frames were re-sent from the unacked tail, and anything
  // double-delivered across the kill was deduped by (worker, sequence).
  EXPECT_EQ(metrics.runsCompleted, 4u);
  EXPECT_EQ(metrics.reportsLost, 0u);
  EXPECT_EQ(daemon->metrics().service.sessionsResumed, 2u);
  client.bye();
  daemon->shutdown();
}

TEST_F(SpectordResilientTest, RefusedResumeRebasesAckAccounting) {
  auto daemon = makeDaemon();
  std::vector<std::unique_ptr<BreakerEndpoint>> breakers;

  // Capture a real report stream so the severed frames are genuine wire
  // payloads, then sever mid-way through the third frame.
  CaptureSink capture;
  (void)runApp(0, &capture);
  ASSERT_GT(capture.frames.size(), 4u);
  HelloMsg hello;
  hello.clientId = 9;
  hello.kind = ClientKind::Ingest;
  std::uint64_t severAt = encodeFrame(FrameType::Hello, hello.encode()).size();
  for (std::size_t i = 0; i < 2; ++i)
    severAt += encodeFrame(FrameType::Report, capture.frames[i]).size();
  severAt += encodeFrame(FrameType::Report, capture.frames[2]).size() / 2;

  IngestClient client(
      [&](std::size_t ordinal) {
        if (ordinal == 1) {
          // The daemon expired the session while the client was down: an
          // admin drain swept it between the hangup and the re-attach, so
          // the resume is refused and the client gets a fresh session
          // whose ack stream restarts at zero.
          AdminClient admin(daemon->connect(), /*clientId=*/300);
          EXPECT_TRUE(admin.request(AdminOp::Drain).ok);
          admin.close();
        }
        BreakerEndpoint::Fault fault;
        if (ordinal == 0) {
          fault.kind = BreakerEndpoint::FaultKind::Sever;
          fault.afterClientBytes = severAt;
        }
        breakers.push_back(
            std::make_unique<BreakerEndpoint>(daemon->connect(), fault));
        return breakers.back()->clientEnd();
      },
      /*clientId=*/9, testConfig());

  for (const auto& frame : capture.frames) client.submitDatagram(frame);
  // Without rebasing, the fresh session's from-zero acks can never reach
  // the absolute offered count: the tail would grow forever and this
  // wait would spin to its deadline.
  ASSERT_TRUE(client.waitAckedFrames(client.framesOffered(), 10000ms));
  EXPECT_EQ(client.reconnects(), 1u);
  EXPECT_EQ(client.resumesRefused(), 1u);
  EXPECT_EQ(client.ackedFrames(), client.framesOffered());
  EXPECT_GE(daemon->metrics().service.sessionsExpired, 1u);
  client.bye();
  daemon->shutdown();
}

TEST(SpectordResilientBudgetTest, FlushFailsLoudlyWhenDaemonNeverAcks) {
  // A daemon that stays reachable but never acks resets the reconnect
  // budget on every re-attach; the upload must have its own fail-loud
  // budget instead of retrying forever.
  std::vector<std::thread> servers;
  IngestClientConfig config = testConfig();
  config.runAckTimeout = 25ms;
  config.runUploadAttempts = 3;
  {
    IngestClient client(
        [&](std::size_t) {
          ChannelPair pair = makeChannel(64 * 1024);
          servers.emplace_back([endpoint = pair.server]() mutable {
            std::vector<std::uint8_t> buf;
            while (endpoint.readable() == 0 && !endpoint.peerClosed())
              endpoint.waitReadable(50ms);
            endpoint.readSome(buf);  // the Hello
            HelloAckMsg ack;
            ack.session = 1;
            endpoint.writeAll(encodeFrame(FrameType::HelloAck, ack.encode()));
            // Swallow everything else; never send a RunAck.
            while (!endpoint.peerClosed()) {
              buf.clear();
              if (endpoint.readSome(buf) == 0) endpoint.waitReadable(20ms);
            }
            endpoint.close();
          });
          return pair.client;
        },
        /*clientId=*/5, config);
    // Content irrelevant: the upload is never acked.
    client.uploadRun(0, core::RunArtifacts{});
    EXPECT_THROW((void)client.flush(), std::runtime_error);
    EXPECT_EQ(client.runsResent(), 3u);
  }
  for (auto& server : servers) server.join();
  EXPECT_EQ(servers.size(), 3u);
}

TEST_F(SpectordResilientTest, PendingRunAckDoesNotHoldBackReports) {
  // A worker whose flush waits for a RunAck must not hold the client's
  // lock: the fake daemon withholds job 0's verdict until it has read one
  // Report frame, which only another worker's submitDatagram can send.
  std::vector<std::thread> servers;
  std::atomic<bool> sawRunComplete{false};
  IngestClientConfig config = testConfig();
  config.runAckTimeout = 2000ms;
  config.runUploadAttempts = 1;
  {
    IngestClient client(
        [&](std::size_t) {
          ChannelPair pair = makeChannel(64 * 1024);
          servers.emplace_back([endpoint = pair.server,
                                &sawRunComplete]() mutable {
            FrameParser parser;
            std::vector<std::uint8_t> buf;
            bool withheld = false;
            while (!endpoint.peerClosed()) {
              buf.clear();
              if (endpoint.readSome(buf) == 0) {
                endpoint.waitReadable(20ms);
                continue;
              }
              parser.feed(buf);
              while (auto frame = parser.next()) {
                if (frame->type == FrameType::Hello) {
                  HelloAckMsg ack;
                  ack.session = 1;
                  endpoint.writeAll(
                      encodeFrame(FrameType::HelloAck, ack.encode()));
                } else if (frame->type == FrameType::RunComplete) {
                  withheld = true;
                  sawRunComplete.store(true);
                } else if (frame->type == FrameType::Report && withheld) {
                  RunAckMsg ack;
                  ack.jobIndex = 0;
                  ack.accepted = true;
                  endpoint.writeAll(
                      encodeFrame(FrameType::RunAck, ack.encode()));
                  withheld = false;
                }
              }
            }
            endpoint.close();
          });
          return pair.client;
        },
        /*clientId=*/5, config);

    std::optional<std::vector<RunAckMsg>> refused;
    std::string error;
    std::thread uploader([&] {
      try {
        client.uploadRun(0, core::RunArtifacts{});  // content irrelevant
        refused = client.flush();
      } catch (const std::exception& e) {
        error = e.what();
      }
    });
    const auto deadline = std::chrono::steady_clock::now() + 5000ms;
    while (!sawRunComplete.load() &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(1ms);
    EXPECT_TRUE(sawRunComplete.load());
    std::atomic<bool> reported{false};
    std::thread reporter([&] {
      const std::vector<std::uint8_t> payload = {1, 2, 3, 4};
      client.submitDatagram(payload);
      reported.store(true);
    });
    reporter.join();
    uploader.join();
    EXPECT_TRUE(reported.load());
    EXPECT_TRUE(error.empty()) << error;
    // No ASSERT before the joins below: the server threads must be joined.
    EXPECT_TRUE(refused.has_value() && refused->empty());
    EXPECT_EQ(client.runsAccepted(), 1u);
    EXPECT_EQ(client.runsResent(), 0u);
  }
  for (auto& server : servers) server.join();
  EXPECT_EQ(servers.size(), 1u);
}

TEST_F(SpectordResilientTest, WaitingForAcksDoesNotHoldBackReports) {
  // A thread waiting for acks must not hold the client's lock: the frame
  // it waits for is one that another thread submits while it waits.
  CaptureSink capture;
  (void)runApp(0, &capture);
  ASSERT_FALSE(capture.frames.empty());
  auto daemon = makeDaemon();
  IngestClient client(connectTo(*daemon), /*clientId=*/9, testConfig());

  std::atomic<bool> acked{false};
  std::atomic<std::int64_t> waitedMs{-1};
  std::thread waiter([&] {
    const auto start = std::chrono::steady_clock::now();
    acked.store(client.waitAckedFrames(1, 2000ms));
    waitedMs.store(std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count());
  });
  std::this_thread::sleep_for(100ms);
  const auto start = std::chrono::steady_clock::now();
  client.submitDatagram(capture.frames.front());
  const auto blocked = std::chrono::steady_clock::now() - start;
  waiter.join();
  // The report went straight out, and its ack ended the wait well before
  // the waiter's 2 s timeout.
  EXPECT_LT(blocked, 500ms);
  EXPECT_TRUE(acked.load());
  EXPECT_LT(waitedMs.load(), 1000);
  client.bye();
  daemon->shutdown();
}

TEST_F(SpectordResilientTest, ByeReachesTheDaemonBeforeItReturns) {
  // bye() returns once the daemon has read the Bye and closed, so a
  // daemon shut down right after cannot cut it off, and a proxy on the
  // connection has counted every byte the client wrote. Here the client
  // sits behind a slow hop that holds each client->daemon chunk for
  // 50 ms, then hands it to a pass-through BreakerEndpoint.
  auto daemon = makeDaemon();
  BreakerEndpoint breaker(daemon->connect(), BreakerEndpoint::Fault{});
  ChannelPair hop = makeChannel(64 * 1024);
  const auto forward = [](ChannelEndpoint from, ChannelEndpoint to,
                          std::chrono::milliseconds hold) {
    std::vector<std::uint8_t> buf;
    while (!from.peerClosed()) {
      buf.clear();
      if (from.readSome(buf) == 0) {
        from.waitReadable(20ms);
        continue;
      }
      std::this_thread::sleep_for(hold);
      if (!to.writeAll(buf)) break;
    }
    to.close();
  };
  std::thread toDaemon(forward, hop.server, breaker.clientEnd(), 50ms);
  std::thread toClient(forward, breaker.clientEnd(), hop.server, 0ms);
  {
    IngestClient client([&](std::size_t) { return hop.client; },
                        /*clientId=*/9, testConfig());
    client.bye();
  }
  daemon->shutdown();
  toDaemon.join();
  toClient.join();

  HelloMsg hello;
  hello.clientId = 9;
  const std::uint64_t written =
      encodeFrame(FrameType::Hello, hello.encode()).size() +
      encodeFrame(FrameType::Bye, ByeMsg{"done"}.encode()).size();
  EXPECT_EQ(breaker.forwardedToDaemon(), written);
}

TEST_F(SpectordResilientTest, FlushFoldsOneVerdictPerUpload) {
  // Pipelined uploads each get exactly one verdict, accepted or refused,
  // and flush hands back the refusals: one app this daemon owns and one
  // it does not.
  const CollectorAssignment assignment{0, 4};
  std::optional<std::size_t> owned, foreign;
  for (std::size_t i = 0; i < generator_.appCount(); ++i) {
    const bool mine = assignment.owns(generator_.plan(i).packageName);
    if (mine && !owned) owned = i;
    if (!mine && !foreign) foreign = i;
  }
  ASSERT_TRUE(owned.has_value());
  ASSERT_TRUE(foreign.has_value());

  DaemonConfig daemonConfig;
  daemonConfig.ingest.shards = 2;
  daemonConfig.assignment = assignment;
  SpectorDaemon daemon(daemonConfig,
                       [this](const core::RunArtifacts& artifacts) {
                         return attributor_.attributeColumns(artifacts);
                       });
  IngestClient client(connectTo(daemon), /*clientId=*/9, testConfig());
  // The foreign app's reports went elsewhere, as from a misconfigured
  // fleet; only its upload reaches this daemon.
  struct DiscardSink final : ingest::ReportSink {
    void submitDatagram(std::span<const std::uint8_t>) override {}
  } elsewhere;
  client.uploadRun(*owned, runApp(*owned, &client));
  client.uploadRun(*foreign, runApp(*foreign, &elsewhere));
  const std::vector<RunAckMsg> refused = client.flush();
  EXPECT_EQ(client.runsAccepted(), 1u);
  EXPECT_EQ(client.runsRefused(), 1u);
  ASSERT_EQ(refused.size(), 1u);
  EXPECT_EQ(refused.front().jobIndex, *foreign);
  EXPECT_NE(refused.front().reason.find("owned by collector"),
            std::string::npos);
  // A second flush has nothing left to hand back.
  EXPECT_TRUE(client.flush().empty());

  daemon.drain();
  EXPECT_EQ(daemon.metrics().service.runsRefused, 1u);
  EXPECT_EQ(daemon.dashboard().runsFolded, 1u);
  client.bye();
  daemon.shutdown();
}

}  // namespace
}  // namespace libspector::spectord
