// The spectord frame grammar and its incremental stream parser: typed
// message round-trips, arbitrary chunking (down to one byte at a time),
// garbage resynchronization, crc rejection and the oversized-length cap.
// The parser never throws on wire input; the typed decoders throw
// util::DecodeError on truncation (their bodies are crc-clean by then).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "spectord/protocol.hpp"
#include "util/bytes.hpp"

namespace libspector::spectord {
namespace {

std::vector<std::uint8_t> bytesOf(const std::string& text) {
  return std::vector<std::uint8_t>(text.begin(), text.end());
}

/// Feed `stream` to a parser in `chunk`-sized pieces and drain every frame.
std::vector<Frame> parseChunked(const std::vector<std::uint8_t>& stream,
                                std::size_t chunk, FrameParser& parser) {
  std::vector<Frame> frames;
  for (std::size_t offset = 0; offset < stream.size(); offset += chunk) {
    const std::size_t n = std::min(chunk, stream.size() - offset);
    parser.feed(std::span<const std::uint8_t>(stream.data() + offset, n));
    while (auto frame = parser.next()) frames.push_back(std::move(*frame));
  }
  return frames;
}

TEST(SpectordProtocolTest, HelloRoundTrip) {
  HelloMsg msg;
  msg.clientId = 0xfeedbeefcafeULL;
  msg.kind = ClientKind::Dashboard;
  msg.resumeSession = 42;
  const HelloMsg back = HelloMsg::decode(msg.encode());
  EXPECT_EQ(back.clientId, msg.clientId);
  EXPECT_EQ(back.kind, msg.kind);
  EXPECT_EQ(back.resumeSession, msg.resumeSession);
}

TEST(SpectordProtocolTest, HelloAckRoundTrip) {
  HelloAckMsg msg;
  msg.session = 7;
  msg.ackedFrames = 123456;
  msg.resumed = true;
  const HelloAckMsg back = HelloAckMsg::decode(msg.encode());
  EXPECT_EQ(back.session, 7u);
  EXPECT_EQ(back.ackedFrames, 123456u);
  EXPECT_TRUE(back.resumed);
}

TEST(SpectordProtocolTest, RunAckRoundTrip) {
  RunAckMsg msg;
  msg.jobIndex = 99;
  msg.accepted = false;
  msg.reason = "apk owned by collector 2";
  const RunAckMsg back = RunAckMsg::decode(msg.encode());
  EXPECT_EQ(back.jobIndex, 99u);
  EXPECT_FALSE(back.accepted);
  EXPECT_EQ(back.reason, msg.reason);
}

/// A view with every part filled in: totals, two accounts, progress.
DashboardMirror fullMirror() {
  DashboardMirror mirror;
  mirror.totals.flowCount = 40;
  mirror.totals.attributedBytes = 4096;
  mirror.totals.unattributedBytes = 12;
  mirror.totals.bytesByLibrary["okhttp"] = 2048;
  mirror.totals.bytesByLibrary["unity"] = 2048;
  mirror.totals.bytesByLibCategory["Advertisement"] = 1024;
  mirror.totals.bytesByApp["aa11"] = 4096;
  core::ApkLossAccount account;
  account.reportsEmitted = 11;
  account.framesDelivered = 10;
  account.uniqueDelivered = 9;
  account.duplicated = 1;
  account.outOfOrder = 3;
  account.lost = 2;
  mirror.accounts["aa11"] = account;
  mirror.accounts["bb22"] = core::ApkLossAccount{};
  mirror.runsFolded = 3;
  mirror.expectedRuns = 25;
  mirror.reportsDelivered = 9;
  mirror.reportsLost = 2;
  return mirror;
}

/// One run's delta with every field set.
DeltaMsg fullDelta() {
  DeltaMsg msg;
  msg.jobIndex = 5;
  msg.apkSha256 = "ff00";
  msg.replayed = true;
  msg.flowCount = 7;
  msg.attributedBytes = 777;
  msg.unattributedBytes = 3;
  msg.bytesByLibrary.emplace_back("unity", 500);
  msg.bytesByLibrary.emplace_back("okhttp", 277);
  msg.bytesByLibCategory.emplace_back("Game Engine", 777);
  msg.account.reportsEmitted = 4;
  msg.account.uniqueDelivered = 3;
  msg.account.lost = 1;
  return msg;
}

// A snapshot's body is the daemon's whole view.
TEST(SpectordProtocolTest, SnapshotRoundTripsTheWholeMirror) {
  const DashboardMirror mirror = fullMirror();
  EXPECT_TRUE(DashboardMirror::decode(mirror.encode()) == mirror);
  EXPECT_TRUE(DashboardMirror::decode(DashboardMirror{}.encode()) ==
              DashboardMirror{});
}

// The snapshot body carries the rolling totals, the per-apk loss accounts
// and the run/report counters; each part is checked field by field below.
TEST(SpectordProtocolTest, TotalsSnapshotRoundTrip) {
  const DashboardMirror back = DashboardMirror::decode(fullMirror().encode());
  EXPECT_EQ(back.totals.flowCount, 40u);
  EXPECT_EQ(back.totals.attributedBytes, 4096u);
  EXPECT_EQ(back.totals.unattributedBytes, 12u);
  ASSERT_EQ(back.totals.bytesByLibrary.size(), 2u);
  EXPECT_EQ(back.totals.bytesByLibrary.at("okhttp"), 2048u);
  EXPECT_EQ(back.totals.bytesByLibrary.at("unity"), 2048u);
  EXPECT_EQ(back.totals.bytesByLibCategory.at("Advertisement"), 1024u);
  EXPECT_EQ(back.totals.bytesByApp.at("aa11"), 4096u);
}

TEST(SpectordProtocolTest, LossSnapshotRoundTripCarriesAccounts) {
  const DashboardMirror mirror = fullMirror();
  const DashboardMirror back = DashboardMirror::decode(mirror.encode());
  ASSERT_EQ(back.accounts.size(), 2u);
  EXPECT_EQ(back.accounts.at("aa11"), mirror.accounts.at("aa11"));
  EXPECT_EQ(back.accounts.at("aa11").lost, 2u);
  EXPECT_EQ(back.accounts.at("aa11").outOfOrder, 3u);
  EXPECT_EQ(back.accounts.at("bb22"), core::ApkLossAccount{});
}

TEST(SpectordProtocolTest, ProgressSnapshotRoundTrip) {
  const DashboardMirror back = DashboardMirror::decode(fullMirror().encode());
  EXPECT_EQ(back.runsFolded, 3u);
  EXPECT_EQ(back.expectedRuns, 25u);
  EXPECT_EQ(back.reportsDelivered, 9u);
  EXPECT_EQ(back.reportsLost, 2u);
}

TEST(SpectordProtocolTest, DeltaRoundTrip) {
  const DeltaMsg msg = fullDelta();
  const DeltaMsg back = DeltaMsg::decode(msg.encode());
  EXPECT_EQ(back.jobIndex, 5u);
  EXPECT_EQ(back.apkSha256, "ff00");
  EXPECT_TRUE(back.replayed);
  EXPECT_EQ(back.flowCount, 7u);
  EXPECT_EQ(back.attributedBytes, 777u);
  EXPECT_EQ(back.unattributedBytes, 3u);
  EXPECT_EQ(back.bytesByLibrary, msg.bytesByLibrary);
  EXPECT_EQ(back.bytesByLibCategory, msg.bytesByLibCategory);
  EXPECT_EQ(back.account, msg.account);
}

TEST(SpectordProtocolTest, ApplyDeltaFoldsOneRun) {
  // Each delta adds its bytes, replaces its apk's account and counts one
  // run with its delivered and lost reports.
  DashboardMirror mirror;
  mirror.expectedRuns = 2;
  DeltaMsg first = fullDelta();
  mirror.applyDelta(first);
  DeltaMsg second = fullDelta();
  second.jobIndex = 6;
  second.account.uniqueDelivered = 5;
  second.account.lost = 0;
  mirror.applyDelta(second);

  EXPECT_EQ(mirror.runsFolded, 2u);
  EXPECT_EQ(mirror.expectedRuns, 2u);
  EXPECT_EQ(mirror.reportsDelivered, 8u);
  EXPECT_EQ(mirror.reportsLost, 1u);
  EXPECT_EQ(mirror.totals.flowCount, 14u);
  EXPECT_EQ(mirror.totals.attributedBytes, 1554u);
  EXPECT_EQ(mirror.totals.unattributedBytes, 6u);
  EXPECT_EQ(mirror.totals.bytesByLibrary.at("unity"), 1000u);
  EXPECT_EQ(mirror.totals.bytesByLibCategory.at("Game Engine"), 1554u);
  EXPECT_EQ(mirror.totals.bytesByApp.at("ff00"), 1554u);
  ASSERT_EQ(mirror.accounts.size(), 1u);
  EXPECT_EQ(mirror.accounts.at("ff00"), second.account);
}

TEST(SpectordProtocolTest, AdminAndErrorAndByeRoundTrip) {
  AdminMsg admin;
  admin.op = AdminOp::EvictApk;
  admin.arg = "deadbeef";
  const AdminMsg adminBack = AdminMsg::decode(admin.encode());
  EXPECT_EQ(adminBack.op, AdminOp::EvictApk);
  EXPECT_EQ(adminBack.arg, "deadbeef");

  AdminAckMsg ack;
  ack.op = AdminOp::Status;
  ack.ok = true;
  ack.info = "{\"runs\":3}";
  const AdminAckMsg ackBack = AdminAckMsg::decode(ack.encode());
  EXPECT_TRUE(ackBack.ok);
  EXPECT_EQ(ackBack.info, ack.info);

  ErrorMsg error;
  error.code = 2;
  error.message = "wrong surface";
  const ErrorMsg errorBack = ErrorMsg::decode(error.encode());
  EXPECT_EQ(errorBack.code, 2u);
  EXPECT_EQ(errorBack.message, "wrong surface");

  const ByeMsg byeBack = ByeMsg::decode(ByeMsg{"draining"}.encode());
  EXPECT_EQ(byeBack.reason, "draining");
}

TEST(SpectordProtocolTest, UnassignedAdminOpIsRejected) {
  // Op byte 2 names no operation; the daemon answers a body that does not
  // decode with Error code 4, like any other.
  for (const int op : {0, 2, 7}) {
    AdminMsg admin;
    admin.op = static_cast<AdminOp>(op);
    EXPECT_THROW((void)AdminMsg::decode(admin.encode()), util::DecodeError)
        << op;
  }
}

TEST(SpectordProtocolTest, TruncatedTypedBodyThrowsDecodeError) {
  auto body = HelloAckMsg{}.encode();
  body.pop_back();
  EXPECT_THROW((void)HelloAckMsg::decode(body), util::DecodeError);
  EXPECT_THROW((void)DashboardMirror::decode(std::vector<std::uint8_t>{1, 2}),
               util::DecodeError);
}

TEST(SpectordProtocolTest, EveryStrictPrefixOfAMirrorOrDeltaThrows) {
  const std::vector<std::uint8_t> mirror = fullMirror().encode();
  for (std::size_t n = 0; n < mirror.size(); ++n)
    EXPECT_THROW((void)DashboardMirror::decode(
                     std::span<const std::uint8_t>(mirror.data(), n)),
                 util::DecodeError)
        << n << " of " << mirror.size() << " bytes";
  const std::vector<std::uint8_t> delta = fullDelta().encode();
  for (std::size_t n = 0; n < delta.size(); ++n)
    EXPECT_THROW(
        (void)DeltaMsg::decode(std::span<const std::uint8_t>(delta.data(), n)),
        util::DecodeError)
        << n << " of " << delta.size() << " bytes";
}

TEST(SpectordProtocolTest, ParserHandlesAnyChunking) {
  std::vector<std::uint8_t> stream;
  const auto first = encodeFrame(FrameType::Report, bytesOf("datagram-one"));
  const auto second = encodeFrame(FrameType::Bye, ByeMsg{"bye"}.encode());
  stream.insert(stream.end(), first.begin(), first.end());
  stream.insert(stream.end(), second.begin(), second.end());

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{7}, stream.size()}) {
    FrameParser parser;
    const auto frames = parseChunked(stream, chunk, parser);
    ASSERT_EQ(frames.size(), 2u) << "chunk=" << chunk;
    EXPECT_EQ(frames[0].type, FrameType::Report);
    EXPECT_EQ(frames[0].body, bytesOf("datagram-one"));
    EXPECT_EQ(frames[1].type, FrameType::Bye);
    EXPECT_EQ(parser.garbageBytes(), 0u);
    EXPECT_EQ(parser.rejectedFrames(), 0u);
    EXPECT_EQ(parser.buffered(), 0u);
  }
}

TEST(SpectordProtocolTest, GarbageBetweenFramesIsSkippedAndCounted) {
  const auto frame = encodeFrame(FrameType::Report, bytesOf("payload"));
  std::vector<std::uint8_t> stream = bytesOf("torn!!");
  stream.insert(stream.end(), frame.begin(), frame.end());
  stream.insert(stream.end(), {0x00, 0x01, 0x02});
  stream.insert(stream.end(), frame.begin(), frame.end());

  FrameParser parser;
  const auto frames = parseChunked(stream, 5, parser);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].body, bytesOf("payload"));
  EXPECT_EQ(frames[1].body, bytesOf("payload"));
  EXPECT_EQ(parser.garbageBytes(), 9u);
  EXPECT_EQ(parser.rejectedFrames(), 0u);
}

TEST(SpectordProtocolTest, CrcMismatchRejectsTheFrameAndResyncs) {
  auto corrupt = encodeFrame(FrameType::Report, bytesOf("zzzzzz"));
  corrupt.back() ^= 0x5a;  // flip a body bit: crc must catch it
  const auto good = encodeFrame(FrameType::Bye, ByeMsg{"ok"}.encode());
  std::vector<std::uint8_t> stream = corrupt;
  stream.insert(stream.end(), good.begin(), good.end());

  FrameParser parser;
  const auto frames = parseChunked(stream, 4, parser);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::Bye);
  EXPECT_EQ(parser.rejectedFrames(), 1u);
  EXPECT_GT(parser.garbageBytes(), 0u);  // resync hunted past the bad frame
}

TEST(SpectordProtocolTest, OversizedLengthFieldIsRejectedNotAllocated) {
  auto frame = encodeFrame(FrameType::Report, bytesOf("tiny"));
  // Stamp a ludicrous length (> kMaxBody) into the header's length field
  // (bytes 10..13); the parser must reject by the cap without waiting for
  // gigabytes that will never come.
  frame[10] = 0xff;
  frame[11] = 0xff;
  frame[12] = 0xff;
  frame[13] = 0x7f;
  const auto good = encodeFrame(FrameType::Bye, ByeMsg{"after"}.encode());
  std::vector<std::uint8_t> stream = frame;
  stream.insert(stream.end(), good.begin(), good.end());

  FrameParser parser;
  const auto frames = parseChunked(stream, stream.size(), parser);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::Bye);
  EXPECT_EQ(parser.rejectedFrames(), 1u);
}

TEST(SpectordProtocolTest, PartialFrameStaysBufferedUntilCompleted) {
  const auto frame = encodeFrame(FrameType::Report, bytesOf("half"));
  FrameParser parser;
  parser.feed(std::span<const std::uint8_t>(frame.data(), frame.size() - 2));
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_GT(parser.buffered(), 0u);
  parser.feed(std::span<const std::uint8_t>(frame.data() + frame.size() - 2, 2));
  const auto parsed = parser.next();
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->body, bytesOf("half"));
  EXPECT_EQ(parser.buffered(), 0u);
}

}  // namespace
}  // namespace libspector::spectord
