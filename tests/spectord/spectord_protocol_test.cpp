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

// A snapshot's payload is per-topic: Totals carries the rolling view,
// Loss the per-apk accounts, Progress the run/report counters.
TEST(SpectordProtocolTest, TotalsSnapshotRoundTrip) {
  SnapshotMsg msg;
  msg.topic = Topic::Totals;
  msg.totals.runsFolded = 3;
  msg.totals.flowCount = 40;
  msg.totals.attributedBytes = 4096;
  msg.totals.unattributedBytes = 12;
  msg.totals.bytesByLibrary["okhttp"] = 2048;
  msg.totals.bytesByLibCategory["Advertisement"] = 1024;
  msg.totals.bytesByApp["aa11"] = 4096;

  const SnapshotMsg back = SnapshotMsg::decode(msg.encode());
  EXPECT_EQ(back.topic, Topic::Totals);
  EXPECT_EQ(back.totals.runsFolded, 3u);
  EXPECT_EQ(back.totals.flowCount, 40u);
  EXPECT_EQ(back.totals.attributedBytes, 4096u);
  EXPECT_EQ(back.totals.unattributedBytes, 12u);
  EXPECT_EQ(back.totals.bytesByLibrary.at("okhttp"), 2048u);
  EXPECT_EQ(back.totals.bytesByLibCategory.at("Advertisement"), 1024u);
  EXPECT_EQ(back.totals.bytesByApp.at("aa11"), 4096u);
}

TEST(SpectordProtocolTest, LossSnapshotRoundTripCarriesAccounts) {
  SnapshotMsg msg;
  msg.topic = Topic::Loss;
  core::ApkLossAccount account;
  account.framesDelivered = 10;
  account.uniqueDelivered = 9;
  account.duplicated = 1;
  account.lost = 2;
  msg.accounts.emplace_back("aa11", account);

  const SnapshotMsg back = SnapshotMsg::decode(msg.encode());
  EXPECT_EQ(back.topic, Topic::Loss);
  ASSERT_EQ(back.accounts.size(), 1u);
  EXPECT_EQ(back.accounts[0].first, "aa11");
  EXPECT_EQ(back.accounts[0].second, account);
}

TEST(SpectordProtocolTest, ProgressSnapshotRoundTrip) {
  SnapshotMsg msg;
  msg.topic = Topic::Progress;
  msg.runsFolded = 3;
  msg.expectedRuns = 25;
  msg.reportsDelivered = 9;
  msg.reportsLost = 2;

  const SnapshotMsg back = SnapshotMsg::decode(msg.encode());
  EXPECT_EQ(back.topic, Topic::Progress);
  EXPECT_EQ(back.runsFolded, 3u);
  EXPECT_EQ(back.expectedRuns, 25u);
  EXPECT_EQ(back.reportsDelivered, 9u);
  EXPECT_EQ(back.reportsLost, 2u);
}

TEST(SpectordProtocolTest, DeltaRoundTrip) {
  DeltaMsg msg;
  msg.topic = Topic::Totals;
  msg.jobIndex = 5;
  msg.apkSha256 = "ff00";
  msg.replayed = true;
  msg.flowCount = 7;
  msg.attributedBytes = 777;
  msg.unattributedBytes = 3;
  msg.bytesByLibrary.emplace_back("unity", 500);
  msg.bytesByLibCategory.emplace_back("Game Engine", 500);
  const DeltaMsg back = DeltaMsg::decode(msg.encode());
  EXPECT_EQ(back.topic, Topic::Totals);
  EXPECT_EQ(back.jobIndex, 5u);
  EXPECT_EQ(back.apkSha256, "ff00");
  EXPECT_TRUE(back.replayed);
  EXPECT_EQ(back.bytesByLibrary, msg.bytesByLibrary);
  EXPECT_EQ(back.bytesByLibCategory, msg.bytesByLibCategory);
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
  EXPECT_THROW(SnapshotMsg::decode(std::vector<std::uint8_t>{1, 2}),
               util::DecodeError);
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
