// Hostile-wire fuzzing of the spectord frame parser and typed decoders:
// deterministic LCG-driven random bytes, mutated real frames, and
// pathological header fields must never crash, never allocate unboundedly
// and never break the parser's counter accounting. The parser contract is
// "wire input is data, not an error": next() either yields a crc-clean
// frame or quietly resynchronizes.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "spectord/protocol.hpp"
#include "util/bytes.hpp"

namespace libspector::spectord {
namespace {

/// Deterministic 64-bit LCG (same constants as the repo's other fuzz
/// harnesses): reproducible hostility, no std::random_device.
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 16;
  }
  std::uint8_t byte() { return static_cast<std::uint8_t>(next()); }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

/// Try every typed decoder against `body`; decoders must either succeed or
/// throw util::DecodeError — anything else (UB, crash, bad_alloc from a
/// hostile count field) fails the test by killing the process.
void probeTypedDecoders(const std::vector<std::uint8_t>& body) {
  const auto probe = [&](auto decode) {
    try {
      (void)decode(body);
    } catch (const util::DecodeError&) {
      // expected for hostile bodies
    }
  };
  probe([](auto& b) { return HelloMsg::decode(b); });
  probe([](auto& b) { return HelloAckMsg::decode(b); });
  probe([](auto& b) { return ReportAckMsg::decode(b); });
  probe([](auto& b) { return RunAckMsg::decode(b); });
  probe([](auto& b) { return DashboardMirror::decode(b); });
  probe([](auto& b) { return DeltaMsg::decode(b); });
  probe([](auto& b) { return AdminMsg::decode(b); });
  probe([](auto& b) { return AdminAckMsg::decode(b); });
  probe([](auto& b) { return ErrorMsg::decode(b); });
  probe([](auto& b) { return ByeMsg::decode(b); });
}

TEST(SpectordFuzzTest, RandomByteStormNeverCrashesTheParser) {
  Lcg rng(0x5bec7041);
  FrameParser parser;
  std::uint64_t totalFed = 0;
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> chunk(rng.below(512) + 1);
    for (auto& b : chunk) b = rng.byte();
    totalFed += chunk.size();
    parser.feed(chunk);
    while (auto frame = parser.next()) probeTypedDecoders(frame->body);
  }
  // Conservation: every byte fed is garbage, buffered, or part of a frame
  // (accepted or rejected) — nothing vanishes unaccounted. Random bytes
  // essentially never form a valid crc32 frame, so garbage dominates.
  EXPECT_LE(parser.garbageBytes(), totalFed);
  EXPECT_GT(parser.garbageBytes(), totalFed / 2);
  EXPECT_LT(parser.buffered(), FrameParser::kMaxBody + 64);
}

TEST(SpectordFuzzTest, MutatedRealFramesAreRejectedOrParsedNeverFatal) {
  Lcg rng(0xfeedface);
  // A pool of genuine frames to mutate.
  std::vector<std::vector<std::uint8_t>> pool;
  {
    HelloMsg hello;
    hello.clientId = 1;
    pool.push_back(encodeFrame(FrameType::Hello, hello.encode()));
    DashboardMirror snapshot;
    snapshot.totals.bytesByLibrary["lib"] = 7;
    snapshot.accounts["sha"] = core::ApkLossAccount{};
    pool.push_back(encodeFrame(FrameType::Snapshot, snapshot.encode()));
    DeltaMsg delta;
    delta.apkSha256 = "abc";
    delta.bytesByLibrary.emplace_back("x", 1);
    pool.push_back(encodeFrame(FrameType::Delta, delta.encode()));
    pool.push_back(encodeFrame(FrameType::Bye, ByeMsg{"bye"}.encode()));
  }

  // Warm-up: every pristine frame parses.
  FrameParser parser;
  for (const auto& frame : pool) parser.feed(frame);
  std::uint64_t accepted = 0;
  while (auto parsed = parser.next()) {
    ++accepted;
    probeTypedDecoders(parsed->body);
  }
  EXPECT_EQ(accepted, pool.size());

  // Storm: always-mutated copies. A flip in the length field can leave
  // the parser legitimately waiting for a body that never completes (TCP
  // framing would too; the crc rejects it when the bytes arrive), so the
  // storm asserts survival and bounded memory, not acceptance counts.
  for (int round = 0; round < 4000; ++round) {
    auto frame = pool[rng.below(pool.size())];
    const std::size_t flips = rng.below(3) + 1;
    for (std::size_t i = 0; i < flips; ++i)
      frame[rng.below(frame.size())] ^= static_cast<std::uint8_t>(
          1u << rng.below(8));
    parser.feed(frame);
    while (auto parsed = parser.next()) probeTypedDecoders(parsed->body);
    ASSERT_LE(parser.buffered(), FrameParser::kMaxBody + 64);
  }

  // Flush: pad past any hostile pending length (<= kMaxBody by the cap).
  // The swallowed stream must now resolve into rejects and garbage —
  // never a crash, never an accepted frame forged by bit flips.
  parser.feed(std::vector<std::uint8_t>(FrameParser::kMaxBody + 64, 0));
  while (auto parsed = parser.next()) probeTypedDecoders(parsed->body);
  EXPECT_GT(parser.rejectedFrames() + parser.garbageBytes(), 0u);
  EXPECT_LT(parser.buffered(), FrameParser::kHeaderSize);
}

TEST(SpectordFuzzTest, HostileHeaderFieldsNeverBalloonMemory) {
  Lcg rng(0x1234abcd);
  FrameParser parser;
  for (int round = 0; round < 500; ++round) {
    // A valid frame whose header fields are then scribbled over: version,
    // type, crc and length each take hostile values, including lengths
    // far past kMaxBody.
    auto frame = encodeFrame(FrameType::Report,
                             std::vector<std::uint8_t>(rng.below(64)));
    const std::size_t field = rng.below(10) + 4;  // within the header
    frame[field] = rng.byte();
    if (rng.below(3) == 0) {
      // Explicit oversized length.
      frame[10] = 0xff;
      frame[11] = 0xff;
      frame[12] = rng.byte();
      frame[13] = rng.byte() | 0x10;
    }
    parser.feed(frame);
    while (auto parsed = parser.next()) probeTypedDecoders(parsed->body);
    // The buffer never holds more than one partial frame's worth.
    ASSERT_LT(parser.buffered(), FrameParser::kMaxBody + 64);
  }
}

}  // namespace
}  // namespace libspector::spectord
