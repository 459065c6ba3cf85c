#include "core/report.hpp"

#include <gtest/gtest.h>

#include "util/bytes.hpp"

namespace libspector::core {
namespace {

UdpReport sampleReport() {
  UdpReport report;
  report.apkSha256 = "deadbeef00";
  report.socketPair = {{net::Ipv4Addr(10, 0, 2, 15), 40001},
                       {net::Ipv4Addr(198, 18, 0, 9), 443}};
  report.timestampMs = 123456;
  report.stackSignatures = {
      "java.net.Socket.connect",
      "com.android.okhttp.internal.Platform.connectSocket",
      "Lcom/unity3d/ads/android/cache/b;->a(Ljava/lang/String;)V",
      "Lcom/unity3d/ads/android/cache/b;->doInBackground([Ljava/lang/String;)V",
      "android.os.AsyncTask$2.call",
      "java.util.concurrent.FutureTask.run"};
  return report;
}

TEST(ReportTest, EncodeDecodeRoundTrip) {
  const UdpReport report = sampleReport();
  const auto datagram = report.encode();
  EXPECT_EQ(UdpReport::decode(datagram), report);
}

TEST(ReportTest, EmptyStackRoundTrips) {
  UdpReport report = sampleReport();
  report.stackSignatures.clear();
  EXPECT_EQ(UdpReport::decode(report.encode()), report);
}

TEST(ReportTest, DatagramFitsTypicalMtu) {
  // One report per socket must remain a single realistic datagram.
  EXPECT_LT(sampleReport().encode().size(), 1400u);
}

TEST(ReportTest, DecodeRejectsCorruption) {
  auto datagram = sampleReport().encode();
  datagram[0] ^= 0xff;  // magic
  EXPECT_THROW((void)UdpReport::decode(datagram), util::DecodeError);

  const auto good = sampleReport().encode();
  const std::span<const std::uint8_t> truncated(good.data(), good.size() / 2);
  EXPECT_THROW((void)UdpReport::decode(truncated), util::DecodeError);

  auto padded = sampleReport().encode();
  padded.push_back(0);
  EXPECT_THROW((void)UdpReport::decode(padded), util::DecodeError);
}

TEST(ReportTest, PreservesSocketPairExactly) {
  const auto decoded = UdpReport::decode(sampleReport().encode());
  EXPECT_EQ(decoded.socketPair.src.port, 40001);
  EXPECT_EQ(decoded.socketPair.dst.ip.str(), "198.18.0.9");
  EXPECT_EQ(decoded.socketPair.dst.port, 443);
}

TEST(ReportTest, OrdinalZeroAddsNoWireBytes) {
  // The keep-alive request ordinal is an optional trailing field: the
  // default ordinal 0 (socket opener) must encode to the exact pre-scenario
  // datagram so legacy captures stay byte-identical.
  UdpReport report = sampleReport();
  ASSERT_EQ(report.requestOrdinal, 0u);
  const auto legacy = report.encode();

  report.requestOrdinal = 2;
  const auto tagged = report.encode();
  EXPECT_EQ(tagged.size(), legacy.size() + 4);  // one trailing u32

  const UdpReport decoded = UdpReport::decode(tagged);
  EXPECT_EQ(decoded.requestOrdinal, 2u);
  EXPECT_EQ(decoded, report);
  EXPECT_EQ(UdpReport::decode(legacy).requestOrdinal, 0u);
}

// ---- the report frame: v3 dictionary wire format --------------------------

constexpr std::uint32_t kFrameMagicOnTheWire = 0x4652534C;  // "LSRF"

std::vector<std::uint8_t> sealTestFrame(std::uint8_t version,
                                        const util::ByteWriter& body) {
  util::ByteWriter w;
  w.u32(kFrameMagicOnTheWire);
  w.u8(version);
  w.u32(util::crc32(body.data()));
  w.raw(body.data());
  return w.take();
}

/// The retired v1 layout, byte by byte: the whole report record rides in
/// every frame. v2 was a wire alias of it (only the version byte differs).
std::vector<std::uint8_t> legacyLayoutFrame(std::uint8_t version,
                                            std::uint32_t workerId,
                                            std::uint64_t sequence,
                                            const UdpReport& report) {
  util::ByteWriter body;
  body.u32(workerId);
  body.u64(sequence);
  body.u64(util::fnv1a64(report.apkSha256));  // shaKey
  const auto payload = report.encode();
  body.str({reinterpret_cast<const char*>(payload.data()), payload.size()});
  return sealTestFrame(version, body);
}

TEST(ReportTest, DictFrameRoundTripsExactly) {
  ReportFrame frame;
  frame.workerId = 9;
  frame.sequence = 17;
  frame.apkSha256 = "deadbeef00";
  frame.socketPair = sampleReport().socketPair;
  frame.timestampMs = 5555;
  frame.defs = {{0, "java.net.Socket.connect"}, {1, "Lcom/a/b;->c()V"}};
  frame.signatureIds = {1, 0, 1};
  EXPECT_EQ(ReportFrame::decode(frame.encode()), frame);
}

TEST(ReportTest, DictFrameCarriesTheOrdinalOnlyWhenNonZero) {
  ReportFrame frame;
  frame.workerId = 2;
  frame.sequence = 5;
  frame.apkSha256 = "deadbeef00";
  frame.socketPair = sampleReport().socketPair;
  frame.timestampMs = 777;
  frame.defs = {{0, "java.net.Socket.connect"}};
  frame.signatureIds = {0};
  const auto legacy = frame.encode();
  ASSERT_EQ(ReportFrame::decode(legacy).requestOrdinal, 0u);

  frame.requestOrdinal = 7;
  const auto tagged = frame.encode();
  EXPECT_EQ(tagged.size(), legacy.size() + 4);
  EXPECT_EQ(ReportFrame::decode(tagged), frame);

  // Ordinals survive the encoder/stream-decoder path end to end.
  UdpReport viaStream = sampleReport();
  viaStream.requestOrdinal = 7;
  DictFrameEncoder encoder(2);
  ReportStreamDecoder decoder;
  EXPECT_EQ(decoder.decode(encoder.encode(0, viaStream)), viaStream);
}

TEST(ReportTest, DictEncoderDefinesEachSignatureExactlyOnce) {
  const UdpReport report = sampleReport();
  DictFrameEncoder encoder(7);
  const auto first = ReportFrame::decode(encoder.encode(0, report));
  const auto second = ReportFrame::decode(encoder.encode(1, report));

  // The first referencing frame carries every definition, in id order.
  ASSERT_EQ(first.defs.size(), report.stackSignatures.size());
  for (std::uint32_t id = 0; id < first.defs.size(); ++id) {
    EXPECT_EQ(first.defs[id].first, id);
    EXPECT_EQ(first.defs[id].second, report.stackSignatures[id]);
  }
  EXPECT_TRUE(second.defs.empty());
  EXPECT_EQ(second.signatureIds, first.signatureIds);
  EXPECT_EQ(encoder.dictionarySize(), report.stackSignatures.size());
}

TEST(ReportTest, StreamDecoderRoundTripsADictStream) {
  DictFrameEncoder encoder(3);
  ReportStreamDecoder decoder;
  for (std::uint64_t seq = 0; seq < 10; ++seq) {
    UdpReport report = sampleReport();
    report.socketPair.src.port = static_cast<std::uint16_t>(40000 + seq);
    report.timestampMs = seq;
    // Later sockets reference a strict subset of the dictionary.
    if (seq > 4) report.stackSignatures.resize(3);
    EXPECT_EQ(decoder.decode(encoder.encode(seq, report)), report) << seq;
  }
}

TEST(ReportTest, StreamDecoderHandlesEveryWireFormatInOneStream) {
  const UdpReport report = sampleReport();
  ReportStreamDecoder decoder;
  DictFrameEncoder encoder(2);
  EXPECT_EQ(decoder.decode(encoder.encode(0, report)), report);
  // The stream carries report frames only: a raw report record and a
  // retired v1-layout frame are rejected, and leave its dictionary intact.
  EXPECT_THROW((void)decoder.decode(report.encode()), util::DecodeError);
  EXPECT_THROW((void)decoder.decode(legacyLayoutFrame(1, 2, 1, report)),
               util::DecodeError);
  EXPECT_EQ(decoder.decode(encoder.encode(1, report)), report);
}

TEST(ReportTest, StreamDecoderKeepsWorkerDictionariesSeparate) {
  // Both workers use id 0, for different signatures.
  UdpReport a = sampleReport();
  a.stackSignatures = {"Lcom/worker/one;->a()V"};
  UdpReport b = sampleReport();
  b.stackSignatures = {"Lcom/worker/two;->b()V"};

  DictFrameEncoder encoderA(1);
  DictFrameEncoder encoderB(2);
  ReportStreamDecoder decoder;
  EXPECT_EQ(decoder.decode(encoderA.encode(0, a)), a);
  EXPECT_EQ(decoder.decode(encoderB.encode(0, b)), b);
  EXPECT_EQ(decoder.decode(encoderA.encode(1, a)), a);
  EXPECT_EQ(decoder.decode(encoderB.encode(1, b)), b);
}

TEST(ReportTest, StreamDecoderRejectsUndefinedIdOnInOrderStream) {
  // On a reliable in-order stream a definition always precedes its first
  // reference, so an unresolved id is corruption, not loss.
  ReportFrame frame;
  frame.workerId = 4;
  frame.apkSha256 = "deadbeef00";
  frame.socketPair = sampleReport().socketPair;
  frame.signatureIds = {0};
  ReportStreamDecoder decoder;
  EXPECT_THROW((void)decoder.decode(frame.encode()), util::DecodeError);
}

TEST(ReportTest, DictFrameChecksumRejectsEveryBitFlip) {
  DictFrameEncoder encoder(3);
  const auto valid = encoder.encode(9, sampleReport());
  for (std::size_t pos = 0; pos < valid.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      auto flipped = valid;
      flipped[pos] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_THROW((void)ReportFrame::decode(flipped), util::DecodeError)
          << "byte " << pos << " bit " << bit;
    }
  }
}

// ---- frozen wire layouts --------------------------------------------------
//
// These rebuild datagrams byte by byte from the documented layouts. If an
// encoder change breaks the v3 vector, it broke every deployed decoder; the
// retired v1 layout (and its v2 alias) must stay rejected.

TEST(ReportTest, V1AndV2DatagramsAreRejected) {
  // Both are well-formed, correctly checksummed datagrams of a layout no
  // sender emits any more: every reader must refuse them by version.
  for (const std::uint8_t version : {1, 2}) {
    const auto bytes = legacyLayoutFrame(version, 7, 42, sampleReport());
    EXPECT_THROW((void)ReportFrame::peek(bytes), util::DecodeError);
    EXPECT_THROW((void)ReportFrame::decode(bytes), util::DecodeError);
    ReportStreamDecoder stream;
    EXPECT_THROW((void)stream.decode(bytes), util::DecodeError);
  }
}

TEST(ReportTest, V3WireLayoutIsFrozen) {
  ReportFrame frame;
  frame.workerId = 11;
  frame.sequence = 3;
  frame.apkSha256 = "deadbeef00";
  frame.socketPair = sampleReport().socketPair;
  frame.timestampMs = 777;
  frame.defs = {{0, "java.net.Socket.connect"}};
  frame.signatureIds = {0, 0};

  util::ByteWriter body;
  body.u32(11);                             // workerId
  body.u64(3);                              // sequence
  body.u64(util::fnv1a64("deadbeef00"));    // shaKey
  body.u32(1);                              // defCount
  body.u32(0);                              // def id
  body.str("java.net.Socket.connect");      // def text
  body.str("deadbeef00");                   // apkSha256, inline
  body.u32(frame.socketPair.src.ip.value());
  body.u16(frame.socketPair.src.port);
  body.u32(frame.socketPair.dst.ip.value());
  body.u16(frame.socketPair.dst.port);
  body.u64(777);                            // timestampMs
  body.u32(2);                              // frameCount
  body.u32(0);
  body.u32(0);
  const auto bytes = sealTestFrame(3, body);

  EXPECT_EQ(bytes, frame.encode());
  EXPECT_EQ(ReportFrame::decode(bytes), frame);
}

TEST(ReportTest, DictFrameRejectsMismatchedRoutingKey) {
  // A shaKey that disagrees with the inline checksum would let a router
  // shard a datagram one way and attribute it another.
  util::ByteWriter body;
  body.u32(1);                               // workerId
  body.u64(0);                               // sequence
  body.u64(util::fnv1a64("deadbeef00") + 1);  // wrong routing key
  body.u32(0);                               // defCount
  body.str("deadbeef00");
  body.u32(0);
  body.u16(0);
  body.u32(0);
  body.u16(0);
  body.u64(0);
  body.u32(0);                               // frameCount
  EXPECT_THROW((void)ReportFrame::decode(sealTestFrame(3, body)),
               util::DecodeError);
}

}  // namespace
}  // namespace libspector::core
