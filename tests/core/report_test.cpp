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

// ---- v3 dictionary wire format -------------------------------------------

constexpr std::uint32_t kFrameMagicOnTheWire = 0x4652534C;  // "LSRF"

TEST(ReportTest, DictFrameRoundTripsExactly) {
  DictReportFrame frame;
  frame.workerId = 9;
  frame.sequence = 17;
  frame.apkSha256 = "deadbeef00";
  frame.socketPair = sampleReport().socketPair;
  frame.timestampMs = 5555;
  frame.defs = {{0, "java.net.Socket.connect"}, {1, "Lcom/a/b;->c()V"}};
  frame.signatureIds = {1, 0, 1};
  EXPECT_EQ(DictReportFrame::decode(frame.encode()), frame);
}

TEST(ReportTest, DictFrameCarriesTheOrdinalOnlyWhenNonZero) {
  DictReportFrame frame;
  frame.workerId = 2;
  frame.sequence = 5;
  frame.apkSha256 = "deadbeef00";
  frame.socketPair = sampleReport().socketPair;
  frame.timestampMs = 777;
  frame.defs = {{0, "java.net.Socket.connect"}};
  frame.signatureIds = {0};
  const auto legacy = frame.encode();
  ASSERT_EQ(DictReportFrame::decode(legacy).requestOrdinal, 0u);

  frame.requestOrdinal = 7;
  const auto tagged = frame.encode();
  EXPECT_EQ(tagged.size(), legacy.size() + 4);
  EXPECT_EQ(DictReportFrame::decode(tagged), frame);

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
  const auto first = DictReportFrame::decode(encoder.encode(0, report));
  const auto second = DictReportFrame::decode(encoder.encode(1, report));

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

TEST(ReportTest, SteadyStateDictFrameIsAFractionOfTheLegacyFrame) {
  const UdpReport report = sampleReport();
  DictFrameEncoder encoder(7);
  (void)encoder.encode(0, report);  // definitions paid here, once per run
  const auto steady = encoder.encode(1, report);
  const auto legacy = ReportFrame{7, 1, report}.encode();
  EXPECT_LT(steady.size() * 3, legacy.size());
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
  EXPECT_EQ(decoder.decode(report.encode()), report);  // legacy raw
  EXPECT_EQ(decoder.decode(ReportFrame{1, 0, report}.encode()), report);
  DictFrameEncoder encoder(2);
  EXPECT_EQ(decoder.decode(encoder.encode(0, report)), report);
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

TEST(ReportTest, StatelessDecodersRejectDictFrames) {
  DictFrameEncoder encoder(1);
  const auto datagram = encoder.encode(0, sampleReport());
  EXPECT_THROW((void)ReportFrame::decode(datagram), util::DecodeError);

  // ...but the routing header stays version-agnostic: a shard router can
  // place a v3 datagram without dictionary state.
  const auto header = ReportFrame::peek(datagram);
  EXPECT_EQ(header.version, ReportFrame::kDictVersion);
  EXPECT_EQ(header.workerId, 1u);
  EXPECT_EQ(header.sequence, 0u);
  EXPECT_EQ(header.shaKey, util::fnv1a64(sampleReport().apkSha256));
}

TEST(ReportTest, StreamDecoderRejectsUndefinedIdOnInOrderStream) {
  // On a reliable in-order stream a definition always precedes its first
  // reference, so an unresolved id is corruption, not loss.
  DictReportFrame frame;
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
      EXPECT_THROW((void)DictReportFrame::decode(flipped), util::DecodeError)
          << "byte " << pos << " bit " << bit;
    }
  }
}

// ---- frozen wire layouts (backward-compat byte vectors) ------------------
//
// These rebuild each version's datagram byte by byte from the documented
// layout. If an encoder change breaks them, it broke every deployed decoder.

std::vector<std::uint8_t> sealTestFrame(std::uint8_t version,
                                        const util::ByteWriter& body) {
  util::ByteWriter w;
  w.u32(kFrameMagicOnTheWire);
  w.u8(version);
  w.u32(util::crc32(body.data()));
  w.raw(body.data());
  return w.take();
}

TEST(ReportTest, V1WireLayoutIsFrozen) {
  const UdpReport report = sampleReport();
  util::ByteWriter body;
  body.u32(7);                              // workerId
  body.u64(42);                             // sequence
  body.u64(util::fnv1a64(report.apkSha256));  // shaKey
  const auto payload = report.encode();
  body.str({reinterpret_cast<const char*>(payload.data()), payload.size()});
  const auto bytes = sealTestFrame(1, body);

  EXPECT_EQ(bytes, (ReportFrame{7, 42, report}.encode()));
  EXPECT_EQ(ReportFrame::decode(bytes), (ReportFrame{7, 42, report}));
}

TEST(ReportTest, V2AliasDatagramStillDecodes) {
  // v2 is a wire alias of the v1 layout (the accounting upgrade changed
  // artifacts, not the frame): only the version byte differs, and the crc
  // covers the body alone.
  const UdpReport report = sampleReport();
  auto bytes = ReportFrame{7, 42, report}.encode();
  bytes[4] = 2;  // version byte: magic (4 bytes) | version | crc | body
  EXPECT_EQ(ReportFrame::peek(bytes).version, 2);
  EXPECT_EQ(ReportFrame::decode(bytes).report, report);
  ReportStreamDecoder stream;
  EXPECT_EQ(stream.decode(bytes), report);
}

TEST(ReportTest, V3WireLayoutIsFrozen) {
  DictReportFrame frame;
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
  EXPECT_EQ(DictReportFrame::decode(bytes), frame);
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
  EXPECT_THROW((void)DictReportFrame::decode(sealTestFrame(3, body)),
               util::DecodeError);
}

}  // namespace
}  // namespace libspector::core
