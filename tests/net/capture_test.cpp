#include "net/capture.hpp"

#include "util/bytes.hpp"

#include <gtest/gtest.h>

namespace libspector::net {
namespace {

const SocketPair kPair{{Ipv4Addr(10, 0, 2, 15), 40000}, {Ipv4Addr(2, 2, 2, 2), 443}};
const SocketPair kOther{{Ipv4Addr(10, 0, 2, 15), 40001}, {Ipv4Addr(2, 2, 2, 2), 443}};

TEST(CaptureTest, StreamVolumeSeparatesDirections) {
  CaptureFile capture;
  capture.append(makeTcpPacket(10, kPair, 540, 500));             // out
  capture.append(makeTcpPacket(11, kPair.reversed(), 1540, 1500));  // in
  capture.append(makeTcpPacket(12, kPair, 40, 0));                // ACK out

  const auto volume = capture.streamVolume(kPair, 0, 100);
  EXPECT_EQ(volume.bytesFromSrc, 580u);
  EXPECT_EQ(volume.bytesFromDst, 1540u);
  EXPECT_EQ(volume.payloadFromSrc, 500u);
  EXPECT_EQ(volume.payloadFromDst, 1500u);
  EXPECT_EQ(volume.packetCount, 3u);
}

TEST(CaptureTest, StreamVolumeRespectsTimeWindow) {
  CaptureFile capture;
  capture.append(makeTcpPacket(10, kPair, 100, 60));
  capture.append(makeTcpPacket(50, kPair, 200, 160));
  capture.append(makeTcpPacket(90, kPair, 400, 360));

  const auto volume = capture.streamVolume(kPair, 20, 60);
  EXPECT_EQ(volume.bytesFromSrc, 200u);
  EXPECT_EQ(volume.packetCount, 1u);
}

TEST(CaptureTest, StreamVolumeIgnoresOtherPairs) {
  CaptureFile capture;
  capture.append(makeTcpPacket(10, kPair, 100, 60));
  capture.append(makeTcpPacket(10, kOther, 999, 900));
  const auto volume = capture.streamVolume(kPair, 0, 100);
  EXPECT_EQ(volume.bytesFromSrc, 100u);
  EXPECT_EQ(volume.packetCount, 1u);
}

TEST(CaptureTest, StreamVolumeMatchesQueryOrientation) {
  CaptureFile capture;
  capture.append(makeTcpPacket(10, kPair, 100, 60));
  // Query with the reversed pair: bytesFromSrc must now be the server side.
  const auto volume = capture.streamVolume(kPair.reversed(), 0, 100);
  EXPECT_EQ(volume.bytesFromSrc, 0u);
  EXPECT_EQ(volume.bytesFromDst, 100u);
}

TEST(CaptureTest, TotalWireBytes) {
  CaptureFile capture;
  capture.append(makeTcpPacket(1, kPair, 100, 60));
  capture.append(makeUdpPacket(2, kPair, 50, 22));
  EXPECT_EQ(capture.totalWireBytes(), 150u);
}

TEST(CaptureTest, SerializeRoundTripsIncludingDnsFields) {
  CaptureFile capture;
  capture.append(makeTcpPacket(1, kPair, 100, 60));
  capture.append(makeUdpPacket(2, kPair, 80, 52, "ads1.example.com",
                               Ipv4Addr(198, 18, 0, 7)));
  const auto decoded = CaptureFile::deserialize(capture.serialize());
  EXPECT_EQ(decoded, capture);
  EXPECT_TRUE(decoded.packets()[1].isDns());
  EXPECT_EQ(decoded.packets()[1].dnsQname, "ads1.example.com");
  EXPECT_EQ(decoded.packets()[1].dnsAnswer, Ipv4Addr(198, 18, 0, 7));
}

TEST(CaptureTest, DeserializeRejectsCorruptInput) {
  CaptureFile capture;
  capture.append(makeTcpPacket(1, kPair, 100, 60));
  auto bytes = capture.serialize();
  bytes[0] ^= 0x01;
  EXPECT_THROW((void)CaptureFile::deserialize(bytes), util::DecodeError);
  const auto good = capture.serialize();
  const std::span<const std::uint8_t> truncated(good.data(), good.size() - 3);
  EXPECT_THROW((void)CaptureFile::deserialize(truncated), util::DecodeError);
  // A protocol byte (after the magic, the count and the first packet's
  // timestamp) other than TCP (6) or UDP (17): left in, the packet's
  // payload would count in streamVolume but in neither protocol's total.
  auto badProto = capture.serialize();
  ASSERT_EQ(badProto[16], 6u);
  badProto[16] = 99;
  EXPECT_THROW((void)CaptureFile::deserialize(badProto), util::DecodeError);
}

TEST(CaptureTest, EmptyCapture) {
  const CaptureFile capture;
  EXPECT_EQ(capture.size(), 0u);
  EXPECT_EQ(capture.totalWireBytes(), 0u);
  const auto decoded = CaptureFile::deserialize(capture.serialize());
  EXPECT_EQ(decoded, capture);
  const auto volume = capture.streamVolume(kPair, 0, 100);
  EXPECT_EQ(volume.packetCount, 0u);
}

TEST(CaptureTest, TotalTcpPayloadIsMaintainedIncrementally) {
  // The O(1) counter must equal a full scan: TCP payload only — wire
  // overhead, UDP and pure-ACK packets contribute nothing.
  CaptureFile capture;
  EXPECT_EQ(capture.totalTcpPayloadBytes(), 0u);
  capture.append(makeTcpPacket(1, kPair, 540, 500));
  capture.append(makeTcpPacket(2, kPair.reversed(), 1540, 1500));
  capture.append(makeTcpPacket(3, kPair, 40, 0));  // bare ACK
  capture.append(makeUdpPacket(4, kPair, 120, 92));
  capture.append(makeTcpPacket(5, kOther, 240, 200));
  EXPECT_EQ(capture.totalTcpPayloadBytes(), 500u + 1500u + 200u);

  // The counter is derived state: it must survive serialization and agree
  // with the index built over the same capture.
  const auto decoded = CaptureFile::deserialize(capture.serialize());
  EXPECT_EQ(decoded.totalTcpPayloadBytes(), capture.totalTcpPayloadBytes());
  const CaptureIndex index(capture);
  EXPECT_EQ(index.totalTcpPayload(), capture.totalTcpPayloadBytes());
}

TEST(CaptureTest, IsDnsOnlyForNamedPackets) {
  EXPECT_FALSE(makeTcpPacket(1, kPair, 40, 0).isDns());
  EXPECT_FALSE(makeUdpPacket(1, kPair, 40, 12).isDns());
  EXPECT_TRUE(makeUdpPacket(1, kPair, 40, 12, "example.com").isDns());
}

}  // namespace
}  // namespace libspector::net
