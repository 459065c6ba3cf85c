#include "core/artifacts.hpp"

#include <gtest/gtest.h>

#include "util/bytes.hpp"

namespace libspector::core {
namespace {

RunArtifacts sampleArtifacts() {
  RunArtifacts artifacts;
  artifacts.apkSha256 = "cafe01";
  artifacts.packageName = "com.example.app";
  artifacts.appCategory = "GAME_WORD";

  const net::SocketPair pair{{net::Ipv4Addr(10, 0, 2, 15), 40000},
                             {net::Ipv4Addr(198, 18, 0, 3), 443}};
  artifacts.capture.append(net::makeTcpPacket(10, pair, 540, 500));
  artifacts.capture.append(net::makeUdpPacket(
      12, pair, 70, 42, "ads1.x.com", net::Ipv4Addr(198, 18, 0, 3)));
  artifacts.capture.appendHttp({14, pair, "ads1.x.com", "/ads", "UnityAds", false});

  UdpReport report;
  report.apkSha256 = "cafe01";
  report.socketPair = pair;
  report.timestampMs = 9;
  report.stackSignatures = {"java.net.Socket.connect",
                            "Lcom/lib/b;->doInBackground()V"};
  artifacts.reports.push_back(report);

  artifacts.methodTraceFile = {"Lcom/lib/b;->doInBackground()V",
                               "java.net.Socket.connect"};
  artifacts.coverage.coveredMethods = 12;
  artifacts.coverage.totalMethods = 480;
  artifacts.coverage.traceEntries = 15;
  artifacts.monkeyEventsInjected = 960;
  artifacts.runDurationMs = 480000;
  return artifacts;
}

TEST(ArtifactsTest, SerializeDeserializeRoundTrip) {
  const RunArtifacts original = sampleArtifacts();
  const RunArtifacts decoded = RunArtifacts::deserialize(original.serialize());

  EXPECT_EQ(decoded.apkSha256, original.apkSha256);
  EXPECT_EQ(decoded.packageName, original.packageName);
  EXPECT_EQ(decoded.appCategory, original.appCategory);
  EXPECT_EQ(decoded.capture, original.capture);
  ASSERT_EQ(decoded.reports.size(), 1u);
  EXPECT_EQ(decoded.reports[0], original.reports[0]);
  EXPECT_EQ(decoded.methodTraceFile, original.methodTraceFile);
  EXPECT_EQ(decoded.coverage.coveredMethods, 12u);
  EXPECT_EQ(decoded.coverage.totalMethods, 480u);
  EXPECT_EQ(decoded.coverage.traceEntries, 15u);
  EXPECT_EQ(decoded.monkeyEventsInjected, 960u);
  EXPECT_EQ(decoded.runDurationMs, 480000u);
}

TEST(ArtifactsTest, EmptyBundleRoundTrips) {
  const RunArtifacts empty;
  const RunArtifacts decoded = RunArtifacts::deserialize(empty.serialize());
  EXPECT_TRUE(decoded.apkSha256.empty());
  EXPECT_EQ(decoded.capture.size(), 0u);
  EXPECT_TRUE(decoded.reports.empty());
}

TEST(ArtifactsTest, RejectsCorruption) {
  auto bytes = sampleArtifacts().serialize();
  bytes[0] ^= 0xff;
  EXPECT_THROW((void)RunArtifacts::deserialize(bytes), util::DecodeError);

  const auto good = sampleArtifacts().serialize();
  const std::span<const std::uint8_t> truncated(good.data(), good.size() - 7);
  EXPECT_THROW((void)RunArtifacts::deserialize(truncated), util::DecodeError);

  auto padded = sampleArtifacts().serialize();
  padded.push_back(0);
  EXPECT_THROW((void)RunArtifacts::deserialize(padded), util::DecodeError);
}

TEST(ArtifactsTest, SerializationIsDeterministic) {
  EXPECT_EQ(sampleArtifacts().serialize(), sampleArtifacts().serialize());
}

TEST(ArtifactsTest, BoundaryFreeBundleKeepsTheExactV2Bytes) {
  // Scenario-off runs must stay byte-identical to the seed corpus: no
  // boundary records means no v3 tail and a version stamp of 2, so a
  // default-constructed boundary list is not merely "empty on decode" —
  // it is invisible on the wire.
  const auto bytes = sampleArtifacts().serialize();
  EXPECT_EQ(bytes[4], 2);  // version u16, little-endian low byte
  EXPECT_EQ(bytes[5], 0);

  RunArtifacts withTouchedList = sampleArtifacts();
  withTouchedList.requestBoundaries.clear();  // explicit no-op
  EXPECT_EQ(withTouchedList.serialize(), bytes);
}

TEST(ArtifactsTest, BoundaryBundleRoundTripsAtV3) {
  RunArtifacts artifacts = sampleArtifacts();
  artifacts.requestBoundaries = {
      {7, 0, 100},
      {7, 1, 2500},
      {9, 4, 0xFFFF'FFFF'0ULL},  // 64-bit timestamp survives
  };
  const auto bytes = artifacts.serialize();
  EXPECT_EQ(bytes[4], 3);  // boundary tail forces the version up

  const RunArtifacts decoded = RunArtifacts::deserialize(bytes);
  EXPECT_EQ(decoded.requestBoundaries, artifacts.requestBoundaries);
  EXPECT_EQ(decoded.reports, artifacts.reports);
  EXPECT_EQ(decoded.serialize(), bytes);

  // A truncated boundary tail is corruption, not a silent short list.
  const std::span<const std::uint8_t> truncated(bytes.data(),
                                                bytes.size() - 10);
  EXPECT_THROW((void)RunArtifacts::deserialize(truncated), util::DecodeError);
}

ApkLossAccount sampleAccount() {
  ApkLossAccount account;
  account.reportsEmitted = 9;
  account.framesDelivered = 8;
  account.uniqueDelivered = 7;
  account.duplicated = 1;
  account.outOfOrder = 2;
  account.lost = 2;
  return account;
}

TEST(ArtifactsTest, LossAccountFromArtifacts) {
  RunArtifacts artifacts = sampleArtifacts();
  artifacts.reportsEmitted = 3;  // 1 survived in `reports`, so 2 were lost
  const auto account = ApkLossAccount::fromArtifacts(artifacts);
  EXPECT_EQ(account.reportsEmitted, 3u);
  EXPECT_EQ(account.uniqueDelivered, artifacts.reports.size());
  EXPECT_EQ(account.lost, 2u);

  // No sender-side count (legacy bundle): nothing can be called lost.
  artifacts.reportsEmitted = 0;
  EXPECT_EQ(ApkLossAccount::fromArtifacts(artifacts).lost, 0u);
}

TEST(ArtifactsTest, EnvelopeRoundTripsIndexAccountAndArtifacts) {
  const RunArtifacts original = sampleArtifacts();
  const auto bytes = SpabEnvelope::encode(42, sampleAccount(), original);
  const SpabEnvelope decoded = SpabEnvelope::decode(bytes);
  EXPECT_EQ(decoded.jobIndex, 42u);
  EXPECT_EQ(decoded.account, sampleAccount());
  EXPECT_EQ(decoded.artifacts.serialize(), original.serialize());
}

TEST(ArtifactsTest, EnvelopeRejectsCorruption) {
  const auto good =
      SpabEnvelope::encode(3, sampleAccount(), sampleArtifacts());

  // Any single flipped payload bit fails the crc, not just header bytes.
  for (const std::size_t pos : {std::size_t{0}, std::size_t{5},
                                good.size() / 2, good.size() - 1}) {
    auto bytes = good;
    bytes[pos] ^= 0x01;
    EXPECT_THROW((void)SpabEnvelope::decode(bytes), util::DecodeError)
        << "flipped byte " << pos;
  }

  const std::span<const std::uint8_t> truncated(good.data(), good.size() - 9);
  EXPECT_THROW((void)SpabEnvelope::decode(truncated), util::DecodeError);

  auto padded = good;
  padded.push_back(0);
  EXPECT_THROW((void)SpabEnvelope::decode(padded), util::DecodeError);
}

}  // namespace
}  // namespace libspector::core
