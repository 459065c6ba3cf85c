#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/capture.hpp"
#include "util/rng.hpp"

namespace libspector::net {
namespace {

constexpr SocketPair kPair{{Ipv4Addr(10, 0, 2, 15), 40000},
                           {Ipv4Addr(198, 18, 0, 5), 443}};

void expectSameVolume(const CaptureFile::StreamVolume& naive,
                      const CaptureFile::StreamVolume& indexed,
                      const std::string& context) {
  EXPECT_EQ(naive.bytesFromSrc, indexed.bytesFromSrc) << context;
  EXPECT_EQ(naive.bytesFromDst, indexed.bytesFromDst) << context;
  EXPECT_EQ(naive.payloadFromSrc, indexed.payloadFromSrc) << context;
  EXPECT_EQ(naive.payloadFromDst, indexed.payloadFromDst) << context;
  EXPECT_EQ(naive.packetCount, indexed.packetCount) << context;
  // The RTT axis: first-packet-per-direction timestamps must agree too,
  // on the index's one query path, whatever order the packets were
  // appended in.
  EXPECT_EQ(naive.firstFromSrcMs, indexed.firstFromSrcMs) << context;
  EXPECT_EQ(naive.firstFromDstMs, indexed.firstFromDstMs) << context;
  EXPECT_EQ(naive.rttMs(), indexed.rttMs()) << context;
}

TEST(CaptureIndexTest, EmptyCaptureAnswersZero) {
  const CaptureFile capture;
  const CaptureIndex index(capture);
  EXPECT_EQ(index.connectionCount(), 0u);
  const auto volume = index.streamVolume(kPair, 0, 1000);
  EXPECT_EQ(volume.packetCount, 0u);
  EXPECT_EQ(volume.bytesFromSrc, 0u);
}

TEST(CaptureIndexTest, UnknownPairAnswersZero) {
  CaptureFile capture;
  capture.append(makeTcpPacket(10, kPair, 140, 100));
  const CaptureIndex index(capture);
  const SocketPair other{{Ipv4Addr(10, 0, 2, 15), 40001},
                         {Ipv4Addr(198, 18, 0, 5), 443}};
  EXPECT_EQ(index.streamVolume(other, 0, 1000).packetCount, 0u);
}

TEST(CaptureIndexTest, MatchesNaiveInBothOrientations) {
  CaptureFile capture;
  capture.append(makeTcpPacket(10, kPair, 140, 100));
  capture.append(makeTcpPacket(20, kPair.reversed(), 1540, 1500));
  capture.append(makeTcpPacket(30, kPair, 40, 0));
  const CaptureIndex index(capture);
  expectSameVolume(capture.streamVolume(kPair, 0, 100),
                   index.streamVolume(kPair, 0, 100), "device-first");
  expectSameVolume(capture.streamVolume(kPair.reversed(), 0, 100),
                   index.streamVolume(kPair.reversed(), 0, 100),
                   "server-first");
  // The reversed query swaps the direction split.
  const auto reversed = index.streamVolume(kPair.reversed(), 0, 100);
  EXPECT_EQ(reversed.bytesFromSrc, 1540u);
  EXPECT_EQ(reversed.bytesFromDst, 180u);
}

TEST(CaptureIndexTest, UnsortedTimestampsAreHandled) {
  // CaptureFile::append makes no ordering promise; the index must sort.
  CaptureFile capture;
  capture.append(makeTcpPacket(300, kPair, 340, 300));
  capture.append(makeTcpPacket(100, kPair, 140, 100));
  capture.append(makeTcpPacket(200, kPair.reversed(), 240, 200));
  const CaptureIndex index(capture);
  for (const auto& [from, to] : std::vector<std::pair<util::SimTimeMs,
                                                      util::SimTimeMs>>{
           {0, 99}, {100, 100}, {100, 200}, {150, 300}, {301, 400}, {0, 400}}) {
    expectSameVolume(capture.streamVolume(kPair, from, to),
                     index.streamVolume(kPair, from, to),
                     "window [" + std::to_string(from) + "," +
                         std::to_string(to) + "]");
  }
}

// The property the whole attribution stage rests on: on arbitrary captures
// the index answers every query exactly like the naive scan, including
// window edges, both orientations, DNS/UDP packets, and pairs that collide
// after normalization.
TEST(CaptureIndexTest, PropertyRandomCapturesMatchNaiveScan) {
  util::Rng rng(20260805);
  for (int round = 0; round < 25; ++round) {
    // A small endpoint pool forces connection collisions and revisits.
    std::vector<SockEndpoint> endpoints;
    for (int e = 0; e < 6; ++e)
      endpoints.push_back({Ipv4Addr(static_cast<std::uint32_t>(
                               0x0a000000 + rng.uniform(1, 4))),
                           static_cast<std::uint16_t>(rng.uniform(1, 5))});

    const auto randomPair = [&] {
      return SocketPair{rng.pick(endpoints), rng.pick(endpoints)};
    };

    CaptureFile capture;
    const std::size_t packetCount = rng.uniform(0, 120);
    for (std::size_t i = 0; i < packetCount; ++i) {
      const auto ts = rng.uniform(0, 50);  // dense: many equal timestamps
      const auto wire = static_cast<std::uint32_t>(rng.uniform(40, 1500));
      const auto payload =
          rng.chance(0.3) ? 0u : static_cast<std::uint32_t>(rng.uniform(1, wire));
      if (rng.chance(0.2)) {
        capture.append(makeUdpPacket(ts, randomPair(), wire, payload, "q.example",
                                     Ipv4Addr(1, 2, 3, 4)));
      } else {
        capture.append(makeTcpPacket(ts, randomPair(), wire, payload));
      }
    }

    const CaptureIndex index(capture);
    EXPECT_EQ(index.packetCount(), capture.size());

    for (int q = 0; q < 60; ++q) {
      const SocketPair pair = randomPair();
      // Random windows, biased to hit edges: from > to, from == to, and
      // full-range all occur.
      util::SimTimeMs from = rng.uniform(0, 55);
      util::SimTimeMs to = rng.uniform(0, 55);
      if (rng.chance(0.2)) to = from;
      if (rng.chance(0.1)) {
        from = 0;
        to = 1'000'000;
      }
      expectSameVolume(capture.streamVolume(pair, from, to),
                       index.streamVolume(pair, from, to),
                       "round " + std::to_string(round) + " query " +
                           std::to_string(q) + " pair " + pair.str());
    }
  }
}

// ---------------------------------------------------------------------------
// RTT axis (§14): first-packet-per-direction timestamps and the derived
// round-trip estimate.
// ---------------------------------------------------------------------------

TEST(CaptureIndexTest, RttIsFirstResponseGapWithinTheWindow) {
  CaptureFile capture;
  capture.append(makeTcpPacket(100, kPair, 140, 100));             // request
  capture.append(makeTcpPacket(127, kPair.reversed(), 540, 500));  // response
  capture.append(makeTcpPacket(130, kPair, 140, 100));
  const CaptureIndex index(capture);
  const auto volume = index.streamVolume(kPair, 0, 1000);
  EXPECT_EQ(volume.firstFromSrcMs, 100u);
  EXPECT_EQ(volume.firstFromDstMs, 127u);
  EXPECT_EQ(volume.rttMs(), 27u);
}

TEST(CaptureIndexTest, RttIsZeroWithoutAResponse) {
  CaptureFile capture;
  capture.append(makeTcpPacket(100, kPair, 140, 100));
  const CaptureIndex index(capture);
  const auto volume = index.streamVolume(kPair, 0, 1000);
  EXPECT_EQ(volume.firstFromSrcMs, 100u);
  EXPECT_EQ(volume.firstFromDstMs, CaptureFile::StreamVolume::kNoTimestamp);
  EXPECT_EQ(volume.rttMs(), 0u);
}

TEST(CaptureIndexTest, RttIsZeroWhenResponsePrecedesRequestInWindow) {
  // A keep-alive window can open mid-stream, catching the tail of the
  // previous response before this request's first packet. A negative gap
  // is not a latency measurement.
  CaptureFile capture;
  capture.append(makeTcpPacket(90, kPair.reversed(), 540, 500));  // stale tail
  capture.append(makeTcpPacket(100, kPair, 140, 100));
  const CaptureIndex index(capture);
  const auto volume = index.streamVolume(kPair, 80, 1000);
  EXPECT_EQ(volume.firstFromDstMs, 90u);
  EXPECT_EQ(volume.rttMs(), 0u);
}

TEST(CaptureIndexTest, RttWindowingMatchesNaiveOnOutOfOrderAppends) {
  // Out-of-order appends leave the index to put the connection in time
  // order; the per-direction first-timestamp scan must still agree with
  // the naive reference on every window.
  CaptureFile capture;
  capture.append(makeTcpPacket(300, kPair.reversed(), 340, 300));
  capture.append(makeTcpPacket(100, kPair, 140, 100));
  capture.append(makeTcpPacket(200, kPair.reversed(), 240, 200));
  capture.append(makeTcpPacket(150, kPair, 40, 0));
  const CaptureIndex index(capture);
  for (util::SimTimeMs from : {0u, 100u, 150u, 151u, 250u})
    for (util::SimTimeMs to : {99u, 150u, 200u, 299u, 400u})
      expectSameVolume(capture.streamVolume(kPair, from, to),
                       index.streamVolume(kPair, from, to),
                       "out-of-order window [" + std::to_string(from) + "," +
                           std::to_string(to) + "]");
}

TEST(CaptureIndexTest, AnswersFromItsOwnCopyAfterTheCaptureChangesOrDies) {
  // The index copies what it answers from: appending to the capture after
  // the build (enough to move its packets) or destroying it leaves every
  // answer that of the capture as it was built, kept here as a copy.
  auto capture = std::make_unique<CaptureFile>();
  capture->append(makeTcpPacket(100, kPair, 140, 100));
  capture->append(makeTcpPacket(127, kPair.reversed(), 540, 500));
  capture->append(makeTcpPacket(90, kPair, 40, 0));  // out of order
  capture->append(makeUdpPacket(95, kPair, 80, 52));
  const CaptureFile kept = *capture;
  const CaptureIndex index(*capture);

  const auto expectAnswersOfKept = [&](const std::string& context) {
    EXPECT_EQ(index.packetCount(), kept.size()) << context;
    EXPECT_EQ(index.connectionCount(), 1u) << context;
    EXPECT_EQ(index.totalTcpPayload(), kept.totalTcpPayloadBytes()) << context;
    for (const SocketPair& pair : {kPair, kPair.reversed()})
      for (util::SimTimeMs from : {0u, 95u, 101u})
        for (util::SimTimeMs to : {99u, 127u, 1000u})
          expectSameVolume(kept.streamVolume(pair, from, to),
                           index.streamVolume(pair, from, to),
                           context + " window [" + std::to_string(from) + "," +
                               std::to_string(to) + "] pair " + pair.str());
  };
  for (util::SimTimeMs ts = 0; ts < 1000; ++ts)
    capture->append(makeTcpPacket(ts, kPair, 1540, 1500));
  expectAnswersOfKept("after appends");
  capture.reset();
  expectAnswersOfKept("after the capture died");
}

// ---------------------------------------------------------------------------
// Keep-alive request windows (§14): consecutive windows over one socket
// partition the capture exactly — every payload byte lands in exactly one
// logical request, whatever the segmentation looks like.
// ---------------------------------------------------------------------------

/// Sum per-direction payload over consecutive windows split at
/// `boundaries` (each boundary starts a new window) and check the totals
/// against the whole-capture scan.
void expectWindowsPartition(const CaptureFile& capture,
                            const std::vector<util::SimTimeMs>& boundaries,
                            const std::string& context) {
  const CaptureIndex index(capture);
  std::uint64_t paySrc = 0, payDst = 0;
  std::size_t packets = 0;
  for (std::size_t k = 0; k < boundaries.size(); ++k) {
    const util::SimTimeMs from = boundaries[k];
    const util::SimTimeMs to = k + 1 < boundaries.size()
                                   ? boundaries[k + 1] - 1
                                   : ~util::SimTimeMs{0};
    const auto volume = index.streamVolume(kPair, from, to);
    paySrc += volume.payloadFromSrc;
    payDst += volume.payloadFromDst;
    packets += volume.packetCount;
  }
  const auto whole = capture.streamVolume(kPair, 0, ~util::SimTimeMs{0});
  EXPECT_EQ(paySrc, whole.payloadFromSrc) << context;
  EXPECT_EQ(payDst, whole.payloadFromDst) << context;
  EXPECT_EQ(packets, whole.packetCount) << context;
  EXPECT_EQ(paySrc + payDst, capture.totalTcpPayloadBytes()) << context;
}

TEST(CaptureIndexTest, KeepAliveWindowsPartitionAtASegmentSplit) {
  // The second request's boundary lands exactly between two segments of
  // the same burst: the earlier segment must count for request 0, the
  // later (timestamp == boundary) for request 1 — never both, never
  // neither.
  CaptureFile capture;
  capture.append(makeTcpPacket(100, kPair, 640, 600));
  capture.append(makeTcpPacket(199, kPair, 940, 900));             // last of req 0
  capture.append(makeTcpPacket(200, kPair, 340, 300));             // first of req 1
  capture.append(makeTcpPacket(210, kPair.reversed(), 1540, 1500));
  expectWindowsPartition(capture, {0, 200}, "segment split");

  const CaptureIndex index(capture);
  EXPECT_EQ(index.streamVolume(kPair, 0, 199).payloadFromSrc, 1500u);
  EXPECT_EQ(index.streamVolume(kPair, 200, ~util::SimTimeMs{0}).payloadFromSrc,
            300u);
}

TEST(CaptureIndexTest, ZeroByteRequestWindowsAreEmptyNotWrong) {
  // A logical request that transferred nothing (cache hit) still owns a
  // window; it must contribute zero, and its neighbours must be unaffected.
  CaptureFile capture;
  capture.append(makeTcpPacket(100, kPair, 240, 200));
  capture.append(makeTcpPacket(110, kPair.reversed(), 840, 800));
  // [300, 499] is request 1's window: silent.
  capture.append(makeTcpPacket(500, kPair, 340, 300));
  expectWindowsPartition(capture, {0, 300, 500}, "zero-byte request");
  const CaptureIndex index(capture);
  const auto empty = index.streamVolume(kPair, 300, 499);
  EXPECT_EQ(empty.packetCount, 0u);
  EXPECT_EQ(empty.rttMs(), 0u);
}

TEST(CaptureIndexTest, InterleavedResponsesStayConserved) {
  // A slow response to request 0 arrives after request 1 opened. Windows
  // split by time, so the late bytes land in request 1's window — the
  // partition invariant (no loss, no double count) is what holds.
  CaptureFile capture;
  capture.append(makeTcpPacket(100, kPair, 240, 200));              // req 0
  capture.append(makeTcpPacket(300, kPair, 440, 400));              // req 1
  capture.append(makeTcpPacket(310, kPair.reversed(), 1040, 1000)); // late resp 0
  capture.append(makeTcpPacket(320, kPair.reversed(), 2040, 2000)); // resp 1
  expectWindowsPartition(capture, {0, 300}, "interleaved responses");
}

TEST(CaptureIndexTest, FinMidRequestAddsNoPayload) {
  // A FIN (header-only) inside a request window counts as a packet and
  // wire bytes but never as data transfer.
  CaptureFile capture;
  capture.append(makeTcpPacket(100, kPair, 240, 200));
  capture.append(makeTcpPacket(150, kPair, 40, 0));  // FIN
  capture.append(makeTcpPacket(160, kPair.reversed(), 40, 0));  // FIN-ACK
  capture.append(makeTcpPacket(200, kPair.reversed(), 540, 500));
  expectWindowsPartition(capture, {0, 180}, "fin mid-request");
  const CaptureIndex index(capture);
  const auto volume = index.streamVolume(kPair, 0, 180);
  EXPECT_EQ(volume.payloadFromSrc, 200u);
  EXPECT_EQ(volume.payloadFromDst, 0u);
  EXPECT_EQ(volume.bytesFromSrc, 280u);  // wire bytes do include the FIN
  EXPECT_EQ(volume.packetCount, 3u);
}

}  // namespace
}  // namespace libspector::net
