// Packet capture (the tcpdump/pcap role, paper §II-B3).
//
// Every worker records all traffic of its emulator into a CaptureFile which
// is shipped to the central database and traversed offline to compute data
// transfer sizes per socket (paper §III-E).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/ip.hpp"
#include "util/clock.hpp"

namespace libspector::net {

enum class Proto : std::uint8_t { Tcp = 6, Udp = 17 };

/// One captured packet. `pair` is oriented sender -> receiver; `wireBytes`
/// is the on-the-wire size including the 40-byte IPv4+TCP/UDP header
/// estimate (a pure ACK or SYN is 40 bytes, a full segment 1500).
struct PacketRecord {
  util::SimTimeMs timestampMs = 0;
  Proto proto = Proto::Tcp;
  SocketPair pair;
  std::uint32_t wireBytes = 0;
  std::uint32_t payloadBytes = 0;
  /// DNS payload visible in the capture (what a real pcap dissector would
  /// extract): query name, and for responses the answered address
  /// (0.0.0.0 for NXDOMAIN). Empty/zero on non-DNS packets.
  std::string dnsQname;
  Ipv4Addr dnsAnswer;

  [[nodiscard]] bool isDns() const noexcept { return !dnsQname.empty(); }
  [[nodiscard]] bool operator==(const PacketRecord&) const = default;
};

/// Factories keeping call sites explicit about which fields matter.
[[nodiscard]] inline PacketRecord makeTcpPacket(util::SimTimeMs ts,
                                                const SocketPair& pair,
                                                std::uint32_t wireBytes,
                                                std::uint32_t payloadBytes) {
  return {ts, Proto::Tcp, pair, wireBytes, payloadBytes, {}, {}};
}

[[nodiscard]] inline PacketRecord makeUdpPacket(util::SimTimeMs ts,
                                                const SocketPair& pair,
                                                std::uint32_t wireBytes,
                                                std::uint32_t payloadBytes,
                                                std::string dnsQname = {},
                                                Ipv4Addr dnsAnswer = {}) {
  return {ts,           Proto::Udp,  pair,     wireBytes,
          payloadBytes, std::move(dnsQname), dnsAnswer};
}

/// One HTTP request/response exchange as a payload dissector (DPI over the
/// capture) would reconstruct it: the network-visible identifiers prior
/// work classified traffic by (Xu et al. and Maier et al. used the
/// User-Agent header, Tongaonkar et al. the hostname).
struct HttpExchange {
  util::SimTimeMs timestampMs = 0;
  SocketPair pair;  // device endpoint first
  std::string host;
  std::string path;
  std::string userAgent;
  bool post = false;

  [[nodiscard]] bool operator==(const HttpExchange&) const = default;
};

/// The lexicographically smaller of the two orientations of `pair`, so a
/// stream's packets and queries from either end share one key.
[[nodiscard]] inline SocketPair normalizedPair(const SocketPair& pair) noexcept {
  return pair.reversed() < pair ? pair.reversed() : pair;
}

/// Append-only capture with pcap-like binary (de)serialization: the
/// packets, the dissected HTTP exchanges and the running TCP payload total,
/// nothing derived beyond that. CaptureIndex builds the per-connection
/// lookup the offline join needs.
class CaptureFile {
 public:
  void append(PacketRecord record);

  /// Record a dissected HTTP exchange (kept alongside the raw packets, as
  /// a DPI pass over the pcap would produce).
  void appendHttp(HttpExchange exchange);
  [[nodiscard]] const std::vector<HttpExchange>& httpExchanges() const noexcept {
    return http_;
  }

  [[nodiscard]] const std::vector<PacketRecord>& packets() const noexcept {
    return packets_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return packets_.size(); }

  /// Byte sums of all packets matching `pair` in either direction whose
  /// timestamp lies in [fromMs, toMs]. Payload sums exclude header-only
  /// packets (SYN/ACK/FIN), which is what "data transfer" means in the
  /// paper's volume analysis; wire sums include them.
  struct StreamVolume {
    /// Sentinel for the first-packet timestamps: no matching packet in the
    /// queried range for that direction.
    static constexpr util::SimTimeMs kNoTimestamp = ~util::SimTimeMs{0};

    std::uint64_t bytesFromSrc = 0;     // wire bytes sent by pair.src
    std::uint64_t bytesFromDst = 0;     // wire bytes sent by pair.dst
    std::uint64_t payloadFromSrc = 0;   // payload bytes sent by pair.src
    std::uint64_t payloadFromDst = 0;   // payload bytes sent by pair.dst
    std::size_t packetCount = 0;
    /// Earliest matching packet per direction (kNoTimestamp when none):
    /// the per-flow RTT axis reads firstFromDstMs - firstFromSrcMs as the
    /// request->first-response latency visible in the capture.
    util::SimTimeMs firstFromSrcMs = kNoTimestamp;
    util::SimTimeMs firstFromDstMs = kNoTimestamp;

    /// The capture-derived round-trip estimate, or 0 when either direction
    /// is silent in the range (a flow with no response has no RTT sample).
    [[nodiscard]] util::SimTimeMs rttMs() const noexcept {
      if (firstFromSrcMs == kNoTimestamp || firstFromDstMs == kNoTimestamp ||
          firstFromDstMs < firstFromSrcMs)
        return 0;
      return firstFromDstMs - firstFromSrcMs;
    }
  };
  /// Reference implementation: one full scan over the capture per query,
  /// O(packets). CaptureIndex answers the same query in O(log packets);
  /// the two must agree exactly (see the capture_index property tests).
  [[nodiscard]] StreamVolume streamVolume(const SocketPair& pair,
                                          util::SimTimeMs fromMs,
                                          util::SimTimeMs toMs) const;

  [[nodiscard]] std::uint64_t totalWireBytes() const noexcept;

  /// Sum of TCP payload bytes over the whole capture, kept on append, so
  /// the per-run unattributed-traffic accounting reads it without a scan.
  [[nodiscard]] std::uint64_t totalTcpPayloadBytes() const noexcept {
    return tcpPayloadBytes_;
  }

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  /// Throws util::DecodeError on a bad magic, truncation, trailing bytes or
  /// a protocol byte other than TCP (6) or UDP (17).
  [[nodiscard]] static CaptureFile deserialize(std::span<const std::uint8_t> bytes);

  [[nodiscard]] bool operator==(const CaptureFile& other) const noexcept {
    // The payload total is derived from packets_ on append.
    return packets_ == other.packets_ && http_ == other.http_;
  }

 private:
  std::vector<PacketRecord> packets_;
  std::vector<HttpExchange> http_;
  std::uint64_t tcpPayloadBytes_ = 0;
};

/// Query accelerator for one capture, built in one pass and owning its
/// data: the index copies what it answers from, so the capture may be
/// appended to or destroyed afterwards without changing an answer.
///
/// The build groups the packets by *normalized* connection (the socket
/// pair in a canonical orientation, so both directions of a stream share a
/// group) into one flat table, a connection's packets contiguous and in
/// time order, and keeps running per-direction wire and payload sums over
/// the table. A streamVolume query is a hash probe for the connection, two
/// binary searches for the window's ends, a subtraction of the sums and a
/// scan for the first packet per direction that stops once both are seen:
/// O(log P) against the naive O(P), which turns the offline attribution of
/// a run from O(flows x packets) into O((flows + packets) log P).
class CaptureIndex {
 public:
  explicit CaptureIndex(const CaptureFile& capture);

  /// Exactly CaptureFile::streamVolume, answered from the index.
  [[nodiscard]] CaptureFile::StreamVolume streamVolume(
      const SocketPair& pair, util::SimTimeMs fromMs,
      util::SimTimeMs toMs) const;

  [[nodiscard]] std::size_t connectionCount() const noexcept {
    return connectionIds_.size();
  }
  [[nodiscard]] std::size_t packetCount() const noexcept {
    return entries_.size();
  }

  /// Sum of TCP payload bytes over the indexed capture (matches
  /// CaptureFile::totalTcpPayloadBytes()).
  [[nodiscard]] std::uint64_t totalTcpPayload() const noexcept {
    return tcpPayload_;
  }

 private:
  /// Byte sums per direction, indexed by Entry::forward.
  struct Sums {
    std::uint64_t wire[2] = {};
    std::uint64_t payload[2] = {};
  };
  /// One packet: `forward` when sent by the normalized orientation's src,
  /// and the running sums over every entry of the table up to and
  /// including it.
  struct Entry {
    util::SimTimeMs timestampMs = 0;
    bool forward = false;
    Sums through;
  };

  /// Normalized pair -> connection id, dense in first-seen order.
  std::unordered_map<SocketPair, std::uint32_t> connectionIds_;
  /// Connection c's entries are [firsts_[c], firsts_[c + 1]).
  std::vector<std::uint32_t> firsts_;
  std::vector<Entry> entries_;
  std::uint64_t tcpPayload_ = 0;
};

}  // namespace libspector::net
