#include "net/capture.hpp"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "util/bytes.hpp"

namespace libspector::net {

namespace {
constexpr std::uint32_t kMagic = 0x50434c53;  // "SLCP"
}

void CaptureFile::append(PacketRecord record) {
  if (record.proto == Proto::Tcp) tcpPayloadBytes_ += record.payloadBytes;
  packets_.push_back(std::move(record));
}

void CaptureFile::appendHttp(HttpExchange exchange) {
  http_.push_back(std::move(exchange));
}

CaptureFile::StreamVolume CaptureFile::streamVolume(const SocketPair& pair,
                                                    util::SimTimeMs fromMs,
                                                    util::SimTimeMs toMs) const {
  StreamVolume volume;
  for (const auto& pkt : packets_) {
    if (pkt.timestampMs < fromMs || pkt.timestampMs > toMs) continue;
    if (!pkt.pair.sameConnection(pair)) continue;
    if (pkt.pair.src == pair.src) {
      volume.bytesFromSrc += pkt.wireBytes;
      volume.payloadFromSrc += pkt.payloadBytes;
      volume.firstFromSrcMs = std::min(volume.firstFromSrcMs, pkt.timestampMs);
    } else {
      volume.bytesFromDst += pkt.wireBytes;
      volume.payloadFromDst += pkt.payloadBytes;
      volume.firstFromDstMs = std::min(volume.firstFromDstMs, pkt.timestampMs);
    }
    ++volume.packetCount;
  }
  return volume;
}

CaptureIndex::CaptureIndex(const CaptureFile& capture)
    : tcpPayload_(capture.totalTcpPayloadBytes()) {
  const auto& packets = capture.packets();
  // Connection ids, and each connection's packet count one slot up, so
  // the prefix sum turns the counts into first-entry offsets.
  std::vector<std::uint32_t> connectionOf(packets.size());
  connectionIds_.reserve(packets.size());
  firsts_.push_back(0);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const auto [it, inserted] = connectionIds_.try_emplace(
        normalizedPair(packets[i].pair),
        static_cast<std::uint32_t>(connectionIds_.size()));
    if (inserted) firsts_.push_back(0);
    connectionOf[i] = it->second;
    ++firsts_[it->second + 1];
  }
  std::partial_sum(firsts_.begin(), firsts_.end(), firsts_.begin());

  // Each connection's packets in capture order...
  std::vector<std::uint32_t> next(firsts_.begin(), std::prev(firsts_.end()));
  entries_.resize(packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const PacketRecord& pkt = packets[i];
    Entry& entry = entries_[next[connectionOf[i]]++];
    entry.timestampMs = pkt.timestampMs;
    entry.forward = pkt.pair.src == normalizedPair(pkt.pair).src;
    entry.through.wire[entry.forward] = pkt.wireBytes;
    entry.through.payload[entry.forward] = pkt.payloadBytes;
  }
  // ...then in time order. Only a connection appended out of time order is
  // sorted, stably, so equal timestamps keep their capture order.
  const auto byTime = [](const Entry& a, const Entry& b) {
    return a.timestampMs < b.timestampMs;
  };
  for (std::size_t c = 0; c + 1 < firsts_.size(); ++c) {
    const auto begin = entries_.begin() + firsts_[c];
    const auto end = entries_.begin() + firsts_[c + 1];
    if (!std::is_sorted(begin, end, byTime))
      std::stable_sort(begin, end, byTime);
  }
  // Running sums over the whole table: the difference of two entries'
  // sums is what the entries after the first, through the second, carry.
  for (std::size_t k = 1; k < entries_.size(); ++k) {
    Sums& sums = entries_[k].through;
    const Sums& before = entries_[k - 1].through;
    for (int direction = 0; direction < 2; ++direction) {
      sums.wire[direction] += before.wire[direction];
      sums.payload[direction] += before.payload[direction];
    }
  }
}

CaptureFile::StreamVolume CaptureIndex::streamVolume(
    const SocketPair& pair, util::SimTimeMs fromMs,
    util::SimTimeMs toMs) const {
  CaptureFile::StreamVolume volume;
  const SocketPair conn = normalizedPair(pair);
  const auto id = connectionIds_.find(conn);
  if (id == connectionIds_.end()) return volume;
  const auto begin = entries_.begin() + firsts_[id->second];
  const auto end = entries_.begin() + firsts_[id->second + 1];
  const auto first =
      std::ranges::lower_bound(begin, end, fromMs, {}, &Entry::timestampMs);
  const auto last =
      std::ranges::upper_bound(first, end, toMs, {}, &Entry::timestampMs);
  if (first == last) return volume;

  const Sums& through = std::prev(last)->through;
  const Sums before =
      first == entries_.begin() ? Sums{} : std::prev(first)->through;
  // First packet per direction: a short forward scan from the range
  // start, done the moment both directions have been seen. In time order
  // the first hit per direction is the minimum, matching the naive scan.
  constexpr util::SimTimeMs kNone = CaptureFile::StreamVolume::kNoTimestamp;
  util::SimTimeMs firstOf[2] = {kNone, kNone};
  for (auto it = first; it != last; ++it) {
    if (firstOf[it->forward] == kNone) firstOf[it->forward] = it->timestampMs;
    if (firstOf[false] != kNone && firstOf[true] != kNone) break;
  }

  // "Forward" is relative to the normalized orientation; the caller's src
  // may be either end. Mirror exactly the naive scan's direction test
  // (pkt.pair.src == pair.src), under which a src == dst pair counts every
  // packet as sent by src.
  const bool srcForward = pair.src == conn.src;
  volume.bytesFromSrc = through.wire[srcForward] - before.wire[srcForward];
  volume.bytesFromDst = through.wire[!srcForward] - before.wire[!srcForward];
  volume.payloadFromSrc =
      through.payload[srcForward] - before.payload[srcForward];
  volume.payloadFromDst =
      through.payload[!srcForward] - before.payload[!srcForward];
  volume.firstFromSrcMs = firstOf[srcForward];
  volume.firstFromDstMs = firstOf[!srcForward];
  volume.packetCount = static_cast<std::size_t>(last - first);
  return volume;
}

std::uint64_t CaptureFile::totalWireBytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& pkt : packets_) total += pkt.wireBytes;
  return total;
}

std::vector<std::uint8_t> CaptureFile::serialize() const {
  util::ByteWriter w;
  w.u32(kMagic);
  w.u32(static_cast<std::uint32_t>(packets_.size()));
  for (const auto& pkt : packets_) {
    w.u64(pkt.timestampMs);
    w.u8(static_cast<std::uint8_t>(pkt.proto));
    w.u32(pkt.pair.src.ip.value());
    w.u16(pkt.pair.src.port);
    w.u32(pkt.pair.dst.ip.value());
    w.u16(pkt.pair.dst.port);
    w.u32(pkt.wireBytes);
    w.u32(pkt.payloadBytes);
    w.str(pkt.dnsQname);
    w.u32(pkt.dnsAnswer.value());
  }
  w.u32(static_cast<std::uint32_t>(http_.size()));
  for (const auto& exchange : http_) {
    w.u64(exchange.timestampMs);
    w.u32(exchange.pair.src.ip.value());
    w.u16(exchange.pair.src.port);
    w.u32(exchange.pair.dst.ip.value());
    w.u16(exchange.pair.dst.port);
    w.str(exchange.host);
    w.str(exchange.path);
    w.str(exchange.userAgent);
    w.u8(exchange.post ? 1 : 0);
  }
  return w.take();
}

CaptureFile CaptureFile::deserialize(std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  if (r.u32() != kMagic) throw util::DecodeError("CaptureFile: bad magic");
  // Each packet record occupies at least 37 bytes on the wire.
  const std::uint32_t count = r.countCheck(r.u32(), 37);
  CaptureFile capture;
  capture.packets_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    PacketRecord pkt;
    pkt.timestampMs = r.u64();
    const std::uint8_t proto = r.u8();
    if (proto != static_cast<std::uint8_t>(Proto::Tcp) &&
        proto != static_cast<std::uint8_t>(Proto::Udp))
      throw util::DecodeError("CaptureFile: unknown protocol");
    pkt.proto = static_cast<Proto>(proto);
    pkt.pair.src.ip = Ipv4Addr(r.u32());
    pkt.pair.src.port = r.u16();
    pkt.pair.dst.ip = Ipv4Addr(r.u32());
    pkt.pair.dst.port = r.u16();
    pkt.wireBytes = r.u32();
    pkt.payloadBytes = r.u32();
    pkt.dnsQname = r.str();
    pkt.dnsAnswer = Ipv4Addr(r.u32());
    capture.append(std::move(pkt));
  }
  // Each HTTP exchange record occupies at least 33 bytes.
  const std::uint32_t httpCount = r.countCheck(r.u32(), 33);
  capture.http_.reserve(httpCount);
  for (std::uint32_t i = 0; i < httpCount; ++i) {
    HttpExchange exchange;
    exchange.timestampMs = r.u64();
    exchange.pair.src.ip = Ipv4Addr(r.u32());
    exchange.pair.src.port = r.u16();
    exchange.pair.dst.ip = Ipv4Addr(r.u32());
    exchange.pair.dst.port = r.u16();
    exchange.host = r.str();
    exchange.path = r.str();
    exchange.userAgent = r.str();
    exchange.post = r.u8() != 0;
    capture.http_.push_back(std::move(exchange));
  }
  if (!r.atEnd()) throw util::DecodeError("CaptureFile: trailing bytes");
  return capture;
}

}  // namespace libspector::net
