#include "core/report.hpp"

#include "util/bytes.hpp"

namespace libspector::core {

namespace {
constexpr std::uint32_t kMagic = 0x52505355;       // "USPR"
constexpr std::uint32_t kFrameMagic = 0x4652534C;  // "LSRF"

/// Shared prefix validation for decode() and peek(): checks magic, version
/// and checksum, then positions a reader at the body start.
util::ByteReader openFrameBody(std::span<const std::uint8_t> datagram) {
  util::ByteReader r(datagram);
  if (r.u32() != kFrameMagic) throw util::DecodeError("ReportFrame: bad magic");
  if (r.u8() != ReportFrame::kVersion)
    throw util::DecodeError("ReportFrame: unsupported version");
  const std::uint32_t checksum = r.u32();
  const std::span<const std::uint8_t> body = datagram.subspan(4 + 1 + 4);
  if (util::crc32(body) != checksum)
    throw util::DecodeError("ReportFrame: checksum mismatch");
  return r;
}

}  // namespace

std::vector<std::uint8_t> UdpReport::encode() const {
  util::ByteWriter w;
  w.u32(kMagic);
  w.str(apkSha256);
  w.u32(socketPair.src.ip.value());
  w.u16(socketPair.src.port);
  w.u32(socketPair.dst.ip.value());
  w.u16(socketPair.dst.port);
  w.u64(timestampMs);
  w.u32(static_cast<std::uint32_t>(stackSignatures.size()));
  for (const auto& signature : stackSignatures) w.str(signature);
  // Optional trailing field: a zero ordinal (every report outside the
  // keep-alive scenario) keeps the legacy encoding byte for byte.
  if (requestOrdinal != 0) w.u32(requestOrdinal);
  return w.take();
}

UdpReport UdpReport::decode(std::span<const std::uint8_t> record) {
  util::ByteReader r(record);
  if (r.u32() != kMagic) throw util::DecodeError("UdpReport: bad magic");
  UdpReport report;
  report.apkSha256 = r.str();
  report.socketPair.src.ip = net::Ipv4Addr(r.u32());
  report.socketPair.src.port = r.u16();
  report.socketPair.dst.ip = net::Ipv4Addr(r.u32());
  report.socketPair.dst.port = r.u16();
  report.timestampMs = r.u64();
  const std::uint32_t frames = r.countCheck(r.u32(), 4);
  report.stackSignatures.reserve(frames);
  for (std::uint32_t i = 0; i < frames; ++i)
    report.stackSignatures.push_back(r.str());
  if (!r.atEnd()) report.requestOrdinal = r.u32();
  if (!r.atEnd()) throw util::DecodeError("UdpReport: trailing bytes");
  return report;
}

std::vector<std::uint8_t> ReportFrame::encode() const {
  util::ByteWriter body;
  body.u32(workerId);
  body.u64(sequence);
  body.u64(util::fnv1a64(apkSha256));
  body.u32(util::checkedU32(defs.size(), "ReportFrame: defs"));
  for (const auto& [id, signature] : defs) {
    body.u32(id);
    body.str(signature);
  }
  body.str(apkSha256);
  body.u32(socketPair.src.ip.value());
  body.u16(socketPair.src.port);
  body.u32(socketPair.dst.ip.value());
  body.u16(socketPair.dst.port);
  body.u64(timestampMs);
  body.u32(util::checkedU32(signatureIds.size(), "ReportFrame: frames"));
  for (const std::uint32_t id : signatureIds) body.u32(id);
  // Optional trailing field (see UdpReport::encode): zero keeps the legacy
  // v3 bytes; the crc32 covers it when present.
  if (requestOrdinal != 0) body.u32(requestOrdinal);

  util::ByteWriter w;
  w.u32(kFrameMagic);
  w.u8(kVersion);
  w.u32(util::crc32(body.data()));
  w.raw(body.data());
  return w.take();
}

ReportFrame ReportFrame::decode(std::span<const std::uint8_t> datagram) {
  util::ByteReader r = openFrameBody(datagram);
  ReportFrame frame;
  frame.workerId = r.u32();
  frame.sequence = r.u64();
  const std::uint64_t shaKey = r.u64();
  const std::uint32_t defCount = r.countCheck(r.u32(), 8);
  frame.defs.reserve(defCount);
  for (std::uint32_t i = 0; i < defCount; ++i) {
    const std::uint32_t id = r.u32();
    frame.defs.emplace_back(id, r.str());
  }
  frame.apkSha256 = r.str();
  frame.socketPair.src.ip = net::Ipv4Addr(r.u32());
  frame.socketPair.src.port = r.u16();
  frame.socketPair.dst.ip = net::Ipv4Addr(r.u32());
  frame.socketPair.dst.port = r.u16();
  frame.timestampMs = r.u64();
  const std::uint32_t frames = r.countCheck(r.u32(), 4);
  frame.signatureIds.reserve(frames);
  for (std::uint32_t i = 0; i < frames; ++i) frame.signatureIds.push_back(r.u32());
  if (!r.atEnd()) frame.requestOrdinal = r.u32();
  if (!r.atEnd()) throw util::DecodeError("ReportFrame: trailing bytes");
  if (shaKey != util::fnv1a64(frame.apkSha256))
    throw util::DecodeError("ReportFrame: routing key does not match payload");
  return frame;
}

ReportFrame::Header ReportFrame::peek(std::span<const std::uint8_t> datagram) {
  Header header;
  util::ByteReader r = openFrameBody(datagram);
  header.workerId = r.u32();
  header.sequence = r.u64();
  header.shaKey = r.u64();
  return header;
}

std::vector<std::uint8_t> DictFrameEncoder::encode(std::uint64_t sequence,
                                                   const UdpReport& report) {
  ReportFrame frame;
  frame.workerId = workerId_;
  frame.sequence = sequence;
  frame.apkSha256 = report.apkSha256;
  frame.socketPair = report.socketPair;
  frame.timestampMs = report.timestampMs;
  frame.requestOrdinal = report.requestOrdinal;
  frame.signatureIds.reserve(report.stackSignatures.size());
  for (const auto& signature : report.stackSignatures) {
    auto it = ids_.find(std::string_view(signature));
    if (it == ids_.end()) {
      const auto id = static_cast<std::uint32_t>(ids_.size());
      it = ids_.emplace(signature, id).first;
      frame.defs.emplace_back(id, signature);
    }
    frame.signatureIds.push_back(it->second);
  }
  return frame.encode();
}

UdpReport ReportStreamDecoder::decode(std::span<const std::uint8_t> datagram) {
  const ReportFrame frame = ReportFrame::decode(datagram);
  auto& dict = dictByWorker_[frame.workerId];
  for (const auto& [id, signature] : frame.defs) dict[id] = signature;
  UdpReport report;
  report.apkSha256 = frame.apkSha256;
  report.socketPair = frame.socketPair;
  report.timestampMs = frame.timestampMs;
  report.requestOrdinal = frame.requestOrdinal;
  report.stackSignatures.reserve(frame.signatureIds.size());
  for (const std::uint32_t id : frame.signatureIds) {
    const auto it = dict.find(id);
    if (it == dict.end())
      throw util::DecodeError(
          "ReportStreamDecoder: unresolved dictionary id on in-order stream");
    report.stackSignatures.push_back(it->second);
  }
  return report;
}

}  // namespace libspector::core
