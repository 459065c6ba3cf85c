#include "spectord/protocol.hpp"

#include <cstring>

#include "util/bytes.hpp"

namespace libspector::spectord {

namespace {

// 'S' 'P' 'C' 'D' little-endian, distinct from the report-frame and spab
// magics so a misdirected stream is rejected instead of half-parsed.
constexpr std::uint32_t kMagic = 0x44435053u;
constexpr std::uint8_t kVersion = 1;
// magic u32 | version u8 | type u8 | crc32 u32 | length u32
constexpr std::size_t kHeaderSize = FrameParser::kHeaderSize;

std::uint32_t readU32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

bool validFrameType(std::uint8_t type) noexcept {
  return type >= static_cast<std::uint8_t>(FrameType::Hello) &&
         type <= static_cast<std::uint8_t>(FrameType::Error);
}

void writeAccount(util::ByteWriter& w, const core::ApkLossAccount& a) {
  w.u64(a.reportsEmitted);
  w.u64(a.framesDelivered);
  w.u64(a.uniqueDelivered);
  w.u64(a.duplicated);
  w.u64(a.outOfOrder);
  w.u64(a.lost);
}

core::ApkLossAccount readAccount(util::ByteReader& r) {
  core::ApkLossAccount a;
  a.reportsEmitted = r.u64();
  a.framesDelivered = r.u64();
  a.uniqueDelivered = r.u64();
  a.duplicated = r.u64();
  a.outOfOrder = r.u64();
  a.lost = r.u64();
  return a;
}

void writeStrU64Pairs(
    util::ByteWriter& w,
    const std::vector<std::pair<std::string, std::uint64_t>>& pairs) {
  w.u32(util::checkedU32(pairs.size(), "spectord pair count"));
  for (const auto& [name, value] : pairs) {
    w.str(name);
    w.u64(value);
  }
}

std::vector<std::pair<std::string, std::uint64_t>> readStrU64Pairs(
    util::ByteReader& r) {
  const std::uint32_t n = r.countCheck(r.u32(), 12);  // str len + u64
  std::vector<std::pair<std::string, std::uint64_t>> pairs;
  pairs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name = r.str();
    const std::uint64_t value = r.u64();
    pairs.emplace_back(std::move(name), value);
  }
  return pairs;
}

void writeStrU64Map(
    util::ByteWriter& w,
    const std::map<std::string, std::uint64_t, std::less<>>& map) {
  w.u32(util::checkedU32(map.size(), "spectord map count"));
  for (const auto& [name, value] : map) {
    w.str(name);
    w.u64(value);
  }
}

std::map<std::string, std::uint64_t, std::less<>> readStrU64Map(
    util::ByteReader& r) {
  const std::uint32_t n = r.countCheck(r.u32(), 12);
  std::map<std::string, std::uint64_t, std::less<>> map;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name = r.str();
    const std::uint64_t value = r.u64();
    map.emplace(std::move(name), value);
  }
  return map;
}

}  // namespace

std::vector<std::uint8_t> encodeFrame(FrameType type,
                                      std::span<const std::uint8_t> body) {
  util::ByteWriter w;
  w.u32(kMagic);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(util::crc32(body));
  w.u32(util::checkedU32(body.size(), "spectord frame body"));
  w.raw(body);
  return w.take();
}

void FrameParser::feed(std::span<const std::uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

std::optional<Frame> FrameParser::next() {
  while (true) {
    // Hunt for the magic, counting skipped garbage byte by byte — the
    // stream equivalent of the router dropping a malformed datagram.
    while (buf_.size() - pos_ >= 4 && readU32(buf_.data() + pos_) != kMagic) {
      ++pos_;
      ++garbage_;
    }
    if (buf_.size() - pos_ < kHeaderSize) break;  // partial header

    const std::uint8_t* header = buf_.data() + pos_;
    const std::uint8_t version = header[4];
    const std::uint8_t type = header[5];
    const std::uint32_t crc = readU32(header + 6);
    const std::uint32_t length = readU32(header + 10);

    if (version != kVersion || !validFrameType(type) || length > kMaxBody) {
      // Unusable header: resynchronize just past this magic. The length
      // field cannot be trusted, so skipping the claimed body could skip a
      // real frame.
      ++rejected_;
      pos_ += 4;
      garbage_ += 4;
      continue;
    }
    if (buf_.size() - pos_ < kHeaderSize + length) break;  // partial body

    const std::span<const std::uint8_t> body(header + kHeaderSize, length);
    if (util::crc32(body) != crc) {
      // The header was plausible but the body is torn; the length field is
      // as suspect as the payload, so resync past the magic only.
      ++rejected_;
      pos_ += 4;
      garbage_ += 4;
      continue;
    }

    Frame frame;
    frame.type = static_cast<FrameType>(type);
    frame.body.assign(body.begin(), body.end());
    pos_ += kHeaderSize + length;
    // Compact once the consumed prefix dominates, so the buffer does not
    // grow with the whole session.
    if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
      buf_.erase(buf_.begin(),
                 buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
      pos_ = 0;
    }
    return frame;
  }
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Typed message bodies.
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> HelloMsg::encode() const {
  util::ByteWriter w;
  w.u64(clientId);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(resumeSession);
  return w.take();
}

HelloMsg HelloMsg::decode(std::span<const std::uint8_t> body) {
  util::ByteReader r(body);
  HelloMsg msg;
  msg.clientId = r.u64();
  const std::uint8_t kind = r.u8();
  if (kind < static_cast<std::uint8_t>(ClientKind::Ingest) ||
      kind > static_cast<std::uint8_t>(ClientKind::Admin))
    throw util::DecodeError("spectord Hello: unknown client kind");
  msg.kind = static_cast<ClientKind>(kind);
  msg.resumeSession = r.u64();
  return msg;
}

std::vector<std::uint8_t> HelloAckMsg::encode() const {
  util::ByteWriter w;
  w.u64(session);
  w.u64(ackedFrames);
  w.u8(resumed ? 1 : 0);
  return w.take();
}

HelloAckMsg HelloAckMsg::decode(std::span<const std::uint8_t> body) {
  util::ByteReader r(body);
  HelloAckMsg msg;
  msg.session = r.u64();
  msg.ackedFrames = r.u64();
  msg.resumed = r.u8() != 0;
  return msg;
}

std::vector<std::uint8_t> ReportAckMsg::encode() const {
  util::ByteWriter w;
  w.u64(ackedFrames);
  return w.take();
}

ReportAckMsg ReportAckMsg::decode(std::span<const std::uint8_t> body) {
  util::ByteReader r(body);
  ReportAckMsg msg;
  msg.ackedFrames = r.u64();
  return msg;
}

std::vector<std::uint8_t> RunAckMsg::encode() const {
  util::ByteWriter w;
  w.u64(jobIndex);
  w.u8(accepted ? 1 : 0);
  w.str(reason);
  return w.take();
}

RunAckMsg RunAckMsg::decode(std::span<const std::uint8_t> body) {
  util::ByteReader r(body);
  RunAckMsg msg;
  msg.jobIndex = r.u64();
  msg.accepted = r.u8() != 0;
  msg.reason = r.str();
  return msg;
}

std::vector<std::uint8_t> DeltaMsg::encode() const {
  util::ByteWriter w;
  w.u64(jobIndex);
  w.str(apkSha256);
  w.u8(replayed ? 1 : 0);
  w.u64(flowCount);
  w.u64(attributedBytes);
  w.u64(unattributedBytes);
  writeStrU64Pairs(w, bytesByLibrary);
  writeStrU64Pairs(w, bytesByLibCategory);
  writeAccount(w, account);
  return w.take();
}

DeltaMsg DeltaMsg::decode(std::span<const std::uint8_t> body) {
  util::ByteReader r(body);
  DeltaMsg msg;
  msg.jobIndex = r.u64();
  msg.apkSha256 = r.str();
  msg.replayed = r.u8() != 0;
  msg.flowCount = r.u64();
  msg.attributedBytes = r.u64();
  msg.unattributedBytes = r.u64();
  msg.bytesByLibrary = readStrU64Pairs(r);
  msg.bytesByLibCategory = readStrU64Pairs(r);
  msg.account = readAccount(r);
  return msg;
}

// ---------------------------------------------------------------------------
// Dashboard mirror.
// ---------------------------------------------------------------------------

void DashboardMirror::applyDelta(const DeltaMsg& delta) {
  totals.flowCount += delta.flowCount;
  totals.attributedBytes += delta.attributedBytes;
  totals.unattributedBytes += delta.unattributedBytes;
  for (const auto& [lib, bytes] : delta.bytesByLibrary)
    totals.bytesByLibrary[lib] += bytes;
  for (const auto& [cat, bytes] : delta.bytesByLibCategory)
    totals.bytesByLibCategory[cat] += bytes;
  totals.bytesByApp[delta.apkSha256] += delta.attributedBytes;
  accounts[delta.apkSha256] = delta.account;
  ++runsFolded;
  reportsDelivered += delta.account.uniqueDelivered;
  reportsLost += delta.account.lost;
}

std::vector<std::uint8_t> DashboardMirror::encode() const {
  util::ByteWriter w;
  w.u64(runsFolded);
  w.u64(expectedRuns);
  w.u64(reportsDelivered);
  w.u64(reportsLost);
  w.u64(totals.flowCount);
  w.u64(totals.attributedBytes);
  w.u64(totals.unattributedBytes);
  writeStrU64Map(w, totals.bytesByLibrary);
  writeStrU64Map(w, totals.bytesByLibCategory);
  writeStrU64Map(w, totals.bytesByApp);
  w.u32(util::checkedU32(accounts.size(), "spectord loss accounts"));
  for (const auto& [sha, account] : accounts) {
    w.str(sha);
    writeAccount(w, account);
  }
  return w.take();
}

DashboardMirror DashboardMirror::decode(std::span<const std::uint8_t> body) {
  util::ByteReader r(body);
  DashboardMirror mirror;
  mirror.runsFolded = r.u64();
  mirror.expectedRuns = r.u64();
  mirror.reportsDelivered = r.u64();
  mirror.reportsLost = r.u64();
  mirror.totals.flowCount = r.u64();
  mirror.totals.attributedBytes = r.u64();
  mirror.totals.unattributedBytes = r.u64();
  mirror.totals.bytesByLibrary = readStrU64Map(r);
  mirror.totals.bytesByLibCategory = readStrU64Map(r);
  mirror.totals.bytesByApp = readStrU64Map(r);
  const std::uint32_t n = r.countCheck(r.u32(), 4 + 48);  // str len + account
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string sha = r.str();
    mirror.accounts.emplace(std::move(sha), readAccount(r));
  }
  return mirror;
}

std::vector<std::uint8_t> AdminMsg::encode() const {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(op));
  w.str(arg);
  return w.take();
}

AdminMsg AdminMsg::decode(std::span<const std::uint8_t> body) {
  util::ByteReader r(body);
  AdminMsg msg;
  const std::uint8_t op = r.u8();
  if (op < static_cast<std::uint8_t>(AdminOp::Drain) ||
      op > static_cast<std::uint8_t>(AdminOp::Shutdown) ||
      op == 2)  // unassigned (see AdminOp)
    throw util::DecodeError("spectord Admin: unknown op");
  msg.op = static_cast<AdminOp>(op);
  msg.arg = r.str();
  return msg;
}

std::vector<std::uint8_t> AdminAckMsg::encode() const {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(op));
  w.u8(ok ? 1 : 0);
  w.str(info);
  return w.take();
}

AdminAckMsg AdminAckMsg::decode(std::span<const std::uint8_t> body) {
  util::ByteReader r(body);
  AdminAckMsg msg;
  msg.op = static_cast<AdminOp>(r.u8());
  msg.ok = r.u8() != 0;
  msg.info = r.str();
  return msg;
}

std::vector<std::uint8_t> ErrorMsg::encode() const {
  util::ByteWriter w;
  w.u16(code);
  w.str(message);
  return w.take();
}

ErrorMsg ErrorMsg::decode(std::span<const std::uint8_t> body) {
  util::ByteReader r(body);
  ErrorMsg msg;
  msg.code = r.u16();
  msg.message = r.str();
  return msg;
}

std::vector<std::uint8_t> ByeMsg::encode() const {
  util::ByteWriter w;
  w.str(reason);
  return w.take();
}

ByeMsg ByeMsg::decode(std::span<const std::uint8_t> body) {
  util::ByteReader r(body);
  ByeMsg msg;
  msg.reason = r.str();
  return msg;
}

}  // namespace libspector::spectord
