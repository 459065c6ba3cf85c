#include "core/artifacts.hpp"

#include "util/bytes.hpp"

namespace libspector::core {

namespace {
constexpr std::uint32_t kMagic = 0x54524153;  // "SART"
// v2 appends reportsEmitted (the sender-side report count behind the
// ingest tier's loss accounting); v3 appends the request-boundary records
// of the keep-alive scenario. A bundle is written at the lowest version
// that can carry it, so both are read. v1 never reached an envelope (the
// envelope postdates v2) and is rejected.
constexpr std::uint16_t kMinVersion = 2;
constexpr std::uint16_t kVersion = 3;

constexpr std::uint32_t kEnvelopeMagic = 0x42415053;  // "SPAB"
}  // namespace

std::vector<std::uint8_t> RunArtifacts::serialize() const {
  util::ByteWriter w;
  w.u32(kMagic);
  // Lowest version that can carry the bundle: scenario-off runs have no
  // boundaries and keep emitting the exact v2 bytes.
  w.u16(requestBoundaries.empty() ? kMinVersion : kVersion);
  w.str(apkSha256);
  w.str(packageName);
  w.str(appCategory);

  const auto captureBytes = capture.serialize();
  w.u32(util::checkedU32(captureBytes.size(), "RunArtifacts: capture"));
  w.raw(captureBytes);

  w.u32(util::checkedU32(reports.size(), "RunArtifacts: report count"));
  for (const auto& report : reports) {
    const auto datagram = report.encode();
    w.u32(util::checkedU32(datagram.size(), "RunArtifacts: report"));
    w.raw(datagram);
  }

  w.u32(util::checkedU32(methodTraceFile.size(), "RunArtifacts: trace count"));
  for (const auto& entry : methodTraceFile) w.str(entry);

  w.u64(coverage.coveredMethods);
  w.u64(coverage.totalMethods);
  w.u64(coverage.traceEntries);
  w.u32(monkeyEventsInjected);
  w.u64(runDurationMs);
  w.u64(reportsEmitted);
  if (!requestBoundaries.empty()) {
    w.u32(util::checkedU32(requestBoundaries.size(),
                           "RunArtifacts: boundary count"));
    for (const auto& boundary : requestBoundaries) {
      w.u64(boundary.socketId);
      w.u32(boundary.ordinal);
      w.u64(boundary.timestampMs);
    }
  }
  return w.take();
}

RunArtifacts RunArtifacts::deserialize(std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  if (r.u32() != kMagic) throw util::DecodeError("RunArtifacts: bad magic");
  const std::uint16_t version = r.u16();
  if (version < kMinVersion || version > kVersion)
    throw util::DecodeError("RunArtifacts: unsupported version");

  RunArtifacts artifacts;
  artifacts.apkSha256 = r.str();
  artifacts.packageName = r.str();
  artifacts.appCategory = r.str();

  const std::uint32_t captureSize = r.u32();
  artifacts.capture = net::CaptureFile::deserialize(r.view(captureSize));

  const std::uint32_t reportCount = r.countCheck(r.u32(), 4);
  artifacts.reports.reserve(reportCount);
  for (std::uint32_t i = 0; i < reportCount; ++i) {
    const std::uint32_t size = r.u32();
    artifacts.reports.push_back(UdpReport::decode(r.view(size)));
  }

  const std::uint32_t traceCount = r.countCheck(r.u32(), 4);
  artifacts.methodTraceFile.reserve(traceCount);
  for (std::uint32_t i = 0; i < traceCount; ++i)
    artifacts.methodTraceFile.push_back(r.str());

  artifacts.coverage.coveredMethods = r.u64();
  artifacts.coverage.totalMethods = r.u64();
  artifacts.coverage.traceEntries = r.u64();
  artifacts.monkeyEventsInjected = r.u32();
  artifacts.runDurationMs = r.u64();
  artifacts.reportsEmitted = r.u64();
  if (version >= 3) {
    const std::uint32_t boundaryCount = r.countCheck(r.u32(), 20);
    artifacts.requestBoundaries.reserve(boundaryCount);
    for (std::uint32_t i = 0; i < boundaryCount; ++i) {
      RequestBoundary boundary;
      boundary.socketId = r.u64();
      boundary.ordinal = r.u32();
      boundary.timestampMs = r.u64();
      artifacts.requestBoundaries.push_back(boundary);
    }
  }
  if (!r.atEnd()) throw util::DecodeError("RunArtifacts: trailing bytes");
  return artifacts;
}

ApkLossAccount ApkLossAccount::fromArtifacts(const RunArtifacts& a) {
  ApkLossAccount account;
  account.reportsEmitted = a.reportsEmitted;
  account.framesDelivered = a.reports.size();
  account.uniqueDelivered = a.reports.size();
  account.lost = account.reportsEmitted > account.uniqueDelivered
                     ? account.reportsEmitted - account.uniqueDelivered
                     : 0;
  return account;
}

std::vector<std::uint8_t> SpabEnvelope::encode(std::uint64_t jobIndex,
                                               const ApkLossAccount& account,
                                               const RunArtifacts& artifacts) {
  util::ByteWriter body;
  body.u64(jobIndex);
  body.u64(account.reportsEmitted);
  body.u64(account.framesDelivered);
  body.u64(account.uniqueDelivered);
  body.u64(account.duplicated);
  body.u64(account.outOfOrder);
  body.u64(account.lost);
  const auto payload = artifacts.serialize();
  body.u64(payload.size());
  body.raw(payload);

  util::ByteWriter w;
  w.u32(kEnvelopeMagic);
  w.u16(kVersion);
  w.u32(util::crc32(body.data()));
  w.raw(body.data());
  return w.take();
}

SpabEnvelope SpabEnvelope::decode(std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  if (r.u32() != kEnvelopeMagic)
    throw util::DecodeError("SpabEnvelope: bad magic");
  if (r.u16() != kVersion)
    throw util::DecodeError("SpabEnvelope: unsupported version");
  const std::uint32_t checksum = r.u32();
  if (util::crc32(bytes.subspan(4 + 2 + 4)) != checksum)
    throw util::DecodeError("SpabEnvelope: checksum mismatch");

  SpabEnvelope envelope;
  envelope.jobIndex = r.u64();
  envelope.account.reportsEmitted = r.u64();
  envelope.account.framesDelivered = r.u64();
  envelope.account.uniqueDelivered = r.u64();
  envelope.account.duplicated = r.u64();
  envelope.account.outOfOrder = r.u64();
  envelope.account.lost = r.u64();
  const std::uint64_t payloadSize = r.u64();
  if (payloadSize != r.remaining())
    throw util::DecodeError("SpabEnvelope: payload length mismatch");
  envelope.artifacts =
      RunArtifacts::deserialize(r.view(static_cast<std::size_t>(payloadSize)));
  return envelope;
}

}  // namespace libspector::core
