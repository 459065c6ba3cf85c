// Everything one app run produces (paper §III-B): the packet capture, the
// Socket Supervisor's UDP reports, the method trace file and coverage, plus
// identifying metadata. Each run's bundle is checkpointed into the study's
// artifact store (orch/recovery.hpp); the offline pipeline reads it back.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "core/report.hpp"
#include "net/capture.hpp"

namespace libspector::core {

struct RunArtifacts {
  std::string apkSha256;
  std::string packageName;
  std::string appCategory;

  net::CaptureFile capture;
  std::vector<UdpReport> reports;
  std::vector<std::string> methodTraceFile;
  CoverageResult coverage;
  /// Keep-alive request boundaries the runtime observed (ordinal >= 1 per
  /// reused socket; empty outside the keep-alive scenario). Serialized as a
  /// version-gated v3 tail: an empty list emits the legacy v2 bytes, so
  /// bundles from scenario-off runs stay byte-identical to the seed.
  std::vector<RequestBoundary> requestBoundaries;

  std::uint32_t monkeyEventsInjected = 0;
  std::uint64_t runDurationMs = 0;
  /// How many reports the Socket Supervisor *sent* during the run (the
  /// reliable side of the loss account: `reports` holds what survived the
  /// best-effort UDP channel, so emitted - delivered = lost in flight).
  std::uint64_t reportsEmitted = 0;

  /// Deterministic binary bundle (what a worker uploads to the central
  /// database and the offline pipeline later reads back). Throws
  /// std::length_error if any field overflows its u32 length prefix —
  /// silent truncation would produce an undecodable bundle.
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  [[nodiscard]] static RunArtifacts deserialize(
      std::span<const std::uint8_t> bytes);
};

/// Exact per-apk delivery account over the best-effort report channel.
/// Computed by the ingest tier as a run finalizes and persisted alongside
/// the bundle, so a crash-recovered study keeps the original loss numbers.
struct ApkLossAccount {
  std::uint64_t reportsEmitted = 0;   // sender-side count (reliable path)
  std::uint64_t framesDelivered = 0;  // frames folded, duplicates included
  std::uint64_t uniqueDelivered = 0;  // distinct (workerId, sequence)
  std::uint64_t duplicated = 0;
  std::uint64_t outOfOrder = 0;
  std::uint64_t lost = 0;             // emitted - uniqueDelivered

  /// Account for a run whose channel history is gone or was never kept:
  /// whatever survived in `reports` counts as delivered.
  [[nodiscard]] static ApkLossAccount fromArtifacts(const RunArtifacts& a);

  [[nodiscard]] bool operator==(const ApkLossAccount&) const = default;
};

/// Crash-safe framing for persisted `.spab` bundles.
///
/// The raw RunArtifacts encoding has no integrity protection of its own: a
/// collector crash mid-write leaves a truncated file, and a flipped bit on
/// disk can decode into a wrong-but-plausible bundle. The envelope reuses
/// the ReportFrame checksum discipline for the artifact store:
///
///   magic (u32) | version (u16) | crc32 (u32) | body
///   body = jobIndex (u64) | loss account (6 × u64)
///        | payloadSize (u64) | payload (RunArtifacts::serialize bytes)
///
/// - `jobIndex` is the run's dispatch index, which is what recovery needs
///   to replay bundles deterministically and re-run only the gaps.
/// - the crc32 covers the whole body, so truncation and bit flips are
///   rejected (quarantined) instead of mis-attributed.
struct SpabEnvelope {
  static constexpr std::uint16_t kVersion = 1;

  std::uint64_t jobIndex = 0;
  ApkLossAccount account;
  RunArtifacts artifacts;

  /// Frame one bundle for disk (static so callers can encode without
  /// copying the artifacts into an envelope first).
  [[nodiscard]] static std::vector<std::uint8_t> encode(
      std::uint64_t jobIndex, const ApkLossAccount& account,
      const RunArtifacts& artifacts);

  /// Validates magic, version, checksum and payload length; throws
  /// util::DecodeError on any corruption or truncation.
  [[nodiscard]] static SpabEnvelope decode(std::span<const std::uint8_t> bytes);
};

}  // namespace libspector::core
