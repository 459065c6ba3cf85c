// The UDP context report (paper §II-B2).
//
// For every unique socket an app creates, the Socket Supervisor emits one
// UDP datagram carrying the apk's sha256 checksum, the socket pair
// parameters, and the translated stack trace (method type signatures,
// innermost frame first).  The offline pipeline joins these reports with
// the packet capture by socket pair.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/ip.hpp"
#include "util/clock.hpp"
#include "util/strings.hpp"

namespace libspector::core {

struct UdpReport {
  std::string apkSha256;              // lowercase hex
  net::SocketPair socketPair;         // device endpoint first
  util::SimTimeMs timestampMs = 0;    // when the socket was connected
  /// Translated stack trace, innermost first. App frames carry full smali
  /// type signatures, framework frames their dotted frame name.
  std::vector<std::string> stackSignatures;
  /// Which logical request on the socket this report describes: 0 for the
  /// connect report (one report per socket, the legacy world), >= 1 for
  /// each keep-alive reuse boundary. Encoded as an *optional trailing*
  /// field — a zero ordinal emits the exact legacy bytes, and legacy
  /// records decode with ordinal 0 — so the bytes stay identical whenever
  /// the keep-alive scenario is off.
  std::uint32_t requestOrdinal = 0;

  /// The per-report record inside a RunArtifacts bundle; the wire carries
  /// ReportFrame instead.
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  /// Throws util::DecodeError.
  [[nodiscard]] static UdpReport decode(std::span<const std::uint8_t> record);

  [[nodiscard]] bool operator==(const UdpReport&) const = default;
};

/// The wire format of supervisor report datagrams: a checksummed,
/// dictionary-compressed frame.
///
/// Collection happens over UDP, where datagrams are lost, duplicated,
/// reordered and occasionally corrupted. The frame adds what the ingest
/// tier needs to detect and *account* for all four, and sends each
/// distinct smali type signature once per run: the frame that first
/// references a signature carries its definition (id, text); every frame
/// thereafter carries just the u32 id.
///
///   magic (u32) | version=3 (u8) | crc32 (u32) | body
///   body = workerId (u32) | sequence (u64) | shaKey (u64)
///        | defCount (u32) | defCount × (id (u32) | signature (str))
///        | apkSha256 (str) | src ip (u32) | src port (u16)
///        | dst ip (u32) | dst port (u16) | timestampMs (u64)
///        | frameCount (u32) | frameCount × id (u32)
///        [| requestOrdinal (u32)]
///
/// - `workerId` identifies the sending run (the dispatcher uses the job
///   index, so ids are unique per study) and `sequence` counts that run's
///   reports from 0 — together they make loss, duplication and reordering
///   visible per apk at the receiver.
/// - `shaKey` is fnv1a64(apkSha256): a router can shard on it after
///   peek()ing the header, without decoding the payload.
/// - `crc32` covers the whole body, so a bit flip anywhere (header fields
///   included) is rejected instead of mis-attributed.
/// - apkSha256 stays inline (not dictionary-encoded) so every delivered
///   frame self-identifies its apk even when the defining frame was lost;
///   only signature text can be missing, and the ingest router accounts
///   for that exactly (holes heal from duplicate defs or from the complete
///   artifact replay — see ShardedIngest).
///
/// Version 3 is the only version: the self-contained v1 layout and its v2
/// alias are rejected like any other unknown version.
struct ReportFrame {
  static constexpr std::uint8_t kVersion = 3;

  std::uint32_t workerId = 0;
  std::uint64_t sequence = 0;
  std::string apkSha256;            // lowercase hex, inline
  net::SocketPair socketPair;
  util::SimTimeMs timestampMs = 0;
  /// Dictionary entries first referenced by this frame, in id order.
  std::vector<std::pair<std::uint32_t, std::string>> defs;
  /// Translated stack trace as dictionary ids, innermost first.
  std::vector<std::uint32_t> signatureIds;
  /// Logical-request ordinal (see UdpReport::requestOrdinal): optional
  /// trailing field, zero emits the exact legacy v3 bytes.
  std::uint32_t requestOrdinal = 0;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  /// Validates magic, version, checksum, and that shaKey matches the
  /// inline apk checksum. Throws util::DecodeError.
  [[nodiscard]] static ReportFrame decode(
      std::span<const std::uint8_t> datagram);

  /// Header-only view, enough to route the datagram to a shard without
  /// the dictionary.
  struct Header {
    std::uint32_t workerId = 0;
    std::uint64_t sequence = 0;
    std::uint64_t shaKey = 0;
  };
  /// Validates magic, version and checksum (an O(n) scan but no
  /// allocation) and returns the routing header. Throws util::DecodeError.
  [[nodiscard]] static Header peek(std::span<const std::uint8_t> datagram);

  [[nodiscard]] bool operator==(const ReportFrame&) const = default;
};

/// Sender-side dictionary state for one run: assigns dense u32 ids to
/// distinct signatures and emits each definition in the first frame that
/// references it. One encoder per supervisor — ids are meaningless across
/// runs. Not thread-safe (the supervisor serializes its sends).
class DictFrameEncoder {
 public:
  explicit DictFrameEncoder(std::uint32_t workerId) : workerId_(workerId) {}

  /// Frame `report` as a datagram, folding unseen signatures into the run
  /// dictionary.
  [[nodiscard]] std::vector<std::uint8_t> encode(std::uint64_t sequence,
                                                 const UdpReport& report);

  /// Distinct signatures defined so far.
  [[nodiscard]] std::size_t dictionarySize() const noexcept {
    return ids_.size();
  }

 private:
  std::uint32_t workerId_ = 0;
  std::unordered_map<std::string, std::uint32_t, util::TransparentStringHash,
                     std::equal_to<>>
      ids_;
};

/// Stateful receiver for a *reliable, in-order* report stream (such as the
/// emulator's local sink): folds dictionary definitions per worker and
/// resolves ids back to signature text. On an in-order stream a definition
/// always precedes its first reference, so an unresolvable id means
/// corruption — it throws util::DecodeError, as does anything that is not
/// a ReportFrame. The lossy UDP path does NOT use this class;
/// ShardedIngest keeps its own per-apk dictionaries with exact hole
/// accounting.
class ReportStreamDecoder {
 public:
  /// Decode one report frame into a full report.
  [[nodiscard]] UdpReport decode(std::span<const std::uint8_t> datagram);

 private:
  std::unordered_map<std::uint32_t,
                     std::unordered_map<std::uint32_t, std::string>>
      dictByWorker_;
};

}  // namespace libspector::core
