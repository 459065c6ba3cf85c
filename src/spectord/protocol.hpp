// The spectord wire protocol: framed request/stream messages between a
// long-running collector daemon and its clients (emulator fleets,
// dashboards, operators).
//
// The ingest tier's ReportFrame is a *datagram* format: each UDP datagram
// is self-delimiting because the channel frames it. spectord speaks over
// byte *streams* (simulated duplex channels shaped like sockets), so the
// protocol adds its own stream framing — the idiom of an async HTTP
// server: a per-connection read buffer, an incremental parser that
// tolerates partial delivery and resynchronizes past garbage, and a hard
// frame-size cap so a corrupt length field cannot balloon memory.
//
//   magic (u32) | version (u8) | type (u8) | crc32 (u32) | length (u32) | body
//
// The crc32 covers the body (same discipline as ReportFrame/SpabEnvelope),
// so a flipped bit inside a frame is rejected and the parser skips to the
// next magic instead of mis-decoding. Three client surfaces share the one
// frame grammar:
//
//  - report ingest: Hello/HelloAck session handshake with sequence resume,
//    Report frames carrying core::ReportFrame datagram bytes verbatim,
//    RunComplete frames carrying core::SpabEnvelope bytes (the checkpoint
//    format reused as the upload format), cumulative ReportAck flow.
//  - dashboard: a Dashboard Hello subscribes; the daemon answers with a
//    Snapshot whose body is its whole DashboardMirror, then one Delta per
//    folded run, which the subscriber folds with the daemon's own
//    DashboardMirror::applyDelta.
//  - admin ops: Admin(op, arg) / AdminAck — drain, evict-apk,
//    resume-from-checkpoint, status, shutdown.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/artifacts.hpp"

namespace libspector::spectord {

/// Frame types. Client->daemon and daemon->client frames share one
/// numbering so a trace of either direction is self-describing.
enum class FrameType : std::uint8_t {
  // Session surface.
  Hello = 1,
  HelloAck = 2,
  Bye = 3,
  // Report-ingest surface.
  Report = 4,
  ReportAck = 5,
  RunComplete = 6,
  RunAck = 7,
  // Dashboard surface. Value 8 is unassigned: the daemon answers it with
  // Error code 3, like any frame type a client does not send.
  Snapshot = 9,
  Delta = 10,
  // Admin surface.
  Admin = 11,
  AdminAck = 12,
  // Daemon-side rejection of anything it could parse but not accept.
  Error = 13,
};

/// What a connection is for, declared in the handshake. A connection only
/// speaks its surface; frames outside it are answered with Error.
enum class ClientKind : std::uint8_t {
  Ingest = 1,
  Dashboard = 2,
  Admin = 3,
};

/// Admin operations. Value 2 is unassigned: AdminMsg::decode rejects it.
enum class AdminOp : std::uint8_t {
  Drain = 1,     // block until everything submitted is folded + checkpointed
  EvictApk = 3,  // drop one apk's pending (unclaimed) ingest state
  Resume = 4,    // scan the checkpoint directory and replay survivors
  Status = 5,    // JSON status document
  Shutdown = 6,  // graceful: drain, flush checkpoints, Bye all clients
};

/// One parsed frame: the type tag plus its raw body bytes. Typed message
/// structs below encode to / decode from `body`.
struct Frame {
  FrameType type = FrameType::Error;
  std::vector<std::uint8_t> body;
};

/// Frame a body for the stream. The only allocation is the result buffer.
[[nodiscard]] std::vector<std::uint8_t> encodeFrame(
    FrameType type, std::span<const std::uint8_t> body);

/// Incremental stream parser: feed() bytes as they arrive (any chunking,
/// down to one byte at a time), then drain next() until it returns
/// nullopt. Garbage between frames is skipped byte-by-byte until the next
/// magic and counted; a frame whose length field exceeds kMaxBody or whose
/// crc32 does not match its body is dropped and counted, and parsing
/// resynchronizes. The parser never throws on wire input — a byte stream
/// from a peer is data, not an error.
class FrameParser {
 public:
  /// Hard cap on a frame body. RunComplete carries a whole serialized
  /// artifact bundle, so the cap is generous; anything larger is treated
  /// as corruption (a real length field this big means a framing bug).
  static constexpr std::size_t kMaxBody = 64u << 20;
  /// magic u32 | version u8 | type u8 | crc32 u32 | length u32.
  static constexpr std::size_t kHeaderSize = 14;

  void feed(std::span<const std::uint8_t> bytes);
  [[nodiscard]] std::optional<Frame> next();

  /// Bytes skipped while hunting for a magic (garbage / torn stream).
  [[nodiscard]] std::uint64_t garbageBytes() const noexcept { return garbage_; }
  /// Frames rejected for a bad crc, unknown version, or an oversized
  /// length field.
  [[nodiscard]] std::uint64_t rejectedFrames() const noexcept {
    return rejected_;
  }
  /// Bytes buffered awaiting the rest of a partial frame (the consumed
  /// prefix before the parse cursor is already spoken for).
  [[nodiscard]] std::size_t buffered() const noexcept {
    return buf_.size() - pos_;
  }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // parse cursor into buf_ (compacted on next())
  std::uint64_t garbage_ = 0;
  std::uint64_t rejected_ = 0;
};

// ---------------------------------------------------------------------------
// Typed messages. Each encodes to / decodes from a frame *body*. decode()
// throws util::DecodeError on truncation or inconsistency — by the time a
// body reaches a typed decoder its crc has already passed, so a decode
// failure is a protocol bug or a version skew, not line noise.
// ---------------------------------------------------------------------------

struct HelloMsg {
  std::uint64_t clientId = 0;  // caller-chosen stable identity
  ClientKind kind = ClientKind::Ingest;
  /// Session token from a previous HelloAck (0 = fresh session). Presenting
  /// it resumes the session: the daemon replies with the frames it already
  /// accepted so the client re-sends only the unacknowledged tail.
  std::uint64_t resumeSession = 0;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static HelloMsg decode(std::span<const std::uint8_t> body);
};

struct HelloAckMsg {
  std::uint64_t session = 0;      // token to present on reconnect
  std::uint64_t ackedFrames = 0;  // report frames accepted across sessions
  bool resumed = false;           // true when resumeSession matched

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static HelloAckMsg decode(std::span<const std::uint8_t> body);
};

/// Report frames carry the core::ReportFrame datagram bytes verbatim as
/// their body — no re-encoding, so the router's loss accounting applies
/// unchanged. No typed struct needed.

struct ReportAckMsg {
  std::uint64_t ackedFrames = 0;  // cumulative per client

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static ReportAckMsg decode(std::span<const std::uint8_t> body);
};

/// RunComplete bodies are core::SpabEnvelope bytes (jobIndex + a zero loss
/// account + the serialized artifacts): the crash-safe checkpoint framing
/// reused as the upload format, so the daemon can validate and persist a
/// run with the machinery PR 3 built.

struct RunAckMsg {
  std::uint64_t jobIndex = 0;
  bool accepted = false;  // false: outside this collector's shard range
  /// Empty when accepted and fresh; says why when refused, or when the
  /// daemon already has this jobIndex (a client re-sending a RunComplete
  /// whose ack was lost, from any session: accepted, not folded again).
  std::string reason;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static RunAckMsg decode(std::span<const std::uint8_t> body);
};

/// The dashboard's byte totals: what every run folded so far adds up to.
struct RollingTotals {
  std::uint64_t flowCount = 0;
  std::uint64_t attributedBytes = 0;    // sent + recv across flows
  std::uint64_t unattributedBytes = 0;  // TCP payload lost context covers
  // Keyed by origin library, library category and apk sha256.
  std::map<std::string, std::uint64_t, std::less<>> bytesByLibrary;
  std::map<std::string, std::uint64_t, std::less<>> bytesByLibCategory;
  std::map<std::string, std::uint64_t, std::less<>> bytesByApp;

  [[nodiscard]] bool operator==(const RollingTotals&) const = default;
};

/// One finalized run's increment, the unit of dashboard streaming. The
/// daemon builds one per run, folds it into its own mirror and sends every
/// dashboard connection the same message; a subscriber that folds every
/// delta into its snapshot reconstructs the daemon's view exactly (the
/// dashboard tests pin this).
struct DeltaMsg {
  std::uint64_t jobIndex = 0;
  std::string apkSha256;
  bool replayed = false;
  std::uint64_t flowCount = 0;
  std::uint64_t attributedBytes = 0;
  std::uint64_t unattributedBytes = 0;
  std::vector<std::pair<std::string, std::uint64_t>> bytesByLibrary;
  std::vector<std::pair<std::string, std::uint64_t>> bytesByLibCategory;
  core::ApkLossAccount account;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static DeltaMsg decode(std::span<const std::uint8_t> body);
};

/// The dashboard view. The daemon keeps its own as one of these and sends
/// it whole as a Snapshot body; every run's delta is folded into it with
/// applyDelta, by the daemon and by each subscriber alike, so a subscriber
/// ends equal to the daemon's view.
struct DashboardMirror {
  RollingTotals totals;
  std::map<std::string, core::ApkLossAccount> accounts;  // sha-sorted
  std::uint64_t runsFolded = 0;
  std::uint64_t expectedRuns = 0;  // set by the daemon, carried by snapshots
  std::uint64_t reportsDelivered = 0;
  std::uint64_t reportsLost = 0;

  /// Fold one run: its byte sums, its loss account, and the progress
  /// counters (one more run, its delivered and lost reports).
  void applyDelta(const DeltaMsg& delta);

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static DashboardMirror decode(
      std::span<const std::uint8_t> body);

  [[nodiscard]] bool operator==(const DashboardMirror&) const = default;
};

struct AdminMsg {
  AdminOp op = AdminOp::Status;
  std::string arg;  // EvictApk: the apk sha256; others: unused

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static AdminMsg decode(std::span<const std::uint8_t> body);
};

struct AdminAckMsg {
  AdminOp op = AdminOp::Status;
  bool ok = false;
  std::string info;  // human-readable result / JSON status document

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static AdminAckMsg decode(std::span<const std::uint8_t> body);
};

struct ErrorMsg {
  std::uint16_t code = 0;
  std::string message;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static ErrorMsg decode(std::span<const std::uint8_t> body);
};

struct ByeMsg {
  std::string reason;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static ByeMsg decode(std::span<const std::uint8_t> body);
};

}  // namespace libspector::spectord
