// Traffic attribution (paper §III-C, §III-E, Listing 1).
//
// Joins each UDP context report with its TCP stream in the packet capture
// (by socket pair and connection window), computes per-direction transfer
// volume, finds the *origin* of the socket — the chronologically first
// method in the stack trace that does not belong to Android's built-in
// packages — and derives the origin-library, its 2-level roll-up, the
// LibRadar category, and the destination domain's generic category.
#pragma once

#include <memory>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/artifacts.hpp"
#include "core/attribution_program.hpp"
#include "net/ip.hpp"
#include "radar/ant.hpp"
#include "radar/corpus.hpp"
#include "util/clock.hpp"
#include "util/symbol.hpp"
#include "vtsim/categorizer.hpp"

namespace libspector::core {

/// Built-in package filter (paper footnote 2, plus the com.android.* frames
/// Listing 1 shows being eliminated as internal API calls).
[[nodiscard]] bool isBuiltinFrame(std::string_view frameOrSignature);

/// The footnote-2 filter list itself (hierarchical package prefixes) — the
/// compilation input for AttributionProgram and the reference set for its
/// differential tests.
[[nodiscard]] std::span<const std::string_view> builtinFramePrefixes() noexcept;

/// Normalize a report entry (smali signature or dotted frame name) to its
/// dotted frame name.
[[nodiscard]] std::string frameNameOf(std::string_view entry);

/// Package of a report entry ("com.unity3d.ads.android.cache" for the
/// Listing 1 origin frame).
[[nodiscard]] std::string packageOfEntry(std::string_view entry);

/// True when the entry's package is a laundering "junk" package: it has at
/// least one component and every dot-separated component is at most two
/// characters ("a.b.c.Gen.run"). Real SDK packages always carry a longer
/// component ("com", "org", "unity3d", ...), so the rule never fires on an
/// honest stack. Reference matcher for AttributionProgram::isJunkPackageEntry.
[[nodiscard]] bool isJunkPackageFrame(std::string_view entry);

/// True when the entry is one of the reflection trampoline markers
/// (rt::kReflectMethodInvokeFrame / rt::kReflectProxyInvokeFrame).
[[nodiscard]] bool isReflectionMarkerFrame(std::string_view entry);

/// True when `stackSignatures[i]` should be elided as a laundering
/// trampoline (DESIGN.md §14): its package is junk, or its inward
/// neighbour — its direct callee, at i - 1 in the innermost-first list —
/// is a reflection marker, meaning the frame is a dispatcher that only
/// bounced the request through Method/Proxy.invoke; the reflection target
/// past the marker is the genuine origin.
[[nodiscard]] bool isTrampolineFrame(
    std::span<const std::string> stackSignatures, std::size_t i);

/// Index (into the innermost-first list) of the origin frame: the
/// chronologically first non-built-in method, i.e. the outermost surviving
/// frame. std::nullopt when every frame is built-in. With
/// `elideTrampolines` (the default, and what TrafficAttributor does),
/// laundering trampoline frames (see isTrampolineFrame) are skipped as
/// well — a fixed point on un-laundered stacks. Off keeps the raw
/// footnote-2 scan.
[[nodiscard]] std::optional<std::size_t> originFrameIndex(
    std::span<const std::string> stackSignatures, bool elideTrampolines = true);

/// One attributed flow: a socket, its volume, and its origin context.
///
/// The string-ish fields are interned util::Symbols — trivially copyable
/// handles into the pool of the TrafficAttributor that produced the flow
/// (or whatever pool a test interned them in). A study of millions of flows
/// repeats the same few hundred strings; symbols make a FlowRecord
/// allocation-free to build and copy. Flows must not outlive their pool
/// (the attributor outlives the aggregation that consumes its flows — see
/// DESIGN.md §10).
struct FlowRecord {
  util::Symbol apkSha256;
  util::Symbol appPackage;
  util::Symbol appCategory;

  /// Origin-library package; "*-<domainCategory>" when the whole stack was
  /// built-in code (Fig. 3's "*-Advertisement" convention).
  util::Symbol originLibrary;
  util::Symbol originSignature;  // empty for built-in origins
  util::Symbol twoLevelLibrary;
  util::Symbol libraryCategory;  // one of radar::libraryCategories()
  bool builtinOrigin = false;
  bool antOrigin = false;     // origin-library in the AnT list
  bool commonOrigin = false;  // origin-library in the common-library list

  util::Symbol domain;          // "" when no DNS resolution preceded the flow
  util::Symbol domainCategory;  // one of vtsim::genericCategories()

  net::SocketPair socketPair;
  util::SimTimeMs connectTimeMs = 0;
  std::uint64_t sentBytes = 0;  // device -> server, wire bytes
  std::uint64_t recvBytes = 0;  // server -> device, wire bytes

  /// Logical request ordinal on the carrying socket: 0 for the request
  /// that opened the connection (every report outside the keep-alive
  /// scenario), >= 1 for keep-alive reuse. Mirrors UdpReport.
  std::uint32_t requestOrdinal = 0;
  /// Capture-derived latency estimate (§14): gap between the first packet
  /// the device sent in this flow's window and the first packet it got
  /// back. 0 when either direction never transferred in the window.
  util::SimTimeMs rttMs = 0;
};

/// One app run's attributed flows in columnar (SoA) form: every FlowRecord
/// symbol field becomes a parallel vector of its dense pool id, the three
/// origin booleans pack into one flags byte, and the numeric fields keep
/// their own vectors. Same information, same order as the row form —
/// row(i) reconstructs flows[i] exactly — but shaped for batch folds:
/// aggregation walks contiguous u32/u64 arrays and indexes dense
/// per-symbol-id accumulators instead of hashing per flow.
///
/// Ids are meaningful only against `pool` (the producing attributor's
/// pool); like FlowRecords, columns must not outlive it.
struct FlowColumns {
  static constexpr std::uint8_t kBuiltinOrigin = 1;
  static constexpr std::uint8_t kAntOrigin = 2;
  static constexpr std::uint8_t kCommonOrigin = 4;

  const util::SymbolPool* pool = nullptr;

  std::vector<std::uint32_t> apkSha256;
  std::vector<std::uint32_t> appPackage;
  std::vector<std::uint32_t> appCategory;
  std::vector<std::uint32_t> originLibrary;
  std::vector<std::uint32_t> originSignature;  // Symbol::kNoId for built-in
  std::vector<std::uint32_t> twoLevelLibrary;
  std::vector<std::uint32_t> libraryCategory;
  std::vector<std::uint32_t> domain;
  std::vector<std::uint32_t> domainCategory;
  std::vector<std::uint8_t> flags;  // kBuiltinOrigin | kAntOrigin | kCommonOrigin
  std::vector<std::uint64_t> sentBytes;
  std::vector<std::uint64_t> recvBytes;
  std::vector<net::SocketPair> socketPair;
  std::vector<util::SimTimeMs> connectTimeMs;
  std::vector<std::uint32_t> requestOrdinal;
  std::vector<util::SimTimeMs> rttMs;

  [[nodiscard]] std::size_t size() const noexcept { return flags.size(); }
  void reserve(std::size_t n);
  void push(const FlowRecord& flow);
  /// Reconstruct row `i` (ids resolved through `pool`).
  [[nodiscard]] FlowRecord row(std::size_t i) const;
  /// Columnarize a row batch; the result references `pool`.
  [[nodiscard]] static FlowColumns fromRows(std::span<const FlowRecord> flows,
                                            const util::SymbolPool& pool);
};

/// TCP payload bytes in the run's capture that no flow of the batch covers
/// — the blind spot left by lost UDP context reports (the supervisor's
/// channel is best-effort): total TCP payload minus Σ(sent + recv), floored
/// at 0. Lower-bounds the coverage of the attribution.
[[nodiscard]] std::uint64_t unattributedTcpPayload(const RunArtifacts& run,
                                                   const FlowColumns& flows);

class TrafficAttributor {
 public:
  TrafficAttributor(const radar::LibraryCorpus& corpus,
                    vtsim::DomainCategorizer& domains);

  /// Attribute every reported socket of one app run. Thread-safe: parallel
  /// workers share one attributor (the pool and frame cache are internally
  /// synchronized).
  [[nodiscard]] std::vector<FlowRecord> attribute(const RunArtifacts& run) const;

  /// attribute() in columnar form: same flows, same order, as a FlowColumns
  /// batch referencing this attributor's pool. Thread-safe like attribute().
  [[nodiscard]] FlowColumns attributeColumns(const RunArtifacts& run) const;

  /// The pool backing every Symbol in the flows this attributor returns.
  /// Flows are valid only while the attributor (and thus the pool) lives.
  [[nodiscard]] const util::SymbolPool& symbols() const noexcept {
    return *pool_;
  }

 private:
  /// Everything attribution derives from one distinct stack frame.
  /// Immutable after insertion into the cross-run cache.
  struct FrameInfo {
    bool builtin = false;
    util::Symbol originLibrary;
    util::Symbol twoLevelLibrary;
    util::Symbol libraryCategory;
    /// The interned raw signature, so an origin frame is interned once,
    /// not re-interned per field it feeds.
    util::Symbol signature;
    bool ant = false;
    bool common = false;
    /// Trampoline-elision inputs: junk package and reflection-marker status
    /// of this frame (the marker flags the *inward* neighbour for elision).
    bool junkPackage = false;
    bool reflectMarker = false;
  };

  /// Cross-run cache lookup, computing the entry on first sight.
  [[nodiscard]] const FrameInfo& sharedFrameInfo(util::Symbol signature) const;

  vtsim::DomainCategorizer& domains_;
  /// The builtin filter, AnT/common lists and corpus elections compiled
  /// into one component trie at construction, so every per-frame question
  /// is a single walk over interned component ids; immutable and shared
  /// lock-free by all worker threads.
  AttributionProgram program_;
  /// Owns every Symbol handed out in FlowRecords. Behind a unique_ptr so
  /// the attributor stays movable and flow symbols survive the move.
  std::unique_ptr<util::SymbolPool> pool_;
  mutable std::shared_mutex frameMutex_;
  /// Keyed by interned signature id; values are heap-stable (node-based
  /// map) and immutable once inserted, so readers can hold references
  /// outside the lock.
  mutable std::unordered_map<std::uint32_t, FrameInfo> frameCache_;
};

}  // namespace libspector::core
