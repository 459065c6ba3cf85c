// Dex disassembly (the dexlib2 role, paper §III-B).
//
// The Method Monitor needs the full set of method type signatures contained
// in an apk to compute coverage; the Socket Supervisor needs a map from
// stack-frame names to type signatures to translate traces.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dex/apk.hpp"
#include "dex/type_signature.hpp"

namespace libspector::dex {

/// All method type signatures in the apk, in dex order.
[[nodiscard]] std::vector<std::string> allMethodSignatures(const ApkFile& apk);

/// Map from frame name ("com.foo.Bar.baz") to the type signatures of its
/// overloads, as a Java stack frame does not carry parameter types.
/// Signatures for one frame name keep dex order.
///
/// The table is a per-run index, not a copy: it holds views into the
/// apk's own signature strings, so the apk must outlive it and must not
/// change while it lives (the supervisor builds one per app load, from the
/// ApkFile the emulator holds for the whole run). Frame names are never
/// built: each signature is split with parseSignatureView, and the dotted
/// name is hashed and compared straight off the slashed class part.
class FrameTranslationTable {
 public:
  explicit FrameTranslationTable(const ApkFile& apk);
  /// A temporary apk would leave the table's views dangling.
  FrameTranslationTable(ApkFile&&) = delete;

  /// Signatures of all overloads behind a frame name; empty when the frame
  /// does not belong to the apk (e.g. a framework method).
  [[nodiscard]] std::span<const std::string_view> lookup(
      std::string_view frameName) const;

  /// Number of distinct frame names.
  [[nodiscard]] std::size_t size() const noexcept { return frameCount_; }

 private:
  /// One parseable signature's frame name, as the two views it is dotted
  /// from ("com/foo/Bar" + '.' + "baz").
  struct Frame {
    std::uint64_t hash = 0;
    std::string_view slashedClass;
    std::string_view methodName;
  };

  /// Sorted by (hash, dotted name, dex order), so every frame name's
  /// overloads are one contiguous dex-ordered run; signatures_[i] is
  /// frames_[i]'s signature.
  std::vector<Frame> frames_;
  std::vector<std::string_view> signatures_;
  std::size_t frameCount_ = 0;
};

}  // namespace libspector::dex
