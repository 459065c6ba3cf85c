// Dex disassembly (the dexlib2 role, paper §III-B).
//
// The Method Monitor needs the full set of method type signatures contained
// in an apk to compute coverage; the Socket Supervisor needs a map from
// stack-frame names to type signatures to translate traces.
#pragma once

#include <cstdint>
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
/// The table is a view of the apk, not a copy: it reads the apk's class
/// index, so the apk must outlive it and must not change while it lives
/// (the supervisor builds one per app load, from the ApkFile the emulator
/// holds for the whole run). Building it touches no signature; a lookup
/// parses only the signatures of the classes the frame name names, plus
/// the apk's strays.
class FrameTranslationTable {
 public:
  explicit FrameTranslationTable(const ApkFile& apk) noexcept : apk_(&apk) {}
  /// A temporary apk would leave the table dangling.
  FrameTranslationTable(ApkFile&&) = delete;

  /// Signatures of all overloads behind a frame name, in dex order; empty
  /// when the frame does not belong to the apk (e.g. a framework method).
  /// The views point into the apk.
  [[nodiscard]] std::vector<std::string_view> lookup(
      std::string_view frameName) const;

  /// Number of distinct frame names, counted on demand.
  [[nodiscard]] std::size_t size() const;

 private:
  const ApkFile* apk_;
};

}  // namespace libspector::dex
