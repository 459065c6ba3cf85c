// Small string utilities shared across the library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace libspector::util {

/// Split `s` on `delim`; empty fields are preserved ("a..b" -> {"a","","b"}).
[[nodiscard]] std::vector<std::string> split(std::string_view s, char delim);

/// Join `parts` with `delim` between elements.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view delim);

/// ASCII lowercase copy.
[[nodiscard]] std::string toLower(std::string_view s);

/// True when `s` starts with `prefix` followed by end-of-string or `sep`.
/// Used for package-hierarchy prefix matching: "com.unity3d" matches
/// "com.unity3d.ads" but not "com.unity3dx".
[[nodiscard]] bool isHierarchicalPrefix(std::string_view prefix,
                                        std::string_view s, char sep = '.');

/// First `n` dot-separated components of a package path ("a.b.c", 2 -> "a.b").
[[nodiscard]] std::string prefixLevels(std::string_view package, int n);

/// isHierarchicalPrefix against the *virtual* dotted frame name
/// `slashToDot(slashedClass) + "." + methodName` — i.e. what
/// dex::TypeSignature::frameName() would materialize — without building the
/// string. Lets the built-in-package filter run allocation-free on raw
/// smali signatures: equivalent to
/// `isHierarchicalPrefix(dottedPrefix, frameName)` in every case.
[[nodiscard]] bool isHierarchicalPrefixOfSlashedFrame(
    std::string_view dottedPrefix, std::string_view slashedClass,
    std::string_view methodName) noexcept;

/// True if `s` contains `needle` as a substring.
[[nodiscard]] bool contains(std::string_view s, std::string_view needle);

/// Human-readable byte count ("1.59 GB", "452 MB", "713 B").
[[nodiscard]] std::string humanBytes(double bytes);

/// `text` as a decimal whole number when it is nothing else: no sign, no
/// space, no trailing characters, no overflow. Command lines parse counts
/// with this, not atoi/strtoul, which read "12x" as 12 and "abc" as 0.
[[nodiscard]] std::optional<std::uint64_t> parseWholeNumber(
    std::string_view text) noexcept;

/// Heterogeneous hash for unordered containers keyed by std::string, so
/// lookups accept std::string_view without allocating a temporary key.
struct TransparentStringHash {
  using is_transparent = void;
  [[nodiscard]] std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

}  // namespace libspector::util
