#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace libspector::util {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& parts, std::string_view delim) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += delim;
    out += parts[i];
  }
  return out;
}

std::string toLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool isHierarchicalPrefix(std::string_view prefix, std::string_view s, char sep) {
  if (prefix.empty() || prefix.size() > s.size()) return false;
  if (s.compare(0, prefix.size(), prefix) != 0) return false;
  return s.size() == prefix.size() || s[prefix.size()] == sep;
}

bool isHierarchicalPrefixOfSlashedFrame(std::string_view dottedPrefix,
                                        std::string_view slashedClass,
                                        std::string_view methodName) noexcept {
  // The virtual frame name is slashToDot(slashedClass) ++ "." ++ methodName.
  const std::size_t frameSize = slashedClass.size() + 1 + methodName.size();
  if (dottedPrefix.empty() || dottedPrefix.size() > frameSize) return false;
  const auto frameAt = [&](std::size_t i) -> char {
    if (i < slashedClass.size()) {
      const char c = slashedClass[i];
      return c == '/' ? '.' : c;
    }
    if (i == slashedClass.size()) return '.';
    return methodName[i - slashedClass.size() - 1];
  };
  for (std::size_t i = 0; i < dottedPrefix.size(); ++i) {
    if (dottedPrefix[i] != frameAt(i)) return false;
  }
  return dottedPrefix.size() == frameSize || frameAt(dottedPrefix.size()) == '.';
}

std::string prefixLevels(std::string_view package, int n) {
  if (n <= 0) return {};
  std::size_t pos = 0;
  int seen = 0;
  while (pos < package.size()) {
    if (package[pos] == '.') {
      if (++seen == n) return std::string(package.substr(0, pos));
    }
    ++pos;
  }
  return std::string(package);
}

bool contains(std::string_view s, std::string_view needle) {
  return s.find(needle) != std::string_view::npos;
}

std::optional<std::uint64_t> parseWholeNumber(std::string_view text) noexcept {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  // Unsigned from_chars takes no sign and no space; empty text is an error.
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end) return std::nullopt;
  return value;
}

std::string humanBytes(double bytes) {
  static constexpr const char* kUnits[] = {"B", "KB", "MB", "GB", "TB"};
  int unit = 0;
  while (bytes >= 1024.0 && unit < 4) {
    bytes /= 1024.0;
    ++unit;
  }
  char buf[64];
  if (unit == 0) {
    std::snprintf(buf, sizeof(buf), "%.0f %s", bytes, kUnits[unit]);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f %s", bytes, kUnits[unit]);
  }
  return buf;
}

}  // namespace libspector::util
