#include "dex/disassembler.hpp"

#include <algorithm>

namespace libspector::dex {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

[[nodiscard]] constexpr std::uint64_t fnvStep(std::uint64_t hash,
                                              char c) noexcept {
  return (hash ^ static_cast<unsigned char>(c)) * kFnvPrime;
}

[[nodiscard]] constexpr char dotted(char c) noexcept {
  return c == '/' ? '.' : c;
}

/// FNV-1a of the dotted frame name "<class, '/' read as '.'>.<method>",
/// equal to the hash of that name spelled out.
[[nodiscard]] std::uint64_t frameHash(std::string_view slashedClass,
                                      std::string_view methodName) noexcept {
  std::uint64_t hash = kFnvOffset;
  for (const char c : slashedClass) hash = fnvStep(hash, dotted(c));
  hash = fnvStep(hash, '.');
  for (const char c : methodName) hash = fnvStep(hash, c);
  return hash;
}

/// Character `i` of the dotted frame name of (slashedClass, methodName).
[[nodiscard]] char dottedAt(std::string_view slashedClass,
                            std::string_view methodName,
                            std::size_t i) noexcept {
  if (i < slashedClass.size()) return dotted(slashedClass[i]);
  if (i == slashedClass.size()) return '.';
  return methodName[i - slashedClass.size() - 1];
}

/// Three-way comparison of two dotted frame names, neither built.
[[nodiscard]] int compareDotted(std::string_view classA,
                                std::string_view methodA,
                                std::string_view classB,
                                std::string_view methodB) noexcept {
  const std::size_t sizeA = classA.size() + 1 + methodA.size();
  const std::size_t sizeB = classB.size() + 1 + methodB.size();
  for (std::size_t i = 0; i < std::min(sizeA, sizeB); ++i) {
    const auto a = static_cast<unsigned char>(dottedAt(classA, methodA, i));
    const auto b = static_cast<unsigned char>(dottedAt(classB, methodB, i));
    if (a != b) return a < b ? -1 : 1;
  }
  return sizeA < sizeB ? -1 : (sizeA > sizeB ? 1 : 0);
}

}  // namespace

std::vector<std::string> allMethodSignatures(const ApkFile& apk) {
  std::vector<std::string> out;
  out.reserve(apk.totalMethodCount());
  for (const auto& dex : apk.dexFiles)
    for (const auto& cls : dex.classes)
      for (const auto& m : cls.methods) out.push_back(m.signature);
  return out;
}

FrameTranslationTable::FrameTranslationTable(const ApkFile& apk) {
  struct Indexed {
    Frame frame;
    std::string_view signature;
  };
  const auto compare = [](const Frame& a, const Frame& b) {
    if (a.hash != b.hash) return a.hash < b.hash ? -1 : 1;
    return compareDotted(a.slashedClass, a.methodName, b.slashedClass,
                         b.methodName);
  };

  std::vector<Indexed> indexed;
  indexed.reserve(apk.totalMethodCount());
  for (const auto& dex : apk.dexFiles) {
    for (const auto& cls : dex.classes) {
      for (const auto& m : cls.methods) {
        const auto view = parseSignatureView(m.signature);
        if (!view) continue;  // tolerate malformed entries like real dex tools
        indexed.push_back({{frameHash(view->slashedClass, view->methodName),
                            view->slashedClass, view->methodName},
                           m.signature});
      }
    }
  }
  // Stable: overloads of one frame name keep dex order.
  std::stable_sort(indexed.begin(), indexed.end(),
                   [&compare](const Indexed& a, const Indexed& b) {
                     return compare(a.frame, b.frame) < 0;
                   });

  frames_.reserve(indexed.size());
  signatures_.reserve(indexed.size());
  for (const auto& [frame, signature] : indexed) {
    if (frames_.empty() || compare(frames_.back(), frame) != 0) ++frameCount_;
    frames_.push_back(frame);
    signatures_.push_back(signature);
  }
}

std::span<const std::string_view> FrameTranslationTable::lookup(
    std::string_view frameName) const {
  std::uint64_t hash = kFnvOffset;
  for (const char c : frameName) hash = fnvStep(hash, c);
  const auto names = [frameName](const Frame& frame) {
    const std::size_t classSize = frame.slashedClass.size();
    if (frameName.size() != classSize + 1 + frame.methodName.size())
      return false;
    for (std::size_t i = 0; i < classSize; ++i)
      if (frameName[i] != dotted(frame.slashedClass[i])) return false;
    return frameName[classSize] == '.' &&
           frameName.substr(classSize + 1) == frame.methodName;
  };

  auto begin = std::lower_bound(
      frames_.begin(), frames_.end(), hash,
      [](const Frame& frame, std::uint64_t h) { return frame.hash < h; });
  // Distinct names that collide on the hash sit in one hash run, each as
  // its own contiguous group.
  while (begin != frames_.end() && begin->hash == hash && !names(*begin))
    ++begin;
  auto end = begin;
  while (end != frames_.end() && end->hash == hash && names(*end)) ++end;
  return {signatures_.data() + (begin - frames_.begin()),
          static_cast<std::size_t>(end - begin)};
}

}  // namespace libspector::dex
