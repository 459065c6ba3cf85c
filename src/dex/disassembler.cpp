#include "dex/disassembler.hpp"

#include <algorithm>
#include <unordered_set>

namespace libspector::dex {

namespace {

[[nodiscard]] constexpr char dotted(char c) noexcept {
  return c == '/' ? '.' : c;
}

/// True when `slashedClass` with '/' read as '.' spells `dottedName`.
[[nodiscard]] bool dotsTo(std::string_view slashedClass,
                          std::string_view dottedName) noexcept {
  return slashedClass.size() == dottedName.size() &&
         std::equal(slashedClass.begin(), slashedClass.end(),
                    dottedName.begin(),
                    [](char s, char d) { return dotted(s) == d; });
}

/// True when `slashedClass` is `dottedName` with every '.' written as '/'.
[[nodiscard]] bool isSlashedForm(std::string_view slashedClass,
                                 std::string_view dottedName) noexcept {
  return slashedClass.size() == dottedName.size() &&
         std::equal(slashedClass.begin(), slashedClass.end(),
                    dottedName.begin(),
                    [](char s, char d) { return s == (d == '.' ? '/' : d); });
}

}  // namespace

std::vector<std::string> allMethodSignatures(const ApkFile& apk) {
  std::vector<std::string> out;
  out.reserve(apk.totalMethodCount());
  for (std::size_t m = 0; m < apk.totalMethodCount(); ++m)
    out.emplace_back(apk.signature(m));
  return out;
}

std::vector<std::string_view> FrameTranslationTable::lookup(
    std::string_view frameName) const {
  const ApkFile& apk = *apk_;
  std::vector<std::uint32_t> hits;
  // Every '.' may end the class part: probe the class index with the
  // hash of the prefix before it. An indexable class's own methods all
  // have that class part spelled with '/' for '.', so a method matches
  // when its name is the rest of the frame name; its strays (another
  // class part) are left to the stray pass below.
  std::uint64_t hash = kClassHashSeed;
  for (std::size_t dot = 0; dot < frameName.size(); ++dot) {
    if (frameName[dot] == '.') {
      const std::string_view cls = frameName.substr(0, dot);
      const std::string_view method = frameName.substr(dot + 1);
      for (const auto& key : apk.classesWithHash(hash)) {
        if (apk.className(key.cls) != cls) continue;
        for (const std::size_t m : apk.classMethods(key.cls)) {
          const auto view = parseSignatureView(apk.signature(m));
          if (view && view->methodName == method &&
              isSlashedForm(view->slashedClass, cls))
            hits.push_back(static_cast<std::uint32_t>(m));
        }
      }
    }
    hash = classHashStep(hash, frameName[dot]);
  }
  for (const std::uint32_t m : apk.strays()) {
    const auto view = parseSignatureView(apk.signature(m));
    if (!view) continue;  // tolerate malformed entries like real dex tools
    const std::size_t classSize = view->slashedClass.size();
    if (frameName.size() == classSize + 1 + view->methodName.size() &&
        dotsTo(view->slashedClass, frameName.substr(0, classSize)) &&
        frameName[classSize] == '.' &&
        frameName.substr(classSize + 1) == view->methodName)
      hits.push_back(m);
  }
  std::sort(hits.begin(), hits.end());  // dex order across classes

  std::vector<std::string_view> out;
  out.reserve(hits.size());
  for (const std::uint32_t m : hits) out.push_back(apk.signature(m));
  return out;
}

std::size_t FrameTranslationTable::size() const {
  std::unordered_set<std::string> frames;
  for (std::size_t m = 0; m < apk_->totalMethodCount(); ++m) {
    const auto view = parseSignatureView(apk_->signature(m));
    if (!view) continue;
    std::string frame(view->slashedClass);
    std::replace(frame.begin(), frame.end(), '/', '.');
    frame += '.';
    frame += view->methodName;
    frames.insert(std::move(frame));
  }
  return frames.size();
}

}  // namespace libspector::dex
