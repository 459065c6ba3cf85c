#include "dex/apk.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "util/bytes.hpp"

namespace libspector::dex {

namespace {
constexpr std::uint32_t kMagic = 0x4b504153;  // "SAPK"
constexpr std::uint16_t kVersion = 1;

/// Everything serialize() writes before the dex image.
std::vector<std::uint8_t> header(const ApkFile& apk, std::size_t extra) {
  std::size_t size = 4 + 2 + 4 + apk.packageName.size() + 4 +
                     apk.appCategory.size() + 4 + 8 + 8 + 4;
  for (const auto& abi : apk.abis) size += 4 + abi.size();
  util::ByteWriter w;
  w.reserve(size + extra);
  w.u32(kMagic);
  w.u16(kVersion);
  w.str(apk.packageName);
  w.str(apk.appCategory);
  w.u32(apk.versionCode);
  w.u64(apk.dexTimestamp);
  w.u64(apk.vtScanDate);
  w.u32(static_cast<std::uint32_t>(apk.abis.size()));
  for (const auto& abi : apk.abis) w.str(abi);
  return w.take();
}
}  // namespace

void ApkFile::setDex(DexWriter&& writer) {
  writer.closeClass();
  ApkFile& written = writer.apk_;
  std::sort(written.classIndex_.begin(), written.classIndex_.end(),
            [](const ClassKey& a, const ClassKey& b) {
              return std::tie(a.hash, a.cls) < std::tie(b.hash, b.cls);
            });
  image_ = std::move(written.image_);
  dexes_ = std::move(written.dexes_);
  classes_ = std::move(written.classes_);
  methods_ = std::move(written.methods_);
  classIndex_ = std::move(written.classIndex_);
  strays_ = std::move(written.strays_);
}

ApkFile::IndexRange ApkFile::dexClasses(std::size_t dex) const {
  const DexEntry& entry = dexes_[dex];
  return IndexRange(entry.firstClass,
                    std::size_t{entry.firstClass} + entry.classCount);
}

std::string_view ApkFile::className(std::size_t cls) const {
  const ClassEntry& entry = classes_[cls];
  return {reinterpret_cast<const char*>(image_.data()) + entry.nameOffset,
          entry.nameSize};
}

ApkFile::IndexRange ApkFile::classMethods(std::size_t cls) const {
  const ClassEntry& entry = classes_[cls];
  return IndexRange(entry.firstMethod,
                    std::size_t{entry.firstMethod} + entry.methodCount);
}

std::string_view ApkFile::signature(std::size_t method) const {
  const MethodEntry& entry = methods_[method];
  return {reinterpret_cast<const char*>(image_.data()) + entry.offset,
          entry.size};
}

std::span<const ApkFile::ClassKey> ApkFile::classesWithHash(
    std::uint64_t hash) const noexcept {
  const auto [begin, end] = std::equal_range(
      classIndex_.begin(), classIndex_.end(), ClassKey{hash, 0},
      [](const ClassKey& a, const ClassKey& b) { return a.hash < b.hash; });
  return {begin, end};
}

bool ApkFile::isX86Compatible() const noexcept {
  if (abis.empty()) return true;  // pure-Java apk runs everywhere
  return std::any_of(abis.begin(), abis.end(), [](const std::string& abi) {
    return abi == "x86" || abi == "x86_64";
  });
}

std::vector<std::uint8_t> ApkFile::serialize() const {
  auto bytes = header(*this, image_.size());
  bytes.insert(bytes.end(), image_.begin(), image_.end());
  return bytes;
}

ApkFile ApkFile::deserialize(std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  if (r.u32() != kMagic) throw util::DecodeError("ApkFile: bad magic");
  if (r.u16() != kVersion) throw util::DecodeError("ApkFile: unsupported version");
  ApkFile apk;
  apk.packageName = r.str();
  apk.appCategory = r.str();
  apk.versionCode = r.u32();
  apk.dexTimestamp = r.u64();
  apk.vtScanDate = r.u64();
  const std::uint32_t abiCount = r.countCheck(r.u32(), 4);
  apk.abis.reserve(abiCount);
  for (std::uint32_t i = 0; i < abiCount; ++i) apk.abis.push_back(r.str());

  // The rest is the dex image: each byte is copied once, through the
  // writer, which rebuilds the tables as it goes.
  if (r.remaining() > std::numeric_limits<std::uint32_t>::max())
    throw util::DecodeError("ApkFile: dex image past 4 GiB");
  const auto text = [&r] {
    const std::uint32_t size = r.u32();
    const auto view = r.view(size);
    return std::string_view(reinterpret_cast<const char*>(view.data()),
                            view.size());
  };
  DexWriter writer;
  writer.reserve(r.remaining(), 0, 0);
  const std::uint32_t dexCount = r.countCheck(r.u32(), 4);
  for (std::uint32_t i = 0; i < dexCount; ++i) {
    writer.beginDex();
    const std::uint32_t classCount = r.countCheck(r.u32(), 8);
    for (std::uint32_t c = 0; c < classCount; ++c) {
      writer.beginClass(text());
      const std::uint32_t methodCount = r.countCheck(r.u32(), 4);
      for (std::uint32_t m = 0; m < methodCount; ++m)
        writer.addMethod(text());
    }
  }
  if (!r.atEnd()) throw util::DecodeError("ApkFile: trailing bytes");
  apk.setDex(std::move(writer));
  return apk;
}

util::Sha256Digest ApkFile::sha256() const {
  util::Sha256 hash;
  hash.update(header(*this, 0));
  hash.update(image_);
  return hash.finish();
}

bool ApkFile::operator==(const ApkFile& other) const {
  return packageName == other.packageName &&
         appCategory == other.appCategory &&
         versionCode == other.versionCode &&
         dexTimestamp == other.dexTimestamp &&
         vtScanDate == other.vtScanDate && abis == other.abis &&
         image_ == other.image_;
}

// ---------------------------------------------------------------------------
// DexWriter
// ---------------------------------------------------------------------------

void DexWriter::reserve(std::size_t imageBytes, std::size_t classes,
                        std::size_t methods) {
  apk_.image_.reserve(imageBytes);
  apk_.classes_.reserve(classes);
  apk_.classIndex_.reserve(classes);
  apk_.methods_.reserve(methods);
}

namespace {
/// Writes `v` little-endian at `out`; returns the byte after it.
std::uint8_t* putU32(std::uint8_t* out, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return out + 4;
}

/// Copies `bytes` to `out`; returns the byte after them.
std::uint8_t* putBytes(std::uint8_t* out, std::string_view bytes) noexcept {
  if (!bytes.empty()) std::memcpy(out, bytes.data(), bytes.size());
  return out + bytes.size();
}
}  // namespace

std::uint8_t* DexWriter::grow(std::size_t bytes, const char* what) {
  auto& image = apk_.image_;
  // Offsets are u32: the image must end inside 4 GiB.
  const std::size_t end = image.size() + bytes;
  (void)util::checkedU32(end, what);
  image.resize(end);
  return image.data() + end - bytes;
}

void DexWriter::appendU32(std::uint32_t v) {
  putU32(grow(4, "DexWriter: dex image"), v);
}

void DexWriter::patchU32(std::size_t offset, std::uint32_t v) noexcept {
  putU32(apk_.image_.data() + offset, v);
}

void DexWriter::closeClass() noexcept {
  if (apk_.classes_.empty()) return;
  const ApkFile::ClassEntry& cls = apk_.classes_.back();
  patchU32(std::size_t{cls.nameOffset} + cls.nameSize, cls.methodCount);
}

void DexWriter::beginDex() {
  auto& dexes = apk_.dexes_;
  dexes.push_back({static_cast<std::uint32_t>(apk_.classes_.size()), 0});
  patchU32(0, static_cast<std::uint32_t>(dexes.size()));
  dexCountOffset_ = apk_.image_.size();
  appendU32(0);
}

void DexWriter::beginClass(std::string_view dottedName) {
  if (apk_.dexes_.empty())
    throw std::logic_error("DexWriter: class before the first dex");
  closeClass();
  std::uint8_t* out = grow(8 + dottedName.size(), "DexWriter: dex image");
  const auto nameOffset = static_cast<std::uint32_t>(
      out + 4 - apk_.image_.data());
  const auto nameSize = static_cast<std::uint32_t>(dottedName.size());
  out = putBytes(putU32(out, nameSize), dottedName);
  putU32(out, 0);  // method count, patched when the class closes

  const auto cls = static_cast<std::uint32_t>(apk_.classes_.size());
  apk_.classes_.push_back(
      {nameOffset, nameSize, static_cast<std::uint32_t>(apk_.methods_.size()),
       0});
  patchU32(dexCountOffset_, ++apk_.dexes_.back().classCount);

  std::uint64_t hash = kClassHashSeed;
  indexable_ = true;
  for (const char c : dottedName) {
    hash = classHashStep(hash, c);
    indexable_ = indexable_ && c != '/' && c != ';';
  }
  if (indexable_) apk_.classIndex_.push_back({hash, cls});
  ownPrefix_.assign(1, 'L');
  ownPrefix_ += dottedName;
  std::replace(ownPrefix_.begin() + 1, ownPrefix_.end(), '.', '/');
  ownPrefix_ += ";->";
}

std::uint8_t* DexWriter::appendMethod(std::size_t size) {
  if (apk_.dexes_.empty() || apk_.dexes_.back().classCount == 0)
    throw std::logic_error("DexWriter: method outside a class");
  std::uint8_t* const signature =
      putU32(grow(4 + size, "DexWriter: dex image"),
             static_cast<std::uint32_t>(size));
  apk_.methods_.push_back(
      {static_cast<std::uint32_t>(signature - apk_.image_.data()),
       static_cast<std::uint32_t>(size)});
  ++apk_.classes_.back().methodCount;
  return signature;
}

void DexWriter::addMethod(std::initializer_list<std::string_view> pieces) {
  std::size_t size = 0;
  for (const std::string_view piece : pieces) size += piece.size();
  std::uint8_t* const signature = appendMethod(size);
  std::uint8_t* out = signature;
  for (const std::string_view piece : pieces) out = putBytes(out, piece);
  const bool own = size >= ownPrefix_.size() &&
                   std::memcmp(signature, ownPrefix_.data(),
                               ownPrefix_.size()) == 0;
  if (!indexable_ || !own)
    apk_.strays_.push_back(
        static_cast<std::uint32_t>(apk_.methods_.size() - 1));
}

void DexWriter::addOwnMethod(std::string_view member) {
  putBytes(putBytes(appendMethod(ownPrefix_.size() + member.size()),
                    ownPrefix_),
           member);
  if (!indexable_)
    apk_.strays_.push_back(
        static_cast<std::uint32_t>(apk_.methods_.size() - 1));
}

DexWriter writeDexFiles(const std::vector<DexFile>& dexFiles) {
  DexWriter writer;
  for (const auto& dex : dexFiles) {
    writer.beginDex();
    for (const auto& cls : dex.classes) {
      writer.beginClass(cls.dottedName);
      for (const auto& m : cls.methods) writer.addMethod(m.signature);
    }
  }
  return writer;
}

}  // namespace libspector::dex
