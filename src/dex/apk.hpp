// Apk / dex object model (paper §III-A, §III-B).
//
// An ApkFile bundles package metadata (Play category, version, dex
// timestamp, VirusTotal scan date, supported ABIs) with its dex content.
// The binary serialization stands in for the real apk bytes: it is what
// the Socket Supervisor hashes (sha256) to tag UDP reports and what the
// AndroZoo-style corpus stores.
//
// The dex content is one byte image: exactly the bytes serialize() writes
// after the ABI list (the dex count; per dex its class count; per class
// its length-prefixed dotted name, its method count and its
// length-prefixed signatures). Tables of offsets index the image, and a
// class index built while the image is written lets a reader find a
// class by name without touching any other signature. DexWriter is the
// only way to write the image.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <ranges>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/sha256.hpp"

namespace libspector::dex {

/// Default dex timestamp found in apks whose toolchain zeroed it:
/// 1980-01-01T00:00:00Z as seconds since the Unix epoch (paper §III-A).
inline constexpr std::uint64_t kDefaultDexTimestamp = 315532800;

/// The class index's key is the FNV-1a 64 of a dotted class name (the
/// value util::fnv1a64 gives), taken one character at a time so a reader
/// walking a frame name holds the hash of every prefix it has passed.
inline constexpr std::uint64_t kClassHashSeed = 0xcbf29ce484222325ULL;
[[nodiscard]] constexpr std::uint64_t classHashStep(std::uint64_t hash,
                                                    char c) noexcept {
  return (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
}

class DexWriter;

class ApkFile {
 public:
  /// Consecutive class or method numbers. Classes and methods are numbered
  /// across the whole apk, in dex order; the accessors below take numbers
  /// in range (dex < dexCount(), cls < classCount(),
  /// method < totalMethodCount()).
  using IndexRange = std::ranges::iota_view<std::size_t, std::size_t>;

  /// One indexable class: its name's classHashStep hash and its number.
  struct ClassKey {
    std::uint64_t hash = 0;
    std::uint32_t cls = 0;
  };

  std::string packageName;            // e.g. "com.example.game"
  std::string appCategory;            // Play category, e.g. "GAME_ACTION"
  std::uint32_t versionCode = 1;
  std::uint64_t dexTimestamp = kDefaultDexTimestamp;  // seconds since epoch
  std::uint64_t vtScanDate = 0;       // 0 = never scanned by VirusTotal
  std::vector<std::string> abis;      // e.g. {"x86", "armeabi-v7a"}

  /// Replace the dex content with what `writer` wrote.
  void setDex(DexWriter&& writer);

  [[nodiscard]] std::size_t dexCount() const noexcept { return dexes_.size(); }
  /// The classes of dex file `dex`.
  [[nodiscard]] IndexRange dexClasses(std::size_t dex) const;
  [[nodiscard]] std::size_t classCount() const noexcept {
    return classes_.size();
  }
  /// Dotted class name including inner classes, e.g. "com.foo.Bar$1".
  [[nodiscard]] std::string_view className(std::size_t cls) const;
  /// The methods of class `cls`.
  [[nodiscard]] IndexRange classMethods(std::size_t cls) const;
  /// Full smali type signature of method `method`, e.g.
  /// "Lcom/foo/Bar;->baz(I)V" (or whatever malformed text the dex holds).
  [[nodiscard]] std::string_view signature(std::size_t method) const;
  /// Total methods across all dex files (denominator of method coverage).
  [[nodiscard]] std::size_t totalMethodCount() const noexcept {
    return methods_.size();
  }

  /// Indexable classes whose dotted name hashes to `hash`, in dex order. A
  /// class is indexable when its name holds no '/' or ';': then each of
  /// its methods that is no stray is "L<name, '.' as '/'>;->...", so the
  /// dotted class part of that signature is the class's name.
  [[nodiscard]] std::span<const ClassKey> classesWithHash(
      std::uint64_t hash) const noexcept;
  /// Methods the class index cannot find, in dex order: every method of a
  /// class that is not indexable, and every method whose signature does
  /// not start with "L<its class's name, '.' as '/'>;->". A generated apk
  /// has none.
  [[nodiscard]] std::span<const std::uint32_t> strays() const noexcept {
    return strays_;
  }

  /// True when the apk ships at least one x86-compatible ABI or is
  /// pure-Java (no native libraries at all). Libspector filters out
  /// ARM-only apps (paper §III-A).
  [[nodiscard]] bool isX86Compatible() const noexcept;

  /// Deterministic binary serialization (the stand-in for apk bytes): the
  /// metadata header, then the dex image.
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  [[nodiscard]] static ApkFile deserialize(std::span<const std::uint8_t> bytes);

  /// sha256 over the serialized bytes; the identity used everywhere else.
  /// Hashes the header, then the whole image in one update.
  [[nodiscard]] util::Sha256Digest sha256() const;

  /// Same metadata and the same dex image (the tables follow from it).
  [[nodiscard]] bool operator==(const ApkFile& other) const;

 private:
  friend class DexWriter;

  struct DexEntry {
    std::uint32_t firstClass = 0;
    std::uint32_t classCount = 0;
  };
  struct ClassEntry {
    std::uint32_t nameOffset = 0;  // into the image
    std::uint32_t nameSize = 0;
    std::uint32_t firstMethod = 0;
    std::uint32_t methodCount = 0;
  };
  struct MethodEntry {
    std::uint32_t offset = 0;  // of the signature's bytes, into the image
    std::uint32_t size = 0;
  };

  /// Zero dex files: the image is just the dex count.
  std::vector<std::uint8_t> image_ = std::vector<std::uint8_t>(4, 0);
  std::vector<DexEntry> dexes_;
  std::vector<ClassEntry> classes_;
  std::vector<MethodEntry> methods_;
  /// Indexable classes sorted by (hash, class number).
  std::vector<ClassKey> classIndex_;
  std::vector<std::uint32_t> strays_;
};

/// The one writer of dex content: appends dex, class and method entries to
/// an image, patches the dex and class counts in it (a class's method
/// count once, when the class closes), and fills the tables, the class
/// index and the stray list as it goes. makeJob, deserialize and
/// hand-built apks all write through it; ApkFile::setDex installs the
/// result.
class DexWriter {
 public:
  /// Pre-size the image and its tables (a hint; writing never needs it).
  void reserve(std::size_t imageBytes, std::size_t classes,
               std::size_t methods);

  void beginDex();
  /// Starts a class in the current dex; throws std::logic_error before the
  /// first beginDex.
  void beginClass(std::string_view dottedName);
  /// Appends a method to the current class; throws std::logic_error when
  /// the current dex has no class yet.
  void addMethod(std::string_view signature) { addMethod({signature}); }
  /// Appends a method whose signature is the concatenation of `pieces`,
  /// written straight into the image.
  void addMethod(std::initializer_list<std::string_view> pieces);
  /// Appends a method whose signature is the current class's own prefix,
  /// "L<its name, '.' as '/'>;->", then `member`: a method the class
  /// index finds, written with no prefix to build or compare.
  void addOwnMethod(std::string_view member);

 private:
  friend class ApkFile;

  /// Extends the image by `bytes`; returns where they start. Throws
  /// std::length_error (naming `what`) past 4 GiB.
  std::uint8_t* grow(std::size_t bytes, const char* what);
  /// Appends a method entry of `size` signature bytes to the current
  /// class; returns where the caller writes them.
  std::uint8_t* appendMethod(std::size_t size);
  void appendU32(std::uint32_t v);
  void patchU32(std::size_t offset, std::uint32_t v) noexcept;
  /// Writes the current class's method count into its entry.
  void closeClass() noexcept;

  ApkFile apk_;  // only its dex content and tables are written
  std::size_t dexCountOffset_ = 0;  // of the current dex's class count
  bool indexable_ = false;          // the current class
  /// "L<current class's name, '.' as '/'>;->": what its methods start with.
  std::string ownPrefix_;
};

/// Literal dex content, the input tests, benches and fuzz seeds build small
/// apks from. ApkFile never stores it: writeDexFiles converts it.
struct MethodDef {
  /// Full smali type signature, e.g. "Lcom/foo/Bar;->baz(I)V".
  std::string signature;
};

struct ClassDef {
  /// Dotted class name including inner classes, e.g. "com.foo.Bar$1".
  std::string dottedName;
  std::vector<MethodDef> methods;
};

struct DexFile {
  std::vector<ClassDef> classes;
};

/// Writes literal dex files, in order, through a DexWriter.
[[nodiscard]] DexWriter writeDexFiles(const std::vector<DexFile>& dexFiles);

}  // namespace libspector::dex
