#include "util/bytes.hpp"

#include <array>

namespace libspector::util {

namespace {

/// Slicing-by-8 tables for the reflected IEEE polynomial, built at compile
/// time. kCrc32Tables[0] is the classic one-byte table; kCrc32Tables[k][b]
/// is the crc of byte b followed by k zero bytes, so eight lookups advance
/// the crc over eight input bytes at once.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32Tables makeCrc32Tables() {
  Crc32Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k)
    for (std::size_t i = 0; i < 256; ++i)
      tables[k][i] =
          (tables[k - 1][i] >> 8) ^ tables[0][tables[k - 1][i] & 0xFFu];
  return tables;
}

constexpr Crc32Tables kCrc32Tables = makeCrc32Tables();
static_assert(kCrc32Tables[0][128] == 0xEDB88320u,
              "one-byte table holds the reflected polynomial");

/// Little-endian u32 from four bytes at any alignment, on any host byte
/// order (compilers turn it into one load where that is legal).
std::uint32_t loadLe32(const std::uint8_t* p) noexcept {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
         std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

}  // namespace

std::uint32_t checkedU32(std::uint64_t value, const char* what) {
  if (value > 0xFFFFFFFFull)
    throw std::length_error(std::string(what) + ": size " +
                            std::to_string(value) +
                            " overflows a u32 length field");
  return static_cast<std::uint32_t>(value);
}

std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept {
  const auto& t = kCrc32Tables;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = loadLe32(p) ^ crc;
    const std::uint32_t hi = loadLe32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFFu];
  return crc ^ 0xFFFFFFFFu;
}

std::uint64_t fnv1a64(std::string_view s) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void ByteWriter::u8(std::uint8_t v) { buf_.push_back(v); }

void ByteWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::str(std::string_view s) {
  u32(checkedU32(s.size(), "ByteWriter::str"));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::raw(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteReader::need(std::size_t n) const {
  if (pos_ + n > data_.size()) throw DecodeError("ByteReader: truncated input");
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{data_[pos_ + i]} << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{data_[pos_ + i]} << (8 * i);
  pos_ += 8;
  return v;
}

std::uint32_t ByteReader::countCheck(std::uint32_t count,
                                     std::size_t minBytesPerItem) const {
  if (minBytesPerItem != 0 &&
      static_cast<std::uint64_t>(count) * minBytesPerItem > remaining())
    throw DecodeError("ByteReader: element count exceeds remaining input");
  return count;
}

std::span<const std::uint8_t> ByteReader::view(std::size_t n) {
  need(n);
  const auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::string ByteReader::str() {
  const std::uint32_t len = u32();
  need(len);
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return out;
}

}  // namespace libspector::util
