// Little-endian byte-stream (de)serialization used for the dex-like binary
// format, pcap-like capture files and UDP report datagrams.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace libspector::util {

/// Error thrown when a reader runs past the end of its buffer or a length
/// field is inconsistent — i.e. the input is truncated or corrupt.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends fixed-width integers and length-prefixed strings to a buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Length-prefixed (u32) byte string.
  void str(std::string_view s);
  void raw(std::span<const std::uint8_t> data);
  void reserve(std::size_t bytes) { buf_.reserve(bytes); }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Narrow a 64-bit size to the u32 length field the wire formats use.
/// Throws std::length_error instead of silently truncating — a truncated
/// length field produces an undecodable (or worse, mis-decodable) record.
[[nodiscard]] std::uint32_t checkedU32(std::uint64_t value, const char* what);

/// CRC-32 (IEEE 802.3 polynomial, reflected) over a byte span. Used by the
/// framed report wire format to detect in-flight corruption of UDP
/// datagrams — the channel gives no integrity guarantee of its own — and
/// by the .spab envelope and the spectord frames. Portable slicing-by-8:
/// eight table lookups per eight input bytes, the same value as the
/// byte-at-a-time definition on every platform.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept;

/// FNV-1a 64-bit hash of a string. Stable across platforms; used as the
/// shard-routing key carried in framed report headers so routers can place
/// a datagram without decoding its payload.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view s) noexcept;

/// Reads the format ByteWriter produces. Throws DecodeError on truncation.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::string str();
  /// A view over the next `n` raw bytes (zero-copy; valid while the
  /// underlying buffer lives).
  [[nodiscard]] std::span<const std::uint8_t> view(std::size_t n);

  /// Validate a decoded element count against the bytes remaining: each
  /// element occupies at least `minBytesPerItem`, so a count implying more
  /// data than exists is corrupt. Prevents attacker-controlled counts from
  /// driving huge reserve() allocations. Returns `count` for chaining.
  [[nodiscard]] std::uint32_t countCheck(std::uint32_t count,
                                         std::size_t minBytesPerItem) const;

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] bool atEnd() const noexcept { return pos_ == data_.size(); }

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace libspector::util
