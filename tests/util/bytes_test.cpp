#include "util/bytes.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace libspector::util {
namespace {

TEST(BytesTest, RoundTripAllWidths) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.str("hello");
  const auto buffer = w.take();

  ByteReader r(buffer);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.atEnd());
}

TEST(BytesTest, EmptyString) {
  ByteWriter w;
  w.str("");
  const auto buffer = w.data();
  ByteReader r(buffer);
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.atEnd());
}

TEST(BytesTest, StringWithEmbeddedNulAndBinary) {
  ByteWriter w;
  const std::string payload("a\0b\xff", 4);
  w.str(payload);
  const auto buffer = w.data();
  ByteReader r(buffer);
  EXPECT_EQ(r.str(), payload);
}

TEST(BytesTest, TruncatedIntegerThrows) {
  ByteWriter w;
  w.u16(7);
  const auto buffer = w.data();
  ByteReader r(buffer);
  EXPECT_THROW((void)r.u32(), DecodeError);
}

TEST(BytesTest, TruncatedStringBodyThrows) {
  ByteWriter w;
  w.u32(100);  // length prefix claiming 100 bytes that do not exist
  const auto buffer = w.data();
  ByteReader r(buffer);
  EXPECT_THROW((void)r.str(), DecodeError);
}

TEST(BytesTest, EmptyBufferThrowsImmediately) {
  ByteReader r({});
  EXPECT_TRUE(r.atEnd());
  EXPECT_THROW((void)r.u8(), DecodeError);
}

TEST(BytesTest, RemainingTracksPosition) {
  ByteWriter w;
  w.u32(1);
  w.u32(2);
  const auto buffer = w.data();
  ByteReader r(buffer);
  EXPECT_EQ(r.remaining(), 8u);
  (void)r.u32();
  EXPECT_EQ(r.remaining(), 4u);
  (void)r.u32();
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BytesTest, RawAppendsVerbatim) {
  ByteWriter w;
  const std::uint8_t raw[] = {1, 2, 3};
  w.raw(raw);
  EXPECT_EQ(w.data().size(), 3u);
  EXPECT_EQ(w.data()[2], 3);
}

TEST(BytesTest, CheckedU32PassesThroughAnyRepresentableSize) {
  EXPECT_EQ(checkedU32(0, "field"), 0u);
  EXPECT_EQ(checkedU32(0xFFFFFFFFull, "field"), 0xFFFFFFFFu);
}

TEST(BytesTest, CheckedU32ThrowsInsteadOfTruncating) {
  // The mocked >4GiB size a real capture could reach: the old unchecked
  // cast would wrap it to 0 and emit an undecodable length field.
  EXPECT_THROW((void)checkedU32(1ull << 32, "capture"), std::length_error);
  EXPECT_THROW((void)checkedU32((1ull << 32) + 17, "capture"),
               std::length_error);
  try {
    (void)checkedU32(1ull << 33, "RunArtifacts::serialize capture");
    FAIL() << "expected std::length_error";
  } catch (const std::length_error& error) {
    EXPECT_NE(std::string(error.what()).find("RunArtifacts::serialize"),
              std::string::npos);
  }
}

TEST(BytesTest, LittleEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304);
  EXPECT_EQ(w.data()[0], 0x04);
  EXPECT_EQ(w.data()[3], 0x01);
}

/// The CRC-32 definition, one bit at a time with no table: the reference
/// the slicing-by-8 kernel must equal on every input.
std::uint32_t bitwiseCrc32(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint32_t crc32Of(std::string_view text) {
  return crc32(std::span(reinterpret_cast<const std::uint8_t*>(text.data()),
                         text.size()));
}

std::vector<std::uint8_t> randomBytes(Rng& rng, std::size_t length) {
  std::vector<std::uint8_t> bytes(length);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  return bytes;
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(crc32({}), 0x00000000u);
  EXPECT_EQ(crc32Of("123456789"), 0xCBF43926u);  // the catalogue check value
  EXPECT_EQ(crc32Of("a"), 0xE8B7BE43u);
  EXPECT_EQ(crc32Of("abc"), 0x352441C2u);
  EXPECT_EQ(crc32Of("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
  EXPECT_EQ(crc32(std::vector<std::uint8_t>(32, 0x00)), 0x190A55ADu);
  EXPECT_EQ(crc32(std::vector<std::uint8_t>(32, 0xFF)), 0xFF6CAB0Bu);
  std::vector<std::uint8_t> ramp(256);
  for (std::size_t i = 0; i < ramp.size(); ++i)
    ramp[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(crc32(ramp), 0x29058C73u);
}

// Every length from 0 to 1,100 at offsets 0-7: every split between the
// eight-byte steps and the byte tail, at every alignment. Each input ends
// exactly at the end of its allocation, so a read past the span is a heap
// overflow under ASan.
TEST(Crc32Test, MatchesTheBitwiseReferenceAtEveryLengthAndOffset) {
  Rng rng(0xc4c32ULL);
  for (std::size_t length = 0; length <= 1100; ++length) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::vector<std::uint8_t> storage =
          randomBytes(rng, offset + length);
      const auto message = std::span(storage).subspan(offset);
      ASSERT_EQ(crc32(message), bitwiseCrc32(message))
          << "length " << length << " offset " << offset;
    }
  }
}

TEST(Crc32Test, MatchesTheBitwiseReferenceOn1000RandomBuffers) {
  Rng rng(0x5eedc4cULL);
  for (int round = 0; round < 1000; ++round) {
    const auto offset = static_cast<std::size_t>(rng.uniform(0, 7));
    const auto length = static_cast<std::size_t>(rng.uniform(0, 65536));
    const std::vector<std::uint8_t> storage = randomBytes(rng, offset + length);
    const auto message = std::span(storage).subspan(offset);
    ASSERT_EQ(crc32(message), bitwiseCrc32(message))
        << "round " << round << " length " << length;
  }
}

}  // namespace
}  // namespace libspector::util
