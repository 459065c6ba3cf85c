#include "util/sha256.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace libspector::util {
namespace {

// FIPS 180-4 / NIST test vectors.
TEST(Sha256Test, EmptyInput) {
  EXPECT_EQ(toHex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(toHex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(toHex(Sha256::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, EightNinetySixBitMessage) {
  // The 896-bit FIPS 180-4 long-message vector ("abcdefgh..." x 112 chars).
  EXPECT_EQ(
      toHex(Sha256::hash("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghi"
                         "jklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrs"
                         "tnopqrstu")),
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(Sha256Test, MillionAs) {
  std::string input(1000000, 'a');
  EXPECT_EQ(toHex(Sha256::hash(input)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, ExactBlockBoundary) {
  // 64 bytes: padding must spill into a second block.
  std::string input(64, 'x');
  const auto digest = Sha256::hash(input);
  Sha256 h;
  h.update(input);
  EXPECT_EQ(h.finish(), digest);
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string data =
      "The quick brown fox jumps over the lazy dog, repeatedly and at length, "
      "to exercise multi-block hashing paths.";
  const auto oneShot = Sha256::hash(data);
  // Feed in awkward chunk sizes.
  for (const std::size_t chunk : {1UL, 3UL, 7UL, 63UL, 64UL, 65UL}) {
    Sha256 h;
    for (std::size_t pos = 0; pos < data.size(); pos += chunk)
      h.update(std::string_view(data).substr(pos, chunk));
    EXPECT_EQ(h.finish(), oneShot) << "chunk size " << chunk;
  }
}

TEST(Sha256Test, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha256::hash("hello"), Sha256::hash("hellp"));
  EXPECT_NE(Sha256::hash(std::string("a")), Sha256::hash(std::string("a\0", 2)));
}

TEST(Sha256Test, ToHexFormatsAllBytes) {
  const auto digest = Sha256::hash("abc");
  const std::string hex = toHex(digest);
  EXPECT_EQ(hex.size(), 64u);
  for (const char c : hex)
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'));
}

// Property: hashing N bytes of a repeating pattern is stable across chunk
// decomposition, for lengths around block boundaries.
class Sha256LengthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha256LengthSweep, ChunkingInvariance) {
  const std::size_t length = GetParam();
  std::string data(length, '\0');
  for (std::size_t i = 0; i < length; ++i)
    data[i] = static_cast<char>('A' + (i % 23));
  const auto expected = Sha256::hash(data);
  Sha256 h;
  std::size_t pos = 0;
  std::size_t step = 1;
  while (pos < data.size()) {
    const std::size_t take = std::min(step, data.size() - pos);
    h.update(std::string_view(data).substr(pos, take));
    pos += take;
    step = step * 2 + 1;
  }
  EXPECT_EQ(h.finish(), expected);
}

INSTANTIATE_TEST_SUITE_P(Lengths, Sha256LengthSweep,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65, 127,
                                           128, 129, 1000, 4096));

// Equivalence property: for 1,000 random buffers, chunked update() at
// random split points matches the one-shot digest. This is the contract
// the streaming apk-serialization walk rides on — any buffering bug at a
// block boundary would silently change every apk identity in a study.
TEST(Sha256Test, RandomSplitPointsMatchOneShotFor1000Buffers) {
  Rng rng(0x5eed5a256ULL);  // deterministic
  for (int round = 0; round < 1000; ++round) {
    const auto length = static_cast<std::size_t>(rng.uniform(0, 300));
    std::string data(length, '\0');
    for (auto& c : data)
      c = static_cast<char>(rng.uniform(0, 255));
    const auto oneShot = Sha256::hash(data);

    Sha256 chunked;
    std::size_t pos = 0;
    while (pos < data.size()) {
      const auto take = static_cast<std::size_t>(
          rng.uniform(1, static_cast<std::uint64_t>(data.size() - pos)));
      chunked.update(std::string_view(data).substr(pos, take));
      pos += take;
    }
    ASSERT_EQ(chunked.finish(), oneShot) << "round " << round
                                         << " length " << length;
  }
}

// The SHA-extension kernel against the portable one. Each test pads the
// message itself (FIPS 180-4 §5.1.1) and folds the blocks with one kernel
// alone, so a digest here depends on nothing but that kernel.
using Kernel = Sha256::Kernel;

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

std::vector<std::uint8_t> randomBytes(Rng& rng, std::size_t length) {
  std::vector<std::uint8_t> bytes(length);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  return bytes;
}

/// `message` followed by its FIPS padding, copied to `offset` bytes past
/// a 16-byte boundary of the returned storage so loads run unaligned.
struct PaddedMessage {
  std::vector<std::uint8_t> storage;
  std::size_t offset = 0;
  std::size_t blocks = 0;
  [[nodiscard]] const std::uint8_t* data() const {
    return storage.data() + offset;
  }
};

PaddedMessage pad(std::span<const std::uint8_t> message, std::size_t offset) {
  PaddedMessage padded;
  padded.blocks = (message.size() + 8) / 64 + 1;
  padded.offset = offset;
  padded.storage.assign(offset + padded.blocks * 64, 0);
  std::copy(message.begin(), message.end(),
            padded.storage.begin() + static_cast<std::ptrdiff_t>(offset));
  std::uint8_t* tail = padded.storage.data() + offset;
  tail[message.size()] = 0x80;
  const std::uint64_t bits = std::uint64_t{message.size()} * 8;
  for (int i = 0; i < 8; ++i)
    tail[padded.blocks * 64 - 1 - static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bits >> (8 * i));
  return padded;
}

/// Runs `kernel` over the padded blocks, `runs` blocks per call (the last
/// call takes what is left); returns the digest.
Sha256Digest digestWith(Kernel kernel, const PaddedMessage& padded,
                        const std::vector<std::size_t>& runs = {}) {
  std::array<std::uint32_t, 8> state = kInitialState;
  std::size_t done = 0;
  for (const std::size_t run : runs) {
    const std::size_t take = std::min(run, padded.blocks - done);
    kernel(state.data(), padded.data() + done * 64, take);
    done += take;
  }
  kernel(state.data(), padded.data() + done * 64, padded.blocks - done);
  Sha256Digest digest;
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t b = 0; b < 4; ++b)
      digest[4 * i + b] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
  return digest;
}

TEST(Sha256KernelTest, PortableKernelAloneReproducesTheFipsVectors) {
  const std::string abc = "abc";
  const auto bytes = std::span(reinterpret_cast<const std::uint8_t*>(abc.data()),
                               abc.size());
  EXPECT_EQ(toHex(digestWith(&Sha256::portableKernel, pad(bytes, 0))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(toHex(digestWith(&Sha256::portableKernel, pad({}, 3))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256KernelTest, KernelNameNamesTheSelectedKernel) {
  const std::string name = Sha256::kernelName();
  EXPECT_EQ(name, Sha256::shaExtensionKernel() != nullptr ? "sha-ni"
                                                          : "portable");
}

TEST(Sha256KernelTest, ShaExtensionKernelMatchesPortableForEveryLengthTo1100) {
  const Kernel shaExtensions = Sha256::shaExtensionKernel();
  if (shaExtensions == nullptr)
    GTEST_SKIP() << "this CPU lacks SHA, SSSE3 or SSE4.1; only the portable "
                    "kernel can run";
  Rng rng(0x5a256e47ULL);
  for (std::size_t length = 0; length <= 1100; ++length) {
    const auto message = randomBytes(rng, length);
    const PaddedMessage padded = pad(message, length % 16);
    const Sha256Digest reference = digestWith(&Sha256::portableKernel, padded);
    ASSERT_EQ(digestWith(shaExtensions, padded), reference)
        << "length " << length;
    ASSERT_EQ(Sha256::hash(std::span(message.data(), message.size())),
              reference)
        << "length " << length;
  }
}

TEST(Sha256KernelTest, ShaExtensionKernelMatchesPortableOn1000RandomBuffers) {
  const Kernel shaExtensions = Sha256::shaExtensionKernel();
  if (shaExtensions == nullptr)
    GTEST_SKIP() << "this CPU lacks SHA, SSSE3 or SSE4.1; only the portable "
                    "kernel can run";
  Rng rng(0x64b10cULL);
  for (int round = 0; round < 1000; ++round) {
    const auto message =
        randomBytes(rng, static_cast<std::size_t>(rng.uniform(0, 65536)));
    const PaddedMessage padded =
        pad(message, static_cast<std::size_t>(rng.uniform(0, 15)));
    // Random split points: the kernel folds runs of random block counts.
    std::vector<std::size_t> runs;
    for (std::size_t left = padded.blocks; left > 0;) {
      const auto run = static_cast<std::size_t>(rng.uniform(1, left));
      runs.push_back(run);
      left -= run;
    }
    ASSERT_EQ(digestWith(shaExtensions, padded, runs),
              digestWith(&Sha256::portableKernel, padded))
        << "round " << round << " length " << message.size();
  }
}

// update() against the portable reference: 1,000 random buffers of up to
// 64 KB at unaligned offsets, fed at random byte split points, so every
// path through update() (a write inside the open block, one that fills
// it, whole-block runs from the caller's buffer, the tail) runs on the
// kernel this process selected.
TEST(Sha256KernelTest, UpdateAtRandomSplitsMatchesThePortableReference) {
  Rng rng(0x0ff5e7ULL);
  for (int round = 0; round < 1000; ++round) {
    const auto offset = static_cast<std::size_t>(rng.uniform(0, 15));
    const auto length = static_cast<std::size_t>(rng.uniform(0, 65536));
    std::vector<std::uint8_t> storage = randomBytes(rng, offset + length);
    const auto message = std::span(storage).subspan(offset);
    Sha256 chunked;
    for (std::size_t pos = 0; pos < length;) {
      // Mostly short writes, as the serialization walk makes, with the
      // occasional long one.
      const std::uint64_t cap = rng.chance(0.1) ? 4096 : 80;
      const auto take = static_cast<std::size_t>(
          rng.uniform(1, std::min<std::uint64_t>(cap, length - pos)));
      chunked.update(message.subspan(pos, take));
      pos += take;
    }
    ASSERT_EQ(chunked.finish(),
              digestWith(&Sha256::portableKernel, pad(message, offset)))
        << "round " << round << " length " << length;
  }
}

}  // namespace
}  // namespace libspector::util
