#include "util/sha256.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define LIBSPECTOR_SHA256_X86 1
#endif

namespace libspector::util {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return (x >> n) | (x << (32 - n));
}

#ifdef LIBSPECTOR_SHA256_X86
// The SHA-extension kernel. The target attribute enables the instructions
// for this one function, so the build needs no -m flag; it only ever runs
// after shaExtensionKernel() has checked CPUID.
//
// The state lives in two registers as the instructions want it, ABEF and
// CDGH. Each group of four rounds adds four schedule words to their round
// constants; sha256rnds2 does two rounds per call on the low half.
// Schedule group g >= 4 (words 4g..4g+3) is
//   msg2(msg1(W[g-4], W[g-3]) + alignr(W[g-1], W[g-2], 4), W[g-1]),
// kept in a four-register ring.
__attribute__((target("sha,sse4.1,ssse3"))) void compressShaExtensions(
    std::uint32_t* state, const std::uint8_t* blocks,
    std::size_t count) noexcept {
  const __m128i byteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; count > 0; --count, blocks += 64) {
    const __m128i abefSaved = abef;
    const __m128i cdghSaved = cdgh;
    __m128i w[4];
    for (int i = 0; i < 4; ++i)
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          byteSwap);
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g >= 4) {
        const __m128i last = w[(g + 3) % 4];
        const __m128i sigma0 = _mm_sha256msg1_epu32(w[g % 4], w[(g + 1) % 4]);
        const __m128i tail = _mm_alignr_epi8(last, w[(g + 2) % 4], 4);
        w[g % 4] = _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, tail), last);
      }
      __m128i wk = _mm_add_epi32(
          w[g % 4],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK.data() + 4 * g)));
      // Each call leaves the new ABEF in its first operand's register, so
      // after the pair the two registers are back in place.
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    }
    abef = _mm_add_epi32(abef, abefSaved);
    cdgh = _mm_add_epi32(cdgh, cdghSaved);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}
#endif

/// The kernel this process uses, chosen on first use from CPUID.
Sha256::Kernel selectedKernel() noexcept {
  static const Sha256::Kernel kernel = [] {
    const Sha256::Kernel fast = Sha256::shaExtensionKernel();
    return fast != nullptr ? fast : &Sha256::portableKernel;
  }();
  return kernel;
}

}  // namespace

void Sha256::portableKernel(std::uint32_t* state, const std::uint8_t* blocks,
                            std::size_t count) noexcept {
  for (; count > 0; --count, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t{blocks[4 * i]} << 24) |
             (std::uint32_t{blocks[4 * i + 1]} << 16) |
             (std::uint32_t{blocks[4 * i + 2]} << 8) |
             std::uint32_t{blocks[4 * i + 3]};
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Sha256::Kernel Sha256::shaExtensionKernel() noexcept {
#ifdef LIBSPECTOR_SHA256_X86
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return nullptr;
  const bool ssse3 = (ecx & bit_SSSE3) != 0;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return nullptr;
  const bool sha = (ebx & bit_SHA) != 0;
  if (ssse3 && sse41 && sha) return &compressShaExtensions;
#endif
  return nullptr;
}

const char* Sha256::kernelName() noexcept {
  return selectedKernel() == &portableKernel ? "portable" : "sha-ni";
}

Sha256::Sha256() noexcept
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
             0x9b05688c, 0x1f83d9ab, 0x5be0cd19},
      buffer_{} {}

void Sha256::update(std::span<const std::uint8_t> data) noexcept {
  totalBytes_ += data.size();
  const std::uint8_t* bytes = data.data();
  std::size_t size = data.size();
  // Most writes (length prefixes, short strings) fit in the open block.
  if (size < buffer_.size() - bufferLen_) {
    if (size > 0) std::memcpy(buffer_.data() + bufferLen_, bytes, size);
    bufferLen_ += size;
    return;
  }
  const Kernel compress = selectedKernel();
  if (bufferLen_ > 0) {
    const std::size_t take = buffer_.size() - bufferLen_;
    std::memcpy(buffer_.data() + bufferLen_, bytes, take);
    compress(state_.data(), buffer_.data(), 1);
    bytes += take;
    size -= take;
  }
  // Whole blocks straight from the caller's buffer, in one kernel call.
  if (const std::size_t blocks = size / 64; blocks > 0) {
    compress(state_.data(), bytes, blocks);
    bytes += blocks * 64;
    size -= blocks * 64;
  }
  bufferLen_ = size;
  if (size > 0) std::memcpy(buffer_.data(), bytes, size);
}

void Sha256::update(std::string_view data) noexcept {
  update(std::span(reinterpret_cast<const std::uint8_t*>(data.data()),
                   data.size()));
}

Sha256Digest Sha256::finish() noexcept {
  const Kernel compress = selectedKernel();
  const std::uint64_t bitLen = totalBytes_ * 8;
  buffer_[bufferLen_++] = 0x80;
  if (bufferLen_ > 56) {
    std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(bufferLen_),
              buffer_.end(), std::uint8_t{0});
    compress(state_.data(), buffer_.data(), 1);
    bufferLen_ = 0;
  }
  std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(bufferLen_),
            buffer_.begin() + 56, std::uint8_t{0});
  for (int i = 0; i < 8; ++i)
    buffer_[56 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bitLen >> (56 - 8 * i));
  compress(state_.data(), buffer_.data(), 1);
  bufferLen_ = 0;

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    digest[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return digest;
}

Sha256Digest Sha256::hash(std::span<const std::uint8_t> data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Sha256Digest Sha256::hash(std::string_view data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finish();
}

std::string toHex(const Sha256Digest& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(digest.size() * 2);
  for (std::uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0x0f]);
  }
  return out;
}

}  // namespace libspector::util
