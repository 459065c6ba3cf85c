// Standalone SHA-256 implementation (FIPS 180-4).
//
// The Socket Supervisor tags every UDP report with the sha256 checksum of
// the apk under test (paper §II-B2a); the result database keys artifacts by
// the same digest.  The digest is implemented here rather than linked from
// a crypto library, which would add a dependency and resident memory to
// every process for one function. It is validated against FIPS test
// vectors in tests/util/sha256_test.cpp.
//
// Two compression kernels exist. The process reads CPUID once and uses the
// x86 SHA-extension kernel when the CPU has SHA, SSSE3 and SSE4.1; every
// other CPU runs the portable kernel, which is also the reference the tests
// hold the SHA-extension kernel to.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace libspector::util {

using Sha256Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  /// A compression kernel: folds `count` consecutive 64-byte blocks into
  /// `state` (FIPS 180-4 §6.2.2 per block). `blocks` needs no alignment.
  using Kernel = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                          std::size_t count) noexcept;

  /// The plain C++ kernel: runs on every CPU.
  static void portableKernel(std::uint32_t* state, const std::uint8_t* blocks,
                             std::size_t count) noexcept;
  /// The x86 SHA-extension kernel, or nullptr when this CPU lacks SHA,
  /// SSSE3 or SSE4.1.
  [[nodiscard]] static Kernel shaExtensionKernel() noexcept;
  /// Name of the kernel every hasher in this process uses: "sha-ni" or
  /// "portable".
  [[nodiscard]] static const char* kernelName() noexcept;

  Sha256() noexcept;

  void update(std::span<const std::uint8_t> data) noexcept;
  void update(std::string_view data) noexcept;

  /// Finalize and return the digest. The hasher must not be reused afterwards.
  [[nodiscard]] Sha256Digest finish() noexcept;

  /// One-shot convenience.
  [[nodiscard]] static Sha256Digest hash(std::span<const std::uint8_t> data) noexcept;
  [[nodiscard]] static Sha256Digest hash(std::string_view data) noexcept;

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t bufferLen_ = 0;
  std::uint64_t totalBytes_ = 0;
};

/// Lowercase hex rendering of a digest.
[[nodiscard]] std::string toHex(const Sha256Digest& digest);

}  // namespace libspector::util
