// The Socket Supervisor (paper §II-A1, §II-B2).
//
// Implemented as an Xposed module: it post-hooks socket connection calls,
// captures the live Java stack trace, translates every frame to its method
// type signature using information parsed from the apk's dex files, obtains
// the socket pair via the JNI shared library (getsockname/getpeername), and
// ships one UDP report per socket to the data collection server.
#pragma once

#include <memory>
#include <string>

#include "core/report.hpp"
#include "dex/disassembler.hpp"
#include "hook/xposed.hpp"
#include "net/ip.hpp"

namespace libspector::core {

/// Where the collection server listens (10.0.2.2 is the emulator's host
/// loopback alias, as on a real Android emulator).
inline constexpr net::SockEndpoint kDefaultCollectorEndpoint{{10, 0, 2, 2}, 5005};

class SocketSupervisor final : public hook::XposedModule {
 public:
  /// `workerId` stamps every framed report this supervisor emits; the
  /// dispatcher passes the job index so (workerId, sequence) is unique per
  /// study and the ingest tier can account loss/duplication per apk.
  /// Reports go out as dictionary-compressed v3 frames (each distinct
  /// signature sent once per run, then by id): the receiving tier must
  /// keep dictionary state — the sharded ingest router and the
  /// ReportStreamDecoder both do.
  explicit SocketSupervisor(
      net::SockEndpoint collector = kDefaultCollectorEndpoint,
      std::uint32_t workerId = 0);

  /// Pre-seed the next onAppLoaded with the apk's hex sha256 (the emulator
  /// computes it once per run for the artifact bundle). Without this the
  /// supervisor re-serializes the apk to hash it.
  void primeApkContext(std::string apkSha256);

  /// Installs the post-hook on java.net.Socket.connect; translates frames
  /// to signatures through `apk`'s class index and resolves the apk
  /// checksum the reports will carry (from primeApkContext when available).
  /// The translation table reads `apk`: the apk must outlive the hooks, as
  /// the emulator's does for the whole run.
  void onAppLoaded(rt::Interpreter& runtime, const dex::ApkFile& apk) override;

  [[nodiscard]] std::size_t reportsSent() const noexcept { return reportsSent_; }

 private:
  struct AppState {
    std::string apkSha256;
    dex::FrameTranslationTable translations;
  };

  void onSocketConnected(const rt::SocketHookContext& context,
                         const std::shared_ptr<AppState>& state);

  net::SockEndpoint collector_;
  DictFrameEncoder dictEncoder_;
  std::size_t reportsSent_ = 0;
  std::string pendingApkSha256_;
};

/// Translate one stack frame to what the report should carry: the exact
/// type signature for app frames (overload-precise), the frame name for
/// framework frames that are not in the apk's dex files.
[[nodiscard]] std::string translateFrame(
    const rt::StackFrameSnapshot& frame, const rt::AppProgram& program,
    const dex::FrameTranslationTable& translations);

}  // namespace libspector::core
