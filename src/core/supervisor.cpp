#include "core/supervisor.hpp"

#include "hook/native.hpp"
#include "rt/framework.hpp"
#include "util/log.hpp"
#include "util/sha256.hpp"

namespace libspector::core {

SocketSupervisor::SocketSupervisor(net::SockEndpoint collector,
                                   std::uint32_t workerId)
    : collector_(collector), dictEncoder_(workerId) {}

std::string translateFrame(const rt::StackFrameSnapshot& frame,
                           const rt::AppProgram& program,
                           const dex::FrameTranslationTable& translations) {
  if (frame.isAppFrame()) {
    // Xposed hands the hook the reflected Method object, so app frames are
    // overload-precise.
    return std::string(
        program.method(static_cast<rt::MethodId>(frame.methodId)).signature);
  }
  // Framework frames: try the dex translation table (third-party code
  // bundled in the apk shows up here), otherwise keep the frame name.
  const auto overloads = translations.lookup(frame.name);
  if (!overloads.empty()) return std::string(overloads.front());
  return frame.name;
}

void SocketSupervisor::primeApkContext(std::string apkSha256) {
  pendingApkSha256_ = std::move(apkSha256);
}

void SocketSupervisor::onAppLoaded(rt::Interpreter& runtime,
                                   const dex::ApkFile& apk) {
  // Digest memoization: reuse the host's hash when primed, so one app
  // load hashes the apk at most once across emulator + supervisor.
  std::string sha = pendingApkSha256_.empty() ? util::toHex(apk.sha256())
                                              : std::move(pendingApkSha256_);
  pendingApkSha256_.clear();
  auto state = std::make_shared<AppState>(
      AppState{std::move(sha), dex::FrameTranslationTable(apk)});
  runtime.registerPostHook(
      std::string(rt::kSocketConnectFrame),
      [this, state](const rt::SocketHookContext& context) {
        onSocketConnected(context, state);
      });
  // Keep-alive reuse fires the same observation with a nonzero request
  // ordinal: one report per *logical request*, not per socket, so the
  // offline pipeline can split a reused connection's capture stream into
  // per-request flows.
  runtime.registerPostHook(
      std::string(rt::kRequestBoundaryFrame),
      [this, state](const rt::SocketHookContext& context) {
        onSocketConnected(context, state);
      });
}

void SocketSupervisor::onSocketConnected(
    const rt::SocketHookContext& context,
    const std::shared_ptr<AppState>& state) {
  rt::Interpreter& runtime = context.runtime;
  net::NetworkStack& stack = runtime.networkStack();

  // Shared library call: getsockname + getpeername.
  const auto pair = hook::connectionParameters(stack, context.socketId);
  if (!pair) {
    util::logWarn("SocketSupervisor: no connection parameters for socket");
    return;
  }

  UdpReport report;
  report.apkSha256 = state->apkSha256;
  report.socketPair = *pair;
  report.timestampMs = runtime.clock().now();
  report.requestOrdinal = context.requestOrdinal;

  const auto trace = runtime.getStackTrace();
  report.stackSignatures.reserve(trace.size());
  for (const auto& frame : trace)
    report.stackSignatures.push_back(
        translateFrame(frame, runtime.program(), state->translations));

  // Framed with the worker id and this run's next sequence number: the
  // channel is best-effort UDP, and only sender-assigned sequencing lets
  // the ingest tier account loss/dup/reorder instead of absorbing it.
  stack.sendUdpDatagram(collector_, dictEncoder_.encode(reportsSent_, report));
  ++reportsSent_;
}

}  // namespace libspector::core
