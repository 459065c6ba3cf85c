// The ART-like runtime: executes an AppProgram against a NetworkStack while
// maintaining a Java-style call stack, feeding the method tracer, and firing
// Xposed-style post-hooks on socket creation.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/stack.hpp"
#include "rt/action.hpp"
#include "rt/framework.hpp"
#include "rt/program.hpp"
#include "rt/scenario.hpp"
#include "rt/tracer.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace libspector::rt {

/// One frame of a captured stack trace (Java getStackTrace analogue),
/// innermost first.
struct StackFrameSnapshot {
  std::string name;              // "com.foo.Bar.baz"
  std::int32_t methodId = -1;    // AppProgram method id; -1 for framework frames

  [[nodiscard]] bool isAppFrame() const noexcept { return methodId >= 0; }
  [[nodiscard]] bool operator==(const StackFrameSnapshot&) const = default;
};

class Interpreter;

/// Context delivered to a post-hook right after a socket is connected:
/// the connection exists and has valid parameters (paper §II-B2a).
/// The runtime reference is mutable — Xposed modules may interact with the
/// process they instrument (the Socket Supervisor sends datagrams).
struct SocketHookContext {
  net::SocketId socketId = 0;
  Interpreter& runtime;
  /// Which logical request on this socket the hook observes: 0 for the
  /// connect itself (kSocketConnectFrame), >= 1 for each keep-alive reuse
  /// (kRequestBoundaryFrame).
  std::uint32_t requestOrdinal = 0;
};

using PostHook = std::function<void(const SocketHookContext&)>;

/// Context delivered to a pre-connect hook *before* the socket exists.
/// Policy modules (BorderPatrol-style, §IV-E) veto connections here.
struct PreConnectContext {
  const std::string& domain;
  std::uint16_t port = 0;
  Interpreter& runtime;
};

/// Return false to veto the connection (it is never attempted).
using PreConnectHook = std::function<bool(const PreConnectContext&)>;

struct InterpreterLimits {
  int maxCallDepth = 48;
  std::size_t maxActionsPerEntry = 20000;
  std::size_t maxAsyncPerDrain = 256;
};

class Interpreter {
 public:
  Interpreter(const AppProgram& program, net::NetworkStack& stack,
              MethodTracer& tracer, util::SimClock& clock, util::Rng rng,
              InterpreterLimits limits = {});

  Interpreter(const Interpreter&) = delete;
  Interpreter& operator=(const Interpreter&) = delete;

  /// Install a post-hook on a frame name (the Xposed attachment point).
  void registerPostHook(std::string frameName, PostHook hook);

  /// Install a pre-connect hook; any hook returning false blocks the
  /// connection before the socket is created.
  void registerPreConnectHook(PreConnectHook hook);

  /// Enable scenario behaviours (connection pooling, reflection
  /// trampolines). All off by default; with all off the runtime is
  /// byte-identical to the seed interpreter.
  void setScenario(const ScenarioConfig& scenario) { scenario_ = scenario; }
  [[nodiscard]] const ScenarioConfig& scenario() const noexcept {
    return scenario_;
  }

  /// Close every pooled keep-alive connection (FIN/ACK teardown in the
  /// capture). The emulator calls this when the app is torn down, before
  /// artifacts are collected; idempotent.
  void closePooledConnections();

  /// Run the app's onCreate entry point and drain resulting async work.
  void start();

  /// Deliver one UI event: picks a random handler (monkey semantics) and
  /// drains async work it scheduled. Returns false when the app has no UI
  /// handlers (nothing to exercise).
  bool dispatchUiEvent();

  /// Run queued AsyncTask bodies and framework-thread requests.
  void drainAsync();

  /// One background tick: run every backgroundTask under the AsyncTask
  /// wrapper frames (the app is no longer in the foreground; whatever it
  /// transmits now is background traffic).
  void runBackgroundTick();

  /// Snapshot of the current call stack, innermost frame first — only
  /// meaningful from inside a hook. App frames are named here, from their
  /// signatures (AppProgram::frameName).
  [[nodiscard]] std::vector<StackFrameSnapshot> getStackTrace() const;

  [[nodiscard]] std::size_t socketsCreated() const noexcept { return socketsCreated_; }
  [[nodiscard]] std::size_t connectsBlocked() const noexcept { return connectsBlocked_; }
  [[nodiscard]] std::size_t methodEntries() const noexcept { return methodEntries_; }
  [[nodiscard]] std::size_t uiEventsDelivered() const noexcept { return uiEvents_; }
  [[nodiscard]] const AppProgram& program() const noexcept { return program_; }

  /// The emulator network stack this runtime drives. Hook modules use it to
  /// read connection parameters (via hook::connectionParameters) and to
  /// send their UDP report datagrams.
  [[nodiscard]] net::NetworkStack& networkStack() noexcept { return stack_; }
  [[nodiscard]] const net::NetworkStack& networkStack() const noexcept { return stack_; }

  /// The emulator's simulated clock (read-only view).
  [[nodiscard]] const util::SimClock& clock() const noexcept { return clock_; }

 private:
  /// An app frame is its method id; getStackTrace derives its name. A
  /// framework frame is its name, a view of a framework constant.
  struct LiveFrame {
    std::string_view name;
    std::int32_t methodId = -1;
  };

  void runMethod(MethodId id, int depth);
  void execAction(const Action& action, int depth);
  void doNetRequest(const NetRequestAction& request);
  void runSystemRequest(const SystemRequestAction& request);
  void pushFrameworkFrame(std::string_view name);
  void firePostHooks(std::string_view frameName, net::SocketId socketId,
                     std::uint32_t requestOrdinal = 0);
  void runTransfers(const NetRequestAction& request, net::SocketId socketId);

  const AppProgram& program_;
  net::NetworkStack& stack_;
  MethodTracer& tracer_;
  util::SimClock& clock_;
  util::Rng rng_;
  InterpreterLimits limits_;
  ScenarioConfig scenario_;

  std::vector<LiveFrame> liveStack_;
  std::unordered_map<std::string, std::vector<PostHook>,
                     util::TransparentStringHash, std::equal_to<>>
      postHooks_;
  std::vector<PreConnectHook> preConnectHooks_;
  std::deque<MethodId> asyncQueue_;
  std::deque<SystemRequestAction> systemQueue_;
  /// Keep-alive pool: domain:port -> open socket, plus the ordinal the
  /// *next* logical request on each pooled socket gets (connect = 0).
  std::unordered_map<std::string, net::SocketId> connectionPool_;
  std::unordered_map<net::SocketId, std::uint32_t> nextRequestOrdinal_;

  std::size_t actionsThisEntry_ = 0;
  std::size_t socketsCreated_ = 0;
  std::size_t connectsBlocked_ = 0;
  std::size_t methodEntries_ = 0;
  std::size_t uiEvents_ = 0;
};

}  // namespace libspector::rt
