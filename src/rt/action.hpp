// The micro-bytecode app methods are made of.
//
// The paper runs real Dalvik bytecode; our substitute gives each method a
// small list of actions sufficient to reproduce everything Libspector
// observes: nested Java calls (stack shape), HTTP engine usage (Listing 1
// wrapper chains), socket creation, async dispatch and framework-originated
// traffic.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace libspector::rt {

/// Index of a method in an AppProgram's method table.
using MethodId = std::uint32_t;

/// HTTP engines an app can issue requests through; each produces the
/// corresponding framework wrapper chain in the stack trace.
enum class HttpEngine : std::uint8_t { OkHttp = 0, UrlConnection = 1, ApacheHttp = 2 };

/// Invoke another app method (pushes a stack frame).
struct CallAction {
  MethodId callee = 0;

  [[nodiscard]] bool operator==(const CallAction&) const = default;
};

/// Issue an HTTP-style request: resolve + connect + `transfers`
/// request/response exchanges + close, through `engine`'s wrapper chain.
struct NetRequestAction {
  std::string domain;
  std::uint16_t port = 443;
  std::uint32_t requestBytesMin = 200;
  std::uint32_t requestBytesMax = 1200;
  std::uint8_t transfers = 1;
  HttpEngine engine = HttpEngine::OkHttp;
  /// HTTP-level identifiers visible on the wire (empty userAgent = the
  /// platform default Dalvik UA is filled in by the interpreter).
  std::string path = "/";
  std::string userAgent;
  bool post = false;
  /// Keep-alive: reuse a pooled connection to domain:port when one exists
  /// (firing a request-boundary hook instead of connecting) and leave the
  /// socket open afterwards. Only honoured when the runtime's
  /// ScenarioConfig::keepAliveReuse flag is on; otherwise behaves exactly
  /// like a one-shot request.
  bool keepAlive = false;

  [[nodiscard]] bool operator==(const NetRequestAction&) const = default;
};

/// The stock HttpURLConnection User-Agent — the "generic identifier" the
/// paper calls out as breaking header-based attribution.
inline constexpr const char* kDefaultUserAgent =
    "Dalvik/2.1.0 (Linux; U; Android 7.1.1; sdk_google_phone_x86 Build/NMF26X)";

/// Advance simulated time (computation, rendering, media playback...).
struct SleepAction {
  std::uint32_t ms = 0;

  [[nodiscard]] bool operator==(const SleepAction&) const = default;
};

/// Schedule an app method on the AsyncTask pool; it runs at the next drain
/// point under the AsyncTask$2.call / FutureTask.run wrapper frames.
struct AsyncAction {
  MethodId task = 0;

  [[nodiscard]] bool operator==(const AsyncAction&) const = default;
};

/// A request issued later by a framework-owned thread (WebView, media
/// stack): its stack trace contains no app frames at all, producing the
/// "*-Advertisement"-style built-in traffic of Fig. 3.
struct SystemRequestAction {
  std::string domain;
  std::uint16_t port = 443;
  std::uint32_t requestBytesMin = 150;
  std::uint32_t requestBytesMax = 600;

  [[nodiscard]] bool operator==(const SystemRequestAction&) const = default;
};

/// Invoke `callee` with probability `prob` (apps gate work on state the
/// monkey drives randomly — cache hits, ad refresh timers, screen position).
struct GuardAction {
  double prob = 1.0;
  MethodId callee = 0;

  [[nodiscard]] bool operator==(const GuardAction&) const = default;
};

/// Invoke `callee` through the reflection machinery: the runtime pushes a
/// java.lang.reflect.Method.invoke framework frame between caller and
/// callee, exactly the trampoline shape adversarial apps use to launder
/// which library issued a request (ScenarioConfig::adversarialApps).
struct ReflectiveCallAction {
  MethodId callee = 0;

  [[nodiscard]] bool operator==(const ReflectiveCallAction&) const = default;
};

using Action =
    std::variant<CallAction, NetRequestAction, SleepAction, AsyncAction,
                 SystemRequestAction, GuardAction, ReflectiveCallAction>;

}  // namespace libspector::rt
