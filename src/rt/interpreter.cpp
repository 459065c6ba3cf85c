#include "rt/interpreter.hpp"

#include <algorithm>

namespace libspector::rt {

Interpreter::Interpreter(const AppProgram& program, net::NetworkStack& stack,
                         MethodTracer& tracer, util::SimClock& clock,
                         util::Rng rng, InterpreterLimits limits)
    : program_(program),
      stack_(stack),
      tracer_(tracer),
      clock_(clock),
      rng_(rng),
      limits_(limits) {}

void Interpreter::registerPostHook(std::string frameName, PostHook hook) {
  postHooks_[std::move(frameName)].push_back(std::move(hook));
}

void Interpreter::registerPreConnectHook(PreConnectHook hook) {
  preConnectHooks_.push_back(std::move(hook));
}

void Interpreter::start() {
  if (program_.onCreate) {
    actionsThisEntry_ = 0;
    runMethod(*program_.onCreate, 0);
  }
  drainAsync();
}

bool Interpreter::dispatchUiEvent() {
  ++uiEvents_;
  if (program_.uiHandlers.empty()) return false;
  const MethodId handler =
      program_.uiHandlers[rng_.uniform(0, program_.uiHandlers.size() - 1)];
  actionsThisEntry_ = 0;
  runMethod(handler, 0);
  drainAsync();
  return true;
}

void Interpreter::drainAsync() {
  std::size_t drained = 0;
  while ((!asyncQueue_.empty() || !systemQueue_.empty()) &&
         drained < limits_.maxAsyncPerDrain) {
    if (!asyncQueue_.empty()) {
      const MethodId task = asyncQueue_.front();
      asyncQueue_.pop_front();
      // AsyncTask bodies run beneath the executor wrapper frames.
      const auto chain = asyncTaskChain();
      for (const auto frame : chain) pushFrameworkFrame(frame);
      actionsThisEntry_ = 0;
      runMethod(task, 0);
      liveStack_.resize(liveStack_.size() - chain.size());
    } else {
      const SystemRequestAction request = systemQueue_.front();
      systemQueue_.pop_front();
      runSystemRequest(request);
    }
    ++drained;
  }
}

void Interpreter::runBackgroundTick() {
  for (const MethodId task : program_.backgroundTasks)
    asyncQueue_.push_back(task);
  drainAsync();
}

std::vector<StackFrameSnapshot> Interpreter::getStackTrace() const {
  std::vector<StackFrameSnapshot> trace;
  trace.reserve(liveStack_.size());
  for (auto it = liveStack_.rbegin(); it != liveStack_.rend(); ++it)
    trace.push_back(
        {it->methodId >= 0
             ? program_.frameName(static_cast<MethodId>(it->methodId))
             : std::string(it->name),
         it->methodId});
  return trace;
}

void Interpreter::runMethod(MethodId id, int depth) {
  if (depth >= limits_.maxCallDepth) return;  // Java would StackOverflowError
  const MethodView method = program_.method(id);
  liveStack_.push_back({{}, static_cast<std::int32_t>(id)});
  ++methodEntries_;
  tracer_.onAppMethodEntry(id, method.signature);
  for (const Action& action : method.body) {
    if (++actionsThisEntry_ > limits_.maxActionsPerEntry) break;
    execAction(action, depth);
  }
  liveStack_.pop_back();
}

void Interpreter::execAction(const Action& action, int depth) {
  std::visit(
      [&](const auto& a) {
        using T = std::decay_t<decltype(a)>;
        if constexpr (std::is_same_v<T, CallAction>) {
          runMethod(a.callee, depth + 1);
        } else if constexpr (std::is_same_v<T, NetRequestAction>) {
          doNetRequest(a);
        } else if constexpr (std::is_same_v<T, SleepAction>) {
          clock_.advance(a.ms);
        } else if constexpr (std::is_same_v<T, AsyncAction>) {
          asyncQueue_.push_back(a.task);
        } else if constexpr (std::is_same_v<T, SystemRequestAction>) {
          systemQueue_.push_back(a);
        } else if constexpr (std::is_same_v<T, GuardAction>) {
          if (rng_.chance(a.prob)) runMethod(a.callee, depth + 1);
        } else if constexpr (std::is_same_v<T, ReflectiveCallAction>) {
          // Reflection trampoline: the callee runs beneath a
          // Method.invoke framework frame, exactly what a laundered stack
          // trace shows between caller and target.
          pushFrameworkFrame(kReflectMethodInvokeFrame);
          runMethod(a.callee, depth + 1);
          liveStack_.pop_back();
        }
      },
      action);
}

void Interpreter::pushFrameworkFrame(std::string_view name) {
  liveStack_.push_back({name, -1});
  tracer_.onMethodEntry(name);
}

void Interpreter::firePostHooks(std::string_view frameName,
                                net::SocketId socketId,
                                std::uint32_t requestOrdinal) {
  const auto it = postHooks_.find(frameName);
  if (it == postHooks_.end()) return;
  const SocketHookContext context{socketId, *this, requestOrdinal};
  for (const PostHook& hook : it->second) hook(context);
}

void Interpreter::doNetRequest(const NetRequestAction& request) {
  const auto chain = engineChain(request.engine);
  for (const auto frame : chain) pushFrameworkFrame(frame);

  const bool pooled = scenario_.keepAliveReuse && request.keepAlive;
  if (pooled) {
    const auto it = connectionPool_.find(request.domain + ':' +
                                         std::to_string(request.port));
    if (it != connectionPool_.end()) {
      // Reuse: the connection already exists, so no pre-connect hooks run
      // (there is no connect to veto) and no Socket.connect fires. The
      // Socket Supervisor instead observes the new logical request — with
      // the *current* call stack — through the request-boundary hook, and
      // the boundary is recorded for the run artifacts. The boundary
      // report's timestamp precedes every packet of this request (the
      // simulated clock only moves forward inside transfer()), which is
      // exactly what per-request flow splitting partitions on.
      const net::SocketId socketId = it->second;
      const std::uint32_t ordinal = nextRequestOrdinal_[socketId]++;
      tracer_.onRequestBoundary(socketId, ordinal, clock_.now());
      firePostHooks(kRequestBoundaryFrame, socketId, ordinal);
      runTransfers(request, socketId);
      liveStack_.resize(liveStack_.size() - chain.size());
      return;
    }
  }

  // Pre-connect hooks may veto (policy enforcement): the connection is then
  // never attempted — no socket, no DNS beyond what the stack already did.
  const PreConnectContext preContext{request.domain, request.port, *this};
  for (const PreConnectHook& hook : preConnectHooks_) {
    if (!hook(preContext)) {
      ++connectsBlocked_;
      liveStack_.resize(liveStack_.size() - chain.size());
      return;
    }
  }

  const auto connection = stack_.connectTcp(request.domain, request.port);
  if (connection) {
    ++socketsCreated_;
    // Post-hook semantics: the connection exists when the hook observes it.
    firePostHooks(kSocketConnectFrame, connection->id);
    runTransfers(request, connection->id);
    if (pooled) {
      connectionPool_.emplace(
          request.domain + ':' + std::to_string(request.port),
          connection->id);
      nextRequestOrdinal_[connection->id] = 1;
    } else {
      stack_.closeTcp(connection->id);
    }
  }

  liveStack_.resize(liveStack_.size() - chain.size());
}

void Interpreter::runTransfers(const NetRequestAction& request,
                               net::SocketId socketId) {
  net::NetworkStack::HttpRequestInfo http;
  http.path = request.path;
  http.userAgent =
      request.userAgent.empty() ? kDefaultUserAgent : request.userAgent;
  http.post = request.post;

  const std::uint8_t transfers = std::max<std::uint8_t>(request.transfers, 1);
  for (std::uint8_t i = 0; i < transfers; ++i) {
    const auto requestBytes = static_cast<std::uint32_t>(rng_.uniform(
        std::min(request.requestBytesMin, request.requestBytesMax),
        std::max(request.requestBytesMin, request.requestBytesMax)));
    stack_.transfer(socketId, requestBytes, &http);
  }
}

void Interpreter::closePooledConnections() {
  // Sorted teardown: the pool is a hash map, but FIN packets land in the
  // shared capture, so close order must not depend on hash iteration.
  std::vector<std::pair<std::string_view, net::SocketId>> pooled(
      connectionPool_.begin(), connectionPool_.end());
  std::sort(pooled.begin(), pooled.end());
  for (const auto& [key, socketId] : pooled) stack_.closeTcp(socketId);
  connectionPool_.clear();
  nextRequestOrdinal_.clear();
}

void Interpreter::runSystemRequest(const SystemRequestAction& request) {
  // Framework-owned thread: the live stack is replaced by pure framework
  // frames for the duration of the request, so getStackTrace() from the
  // post-hook sees no app code at all.
  std::vector<LiveFrame> saved;
  saved.swap(liveStack_);
  for (const auto frame : systemThreadChain()) pushFrameworkFrame(frame);

  NetRequestAction asRequest;
  asRequest.domain = request.domain;
  asRequest.port = request.port;
  asRequest.requestBytesMin = request.requestBytesMin;
  asRequest.requestBytesMax = request.requestBytesMax;
  asRequest.transfers = 1;
  asRequest.engine = HttpEngine::UrlConnection;
  doNetRequest(asRequest);

  liveStack_ = std::move(saved);
}

}  // namespace libspector::rt
