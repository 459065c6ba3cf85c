#include "rt/interpreter.hpp"

#include <gtest/gtest.h>

#include "net/server.hpp"
#include "rt/tracer.hpp"

namespace libspector::rt {
namespace {

class InterpreterTest : public ::testing::Test {
 protected:
  InterpreterTest() {
    net::EndpointProfile profile;
    profile.domain = "api.example.com";
    profile.trueCategory = "business_and_finance";
    profile.responseLogMu = 8.0;
    profile.responseLogSigma = 0.3;
    farm_.addEndpoint(profile);
  }

  std::unique_ptr<net::NetworkStack> makeStack() {
    return std::make_unique<net::NetworkStack>(farm_, clock_, util::Rng(5));
  }

  net::ServerFarm farm_;
  util::SimClock clock_;
  UniqueMethodTracer tracer_;
};

AppProgram programWithNestedCalls() {
  AppProgram program;
  const MethodId leaf = program.addMethod("Lcom/app/Leaf;->work()V", {});
  const MethodId mid =
      program.addMethod("Lcom/app/Mid;->call()V", {CallAction{leaf}});
  NetRequestAction request;
  request.domain = "api.example.com";
  const MethodId fetcher =
      program.addMethod("Lcom/app/net/Fetcher;->fetch()V", {request});
  const MethodId handler = program.addMethod(
      "Lcom/app/ui/Handler;->onClick(Landroid/view/View;)V",
      {CallAction{mid}, CallAction{fetcher}});
  program.uiHandlers.push_back(handler);
  program.onCreate =
      program.addMethod("Lcom/app/ui/Main;->onCreate()V", {CallAction{mid}});
  return program;
}

TEST_F(InterpreterTest, StartRunsOnCreateAndTracesMethods) {
  const AppProgram program = programWithNestedCalls();
  auto stack = makeStack();
  Interpreter interp(program, *stack, tracer_, clock_, util::Rng(9));
  interp.start();
  const auto trace = tracer_.traceFile();
  EXPECT_NE(std::find(trace.begin(), trace.end(), "Lcom/app/ui/Main;->onCreate()V"),
            trace.end());
  EXPECT_NE(std::find(trace.begin(), trace.end(), "Lcom/app/Leaf;->work()V"),
            trace.end());
  EXPECT_EQ(interp.methodEntries(), 3u);  // onCreate, mid, leaf
}

TEST_F(InterpreterTest, UiEventRunsHandlerAndCreatesSocket) {
  const AppProgram program = programWithNestedCalls();
  auto stack = makeStack();
  Interpreter interp(program, *stack, tracer_, clock_, util::Rng(9));
  EXPECT_TRUE(interp.dispatchUiEvent());
  EXPECT_EQ(interp.socketsCreated(), 1u);
  EXPECT_EQ(interp.uiEventsDelivered(), 1u);
}

TEST_F(InterpreterTest, NoHandlersReturnsFalse) {
  AppProgram program;
  auto stack = makeStack();
  Interpreter interp(program, *stack, tracer_, clock_, util::Rng(9));
  EXPECT_FALSE(interp.dispatchUiEvent());
}

TEST_F(InterpreterTest, PostHookSeesEstablishedConnectionAndFullStack) {
  const AppProgram program = programWithNestedCalls();
  auto stack = makeStack();
  Interpreter interp(program, *stack, tracer_, clock_, util::Rng(9));

  std::vector<StackFrameSnapshot> observed;
  net::SocketId observedSocket = 0;
  bool wasOpenInHook = false;
  interp.registerPostHook(
      std::string(kSocketConnectFrame),
      [&](const SocketHookContext& context) {
        observed = context.runtime.getStackTrace();
        observedSocket = context.socketId;
        wasOpenInHook = context.runtime.networkStack().isOpen(context.socketId);
      });
  interp.dispatchUiEvent();

  ASSERT_FALSE(observed.empty());
  // Innermost frame is the hooked socket connect.
  EXPECT_EQ(observed.front().name, kSocketConnectFrame);
  EXPECT_FALSE(observed.front().isAppFrame());
  // The outermost frame is the UI handler (app frame).
  EXPECT_EQ(observed.back().name, "com.app.ui.Handler.onClick");
  EXPECT_TRUE(observed.back().isAppFrame());
  // Post-hook semantics: the connection was live with valid parameters at
  // interception time (it closes once the request completes).
  ASSERT_NE(stack->pairOf(observedSocket), nullptr);
  EXPECT_TRUE(wasOpenInHook);
}

TEST_F(InterpreterTest, OkHttpChainMatchesListing1Order) {
  const AppProgram program = programWithNestedCalls();
  auto stack = makeStack();
  Interpreter interp(program, *stack, tracer_, clock_, util::Rng(9));
  std::vector<std::string> frames;
  interp.registerPostHook(std::string(kSocketConnectFrame),
                          [&](const SocketHookContext& context) {
                            for (const auto& f : context.runtime.getStackTrace())
                              frames.push_back(f.name);
                          });
  interp.dispatchUiEvent();
  ASSERT_GE(frames.size(), 3u);
  EXPECT_EQ(frames[0], "java.net.Socket.connect");
  // Wrapper frames sit between the socket call and the app frames.
  EXPECT_TRUE(frames[1].starts_with("com.android.okhttp") ||
              frames[1].starts_with("org.apache.http") ||
              frames[1].starts_with("com.android.okhttp"));
}

TEST_F(InterpreterTest, AsyncTaskRunsUnderWrapperFrames) {
  AppProgram program;
  NetRequestAction request;
  request.domain = "api.example.com";
  const MethodId helper = program.addMethod("Lcom/lib/b;->a()V", {request});
  const MethodId task =
      program.addMethod("Lcom/lib/b;->doInBackground()V", {CallAction{helper}});
  const MethodId handler = program.addMethod("Lcom/app/H;->onClick()V",
                                             {AsyncAction{task}});
  program.uiHandlers.push_back(handler);

  auto stack = makeStack();
  Interpreter interp(program, *stack, tracer_, clock_, util::Rng(9));
  std::vector<std::string> frames;
  interp.registerPostHook(std::string(kSocketConnectFrame),
                          [&](const SocketHookContext& context) {
                            for (const auto& f : context.runtime.getStackTrace())
                              frames.push_back(f.name);
                          });
  interp.dispatchUiEvent();

  // Listing 1 shape: ..., lib frames, AsyncTask$2.call, FutureTask.run.
  ASSERT_GE(frames.size(), 4u);
  EXPECT_EQ(frames[frames.size() - 1], "java.util.concurrent.FutureTask.run");
  EXPECT_EQ(frames[frames.size() - 2], "android.os.AsyncTask$2.call");
  EXPECT_EQ(frames[frames.size() - 3], "com.lib.b.doInBackground");
  // The handler frame is NOT on the async stack.
  for (const auto& frame : frames) EXPECT_NE(frame, "com.app.H.onClick");
}

TEST_F(InterpreterTest, SystemRequestHasNoAppFrames) {
  AppProgram program;
  SystemRequestAction request;
  request.domain = "api.example.com";
  const MethodId handler =
      program.addMethod("Lcom/app/H;->onClick()V", {request});
  program.uiHandlers.push_back(handler);

  auto stack = makeStack();
  Interpreter interp(program, *stack, tracer_, clock_, util::Rng(9));
  std::vector<StackFrameSnapshot> observed;
  interp.registerPostHook(std::string(kSocketConnectFrame),
                          [&](const SocketHookContext& context) {
                            observed = context.runtime.getStackTrace();
                          });
  interp.dispatchUiEvent();
  ASSERT_FALSE(observed.empty());
  for (const auto& frame : observed) EXPECT_FALSE(frame.isAppFrame());
}

TEST_F(InterpreterTest, CallDepthIsBounded) {
  AppProgram program;
  // Mutually recursive pair: would loop forever without the depth cap.
  // Ids are handed out in order, so A's body can call B before B exists.
  const MethodId a = program.addMethod("Lcom/app/A;->f()V", {CallAction{1}});
  const MethodId b = program.addMethod("Lcom/app/B;->g()V", {CallAction{a}});
  ASSERT_EQ(b, 1u);
  program.onCreate = a;

  auto stack = makeStack();
  InterpreterLimits limits;
  limits.maxCallDepth = 10;
  Interpreter interp(program, *stack, tracer_, clock_, util::Rng(9), limits);
  interp.start();
  EXPECT_LE(interp.methodEntries(), 10u);
}

TEST_F(InterpreterTest, GuardActionIsProbabilistic) {
  AppProgram program;
  const MethodId target = program.addMethod("Lcom/app/T;->t()V", {});
  const MethodId never =
      program.addMethod("Lcom/app/H;->never()V", {GuardAction{0.0, target}});
  const MethodId always =
      program.addMethod("Lcom/app/H;->always()V", {GuardAction{1.0, target}});
  program.uiHandlers = {never};

  auto stack = makeStack();
  Interpreter interp(program, *stack, tracer_, clock_, util::Rng(9));
  interp.dispatchUiEvent();
  EXPECT_EQ(interp.methodEntries(), 1u);  // only the handler

  AppProgram program2 = program;
  program2.uiHandlers = {always};
  auto stack2 = makeStack();
  UniqueMethodTracer tracer2;
  Interpreter interp2(program2, *stack2, tracer2, clock_, util::Rng(9));
  interp2.dispatchUiEvent();
  EXPECT_EQ(interp2.methodEntries(), 2u);  // handler + target
}

TEST_F(InterpreterTest, FailedConnectFiresNoHook) {
  net::StackConfig config;
  config.connectFailureProb = 1.0;
  net::NetworkStack stack(farm_, clock_, util::Rng(5), config);
  const AppProgram program = programWithNestedCalls();
  Interpreter interp(program, stack, tracer_, clock_, util::Rng(9));
  int hookCalls = 0;
  interp.registerPostHook(std::string(kSocketConnectFrame),
                          [&](const SocketHookContext&) { ++hookCalls; });
  interp.dispatchUiEvent();
  EXPECT_EQ(hookCalls, 0);
  EXPECT_EQ(interp.socketsCreated(), 0u);
}

TEST_F(InterpreterTest, StackIsCleanAfterRun) {
  const AppProgram program = programWithNestedCalls();
  auto stack = makeStack();
  Interpreter interp(program, *stack, tracer_, clock_, util::Rng(9));
  interp.start();
  interp.dispatchUiEvent();
  EXPECT_TRUE(interp.getStackTrace().empty());
}

TEST_F(InterpreterTest, SleepAdvancesClock) {
  AppProgram program;
  program.onCreate = program.addMethod("Lcom/app/M;->onCreate()V",
                                       {SleepAction{1234}});
  auto stack = makeStack();
  Interpreter interp(program, *stack, tracer_, clock_, util::Rng(9));
  const auto before = clock_.now();
  interp.start();
  EXPECT_EQ(clock_.now(), before + 1234);
}

TEST_F(InterpreterTest, SocketClosedAfterRequestCompletes) {
  const AppProgram program = programWithNestedCalls();
  auto stack = makeStack();
  Interpreter interp(program, *stack, tracer_, clock_, util::Rng(9));
  interp.dispatchUiEvent();
  EXPECT_EQ(stack->openSocketCount(), 0u);
}

TEST_F(InterpreterTest, BackgroundTickRunsTasksUnderAsyncWrappers) {
  AppProgram program;
  NetRequestAction request;
  request.domain = "api.example.com";
  const MethodId fetch = program.addMethod("Lcom/lib/sync/Flush;->send()V",
                                           {request});
  const MethodId task = program.addMethod("Lcom/lib/sync/BgSync;->run()V",
                                          {GuardAction{1.0, fetch}});
  program.backgroundTasks.push_back(task);

  auto stack = makeStack();
  Interpreter interp(program, *stack, tracer_, clock_, util::Rng(9));
  std::vector<std::string> frames;
  interp.registerPostHook(std::string(kSocketConnectFrame),
                          [&](const SocketHookContext& context) {
                            for (const auto& f : context.runtime.getStackTrace())
                              frames.push_back(f.name);
                          });
  interp.runBackgroundTick();
  EXPECT_EQ(interp.socketsCreated(), 1u);
  ASSERT_GE(frames.size(), 4u);
  EXPECT_EQ(frames.back(), "java.util.concurrent.FutureTask.run");
  // The origin is the library's background task, so attribution (and
  // policy) treat background beacons like any other library traffic.
  EXPECT_NE(std::find(frames.begin(), frames.end(), "com.lib.sync.BgSync.run"),
            frames.end());
}

TEST_F(InterpreterTest, BackgroundTickWithoutTasksIsANoop) {
  AppProgram program;
  auto stack = makeStack();
  Interpreter interp(program, *stack, tracer_, clock_, util::Rng(9));
  interp.runBackgroundTick();
  EXPECT_EQ(interp.socketsCreated(), 0u);
  EXPECT_EQ(interp.methodEntries(), 0u);
}

}  // namespace
}  // namespace libspector::rt
