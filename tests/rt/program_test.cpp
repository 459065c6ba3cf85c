// AppProgram keeps every signature in one arena and derives frame names on
// demand. A view into the arena moves whenever the arena regrows, so these
// tests read every method back after thousands of appends (the ASan lane
// runs them), check that a rejected signature leaves nothing behind, and
// hold the names a stack trace derives to dex::TypeSignature.
#include "rt/program.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "dex/type_signature.hpp"
#include "net/server.hpp"
#include "net/stack.hpp"
#include "rt/interpreter.hpp"
#include "rt/tracer.hpp"

namespace libspector::rt {
namespace {

/// Method `i` of the bulk program: its dotted class, its member part and
/// its whole signature.
std::string dottedClassOf(std::size_t i) {
  return "com.app.p" + std::to_string(i % 7) + ".C" + std::to_string(i) +
         (i % 4 == 0 ? "$1" : "");
}
std::string memberOf(std::size_t i) {
  return "m" + std::to_string(i) +
         (i % 3 == 0 ? "(I[Ljava/lang/String;)V" : "()Ljava/lang/Object;");
}
std::string signatureOf(std::size_t i) {
  std::string slashed = dottedClassOf(i);
  std::replace(slashed.begin(), slashed.end(), '.', '/');
  return "L" + slashed + ";->" + memberOf(i);
}

std::vector<Action> bodyOf(std::size_t i) {
  const auto id = static_cast<MethodId>(i);
  NetRequestAction request;
  request.domain = "host" + std::to_string(i) + ".example.com";
  request.port = static_cast<std::uint16_t>(i);
  switch (i % 4) {
    case 0:
      return {};
    case 1:
      return {CallAction{id / 2}};
    case 2:
      return {request, GuardAction{0.25, id}};
    default:
      return {CallAction{id}, SleepAction{id % 7}, AsyncAction{id / 3},
              ReflectiveCallAction{id / 5}};
  }
}

TEST(AppProgramTest, SignaturesAndBodiesReadBackAfterThousandsOfAppends) {
  constexpr std::size_t kMethods = 6000;
  AppProgram program;
  for (std::size_t i = 0; i < kMethods; ++i) {
    // Both overloads: whole signatures, and signatures written from a
    // dotted class and member pieces.
    const std::string member = memberOf(i);
    const MethodId id =
        i % 2 == 0
            ? program.addMethod(signatureOf(i), bodyOf(i))
            : program.addMethod(dottedClassOf(i),
                                {std::string_view(member).substr(0, 1),
                                 std::string_view(member).substr(1)},
                                bodyOf(i));
    ASSERT_EQ(id, i);
    ASSERT_EQ(program.method(id).signature, signatureOf(i));
  }
  ASSERT_EQ(program.methodCount(), kMethods);
  for (MethodId id = 0; id < kMethods; ++id) {
    const MethodView method = program.method(id);
    EXPECT_EQ(method.signature, signatureOf(id));
    EXPECT_TRUE(std::ranges::equal(method.body, bodyOf(id))) << id;
  }
  EXPECT_THROW((void)program.method(kMethods), std::out_of_range);

  // A copy owns its own arena: equal, and its views point into it.
  const AppProgram copy = program;
  EXPECT_EQ(copy, program);
  EXPECT_EQ(copy.method(kMethods - 1).signature, signatureOf(kMethods - 1));
  EXPECT_NE(copy.method(0).signature.data(), program.method(0).signature.data());
}

TEST(AppProgramTest, MalformedSignatureLeavesTheProgramUnchanged) {
  AppProgram program;
  ASSERT_EQ(program.addMethod("Lcom/app/A;->f()V", {CallAction{0}}), 0u);
  const AppProgram before = program;

  EXPECT_THROW(program.addMethod("Lcom/app/B;->g(Q)V", {SleepAction{5}}),
               std::invalid_argument);
  EXPECT_THROW(program.addMethod("com.app.B", {"g(", "Q)V"}, {SleepAction{5}}),
               std::invalid_argument);
  EXPECT_THROW(program.addMethod("", {"g()V"}, {}), std::invalid_argument);
  EXPECT_THROW(program.addMethod("com.app.B", {}, {}), std::invalid_argument);
  EXPECT_EQ(program.methodCount(), 1u);
  EXPECT_EQ(program, before);

  // Nothing of the rejected signatures is left in the arena.
  EXPECT_EQ(program.addMethod("com.app.C", {"h(I)I"}, {}), 1u);
  EXPECT_EQ(program.method(1).signature, "Lcom/app/C;->h(I)I");
  EXPECT_EQ(program.method(0).signature, "Lcom/app/A;->f()V");
  EXPECT_EQ(program.addMethod("Lcom/app/D;->k()V", {}), 2u);
  EXPECT_EQ(program.method(2).signature, "Lcom/app/D;->k()V");
}

TEST(AppProgramTest, StackTraceNamesAppFramesAsTypeSignatureDoes) {
  net::ServerFarm farm;
  net::EndpointProfile profile;
  profile.domain = "api.example.com";
  profile.trueCategory = "business_and_finance";
  farm.addEndpoint(profile);
  util::SimClock clock;
  net::NetworkStack stack(farm, clock, util::Rng(5));
  UniqueMethodTracer tracer;

  // Inner classes, digits, one-letter packages, array and object
  // parameters: every class shape the store writes.
  AppProgram program;
  NetRequestAction request;
  request.domain = "api.example.com";
  const MethodId fetch = program.addMethod(
      "Lcom/lib/a/b$1;->doInBackground([Ljava/lang/String;)Ljava/lang/Object;",
      {request});
  const MethodId leaf = program.addMethod("com.app.T3H0", {"w12(I)I"}, {});
  const MethodId hub = program.addMethod(
      "com.app.T3H0", {"run()V"}, {CallAction{leaf}, CallAction{fetch}});
  const MethodId handler = program.addMethod(
      "Lcom/app/ui/Handler7;->onClick(Landroid/view/View;)V", {CallAction{hub}});
  program.uiHandlers = {handler};

  Interpreter interp(program, stack, tracer, clock, util::Rng(9));
  std::vector<StackFrameSnapshot> observed;
  interp.registerPostHook(std::string(kSocketConnectFrame),
                          [&](const SocketHookContext& context) {
                            observed = context.runtime.getStackTrace();
                          });
  ASSERT_TRUE(interp.dispatchUiEvent());

  std::vector<MethodId> appFrames;
  for (const StackFrameSnapshot& frame : observed) {
    if (!frame.isAppFrame()) continue;
    const auto id = static_cast<MethodId>(frame.methodId);
    appFrames.push_back(id);
    const auto parsed = dex::TypeSignature::parse(program.method(id).signature);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(frame.name, parsed->frameName());
    EXPECT_EQ(program.frameName(id), parsed->frameName());
  }
  EXPECT_EQ(appFrames, (std::vector<MethodId>{fetch, hub, handler}));
  EXPECT_EQ(program.frameName(leaf), "com.app.T3H0.w12");
}

}  // namespace
}  // namespace libspector::rt
