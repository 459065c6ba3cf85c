// End-to-end attribution under CDN address rotation: one multi-homed
// domain rotates its A records as DNS TTLs expire during a run, so the
// same domain appears behind several destination IPs in the capture — and
// different domains share addresses. The offline pipeline must still map
// every flow to the right domain via the most-recent-resolution rule.
#include <gtest/gtest.h>

#include "core/attribution.hpp"
#include "orch/emulator.hpp"
#include "radar/corpus.hpp"
#include "vtsim/categorizer.hpp"

namespace libspector {
namespace {

class RotationTest : public ::testing::Test {
 protected:
  RotationTest() {
    net::EndpointProfile cdn;
    cdn.domain = "assets.edgecache.net";
    cdn.trueCategory = "cdn";
    cdn.responseLogMu = 10.0;
    const auto primary = farm_.addEndpoint(cdn);
    farm_.addAlternateAddress("assets.edgecache.net");
    farm_.addAlternateAddress("assets.edgecache.net");
    // A second domain co-hosted on the CDN's primary address.
    net::EndpointProfile coHosted;
    coHosted.domain = "static.othersite.com";
    coHosted.trueCategory = "cdn";
    farm_.addEndpoint(coHosted, primary);

    apk_.packageName = "com.rotation.app";
    apk_.appCategory = "ENTERTAINMENT";

    rt::NetRequestAction request;
    request.domain = "assets.edgecache.net";
    const auto helper =
        program_.addMethod("Lcom/bumptech/glide/load/engine/executor/F;->a()V",
                           {request});
    const auto task = program_.addMethod(
        "Lcom/bumptech/glide/load/engine/executor/F;->doInBackground()V",
        {rt::CallAction{helper}});
    const auto handler = program_.addMethod(
        "Lcom/rotation/app/H;->onClick()V", {rt::AsyncAction{task}});
    rt::NetRequestAction other;
    other.domain = "static.othersite.com";
    const auto otherHandler =
        program_.addMethod("Lcom/rotation/app/net/G;->load()V", {other});
    program_.uiHandlers = {handler, otherHandler};

    dex::DexFile dexFile;
    dex::ClassDef cls;
    cls.dottedName = "x";
    for (rt::MethodId id = 0; id < program_.methodCount(); ++id)
      cls.methods.push_back({std::string(program_.method(id).signature)});
    dexFile.classes.push_back(cls);
    apk_.setDex(dex::writeDexFiles({dexFile}));
  }

  net::ServerFarm farm_;
  dex::ApkFile apk_;
  rt::AppProgram program_;
};

TEST_F(RotationTest, FlowsFollowTheDomainAcrossAddresses) {
  orch::EmulatorConfig config;
  config.monkey.events = 400;
  config.monkey.throttleMs = 500;           // 200 s of run time
  config.stack.dnsTtlMs = 30 * 1000;        // several rotations per run
  config.backgroundTicks = 0;
  orch::EmulatorInstance emulator(farm_, nullptr, config);
  const auto artifacts = emulator.run(apk_, program_);

  // The rotation actually happened: the glide domain shows up behind more
  // than one destination address in the capture's DNS answers.
  std::set<std::uint32_t> answersForGlideDomain;
  for (const auto& pkt : artifacts.capture.packets()) {
    if (pkt.isDns() && pkt.dnsQname == "assets.edgecache.net" &&
        !(pkt.dnsAnswer == net::Ipv4Addr{}))
      answersForGlideDomain.insert(pkt.dnsAnswer.value());
  }
  ASSERT_GE(answersForGlideDomain.size(), 2u) << "no rotation observed";

  const auto corpus = radar::LibraryCorpus::builtin();
  vtsim::DomainCategorizer categorizer(
      vtsim::defaultVendorPanel(),
      [](const std::string&) { return std::string("cdn"); });
  core::TrafficAttributor attributor(corpus, categorizer);
  const auto flows = attributor.attribute(artifacts);
  ASSERT_FALSE(flows.empty());

  std::set<std::uint32_t> glideFlowIps;
  for (const auto& flow : flows) {
    if (flow.originLibrary.view().starts_with("com.bumptech.glide")) {
      EXPECT_EQ(flow.domain, "assets.edgecache.net") << flow.socketPair.str();
      glideFlowIps.insert(flow.socketPair.dst.ip.value());
    } else {
      EXPECT_EQ(flow.domain, "static.othersite.com");
      EXPECT_EQ(flow.originLibrary, "com.rotation.app.net");
    }
  }
  // The glide flows really did land on multiple rotated addresses, and the
  // co-hosted domain on the shared address was still attributed correctly.
  EXPECT_GE(glideFlowIps.size(), 2u);
}

}  // namespace
}  // namespace libspector
