#include "dex/disassembler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "core/monitor.hpp"
#include "store/generator.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"

namespace libspector::dex {
namespace {

// The table reads the apk it was built from, so it must never be built
// from a temporary apk.
static_assert(!std::is_constructible_v<FrameTranslationTable, ApkFile&&>);
static_assert(std::is_constructible_v<FrameTranslationTable, const ApkFile&>);

DexFile overloadsDex() {
  DexFile dex;
  ClassDef bar;
  bar.dottedName = "com.example.Bar";
  bar.methods = {{"Lcom/example/Bar;->m(I)V"},
                 {"Lcom/example/Bar;->m(J)V"},
                 {"Lcom/example/Bar;->other()V"},
                 {"not a signature"}};
  dex.classes.push_back(bar);
  ClassDef second;
  second.dottedName = "com.example.net.Client";
  second.methods = {{"Lcom/example/net/Client;->connect()Z"}};
  dex.classes.push_back(second);
  return dex;
}

ApkFile apkWithOverloads() {
  ApkFile apk;
  apk.packageName = "com.example";
  apk.setDex(writeDexFiles({overloadsDex()}));
  return apk;
}

TEST(DisassemblerTest, AllMethodSignaturesInDexOrder) {
  const auto signatures = allMethodSignatures(apkWithOverloads());
  ASSERT_EQ(signatures.size(), 5u);
  EXPECT_EQ(signatures[0], "Lcom/example/Bar;->m(I)V");
  EXPECT_EQ(signatures[4], "Lcom/example/net/Client;->connect()Z");
}

TEST(DisassemblerTest, TranslationTableResolvesFrames) {
  const ApkFile apk = apkWithOverloads();
  const FrameTranslationTable table(apk);
  const auto& overloads = table.lookup("com.example.Bar.m");
  ASSERT_EQ(overloads.size(), 2u);
  EXPECT_EQ(overloads[0], "Lcom/example/Bar;->m(I)V");
  EXPECT_EQ(overloads[1], "Lcom/example/Bar;->m(J)V");
}

TEST(DisassemblerTest, TranslationTableSingleOverload) {
  const ApkFile apk = apkWithOverloads();
  const FrameTranslationTable table(apk);
  const auto& found = table.lookup("com.example.net.Client.connect");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], "Lcom/example/net/Client;->connect()Z");
}

TEST(DisassemblerTest, UnknownFrameIsEmpty) {
  const ApkFile apk = apkWithOverloads();
  const FrameTranslationTable table(apk);
  EXPECT_TRUE(table.lookup("java.net.Socket.connect").empty());
}

TEST(DisassemblerTest, MalformedEntriesAreTolerated) {
  // One of the five methods is unparseable; the table holds the other four
  // under three frame names.
  const ApkFile apk = apkWithOverloads();
  const FrameTranslationTable table(apk);
  EXPECT_EQ(table.size(), 3u);
}

TEST(DisassemblerTest, EmptyApk) {
  const ApkFile apk;
  EXPECT_TRUE(allMethodSignatures(apk).empty());
  const FrameTranslationTable table(apk);
  EXPECT_EQ(table.size(), 0u);
}

// ---- Differential tier: the view-based table against TypeSignature --------

using Reference = std::map<std::string, std::vector<std::string>>;

/// What the table must answer, built the direct way: every signature
/// TypeSignature::parse accepts, under its materialized frameName(), in
/// dex order.
Reference referenceTable(const ApkFile& apk) {
  Reference reference;
  for (std::size_t m = 0; m < apk.totalMethodCount(); ++m)
    if (const auto sig = TypeSignature::parse(apk.signature(m)))
      reference[sig->frameName()].emplace_back(apk.signature(m));
  return reference;
}

std::vector<std::string> lookedUp(const FrameTranslationTable& table,
                                  std::string_view frameName) {
  const auto found = table.lookup(frameName);
  return {found.begin(), found.end()};
}

/// Every reference frame resolves to exactly its signatures, and so does
/// every near miss: each frame name one character short, one longer, and
/// spelled with slashes (present in the reference or not).
void expectMatchesReference(const ApkFile& apk) {
  const FrameTranslationTable table(apk);
  const Reference reference = referenceTable(apk);
  EXPECT_EQ(table.size(), reference.size());
  const auto expected = [&reference](const std::string& frameName) {
    const auto it = reference.find(frameName);
    return it == reference.end() ? std::vector<std::string>{} : it->second;
  };
  for (const auto& [frameName, signatures] : reference) {
    EXPECT_EQ(lookedUp(table, frameName), signatures) << frameName;
    std::string slashed = frameName;
    std::replace(slashed.begin(), slashed.end(), '.', '/');
    for (const std::string& probe :
         {frameName.substr(0, frameName.size() - 1), frameName + "x",
          frameName + ".", slashed})
      EXPECT_EQ(lookedUp(table, probe), expected(probe)) << probe;
  }
}

DexFile dexWithSignatures(const std::vector<std::string>& signatures) {
  DexFile dex;
  ClassDef cls;
  cls.dottedName = "mixed";
  for (const auto& signature : signatures) cls.methods.push_back({signature});
  dex.classes.push_back(cls);
  return dex;
}

ApkFile apkWithSignatures(const std::vector<std::string>& signatures) {
  ApkFile apk;
  apk.setDex(writeDexFiles({dexWithSignatures(signatures)}));
  return apk;
}

TEST(FrameTableDifferentialTest, GeneratedApksAtTwoSeeds) {
  for (const std::uint64_t seed : {5ULL, 77ULL}) {
    store::StoreConfig config;
    config.appCount = 4;
    config.seed = seed;
    config.methodScale = 0.05;
    const store::AppStoreGenerator generator(config);
    for (std::size_t i = 0; i < generator.appCount(); ++i) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " app " +
                   std::to_string(i));
      const auto job = generator.makeJob(i);
      ASSERT_GT(job.apk.totalMethodCount(), 0u);
      expectMatchesReference(job.apk);
    }
  }
}

TEST(FrameTableDifferentialTest, OverloadsAcrossDexFilesKeepDexOrder) {
  ApkFile apk;
  apk.setDex(writeDexFiles(
      {overloadsDex(), dexWithSignatures({"Lcom/example/Bar;->m(Z)V",
                                          "Lcom/example/Bar;->other(I)V"})}));
  expectMatchesReference(apk);
  EXPECT_EQ(lookedUp(FrameTranslationTable(apk), "com.example.Bar.m"),
            (std::vector<std::string>{"Lcom/example/Bar;->m(I)V",
                                      "Lcom/example/Bar;->m(J)V",
                                      "Lcom/example/Bar;->m(Z)V"}));
}

TEST(FrameTableDifferentialTest, MalformedSignaturesAreSkipped) {
  const ApkFile apk = apkWithSignatures(
      {"", "L", "Lcom/Foo;", "Lcom/Foo;->", "Lcom/Foo;->m", "Lcom/Foo;->m(",
       "Lcom/Foo;->m()", "Lcom/Foo;->m()Q", "Lcom/Foo;->m(Q)V",
       "Lcom/Foo;->m(Ljava/lang/String)V", "Lcom/Foo;->m()VV", "com/Foo;->m()V",
       "L;->m()V", "Lcom/Foo;->()V", "Lcom/Foo;->m([)V",
       "Lcom/Foo;->ok(I)V"});
  expectMatchesReference(apk);
  const FrameTranslationTable table(apk);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.lookup("com.Foo.m").empty());
  EXPECT_EQ(lookedUp(table, "com.Foo.ok"),
            std::vector<std::string>{"Lcom/Foo;->ok(I)V"});
}

TEST(FrameTableDifferentialTest, DotsInsideTheSlashedClassPart) {
  // "com/foo.bar/Baz" dots to the same frame as "com/foo/bar/Baz", and a
  // method name may carry the last dot itself: all three signatures are
  // overloads of one frame name, in dex order.
  const ApkFile apk = apkWithSignatures(
      {"Lcom/foo.bar/Baz;->m()V", "Lcom/foo/bar/Baz;->m(I)V",
       "Lcom/foo/bar;->Baz.m(J)V", "Lcom/foo;->a/b()V"});
  expectMatchesReference(apk);
  const FrameTranslationTable table(apk);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(lookedUp(table, "com.foo.bar.Baz.m").size(), 3u);
  // A method name is never dotted: only the slash form resolves.
  EXPECT_EQ(lookedUp(table, "com.foo.a/b").size(), 1u);
  EXPECT_TRUE(table.lookup("com.foo.a.b").empty());
}

TEST(FrameTableDifferentialTest, PrefixOfARealFrameNameIsNotAFrame) {
  const ApkFile apk = apkWithSignatures(
      {"Lcom/example/Bar;->mm()V", "Lcom/example/Ba;->r()V"});
  expectMatchesReference(apk);
  const FrameTranslationTable table(apk);
  for (const char* prefix :
       {"com.example.Bar.m", "com.example.Bar", "com.example.Bar.", "com", ""})
    EXPECT_TRUE(table.lookup(prefix).empty()) << prefix;
  EXPECT_EQ(lookedUp(table, "com.example.Bar.mm").size(), 1u);
  EXPECT_EQ(lookedUp(table, "com.example.Ba.r").size(), 1u);
}

TEST(FrameTableDifferentialTest, EmptyApk) {
  const ApkFile apk;
  expectMatchesReference(apk);
  const FrameTranslationTable table(apk);
  EXPECT_TRUE(table.lookup("").empty());
  EXPECT_TRUE(table.lookup("com.example.Bar.m").empty());
}

// ---- Randomized tier: adversarial apks against the reference -------------

/// The apk under test, built from literal dex content.
ApkFile apkOf(const std::vector<DexFile>& dexFiles) {
  ApkFile apk;
  apk.packageName = "com.random";
  apk.setDex(writeDexFiles(dexFiles));
  return apk;
}

/// Every literal method signature, in dex order.
std::vector<std::string> literalSignatures(
    const std::vector<DexFile>& dexFiles) {
  std::vector<std::string> out;
  for (const auto& dex : dexFiles)
    for (const auto& cls : dex.classes)
      for (const auto& m : cls.methods) out.push_back(m.signature);
  return out;
}

/// A name from a tiny alphabet, so names collide across classes and
/// frames: components (possibly empty) joined mostly by '.', sometimes by
/// '/' or ';'.
std::string randomName(util::Rng& rng, std::size_t maxParts) {
  static const std::vector<std::string> kComponents = {"a", "b", "ab",
                                                       "com", ""};
  std::string out;
  const std::uint64_t parts = rng.uniform(1, maxParts);
  for (std::uint64_t p = 0; p < parts; ++p) {
    if (p != 0) out += rng.chance(0.8) ? '.' : (rng.chance(0.5) ? '/' : ';');
    out += rng.pick(kComponents);
  }
  return out;
}

std::string slashedName(std::string name) {
  std::replace(name.begin(), name.end(), '.', '/');
  return name;
}

/// A signature for a method of class `className`: mostly its own, but also
/// with a foreign or dot-spelled class part, dotted and slashed method
/// names, malformed text, and repeats of signatures written before (in
/// this dex or an earlier one).
std::string randomSignature(util::Rng& rng, const std::string& className,
                            const std::vector<std::string>& written) {
  static const std::vector<std::string> kMethods = {"m", "n", "a.b", "a/b",
                                                    "<init>", "ab"};
  static const std::vector<std::string> kParams = {"", "I", "J",
                                                   "Ljava/lang/String;", "[I"};
  static const std::vector<std::string> kReturns = {"V", "I", "Z"};
  static const std::vector<std::string> kMalformed = {
      "", "L", "L;->m()V", "Lcom/Foo;->m(", "Lcom/Foo;->()V", "a.m",
      "java.net.Socket.connect", "La;->m()Q", "La;->m(Q)V", "La;->m()VV"};
  const double draw = rng.uniform01();
  if (draw < 0.12 && !written.empty()) return rng.pick(written);
  if (draw < 0.22) return rng.pick(kMalformed);
  std::string classPart = slashedName(className);
  if (draw < 0.32) classPart = slashedName(randomName(rng, 3));
  else if (draw < 0.40) classPart = className;
  return "L" + classPart + ";->" + rng.pick(kMethods) + "(" +
         rng.pick(kParams) + ")" + rng.pick(kReturns);
}

std::vector<DexFile> randomDexFiles(util::Rng& rng) {
  std::vector<DexFile> dexFiles(rng.uniform(0, 3));
  std::vector<std::string> written;
  for (auto& dex : dexFiles) {
    dex.classes.resize(rng.uniform(0, 6));
    for (auto& cls : dex.classes) {
      cls.dottedName = randomName(rng, 3);
      cls.methods.resize(rng.uniform(0, 6));
      for (auto& m : cls.methods) {
        m.signature = randomSignature(rng, cls.dottedName, written);
        written.push_back(m.signature);
      }
    }
  }
  return dexFiles;
}

TEST(RandomizedApkTest, FramesResolveAsTheReferenceDoes) {
  util::Rng rng(20200629);
  std::size_t lookups = 0;
  std::size_t hits = 0;
  for (int round = 0; round < 600; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const auto dexFiles = randomDexFiles(rng);
    const ApkFile apk = apkOf(dexFiles);
    Reference reference;
    for (const auto& signature : literalSignatures(dexFiles))
      if (const auto sig = TypeSignature::parse(signature))
        reference[sig->frameName()].push_back(signature);

    const FrameTranslationTable table(apk);
    EXPECT_EQ(table.size(), reference.size());
    const auto expect = [&](const std::string& frameName) {
      const auto it = reference.find(frameName);
      const auto expected =
          it == reference.end() ? std::vector<std::string>{} : it->second;
      EXPECT_EQ(lookedUp(table, frameName), expected) << frameName;
      ++lookups;
      hits += expected.empty() ? 0 : 1;
    };
    for (const auto& [frameName, signatures] : reference) {
      expect(frameName);
      expect(frameName.substr(0, frameName.size() - 1));
      expect(frameName + "x");
      expect(frameName + ".");
      expect(slashedName(frameName));
    }
    for (int probe = 0; probe < 20; ++probe) expect(randomName(rng, 5));
  }
  // The alphabet is small enough that the draws are not all misses.
  EXPECT_GT(hits, lookups / 10);
}

TEST(RandomizedApkTest, CoverageIsTraceMembershipInTheDex) {
  util::Rng rng(5);
  for (int round = 0; round < 600; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const auto dexFiles = randomDexFiles(rng);
    const ApkFile apk = apkOf(dexFiles);
    const auto signatures = literalSignatures(dexFiles);
    const std::set<std::string> inDex(signatures.begin(), signatures.end());

    std::vector<std::string> trace(rng.uniform(0, 30));
    for (auto& entry : trace) {
      const double draw = rng.uniform01();
      if (draw < 0.4 && !signatures.empty()) {
        entry = rng.pick(signatures);
      } else if (draw < 0.5 && !trace.empty()) {
        entry = rng.pick(trace);  // repeats (possibly still empty)
      } else if (draw < 0.6 && !signatures.empty()) {
        entry = rng.pick(signatures) + "x";
      } else {
        entry = randomSignature(rng, randomName(rng, 3), {});
      }
    }
    std::size_t covered = 0;
    for (const auto& entry : trace) covered += inDex.contains(entry) ? 1 : 0;

    const auto coverage = core::MethodMonitor::computeCoverage(trace, apk);
    EXPECT_EQ(coverage.coveredMethods, covered);
    EXPECT_EQ(coverage.totalMethods, signatures.size());
    EXPECT_EQ(coverage.traceEntries, trace.size());
  }
}

TEST(RandomizedApkTest, ApksRoundTrip) {
  util::Rng rng(77);
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const auto dexFiles = randomDexFiles(rng);
    const ApkFile apk = apkOf(dexFiles);
    const auto bytes = apk.serialize();
    EXPECT_EQ(ApkFile::deserialize(bytes), apk);
    EXPECT_EQ(apk.sha256(), util::Sha256::hash(bytes));
    EXPECT_EQ(allMethodSignatures(apk), literalSignatures(dexFiles));
    EXPECT_EQ(apk.totalMethodCount(), literalSignatures(dexFiles).size());
  }
}

}  // namespace
}  // namespace libspector::dex
