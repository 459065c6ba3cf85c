#include "dex/disassembler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "store/generator.hpp"

namespace libspector::dex {
namespace {

// The table holds views into the apk's strings, so it must never be built
// from a temporary apk.
static_assert(!std::is_constructible_v<FrameTranslationTable, ApkFile&&>);
static_assert(std::is_constructible_v<FrameTranslationTable, const ApkFile&>);

ApkFile apkWithOverloads() {
  ApkFile apk;
  apk.packageName = "com.example";
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
  apk.dexFiles.push_back(dex);
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
  for (const auto& dex : apk.dexFiles)
    for (const auto& cls : dex.classes)
      for (const auto& m : cls.methods)
        if (const auto sig = TypeSignature::parse(m.signature))
          reference[sig->frameName()].push_back(m.signature);
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

ApkFile apkWithSignatures(const std::vector<std::string>& signatures) {
  ApkFile apk;
  DexFile dex;
  ClassDef cls;
  cls.dottedName = "mixed";
  for (const auto& signature : signatures) cls.methods.push_back({signature});
  dex.classes.push_back(cls);
  apk.dexFiles.push_back(dex);
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
  ApkFile apk = apkWithOverloads();
  apk.dexFiles.push_back(apkWithSignatures({"Lcom/example/Bar;->m(Z)V",
                                            "Lcom/example/Bar;->other(I)V"})
                             .dexFiles.front());
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

}  // namespace
}  // namespace libspector::dex
