#include "dex/apk.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "util/bytes.hpp"
#include "util/sha256.hpp"

namespace libspector::dex {
namespace {

DexFile sampleDex() {
  DexFile dex;
  ClassDef cls;
  cls.dottedName = "com.example.game.Main";
  cls.methods = {{"Lcom/example/game/Main;->onCreate(Landroid/os/Bundle;)V"},
                 {"Lcom/example/game/Main;->onClick(Landroid/view/View;)V"}};
  dex.classes.push_back(cls);
  return dex;
}

ApkFile sampleApk() {
  ApkFile apk;
  apk.packageName = "com.example.game";
  apk.appCategory = "GAME_ACTION";
  apk.versionCode = 42;
  apk.dexTimestamp = 1555555555;
  apk.vtScanDate = 1560000000;
  apk.abis = {"x86", "armeabi-v7a"};
  apk.setDex(writeDexFiles({sampleDex()}));
  return apk;
}

TEST(ApkTest, SerializeDeserializeRoundTrip) {
  const ApkFile apk = sampleApk();
  const auto bytes = apk.serialize();
  const ApkFile decoded = ApkFile::deserialize(bytes);
  EXPECT_EQ(decoded, apk);
}

TEST(ApkTest, Sha256IsStable) {
  const ApkFile apk = sampleApk();
  EXPECT_EQ(util::toHex(apk.sha256()), util::toHex(sampleApk().sha256()));
}

TEST(ApkTest, Sha256ChangesWithContent) {
  ApkFile a = sampleApk();
  ApkFile b = sampleApk();
  b.versionCode = 43;
  EXPECT_NE(util::toHex(a.sha256()), util::toHex(b.sha256()));
  ApkFile c = sampleApk();
  DexFile extra = sampleDex();
  extra.classes[0].methods.push_back({"Lcom/example/game/Main;->extra()V"});
  c.setDex(writeDexFiles({extra}));
  EXPECT_NE(util::toHex(a.sha256()), util::toHex(c.sha256()));
}

TEST(ApkTest, MethodCounting) {
  const ApkFile apk = sampleApk();
  EXPECT_EQ(apk.totalMethodCount(), 2u);
  std::size_t firstDexMethods = 0;
  for (const std::size_t cls : apk.dexClasses(0))
    firstDexMethods += apk.classMethods(cls).size();
  EXPECT_EQ(firstDexMethods, 2u);
  EXPECT_EQ(ApkFile{}.totalMethodCount(), 0u);
}

TEST(ApkTest, AccessorsWalkTheImageInDexOrder) {
  DexFile second;
  second.classes = {{"com.b.B", {{"Lcom/b/B;->x()V"}}}, {"com.c.C", {}}};
  ApkFile apk;
  apk.setDex(writeDexFiles({sampleDex(), DexFile{}, second}));
  ASSERT_EQ(apk.dexCount(), 3u);
  EXPECT_EQ(apk.classCount(), 3u);
  EXPECT_EQ(apk.totalMethodCount(), 3u);
  EXPECT_EQ(apk.dexClasses(0).size(), 1u);
  EXPECT_TRUE(apk.dexClasses(1).empty());
  EXPECT_EQ(*apk.dexClasses(2).begin(), 1u);
  EXPECT_EQ(apk.className(0), "com.example.game.Main");
  EXPECT_EQ(apk.className(2), "com.c.C");
  EXPECT_EQ(apk.classMethods(1).size(), 1u);
  EXPECT_TRUE(apk.classMethods(2).empty());
  EXPECT_EQ(apk.signature(*apk.classMethods(1).begin()), "Lcom/b/B;->x()V");
  EXPECT_EQ(ApkFile::deserialize(apk.serialize()), apk);
}

TEST(ApkTest, WriterIndexesClassesAndListsStrays) {
  DexFile dex;
  dex.classes = {{"com.foo.Bar",
                  {{"Lcom/foo/Bar;->m()V"},       // 0: its own
                   {"Lcom/foo/Baz;->m()V"},       // 1: another class part
                   {"Lcom.foo.Bar;->m()V"},       // 2: dot-spelled class part
                   {"java.net.Socket.connect"}}},  // 3: not a signature
                 {"a/b", {{"La/b;->m()V"}}},      // 4: class not indexable
                 {"com.foo.Bar", {{"Lcom/foo/Bar;->n()V"}}}};  // 5
  ApkFile apk;
  apk.setDex(writeDexFiles({dex}));
  const auto strays = apk.strays();
  EXPECT_EQ(std::vector<std::uint32_t>(strays.begin(), strays.end()),
            (std::vector<std::uint32_t>{1, 2, 3, 4}));
  std::vector<std::uint32_t> named;
  for (const auto& key : apk.classesWithHash(util::fnv1a64("com.foo.Bar")))
    named.push_back(key.cls);
  EXPECT_EQ(named, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_TRUE(apk.classesWithHash(util::fnv1a64("a/b")).empty());
}

TEST(ApkTest, WriterRejectsEntriesOutsideTheirParent) {
  DexWriter writer;
  EXPECT_THROW(writer.beginClass("a"), std::logic_error);
  writer.beginDex();
  EXPECT_THROW(writer.addMethod("La;->m()V"), std::logic_error);
  writer.beginClass("a");
  writer.addMethod("La;->m()V");
  writer.beginDex();
  EXPECT_THROW(writer.addMethod("La;->n()V"), std::logic_error);
}

TEST(ApkTest, X86Compatibility) {
  ApkFile apk = sampleApk();
  EXPECT_TRUE(apk.isX86Compatible());
  apk.abis = {"armeabi-v7a", "arm64-v8a"};
  EXPECT_FALSE(apk.isX86Compatible());
  apk.abis = {"x86_64"};
  EXPECT_TRUE(apk.isX86Compatible());
  apk.abis.clear();  // pure Java
  EXPECT_TRUE(apk.isX86Compatible());
}

TEST(ApkTest, DeserializeRejectsBadMagic) {
  auto bytes = sampleApk().serialize();
  bytes[0] ^= 0xff;
  EXPECT_THROW((void)ApkFile::deserialize(bytes), util::DecodeError);
}

TEST(ApkTest, DeserializeRejectsTruncation) {
  const auto bytes = sampleApk().serialize();
  const std::span<const std::uint8_t> truncated(bytes.data(), bytes.size() - 5);
  EXPECT_THROW((void)ApkFile::deserialize(truncated), util::DecodeError);
}

TEST(ApkTest, DeserializeRejectsTrailingBytes) {
  auto bytes = sampleApk().serialize();
  bytes.push_back(0);
  EXPECT_THROW((void)ApkFile::deserialize(bytes), util::DecodeError);
}

TEST(ApkTest, DefaultDexTimestampConstant) {
  // 1980-01-01T00:00:00Z
  EXPECT_EQ(kDefaultDexTimestamp, 315532800u);
}

TEST(ApkTest, EmptyApkRoundTrips) {
  const ApkFile apk;
  EXPECT_EQ(ApkFile::deserialize(apk.serialize()), apk);
}

}  // namespace
}  // namespace libspector::dex
