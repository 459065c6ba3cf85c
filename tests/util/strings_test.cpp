#include "util/strings.hpp"

#include <gtest/gtest.h>

namespace libspector::util {
namespace {

TEST(SplitTest, BasicSplit) {
  const auto parts = split("a.b.c", '.');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitTest, PreservesEmptyFields) {
  const auto parts = split("a..b", '.');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(SplitTest, NoDelimiterYieldsWhole) {
  const auto parts = split("abc", '.');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(SplitTest, EmptyInput) {
  const auto parts = split("", '.');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(JoinTest, RoundTripsWithSplit) {
  const std::vector<std::string> parts = {"com", "unity3d", "ads"};
  EXPECT_EQ(join(parts, "."), "com.unity3d.ads");
  EXPECT_EQ(split(join(parts, "."), '.'), parts);
}

TEST(JoinTest, EmptyAndSingle) {
  EXPECT_EQ(join({}, "."), "");
  EXPECT_EQ(join({"one"}, "."), "one");
}

TEST(ToLowerTest, MixedCase) {
  EXPECT_EQ(toLower("AdVeRt-123"), "advert-123");
}

TEST(HierarchicalPrefixTest, ExactMatch) {
  EXPECT_TRUE(isHierarchicalPrefix("com.unity3d", "com.unity3d"));
}

TEST(HierarchicalPrefixTest, ProperPrefixWithSeparator) {
  EXPECT_TRUE(isHierarchicalPrefix("com.unity3d", "com.unity3d.ads"));
}

TEST(HierarchicalPrefixTest, RejectsNonBoundaryPrefix) {
  // The paper's rule: com.unity3d must NOT match com.unity3dx.
  EXPECT_FALSE(isHierarchicalPrefix("com.unity3d", "com.unity3dx"));
  EXPECT_FALSE(isHierarchicalPrefix("com.unity3d", "com.unity3dx.ads"));
}

TEST(HierarchicalPrefixTest, RejectsLongerPrefix) {
  EXPECT_FALSE(isHierarchicalPrefix("com.unity3d.ads", "com.unity3d"));
}

TEST(HierarchicalPrefixTest, EmptyPrefixNeverMatches) {
  EXPECT_FALSE(isHierarchicalPrefix("", "com.unity3d"));
}

// The allocation-free twin of isHierarchicalPrefix over raw smali parts:
// for every (prefix, class, method) it must agree with materializing
// slashToDot(class) + "." + method and matching against that.
TEST(HierarchicalPrefixTest, SlashedFrameVariantAgreesWithMaterialized) {
  const struct {
    std::string_view prefix;
    std::string_view slashedClass;
    std::string_view method;
  } cases[] = {
      {"com.unity3d", "com/unity3d/ads/android/cache/b", "doInBackground"},
      {"com.unity3d", "com/unity3dx/ads", "run"},
      {"com.unity3d.ads", "com/unity3d", "ads"},  // boundary inside method
      {"java.net", "java/net/Socket", "connect"},
      {"java.net.Socket.connect", "java/net/Socket", "connect"},  // exact
      {"java.net.Socket.connectX", "java/net/Socket", "connect"},
      {"java.net.Socket.conn", "java/net/Socket", "connect"},
      {"", "com/foo/Bar", "m"},
      {"com.foo.Bar.m.extra", "com/foo/Bar", "m"},  // longer than frame
      {"android.os", "android/os/AsyncTask$2", "call"},
  };
  for (const auto& c : cases) {
    std::string frame;
    for (const char ch : c.slashedClass)
      frame.push_back(ch == '/' ? '.' : ch);
    frame.push_back('.');
    frame.append(c.method);
    EXPECT_EQ(
        isHierarchicalPrefixOfSlashedFrame(c.prefix, c.slashedClass, c.method),
        isHierarchicalPrefix(c.prefix, frame))
        << "prefix=" << c.prefix << " frame=" << frame;
  }
}

TEST(HierarchicalPrefixTest, SlashedFrameMatchesAcrossTheClassMethodSeam) {
  // A prefix ending exactly at the class/method boundary must see the
  // virtual '.' that joins them.
  EXPECT_TRUE(isHierarchicalPrefixOfSlashedFrame("java.net.Socket",
                                                 "java/net/Socket", "connect"));
  EXPECT_FALSE(isHierarchicalPrefixOfSlashedFrame("java.net.Sock",
                                                  "java/net/Socket", "connect"));
}

TEST(PrefixLevelsTest, TruncatesToLevels) {
  EXPECT_EQ(prefixLevels("com.unity3d.ads.android.cache", 2), "com.unity3d");
  EXPECT_EQ(prefixLevels("com.unity3d.ads.android.cache", 3), "com.unity3d.ads");
}

TEST(PrefixLevelsTest, ShortInputsReturnedWhole) {
  EXPECT_EQ(prefixLevels("okhttp3", 2), "okhttp3");
  EXPECT_EQ(prefixLevels("com.google", 2), "com.google");
}

TEST(PrefixLevelsTest, ZeroOrNegativeLevels) {
  EXPECT_EQ(prefixLevels("com.foo", 0), "");
  EXPECT_EQ(prefixLevels("com.foo", -1), "");
}

TEST(ContainsTest, Substrings) {
  EXPECT_TRUE(contains("advertising network", "advert"));
  EXPECT_FALSE(contains("analytics", "advert"));
  EXPECT_TRUE(contains("abc", ""));
}

TEST(HumanBytesTest, UnitsScale) {
  EXPECT_EQ(humanBytes(713), "713 B");
  EXPECT_EQ(humanBytes(1536), "1.50 KB");
  EXPECT_EQ(humanBytes(1024.0 * 1024.0 * 1.59), "1.59 MB");
  EXPECT_EQ(humanBytes(1024.0 * 1024.0 * 1024.0 * 2.84), "2.84 GB");
}

TEST(ParseWholeNumberTest, AcceptsOnlyAWholeDecimalNumber) {
  EXPECT_EQ(parseWholeNumber("0"), 0u);
  EXPECT_EQ(parseWholeNumber("2500"), 2500u);
  EXPECT_EQ(parseWholeNumber("18446744073709551615"), ~std::uint64_t{0});
  for (const char* bad : {"", "abc", "12x", "x12", " 12", "12 ", "-1", "+1",
                          "1.5", "--help", "18446744073709551616"})
    EXPECT_FALSE(parseWholeNumber(bad).has_value()) << '"' << bad << '"';
}

}  // namespace
}  // namespace libspector::util
