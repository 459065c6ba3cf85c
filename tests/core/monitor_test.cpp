#include "core/monitor.hpp"

#include <gtest/gtest.h>

namespace libspector::core {
namespace {

dex::ApkFile apkWithMethods(const std::vector<std::string>& signatures) {
  dex::ApkFile apk;
  dex::DexFile dexFile;
  dex::ClassDef cls;
  cls.dottedName = "x";
  for (const auto& signature : signatures) cls.methods.push_back({signature});
  dexFile.classes.push_back(cls);
  apk.setDex(dex::writeDexFiles({dexFile}));
  return apk;
}

TEST(MonitorTest, CoverageIntersectsTraceWithDex) {
  const auto apk = apkWithMethods({"La;->m1()V", "La;->m2()V", "La;->m3()V",
                                   "La;->m4()V"});
  const std::vector<std::string> trace = {
      "La;->m1()V",
      "La;->m3()V",
      "java.net.Socket.connect",           // framework entry, not in dex
      "android.os.AsyncTask$2.call",
  };
  const auto coverage = MethodMonitor::computeCoverage(trace, apk);
  EXPECT_EQ(coverage.totalMethods, 4u);
  EXPECT_EQ(coverage.coveredMethods, 2u);
  EXPECT_EQ(coverage.traceEntries, 4u);
  EXPECT_DOUBLE_EQ(coverage.ratio(), 0.5);
}

TEST(MonitorTest, EmptyTraceZeroCoverage) {
  const auto apk = apkWithMethods({"La;->m1()V"});
  const auto coverage = MethodMonitor::computeCoverage({}, apk);
  EXPECT_EQ(coverage.coveredMethods, 0u);
  EXPECT_DOUBLE_EQ(coverage.ratio(), 0.0);
}

TEST(MonitorTest, EmptyDexYieldsZeroRatioNotDivByZero) {
  const dex::ApkFile apk;
  const auto coverage = MethodMonitor::computeCoverage({"La;->m1()V"}, apk);
  EXPECT_EQ(coverage.totalMethods, 0u);
  EXPECT_DOUBLE_EQ(coverage.ratio(), 0.0);
}

TEST(MonitorTest, OverloadsCountedSeparately) {
  // §IV-C: type signatures distinguish overloaded variants.
  const auto apk = apkWithMethods({"La;->m(I)V", "La;->m(J)V"});
  const auto coverage = MethodMonitor::computeCoverage({"La;->m(I)V"}, apk);
  EXPECT_EQ(coverage.coveredMethods, 1u);
  EXPECT_EQ(coverage.totalMethods, 2u);
}

TEST(MonitorTest, DuplicateDexSignaturesCountTowardTheTotalOnly) {
  // A signature listed twice in the dex counts twice in the denominator
  // (every dex method entry) but is one covered method: the coverage the
  // apk-copying implementation computed.
  const auto apk =
      apkWithMethods({"La;->m()V", "La;->m()V", "La;->n()V", "La;->o()V"});
  const auto coverage =
      MethodMonitor::computeCoverage({"La;->m()V", "La;->x()V"}, apk);
  EXPECT_EQ(coverage.totalMethods, 4u);
  EXPECT_EQ(coverage.coveredMethods, 1u);
  EXPECT_EQ(coverage.traceEntries, 2u);
  EXPECT_DOUBLE_EQ(coverage.ratio(), 0.25);
}

TEST(MonitorTest, RepeatedTraceEntryCountsOncePerAppearance) {
  // computeCoverage takes any trace, not only a deduplicated one: an entry
  // found in the dex counts once for every time the trace lists it.
  const auto apk = apkWithMethods({"La;->m()V", "La;->n()V", "La;->o()V"});
  const auto coverage = MethodMonitor::computeCoverage(
      {"La;->m()V", "La;->n()V", "La;->m()V", "La;->m()V"}, apk);
  EXPECT_EQ(coverage.totalMethods, 3u);
  EXPECT_EQ(coverage.coveredMethods, 4u);
  EXPECT_EQ(coverage.traceEntries, 4u);
}

TEST(MonitorTest, TraceEntriesAbsentFromTheDexAreNotCovered) {
  const auto apk = apkWithMethods({"La;->m()V", "Lb;->m()V"});
  const auto coverage = MethodMonitor::computeCoverage(
      {"Lc;->m()V", "La;->m(I)V", "La;->m()", "", "Lb;->m()V"}, apk);
  EXPECT_EQ(coverage.totalMethods, 2u);
  EXPECT_EQ(coverage.coveredMethods, 1u);
  EXPECT_EQ(coverage.traceEntries, 5u);
}

TEST(MonitorTest, DexRepeatingASignatureDoesNotMultiplyARepeatedEntry) {
  // Both sides repeat: each trace appearance still counts exactly once,
  // however often the dex lists the signature.
  const auto apk = apkWithMethods(
      {"La;->m()V", "La;->m()V", "La;->m()V", "La;->n()V", "La;->n()V"});
  const auto coverage = MethodMonitor::computeCoverage(
      {"La;->m()V", "La;->m()V", "La;->n()V", "La;->x()V"}, apk);
  EXPECT_EQ(coverage.totalMethods, 5u);
  EXPECT_EQ(coverage.coveredMethods, 3u);
  EXPECT_EQ(coverage.traceEntries, 4u);
}

TEST(MonitorTest, FrameworkFrameNameMatchesAMalformedDexString) {
  // Coverage compares strings: a dex "signature" that is really a dotted
  // frame name matches the framework entry of the same text.
  const auto apk = apkWithMethods({"java.net.Socket.connect", "La;->m()V"});
  const auto coverage = MethodMonitor::computeCoverage(
      {"java.net.Socket.connect", "android.os.AsyncTask$2.call"}, apk);
  EXPECT_EQ(coverage.totalMethods, 2u);
  EXPECT_EQ(coverage.coveredMethods, 1u);
  EXPECT_EQ(coverage.traceEntries, 2u);
}

TEST(MonitorTest, EmptyTraceAndEmptyDex) {
  const auto empty = MethodMonitor::computeCoverage({}, dex::ApkFile{});
  EXPECT_EQ(empty.totalMethods, 0u);
  EXPECT_EQ(empty.coveredMethods, 0u);
  EXPECT_EQ(empty.traceEntries, 0u);
  EXPECT_DOUBLE_EQ(empty.ratio(), 0.0);

  const auto emptyDex =
      MethodMonitor::computeCoverage({"La;->m()V", "La;->m()V"}, dex::ApkFile{});
  EXPECT_EQ(emptyDex.coveredMethods, 0u);
  EXPECT_EQ(emptyDex.traceEntries, 2u);

  const auto emptyTrace = MethodMonitor::computeCoverage(
      {}, apkWithMethods({"La;->m()V", "La;->n()V"}));
  EXPECT_EQ(emptyTrace.totalMethods, 2u);
  EXPECT_EQ(emptyTrace.coveredMethods, 0u);
  EXPECT_EQ(emptyTrace.traceEntries, 0u);
}

TEST(MonitorTest, MonitorWiresUniqueTracer) {
  MethodMonitor monitor;
  monitor.tracer().onMethodEntry("La;->m1()V");
  monitor.tracer().onMethodEntry("La;->m1()V");
  monitor.tracer().onMethodEntry("La;->m2()V");
  const auto trace = monitor.writeTraceFile();
  ASSERT_EQ(trace.size(), 2u);  // deduplicated: the paper's ART modification
  EXPECT_EQ(trace[0], "La;->m1()V");
}

}  // namespace
}  // namespace libspector::core
