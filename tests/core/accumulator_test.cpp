#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/analysis.hpp"

namespace libspector::core {
namespace {

RunArtifacts runFor(std::size_t i) {
  RunArtifacts run;
  run.apkSha256 = "sha" + std::to_string(i);
  run.packageName = "com.app.n" + std::to_string(i);
  run.appCategory = i % 2 == 0 ? "TOOLS" : "GAME_ACTION";
  run.coverage.coveredMethods = i + 1;
  run.coverage.totalMethods = 100;
  return run;
}

// Static pool: test flows stay valid for the whole binary.
util::SymbolPool& testPool() {
  static util::SymbolPool pool;
  return pool;
}

util::Symbol sym(std::string_view text) { return testPool().intern(text); }

FlowColumns flowsFor(std::size_t i) {
  FlowRecord flow;
  flow.apkSha256 = sym("sha" + std::to_string(i));
  flow.appPackage = sym("com.app.n" + std::to_string(i));
  flow.originLibrary = sym("com.lib.l" + std::to_string(i % 3));
  flow.twoLevelLibrary = sym("com.lib");
  flow.libraryCategory = sym(i % 3 == 0 ? "Advertisement" : "Utility");
  flow.domain =
      sym(std::string("d").append(std::to_string(i)).append(".example.com"));
  flow.domainCategory = sym("cdn");
  flow.sentBytes = 100 * (i + 1);
  flow.recvBytes = 1000 * (i + 1);
  return FlowColumns::fromRows({&flow, 1}, testPool());
}

/// The packages a study folded, in fold order: the study lists per-app
/// totals in the order it folded the apps, and flowsFor(i) sends
/// 100 * (i + 1) bytes, which names the app.
std::vector<std::string> foldOrder(const StudyAggregator& study) {
  std::vector<std::string> order;
  for (const double sent : study.sentTotals(StudyAggregator::Entity::App))
    order.push_back("com.app.n" +
                    std::to_string(static_cast<std::size_t>(sent) / 100 - 1));
  return order;
}

TEST(StudyAccumulatorTest, OutOfOrderDeliveryMatchesSequentialFold) {
  constexpr std::size_t kApps = 7;

  StudyAggregator sequential;
  for (std::size_t i = 0; i < kApps; ++i)
    sequential.addAppColumns(runFor(i), flowsFor(i));

  StudyAggregator reordered;
  StudyAccumulator accumulator(reordered);
  // Completion order a 4-worker fleet could produce: nothing folds until
  // index 0 lands, then the contiguous prefix drains at once.
  for (const std::size_t index : {3u, 1u, 6u, 0u, 2u, 5u, 4u})
    accumulator.addColumns(index, runFor(index), flowsFor(index));
  EXPECT_EQ(accumulator.pendingCount(), 0u);
  accumulator.finish();

  EXPECT_EQ(accumulator.appsFolded(), kApps);
  const std::vector<std::string> order = foldOrder(reordered);
  ASSERT_EQ(order.size(), kApps);
  for (std::size_t i = 0; i < kApps; ++i)
    EXPECT_EQ(order[i], "com.app.n" + std::to_string(i));

  EXPECT_EQ(sequential.totals().totalBytes, reordered.totals().totalBytes);
  EXPECT_EQ(sequential.totals().flowCount, reordered.totals().flowCount);
  EXPECT_EQ(sequential.totals().appCount, reordered.totals().appCount);
  EXPECT_EQ(sequential.transferByLibCategory(),
            reordered.transferByLibCategory());
  EXPECT_EQ(sequential.transferByAppAndLibCategory(),
            reordered.transferByAppAndLibCategory());
}

TEST(StudyAccumulatorTest, SkippedIndicesDoNotStallTheFold) {
  StudyAggregator study;
  StudyAccumulator accumulator(study);
  accumulator.addColumns(2, runFor(2), flowsFor(2));
  EXPECT_EQ(accumulator.appsFolded(), 0u);  // waiting on 0 and 1
  accumulator.skip(0);                      // failed job releases the prefix
  EXPECT_EQ(accumulator.appsFolded(), 0u);  // still waiting on 1
  accumulator.addColumns(1, runFor(1), flowsFor(1));
  EXPECT_EQ(accumulator.appsFolded(), 2u);
  EXPECT_EQ(accumulator.pendingCount(), 0u);
  accumulator.finish();
  const std::vector<std::string> order = foldOrder(study);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "com.app.n1");
  EXPECT_EQ(order[1], "com.app.n2");
  EXPECT_EQ(study.totals().appCount, 2u);
}

TEST(StudyAccumulatorTest, FinishFoldsStragglersInIndexOrder) {
  // A gap that never resolves (worker died without reporting) must not
  // drop the apps that did arrive.
  StudyAggregator study;
  StudyAccumulator accumulator(study);
  accumulator.addColumns(4, runFor(4), flowsFor(4));
  accumulator.addColumns(2, runFor(2), flowsFor(2));
  EXPECT_EQ(accumulator.appsFolded(), 0u);
  accumulator.finish();
  EXPECT_EQ(accumulator.appsFolded(), 2u);
  const std::vector<std::string> order = foldOrder(study);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "com.app.n2");
  EXPECT_EQ(order[1], "com.app.n4");
}

}  // namespace
}  // namespace libspector::core
