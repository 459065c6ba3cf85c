#include "rt/tracer.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

namespace libspector::rt {
namespace {

/// One method entry: app methods carry their id, framework frames none.
struct Entry {
  std::optional<MethodId> id;
  std::string signature;
};

/// Drives one tracer through the id path (as the interpreter does) and
/// one through the string path only, and requires the same trace file,
/// first-invocation order and counts from both.
void expectIdPathMatchesStringPath(const std::vector<Entry>& entries) {
  UniqueMethodTracer byId;
  UniqueMethodTracer byString;
  for (const Entry& entry : entries) {
    if (entry.id)
      byId.onAppMethodEntry(*entry.id, entry.signature);
    else
      byId.onMethodEntry(entry.signature);
    byString.onMethodEntry(entry.signature);
  }
  EXPECT_EQ(byId.traceFile(), byString.traceFile());
  EXPECT_EQ(byId.uniqueCount(), byString.uniqueCount());
  EXPECT_EQ(byId.totalEntries(), byString.totalEntries());
  EXPECT_EQ(byId.totalEntries(), entries.size());
}

TEST(RingBufferTracerTest, RecordsEveryCallUpToCapacity) {
  RingBufferTracer tracer(3);
  tracer.onMethodEntry("a");
  tracer.onMethodEntry("a");  // repeated calls are recorded (stock behaviour)
  tracer.onMethodEntry("b");
  const auto trace = tracer.traceFile();
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0], "a");
  EXPECT_EQ(trace[1], "a");
  EXPECT_EQ(tracer.droppedCount(), 0u);
}

TEST(RingBufferTracerTest, DropsWhenFull) {
  // The paper: the stock profiler buffer "is filled within seconds of app
  // initialization" because repeated calls are all recorded.
  RingBufferTracer tracer(2);
  tracer.onMethodEntry("a");
  tracer.onMethodEntry("a");
  tracer.onMethodEntry("b");  // lost: the unique method b is never recorded
  tracer.onMethodEntry("c");
  EXPECT_EQ(tracer.traceFile().size(), 2u);
  EXPECT_EQ(tracer.droppedCount(), 2u);
  const auto trace = tracer.traceFile();
  EXPECT_EQ(trace[0], "a");
  EXPECT_EQ(trace[1], "a");
}

TEST(UniqueMethodTracerTest, DeduplicatesAndKeepsFirstSeenOrder) {
  UniqueMethodTracer tracer;
  tracer.onMethodEntry("b");
  tracer.onMethodEntry("a");
  tracer.onMethodEntry("b");
  tracer.onMethodEntry("c");
  tracer.onMethodEntry("a");
  const auto trace = tracer.traceFile();
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0], "b");
  EXPECT_EQ(trace[1], "a");
  EXPECT_EQ(trace[2], "c");
  EXPECT_EQ(tracer.uniqueCount(), 3u);
  EXPECT_EQ(tracer.totalEntries(), 5u);
  EXPECT_EQ(tracer.droppedCount(), 0u);
}

TEST(UniqueMethodTracerTest, NeverDropsUnderLoad) {
  UniqueMethodTracer tracer;
  for (int i = 0; i < 100000; ++i)
    tracer.onMethodEntry("method" + std::to_string(i % 500));
  EXPECT_EQ(tracer.uniqueCount(), 500u);
  EXPECT_EQ(tracer.totalEntries(), 100000u);
  EXPECT_EQ(tracer.droppedCount(), 0u);
}

TEST(UniqueMethodTracerTest, IdPathMatchesStringPathWhenIdsShareASignature) {
  // Ids 0 and 2 name the same method: it is recorded once, at id 0's
  // first entry, whichever id enters it later.
  expectIdPathMatchesStringPath({{0, "La;->m()V"},
                                 {1, "La;->n()V"},
                                 {2, "La;->m()V"},
                                 {2, "La;->m()V"},
                                 {0, "La;->m()V"},
                                 {1, "La;->n()V"}});
}

TEST(UniqueMethodTracerTest, IdPathMatchesStringPathAcrossTwoPrograms) {
  // One tracer, two programs: the second reuses ids 0..2 for other
  // signatures (and id 1 for the first program's id 0), so a slot must
  // never vouch for a signature it did not record.
  const std::vector<Entry> first = {{0, "La;->m()V"},
                                    {1, "La;->n()V"},
                                    {2, "La;->o()V"},
                                    {0, "La;->m()V"}};
  const std::vector<Entry> second = {{0, "Lb;->m()V"},
                                     {1, "La;->m()V"},
                                     {2, "La;->o()V"},
                                     {0, "Lb;->m()V"},
                                     {3, "La;->n()V"},
                                     {1, "La;->m()V"}};
  std::vector<Entry> both = first;
  both.insert(both.end(), second.begin(), second.end());
  expectIdPathMatchesStringPath(both);

  UniqueMethodTracer tracer;
  for (const Entry& entry : both) tracer.onAppMethodEntry(*entry.id, entry.signature);
  EXPECT_EQ(tracer.traceFile(),
            (std::vector<std::string>{"La;->m()V", "La;->n()V", "La;->o()V",
                                      "Lb;->m()V"}));
}

TEST(UniqueMethodTracerTest, IdPathMatchesStringPathWithFrameworkEntries) {
  // Framework frames have no id and may even spell an app signature.
  expectIdPathMatchesStringPath({{std::nullopt, "android.os.AsyncTask$2.call"},
                                 {0, "La;->m()V"},
                                 {std::nullopt, "java.net.Socket.connect"},
                                 {std::nullopt, "android.os.AsyncTask$2.call"},
                                 {1, "La;->n()V"},
                                 {std::nullopt, "La;->o()V"},
                                 {2, "La;->o()V"},
                                 {0, "La;->m()V"},
                                 {std::nullopt, "java.net.Socket.connect"}});
}

TEST(UniqueMethodTracerTest, IdPathNeverDropsUnderLoad) {
  std::vector<Entry> entries;
  entries.reserve(100000);
  for (int i = 0; i < 100000; ++i) {
    const auto method = static_cast<MethodId>(i % 500);
    entries.push_back({method, "method" + std::to_string(method)});
  }
  expectIdPathMatchesStringPath(entries);
  UniqueMethodTracer tracer;
  for (const Entry& entry : entries)
    tracer.onAppMethodEntry(*entry.id, entry.signature);
  EXPECT_EQ(tracer.uniqueCount(), 500u);
  EXPECT_EQ(tracer.totalEntries(), 100000u);
  EXPECT_EQ(tracer.droppedCount(), 0u);
}

TEST(RingBufferTracerTest, RecordsEveryAppEntryOfAnId) {
  RingBufferTracer tracer(4);
  tracer.onAppMethodEntry(0, "La;->m()V");
  tracer.onAppMethodEntry(0, "La;->m()V");
  tracer.onMethodEntry("java.net.Socket.connect");
  EXPECT_EQ(tracer.traceFile(),
            (std::vector<std::string>{"La;->m()V", "La;->m()V",
                                      "java.net.Socket.connect"}));
}

TEST(TracerComparisonTest, ModificationBeatsStockOnRepetitiveWorkload) {
  // The ablation behind the paper's ART change: with a hot loop, the stock
  // buffer misses methods that run later, the unique tracer does not.
  RingBufferTracer stock(100);
  UniqueMethodTracer modified;
  for (int i = 0; i < 1000; ++i) {
    stock.onMethodEntry("hot.loop.method");
    modified.onMethodEntry("hot.loop.method");
  }
  stock.onMethodEntry("late.unique.method");
  modified.onMethodEntry("late.unique.method");

  const auto stockTrace = stock.traceFile();
  EXPECT_EQ(std::count(stockTrace.begin(), stockTrace.end(),
                       "late.unique.method"),
            0);  // lost
  const auto modifiedTrace = modified.traceFile();
  EXPECT_EQ(std::count(modifiedTrace.begin(), modifiedTrace.end(),
                       "late.unique.method"),
            1);  // captured
}

}  // namespace
}  // namespace libspector::rt
