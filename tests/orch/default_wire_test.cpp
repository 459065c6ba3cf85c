// The report wire is ReportFrame v3 (dictionary frames): the collector has
// spoken v3 end-to-end since the ingest dictionary path landed, and the
// supervisor emits nothing else. Two things must stay true:
//
//  1. Every report datagram the fleet emits is a v3 frame.
//  2. The rendered study is byte-identical to the one the retired v1-wire
//     default rendered — v3 changes only the size of Libspector's own
//     report datagrams, which no figure or table consumes. That study's
//     size, FNV-64 and UDP byte counts were recorded while the v1 emitter
//     still existed.
//
// The frame's golden vector and the retired v1/v2 layouts it rejects live
// in tests/core/report_test.cpp, and bench/wire_and_memory gates the wire
// bytes per socket.
#include <gtest/gtest.h>

#include <sstream>

#include "core/export.hpp"
#include "core/report.hpp"
#include "ingest/sink.hpp"
#include "orch/emulator.hpp"
#include "orch/study.hpp"
#include "util/bytes.hpp"

namespace libspector::orch {
namespace {

StudyConfig smallConfig() {
  StudyConfig config;
  config.store.appCount = 20;
  config.store.seed = 11;
  config.store.methodScale = 0.05;
  config.dispatcher.emulator.monkey.events = 100;
  config.dispatcher.emulator.monkey.throttleMs = 50;
  return config;
}

/// Render every figure dataset plus the markdown report into one string:
/// if two studies agree on all of it byte for byte, they are the same
/// study for every consumer this repository has.
std::string renderStudy(const core::StudyAggregator& study) {
  std::ostringstream out;
  core::writeFig2Csv(study, out);
  core::writeTopLibrariesCsv(study, 25, out);
  core::writeCdfCsv(study, out);
  core::writeFlowRatiosCsv(study, out);
  core::writeAntSharesCsv(study, out);
  core::writeCategoryAveragesCsv(study, out);
  core::writeHeatmapCsv(study, out);
  core::writeCoverageCsv(study, out);
  core::writeStudyReport(study, out);
  return out.str();
}

/// Counts datagrams, failing the test on any that is not a v3 frame.
class V3OnlySink final : public ingest::ReportSink {
 public:
  void submitDatagram(std::span<const std::uint8_t> payload) override {
    ++datagrams;
    EXPECT_NO_THROW((void)core::ReportFrame::decode(payload));
  }
  std::size_t datagrams = 0;
};

TEST(DefaultWireTest, DictionaryFramesDefaultsOn) {
  const auto config = smallConfig();
  const store::AppStoreGenerator generator(config.store);
  V3OnlySink sink;
  for (std::size_t i = 0; i < 5; ++i) {
    const auto job = generator.makeJob(i);
    (void)EmulatorInstance(generator.farm(), &sink, config.dispatcher.emulator)
        .run(job.apk, job.program);
  }
  EXPECT_GT(sink.datagrams, 0u);
}

TEST(DefaultWireTest, DefaultStudyByteIdenticalToLegacyV1Wire) {
  const auto study = runStudy(smallConfig()).study;
  const std::string rendered = renderStudy(study);
  EXPECT_EQ(rendered.size(), 20020u);
  EXPECT_EQ(util::fnv1a64(rendered), 0x30f8bea27cb02f37ULL);

  // The wire itself differs in exactly the advertised direction: report
  // datagrams shrink, everything else in the capture is untouched.
  EXPECT_LT(study.udpStats().reportBytes, 180265u);
  EXPECT_EQ(study.udpStats().udpBytes, 23904u);
  EXPECT_EQ(study.udpStats().dnsBytes, 23904u);
}

}  // namespace
}  // namespace libspector::orch
