// Decoder robustness: every binary decoder in the system must reject
// corrupted input with util::DecodeError (never crash, hang, or silently
// mis-parse into an over-allocating state). The collection server receives
// UDP datagrams from the network, and the result database reads files from
// disk — both are trust boundaries.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>

#include "core/artifacts.hpp"
#include "core/report.hpp"
#include "dex/apk.hpp"
#include "ingest/chaos.hpp"
#include "ingest/router.hpp"
#include "net/capture.hpp"
#include "orch/recovery.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace libspector {
namespace {

std::vector<std::uint8_t> sampleApkBytes() {
  dex::ApkFile apk;
  apk.packageName = "com.fuzz.app";
  apk.appCategory = "TOOLS";
  dex::DexFile dexFile;
  dex::ClassDef cls;
  cls.dottedName = "com.fuzz.app.Main";
  cls.methods = {{"Lcom/fuzz/app/Main;->m()V"}};
  dexFile.classes.push_back(cls);
  apk.setDex(dex::writeDexFiles({dexFile}));
  return apk.serialize();
}

std::vector<std::uint8_t> sampleCaptureBytes() {
  net::CaptureFile capture;
  const net::SocketPair pair{{net::Ipv4Addr(10, 0, 2, 15), 40000},
                             {net::Ipv4Addr(198, 18, 0, 1), 443}};
  capture.append(net::makeTcpPacket(1, pair, 140, 100));
  capture.append(net::makeUdpPacket(2, pair, 70, 42, "x.com",
                                    net::Ipv4Addr(198, 18, 0, 1)));
  capture.appendHttp({3, pair, "x.com", "/p", "ua", true});
  return capture.serialize();
}

std::vector<std::uint8_t> sampleReportBytes() {
  core::UdpReport report;
  report.apkSha256 = "fuzz";
  report.socketPair = {{net::Ipv4Addr(10, 0, 2, 15), 40000},
                       {net::Ipv4Addr(198, 18, 0, 1), 443}};
  report.stackSignatures = {"java.net.Socket.connect", "Lcom/a/B;->c()V"};
  return report.encode();
}

std::vector<std::uint8_t> sampleArtifactBytes() {
  core::RunArtifacts artifacts;
  artifacts.apkSha256 = "fuzz";
  artifacts.capture = net::CaptureFile::deserialize(sampleCaptureBytes());
  artifacts.reports.push_back(core::UdpReport::decode(sampleReportBytes()));
  artifacts.methodTraceFile = {"Lcom/a/B;->c()V"};
  return artifacts.serialize();
}

/// Run a decoder over many random single/multi-byte mutations and random
/// truncations of a valid input. The decoder must either succeed (some
/// mutations are semantically harmless) or throw DecodeError.
template <typename Decode>
void fuzzDecoder(const std::vector<std::uint8_t>& valid, Decode decode,
                 std::uint64_t seed) {
  util::Rng rng(seed);
  for (int round = 0; round < 400; ++round) {
    std::vector<std::uint8_t> mutated = valid;
    const int mutations = static_cast<int>(rng.uniform(1, 8));
    for (int m = 0; m < mutations; ++m) {
      if (mutated.empty()) break;
      const std::size_t pos = rng.uniform(0, mutated.size() - 1);
      mutated[pos] = static_cast<std::uint8_t>(rng.uniform(0, 255));
    }
    if (rng.chance(0.3) && !mutated.empty())
      mutated.resize(rng.uniform(0, mutated.size() - 1));
    try {
      decode(mutated);  // success is acceptable; crashes/UB are not
    } catch (const util::DecodeError&) {
      // expected rejection path
    }
  }
}

TEST(FuzzDecodersTest, ApkFileSurvivesMutation) {
  fuzzDecoder(sampleApkBytes(),
              [](const std::vector<std::uint8_t>& bytes) {
                (void)dex::ApkFile::deserialize(bytes);
              },
              101);
}

TEST(FuzzDecodersTest, CaptureFileSurvivesMutation) {
  fuzzDecoder(sampleCaptureBytes(),
              [](const std::vector<std::uint8_t>& bytes) {
                (void)net::CaptureFile::deserialize(bytes);
              },
              202);
}

TEST(FuzzDecodersTest, UdpReportSurvivesMutation) {
  fuzzDecoder(sampleReportBytes(),
              [](const std::vector<std::uint8_t>& bytes) {
                (void)core::UdpReport::decode(bytes);
              },
              303);
}

TEST(FuzzDecodersTest, RunArtifactsSurviveMutation) {
  fuzzDecoder(sampleArtifactBytes(),
              [](const std::vector<std::uint8_t>& bytes) {
                (void)core::RunArtifacts::deserialize(bytes);
              },
              404);
}

core::UdpReport sampleReport(std::uint64_t timestampMs = 0) {
  auto report = core::UdpReport::decode(sampleReportBytes());
  report.timestampMs = timestampMs;
  return report;
}

/// A report frame that stands alone: a fresh encoder defines every
/// signature id the frame references, and every sample report has the same
/// stack, so each frame's ids agree with every other's.
std::vector<std::uint8_t> sampleFrame(std::uint64_t seq,
                                      const core::UdpReport& report) {
  return core::DictFrameEncoder(3).encode(seq, report);
}

TEST(FuzzDecodersTest, FramePeekNeverCrashesAndAgreesWithDecode) {
  const auto valid = sampleFrame(5, sampleReport());
  util::Rng rng(707);
  for (int round = 0; round < 400; ++round) {
    std::vector<std::uint8_t> mutated = valid;
    const std::size_t pos = rng.uniform(0, mutated.size() - 1);
    mutated[pos] = static_cast<std::uint8_t>(rng.uniform(0, 255));
    if (rng.chance(0.3)) mutated.resize(rng.uniform(0, mutated.size() - 1));
    try {
      const auto header = core::ReportFrame::peek(mutated);
      const auto frame = core::ReportFrame::decode(mutated);
      EXPECT_EQ(header.workerId, frame.workerId);
      EXPECT_EQ(header.sequence, frame.sequence);
      EXPECT_EQ(header.shaKey, util::fnv1a64(frame.apkSha256));
    } catch (const util::DecodeError&) {
    }
  }
}

TEST(FuzzDecodersTest, ChaosChannelDamageNeverCorruptsContent) {
  ingest::IngestConfig config;
  config.shards = 3;
  ingest::ShardedIngest ingest(config);
  ingest::ChaosConfig chaosConfig;
  chaosConfig.lossProb = 0.1;
  chaosConfig.dupProb = 0.2;
  chaosConfig.reorderWindow = 6;
  chaosConfig.seed = 909;
  ingest::ChaosChannel chaos(ingest, chaosConfig);

  std::vector<core::UdpReport> sent;
  for (std::uint64_t seq = 0; seq < 50; ++seq) {
    sent.push_back(sampleReport(seq));
    chaos.submitDatagram(sampleFrame(seq, sent.back()));
  }
  chaos.flush();
  ingest.drain();

  // Whatever got through is a subset of what was sent, deduplicated and in
  // send order — duplication and reordering leave no trace in content.
  const auto reports = ingest.takeReports(sent[0].apkSha256);
  EXPECT_EQ(reports.size(), 50 - chaos.dropped());
  std::size_t cursor = 0;
  for (const auto& report : reports) {
    while (cursor < sent.size() && !(sent[cursor] == report)) ++cursor;
    ASSERT_LT(cursor, sent.size()) << "report not among the sent originals";
    ++cursor;
  }
}

std::vector<std::uint8_t> sampleDictFrameBytes(std::uint64_t seq = 5) {
  // Two frames from one encoder: the second carries dictionary *references*
  // only, so the fuzzer exercises both def-carrying and def-free layouts.
  core::DictFrameEncoder encoder(3);
  auto bytes = encoder.encode(seq, core::UdpReport::decode(sampleReportBytes()));
  if (seq % 2 == 1)
    bytes = encoder.encode(seq + 1, core::UdpReport::decode(sampleReportBytes()));
  return bytes;
}

TEST(FuzzDecodersTest, ReportFrameSurvivesMutation) {
  fuzzDecoder(sampleDictFrameBytes(4),  // first frame: carries its defs
              [](const std::vector<std::uint8_t>& bytes) {
                (void)core::ReportFrame::decode(bytes);
              },
              1212);
}

TEST(FuzzDecodersTest, DictReportFrameSurvivesMutation) {
  fuzzDecoder(sampleDictFrameBytes(5),  // steady-state (defs elsewhere)
              [](const std::vector<std::uint8_t>& bytes) {
                (void)core::ReportFrame::decode(bytes);
              },
              1313);
}

TEST(FuzzDecodersTest, ReportStreamDecoderSurvivesMutation) {
  // The stream decoder is stateful: keep one instance across all rounds so
  // mutations can also poison the dictionary it carries forward — the
  // crc32 must reject them before they reach that state.
  core::ReportStreamDecoder decoder;
  fuzzDecoder(sampleDictFrameBytes(4),
              [&decoder](const std::vector<std::uint8_t>& bytes) {
                (void)decoder.decode(bytes);
              },
              1414);
}

TEST(FuzzDecodersTest, DictFrameChecksumMakesSilentMisParseImpossible) {
  // Unlike the other decoders, a frame that decodes at all must equal the
  // original — ids, defs and metadata alike: the crc32 covers every body
  // byte, so a mutation either leaves the frame byte-identical or gets
  // rejected (a 2^-32 collision aside).
  const auto valid = sampleDictFrameBytes(4);
  const auto reference = core::ReportFrame::decode(valid);
  util::Rng rng(1616);
  for (int round = 0; round < 400; ++round) {
    std::vector<std::uint8_t> mutated = valid;
    const int mutations = static_cast<int>(rng.uniform(1, 4));
    for (int m = 0; m < mutations; ++m) {
      const std::size_t pos = rng.uniform(0, mutated.size() - 1);
      mutated[pos] = static_cast<std::uint8_t>(rng.uniform(0, 255));
    }
    try {
      EXPECT_EQ(core::ReportFrame::decode(mutated), reference);
    } catch (const util::DecodeError&) {
      // the overwhelmingly common outcome for a real mutation
    }
  }
}

TEST(FuzzDecodersTest, ShardedIngestSurvivesHostileDictDatagrams) {
  // The router faces the wire directly: mutated, truncated, duplicated and
  // reordered datagrams, parked holes, healing defs and mutated dictionary
  // opcodes must never crash it — and must never mis-attribute (a report
  // landing under an apk key it does not carry).
  ingest::IngestConfig config;
  config.shards = 2;
  ingest::ShardedIngest ingest(config);
  util::Rng rng(1717);

  core::DictFrameEncoder encoder(3);
  std::vector<core::UdpReport> sent;
  std::vector<std::vector<std::uint8_t>> wire;
  for (std::uint64_t seq = 0; seq < 20; ++seq) {
    auto report = core::UdpReport::decode(sampleReportBytes());
    report.timestampMs = seq;
    sent.push_back(report);
    wire.push_back(encoder.encode(seq, report));
  }
  std::vector<std::vector<std::uint8_t>> schedule = wire;
  for (const auto& bytes : wire) {
    auto mutated = bytes;
    mutated[rng.uniform(0, mutated.size() - 1)] ^= 0x40;
    schedule.push_back(std::move(mutated));
    if (rng.chance(0.5)) schedule.push_back(bytes);  // duplicate
    std::vector<std::uint8_t> garbage(rng.uniform(0, 64));
    for (auto& byte : garbage)
      byte = static_cast<std::uint8_t>(rng.uniform(0, 255));
    schedule.push_back(std::move(garbage));
  }
  for (std::size_t i = schedule.size(); i > 1; --i)
    std::swap(schedule[i - 1], schedule[rng.uniform(0, i - 1)]);

  for (const auto& datagram : schedule) ingest.submitDatagram(datagram);
  ingest.drain();

  // Every original datagram arrived at least once, and reordering plus the
  // healing path must still reconstruct every stack: the delivered set is
  // exactly the sent run.
  const auto reports = ingest.takeReports(sent[0].apkSha256);
  ASSERT_EQ(reports.size(), sent.size());
  EXPECT_EQ(reports, sent);
  const auto metrics = ingest.metrics();
  EXPECT_GT(metrics.datagramsMalformed, 0u);
  EXPECT_EQ(metrics.framesFolded + metrics.datagramsMalformed,
            metrics.datagramsReceived);
  EXPECT_EQ(metrics.dictHoles, metrics.dictRepaired + metrics.dictDropped);
}

std::vector<std::uint8_t> sampleEnvelopeBytes(std::uint64_t jobIndex = 11) {
  const auto artifacts = core::RunArtifacts::deserialize(sampleArtifactBytes());
  core::ApkLossAccount account;
  account.reportsEmitted = 4;
  account.framesDelivered = 3;
  account.uniqueDelivered = 3;
  account.lost = 1;
  return core::SpabEnvelope::encode(jobIndex, account, artifacts);
}

TEST(FuzzDecodersTest, SpabEnvelopeSurvivesMutation) {
  fuzzDecoder(sampleEnvelopeBytes(),
              [](const std::vector<std::uint8_t>& bytes) {
                (void)core::SpabEnvelope::decode(bytes);
              },
              909);
}

TEST(FuzzDecodersTest, EnvelopeChecksumMakesSilentMisParseImpossible) {
  // Same guarantee the report frames give the wire, extended to disk: a
  // persisted bundle that decodes at all is byte-identical to what was
  // written — job index, loss account and artifacts alike.
  const auto artifacts = core::RunArtifacts::deserialize(sampleArtifactBytes());
  const auto valid = sampleEnvelopeBytes();
  const auto reference = core::SpabEnvelope::decode(valid);
  util::Rng rng(1010);
  for (int round = 0; round < 400; ++round) {
    std::vector<std::uint8_t> mutated = valid;
    const int mutations = static_cast<int>(rng.uniform(1, 4));
    for (int m = 0; m < mutations; ++m) {
      const std::size_t pos = rng.uniform(0, mutated.size() - 1);
      mutated[pos] = static_cast<std::uint8_t>(rng.uniform(0, 255));
    }
    if (rng.chance(0.3)) mutated.resize(rng.uniform(0, mutated.size() - 1));
    try {
      const auto decoded = core::SpabEnvelope::decode(mutated);
      EXPECT_EQ(decoded.jobIndex, reference.jobIndex);
      EXPECT_EQ(decoded.account, reference.account);
      EXPECT_EQ(decoded.artifacts.serialize(), artifacts.serialize());
    } catch (const util::DecodeError&) {
      // the overwhelmingly common outcome for a real mutation
    }
  }
}

TEST(FuzzDecodersTest, RecoveryQuarantinesHostileCheckpointDirectory) {
  // Fill a checkpoint directory with bit-flipped, truncated and garbage
  // .spab files alongside intact ones, then scan. Recovery must never
  // throw, must keep exactly the intact bundles (byte-identical, under
  // their original job indices), and must quarantine the rest.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      ("spector_hostile_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  fs::create_directories(dir);

  const auto writeFile = [&](const std::string& name,
                             std::span<const std::uint8_t> bytes) {
    std::ofstream out(dir / name, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  };

  util::Rng rng(1111);
  std::map<std::uint64_t, std::vector<std::uint8_t>> intact;
  std::size_t damaged = 0;
  for (std::uint64_t i = 0; i < 12; ++i) {
    auto artifacts = core::RunArtifacts::deserialize(sampleArtifactBytes());
    artifacts.apkSha256 = "sha" + std::to_string(i);
    auto bytes = core::SpabEnvelope::encode(
        i, core::ApkLossAccount::fromArtifacts(artifacts), artifacts);
    const std::string name = artifacts.apkSha256 + ".spab";
    switch (i % 4) {
      case 0:  // intact
      case 1:
        intact.emplace(i, bytes);
        writeFile(name, bytes);
        break;
      case 2: {  // bit-flipped
        bytes[rng.uniform(0, bytes.size() - 1)] ^= 0x08;
        writeFile(name, bytes);
        ++damaged;
        break;
      }
      default: {  // truncated (torn write that somehow got renamed)
        const std::span<const std::uint8_t> torn(
            bytes.data(), rng.uniform(1, bytes.size() - 1));
        writeFile(name, torn);
        ++damaged;
        break;
      }
    }
  }
  {  // pure garbage masquerading as a bundle
    std::vector<std::uint8_t> garbage(200);
    for (auto& byte : garbage)
      byte = static_cast<std::uint8_t>(rng.uniform(0, 255));
    writeFile("garbage.spab", garbage);
    ++damaged;
  }

  const auto report = orch::StudyRecovery::scan(dir.string());
  ASSERT_EQ(report.runs.size(), intact.size());
  for (const auto& run : report.runs) {
    const auto it = intact.find(run.jobIndex);
    ASSERT_NE(it, intact.end());
    EXPECT_EQ(core::SpabEnvelope::encode(run.jobIndex, run.account,
                                         run.artifacts),
              it->second)
        << "recovered bundle differs from what was written";
  }
  EXPECT_EQ(report.quarantined.size(), damaged);
  for (const auto& entry : report.quarantined) {
    EXPECT_FALSE(entry.error.empty());
    EXPECT_TRUE(fs::exists(dir / orch::StudyRecovery::kQuarantineDir /
                           entry.file))
        << entry.file << " not moved to quarantine";
  }
}

TEST(FuzzDecodersTest, PureGarbageIsRejected) {
  util::Rng rng(7);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> garbage(rng.uniform(0, 300));
    for (auto& byte : garbage) byte = static_cast<std::uint8_t>(rng.uniform(0, 255));
    EXPECT_THROW((void)core::UdpReport::decode(garbage), util::DecodeError);
    try {
      (void)net::CaptureFile::deserialize(garbage);
    } catch (const util::DecodeError&) {
    }
    try {
      (void)dex::ApkFile::deserialize(garbage);
    } catch (const util::DecodeError&) {
    }
  }
}

}  // namespace
}  // namespace libspector
