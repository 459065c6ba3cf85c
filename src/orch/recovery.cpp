#include "orch/recovery.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <optional>
#include <thread>
#include <unordered_set>

#include "util/bytes.hpp"
#include "util/log.hpp"

namespace libspector::orch {

namespace fs = std::filesystem;

void writeSpabAtomic(const fs::path& directory, const std::string& apkSha256,
                     std::span<const std::uint8_t> envelopeBytes,
                     const KillProbe& probe) {
  const fs::path finalPath = directory / (apkSha256 + ".spab");
  const fs::path tmpPath = directory / (apkSha256 + ".spab.tmp");
  {
    std::ofstream out(tmpPath, std::ios::binary | std::ios::trunc);
    if (!out)
      throw std::runtime_error("recovery: cannot write " + tmpPath.string());
    // Two half-writes with a kill point between them: a crash here leaves
    // a torn temp file on disk, exactly like a real mid-write death.
    const std::size_t half = envelopeBytes.size() / 2;
    out.write(reinterpret_cast<const char*>(envelopeBytes.data()),
              static_cast<std::streamsize>(half));
    out.flush();
    if (probe) probe("tmp-partial");
    out.write(reinterpret_cast<const char*>(envelopeBytes.data() + half),
              static_cast<std::streamsize>(envelopeBytes.size() - half));
    if (!out)
      throw std::runtime_error("recovery: short write " + tmpPath.string());
  }
  if (probe) probe("tmp-complete");
  // Atomic on POSIX: readers see either the old bundle or the new one,
  // never a prefix.
  fs::rename(tmpPath, finalPath);
}

std::vector<std::uint8_t> readFileBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path.string());
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  if (ec)
    throw std::runtime_error("cannot size " + path.string() + ": " +
                             ec.message());
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (static_cast<std::uintmax_t>(in.gcount()) != size)
    throw std::runtime_error("short read of " + path.string());
  return bytes;
}

CheckpointWriter::CheckpointWriter(std::string directory, KillProbe probe)
    : directory_(std::move(directory)), probe_(std::move(probe)) {
  fs::create_directories(directory_);
}

void CheckpointWriter::probe(std::string_view point) const {
  if (probe_) probe_(point);
}

void CheckpointWriter::checkpoint(std::uint64_t jobIndex,
                                  const core::ApkLossAccount& account,
                                  const core::RunArtifacts& artifacts) {
  probe("begin");
  const auto bytes = core::SpabEnvelope::encode(jobIndex, account, artifacts);
  writeSpabAtomic(directory_, artifacts.apkSha256, bytes, probe_);
  probe("done");
}

namespace {

/// What reading and decoding one bundle found. A worker fills it in; the
/// scan applies it later, in path order.
struct BundleVerdict {
  std::optional<std::string> rejected;  // why it goes to quarantine
  core::SpabEnvelope envelope;
  std::exception_ptr escaped;  // anything else thrown: rethrown in order
};

BundleVerdict decodeBundle(const fs::path& path) {
  BundleVerdict verdict;
  std::vector<std::uint8_t> bytes;
  try {
    bytes = readFileBytes(path);
  } catch (const std::exception& error) {
    verdict.rejected = error.what();
    return verdict;
  }
  try {
    verdict.envelope = core::SpabEnvelope::decode(bytes);
  } catch (const util::DecodeError& error) {
    verdict.rejected = error.what();
  }
  return verdict;
}

/// Reads and decodes every bundle on min(hardware threads, bundles)
/// threads claiming paths from one cursor; verdicts[i] belongs to
/// bundles[i]. No exception leaves a worker.
std::vector<BundleVerdict> decodeBundles(const std::vector<fs::path>& bundles) {
  std::vector<BundleVerdict> verdicts(bundles.size());
  std::atomic<std::size_t> cursor{0};
  const auto claimLoop = [&] {
    for (std::size_t i = cursor.fetch_add(1); i < bundles.size();
         i = cursor.fetch_add(1)) {
      try {
        verdicts[i] = decodeBundle(bundles[i]);
      } catch (...) {
        verdicts[i].escaped = std::current_exception();
      }
    }
  };
  const std::size_t threads = std::min<std::size_t>(
      std::max<std::size_t>(1, std::thread::hardware_concurrency()),
      bundles.size());
  {
    std::vector<std::jthread> workers;
    workers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) workers.emplace_back(claimLoop);
  }  // jthreads join here
  return verdicts;
}

}  // namespace

RecoveryReport StudyRecovery::scan(const std::string& directory) {
  RecoveryReport report;
  const fs::path root(directory);
  if (!fs::exists(root)) return report;

  const fs::path quarantineDir = root / kQuarantineDir;
  std::vector<fs::path> tmpFiles;
  std::vector<fs::path> bundles;
  for (const auto& entry : fs::directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const auto extension = entry.path().extension();
    if (extension == ".tmp")
      tmpFiles.push_back(entry.path());
    else if (extension == ".spab")
      bundles.push_back(entry.path());
  }
  // Deterministic scan order → reproducible recovery logs and reports.
  std::sort(tmpFiles.begin(), tmpFiles.end());
  std::sort(bundles.begin(), bundles.end());

  // A .tmp is by construction an incomplete write: the rename never
  // happened, so the run it belonged to was not checkpointed. Delete it.
  for (const auto& path : tmpFiles) {
    std::error_code ec;
    fs::remove(path, ec);
    if (!ec) ++report.tmpFilesRemoved;
  }

  const auto quarantine = [&](const fs::path& path, const std::string& error) {
    std::error_code ec;
    fs::create_directories(quarantineDir, ec);
    fs::rename(path, quarantineDir / path.filename(), ec);
    report.quarantined.push_back({path.filename().string(), error});
    util::logWarn("recovery: quarantined %s: %s",
                  path.filename().string().c_str(), error.c_str());
  };

  // Decoding is per-bundle work and runs in parallel; deciding what each
  // bundle means (and renaming, logging, spotting a repeated job index)
  // runs here, one bundle at a time in path order.
  std::vector<BundleVerdict> verdicts = decodeBundles(bundles);
  std::unordered_set<std::size_t> seenIndices;
  for (std::size_t i = 0; i < bundles.size(); ++i) {
    BundleVerdict& verdict = verdicts[i];
    if (verdict.escaped) std::rethrow_exception(verdict.escaped);
    if (verdict.rejected) {
      quarantine(bundles[i], *verdict.rejected);
      continue;
    }
    const auto jobIndex = static_cast<std::size_t>(verdict.envelope.jobIndex);
    if (!seenIndices.insert(jobIndex).second) {
      quarantine(bundles[i], "duplicate job index " + std::to_string(jobIndex));
      continue;
    }
    report.runs.push_back({jobIndex, verdict.envelope.account,
                           std::move(verdict.envelope.artifacts)});
  }
  std::sort(report.runs.begin(), report.runs.end(),
            [](const RecoveredRun& a, const RecoveredRun& b) {
              return a.jobIndex < b.jobIndex;
            });

  util::logInfo(
      "recovery: %s -> %zu runs replayable, %zu quarantined, %zu torn tmp "
      "removed",
      directory.c_str(), report.runs.size(), report.quarantined.size(),
      report.tmpFilesRemoved);
  return report;
}

}  // namespace libspector::orch
