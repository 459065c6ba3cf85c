#include "orch/database.hpp"

#include <algorithm>
#include <filesystem>

#include "orch/recovery.hpp"
#include "util/bytes.hpp"

namespace libspector::orch {

bool ResultDatabase::store(core::RunArtifacts artifacts) {
  // Copy the key first: insert_or_assign's argument evaluation order is
  // unspecified, and the move would race the key read.
  std::string sha = artifacts.apkSha256;
  const std::scoped_lock lock(mutex_);
  return bySha_.insert_or_assign(std::move(sha), std::move(artifacts)).second;
}

std::optional<core::RunArtifacts> ResultDatabase::fetch(
    const std::string& apkSha256) const {
  const std::scoped_lock lock(mutex_);
  const auto it = bySha_.find(apkSha256);
  if (it == bySha_.end()) return std::nullopt;
  return it->second;
}

std::size_t ResultDatabase::size() const {
  const std::scoped_lock lock(mutex_);
  return bySha_.size();
}

void ResultDatabase::forEach(
    const std::function<void(const core::RunArtifacts&)>& fn) const {
  const std::scoped_lock lock(mutex_);
  for (const auto& [sha, artifacts] : bySha_) fn(artifacts);
}

std::size_t ResultDatabase::saveToDirectory(
    const std::string& directory) const {
  namespace fs = std::filesystem;
  fs::create_directories(directory);

  // Snapshot under the lock, write outside it: disk latency must not stall
  // workers uploading into the store.
  std::vector<core::RunArtifacts> snapshot;
  {
    const std::scoped_lock lock(mutex_);
    snapshot.reserve(bySha_.size());
    for (const auto& [sha, artifacts] : bySha_) snapshot.push_back(artifacts);
  }
  std::sort(snapshot.begin(), snapshot.end(),
            [](const core::RunArtifacts& a, const core::RunArtifacts& b) {
              return a.apkSha256 < b.apkSha256;
            });

  for (const auto& artifacts : snapshot) {
    // Batch saves carry no job index; the loss account still rides along
    // so a later recovery scan can surface it.
    const auto bytes = core::SpabEnvelope::encode(
        core::SpabEnvelope::kNoJobIndex,
        core::ApkLossAccount::fromArtifacts(artifacts), artifacts);
    writeSpabAtomic(directory, artifacts.apkSha256, bytes);
  }
  return snapshot.size();
}

ResultDatabase::LoadReport ResultDatabase::loadFromDirectory(
    const std::string& directory) {
  namespace fs = std::filesystem;
  LoadReport report;

  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(directory)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".spab")
      continue;
    paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());

  for (const auto& path : paths) {
    try {
      const std::vector<std::uint8_t> bytes = readFileBytes(path);
      core::RunArtifacts artifacts =
          core::SpabEnvelope::looksFramed(bytes)
              ? core::SpabEnvelope::decode(bytes).artifacts
              : core::RunArtifacts::deserialize(bytes);
      if (store(std::move(artifacts)))
        ++report.loaded;
      else
        ++report.replaced;
    } catch (const std::exception& error) {
      report.failures.push_back({path.string(), error.what()});
    }
  }
  return report;
}

}  // namespace libspector::orch
