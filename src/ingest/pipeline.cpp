#include "ingest/pipeline.hpp"

#include <algorithm>
#include <utility>

namespace libspector::ingest {

IngestPipeline::IngestPipeline(IngestConfig config, AttributeFn attribute,
                               core::StudyAccumulator* accumulator,
                               CheckpointFn checkpoint)
    : attribute_(std::move(attribute)),
      accumulator_(accumulator),
      checkpoint_(std::move(checkpoint)),
      router_(config, [this](RunDelivery&& delivery) {
        onRun(std::move(delivery));
      }) {}

void IngestPipeline::submitDatagram(std::span<const std::uint8_t> payload) {
  router_.submitDatagram(payload);
}

void IngestPipeline::submitRun(std::size_t jobIndex,
                               core::RunArtifacts&& artifacts) {
  router_.submitRun(jobIndex, std::move(artifacts));
}

void IngestPipeline::replayRun(std::size_t jobIndex,
                               core::RunArtifacts&& artifacts,
                               const ApkLossAccount& account) {
  router_.submitReplay(jobIndex, std::move(artifacts), account);
}

void IngestPipeline::skip(std::size_t jobIndex) {
  if (accumulator_ != nullptr) accumulator_->skip(jobIndex);
}

void IngestPipeline::drain() { router_.drain(); }

namespace {

/// Byte sums by the pool ids of one id column, in first-flow order (the
/// order a Delta lists them in). A run touches few distinct libraries or
/// categories, so a linear probe over the sums is enough.
std::vector<std::pair<std::string, std::uint64_t>> bytesById(
    const core::FlowColumns& columns, const std::vector<std::uint32_t>& ids) {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> sums;
  for (std::size_t i = 0; i < columns.size(); ++i) {
    const std::uint64_t bytes = columns.sentBytes[i] + columns.recvBytes[i];
    const auto it = std::find_if(sums.begin(), sums.end(), [&](const auto& s) {
      return s.first == ids[i];
    });
    if (it == sums.end())
      sums.emplace_back(ids[i], bytes);
    else
      it->second += bytes;
  }
  std::vector<std::pair<std::string, std::uint64_t>> named;
  named.reserve(sums.size());
  for (const auto& [id, bytes] : sums)
    named.emplace_back(std::string(columns.pool->at(id).view()), bytes);
  return named;
}

RunDigest digestOf(const RunDelivery& delivery,
                   const core::FlowColumns& columns) {
  RunDigest digest;
  digest.jobIndex = delivery.jobIndex;
  digest.apkSha256 = delivery.artifacts.apkSha256;
  digest.replayed = delivery.replayed;
  digest.flowCount = columns.size();
  for (std::size_t i = 0; i < columns.size(); ++i)
    digest.attributedBytes += columns.sentBytes[i] + columns.recvBytes[i];
  digest.unattributedBytes =
      core::unattributedTcpPayload(delivery.artifacts, columns);
  digest.bytesByLibrary = bytesById(columns, columns.originLibrary);
  digest.bytesByLibCategory = bytesById(columns, columns.libraryCategory);
  digest.account = delivery.account;
  return digest;
}

}  // namespace

void IngestPipeline::onRun(RunDelivery&& delivery) {
  // Attribution (the heavy stage) runs on the shard consumer thread. The
  // pipeline keeps no state across runs, so it takes no lock here; the
  // hooks and the accumulator guard their own.
  core::FlowColumns columns = attribute_(delivery.artifacts);

  // Durable before published or folded: a run that is checkpointed but
  // not yet folded is replayed on recovery; the reverse order would lose
  // it. A checkpoint that throws leaves the run out of everything below.
  if (checkpoint_ && !delivery.replayed) checkpoint_(delivery);

  if (runHook_) runHook_(digestOf(delivery, columns));

  if (accumulator_ != nullptr)
    accumulator_->addColumns(delivery.jobIndex, std::move(delivery.artifacts),
                             std::move(columns));
}

}  // namespace libspector::ingest
