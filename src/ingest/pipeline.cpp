#include "ingest/pipeline.hpp"

#include <string_view>
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

// std::map::try_emplace has no heterogeneous overload, so the string-view
// keyed bump goes through lower_bound + emplace_hint to only allocate a
// key string on first sight.
void bumpBytes(std::map<std::string, std::uint64_t, std::less<>>& map,
               std::string_view key, std::uint64_t bytes) {
  auto it = map.lower_bound(key);
  if (it == map.end() || it->first != key)
    it = map.emplace_hint(it, std::string(key), 0);
  it->second += bytes;
}

}  // namespace

void IngestPipeline::onRun(RunDelivery&& delivery) {
  // Attribution (the heavy stage) stays on the shard consumer thread,
  // unlocked; only the fold below takes the pipeline mutex.
  core::FlowColumns columns = attribute_(delivery.artifacts);
  const std::uint64_t unattributed =
      core::unattributedTcpPayload(delivery.artifacts, columns);

  // Durable before aggregated: a run that is checkpointed but not yet
  // folded is replayed on recovery; the reverse order would lose it. A
  // checkpoint that throws leaves the run out of every view below.
  if (checkpoint_ && !delivery.replayed) checkpoint_(delivery);

  const bool publish = static_cast<bool>(runHook_);
  RunDigest digest;
  {
    const std::scoped_lock lock(mutex_);
    ++rolling_.runsFolded;
    rolling_.flowCount += columns.size();
    rolling_.unattributedBytes += unattributed;
    // Sum per distinct id first (array adds), then one sorted-map bump per
    // distinct library/category this run instead of one per flow.
    std::uint64_t attributed = 0;
    for (std::size_t i = 0; i < columns.size(); ++i) {
      const std::uint64_t bytes = columns.sentBytes[i] + columns.recvBytes[i];
      attributed += bytes;
      libSums_.bump(columns.originLibrary[i], bytes);
      catSums_.bump(columns.libraryCategory[i], bytes);
    }
    const auto flush =
        [&](IdSums& sums,
            std::map<std::string, std::uint64_t, std::less<>>& map,
            std::vector<std::pair<std::string, std::uint64_t>>* runDelta) {
          for (const std::uint32_t id : sums.touched) {
            bumpBytes(map, columns.pool->at(id).view(), sums.bytes.at(id));
            if (runDelta != nullptr)
              runDelta->emplace_back(std::string(columns.pool->at(id).view()),
                                     sums.bytes.at(id));
            sums.bytes[id] = 0;
            sums.seen[id] = 0;
          }
          sums.touched.clear();
        };
    flush(libSums_, rolling_.bytesByLibrary,
          publish ? &digest.bytesByLibrary : nullptr);
    flush(catSums_, rolling_.bytesByLibCategory,
          publish ? &digest.bytesByLibCategory : nullptr);
    rolling_.attributedBytes += attributed;
    rolling_.bytesByApp[delivery.artifacts.apkSha256] += attributed;
    accounts_[delivery.artifacts.apkSha256] = delivery.account;
    if (publish) {
      digest.jobIndex = delivery.jobIndex;
      digest.apkSha256 = delivery.artifacts.apkSha256;
      digest.replayed = delivery.replayed;
      digest.flowCount = columns.size();
      digest.attributedBytes = attributed;
      digest.unattributedBytes = unattributed;
      digest.account = delivery.account;
      digest.runsFolded = rolling_.runsFolded;
    }
  }

  // Durable before published: observers only ever see checkpointed runs.
  if (publish) runHook_(digest);

  if (accumulator_ != nullptr)
    accumulator_->addColumns(delivery.jobIndex, std::move(delivery.artifacts),
                             std::move(columns));
}

RollingTotals IngestPipeline::rollingTotals() const {
  const std::scoped_lock lock(mutex_);
  return rolling_;
}

std::unordered_map<std::string, ApkLossAccount> IngestPipeline::lossAccounts()
    const {
  const std::scoped_lock lock(mutex_);
  return accounts_;
}

}  // namespace libspector::ingest
