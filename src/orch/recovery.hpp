// Crash-safe checkpointing and study recovery (ROADMAP follow-on to the
// streaming ingest tier).
//
// The paper's pipeline uploads every run's traces + pcap to a central
// database before offline attribution; at app-store scale the collector
// *will* die mid-study, and the artifact store must make that survivable:
//
//  - CheckpointWriter persists each run the moment its shard finalizes it
//    (it is the ingest::ShardedIngest checkpoint hook, called before the
//    run callback): one envelope-framed (crc32) bundle, written to a temp
//    file and atomically renamed. The bundle is the run's only record.
//    Every step of the protocol exposes a kill point so tests can sweep
//    simulated crashes over every persistence call site.
//  - StudyRecovery scans a checkpoint directory after a crash: torn temp
//    files are deleted, corrupt or truncated bundles are quarantined with
//    per-file error accounting (never fatal), and the surviving runs come
//    back sorted by job index, ready to replay through
//    ingest::ShardedIngest::submitReplay.
//
// orch::resumeStudy (study.hpp) ties the two together: replay survivors,
// re-run the gaps under their original job indices, and produce a
// StudyOutput byte-identical to the uninterrupted run.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/artifacts.hpp"

namespace libspector::orch {

/// Thrown by a crash-injection probe to abandon the persistence protocol
/// mid-flight. Unwinding here leaves the directory exactly as a process
/// death at that point would (a torn or complete but unrenamed temp
/// file); tests catch it where a real deployment would restart the
/// collector.
class SimulatedCrash : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Crash-injection probe: invoked with a kill-point label at every step of
/// the persistence protocol. Production passes none; tests throw
/// SimulatedCrash from it to model a collector dying at that exact point.
using KillProbe = std::function<void(std::string_view point)>;

/// Every kill point of one checkpoint() call, in protocol order — the
/// crash-injection sweep enumerates these.
inline constexpr std::string_view kCheckpointKillPoints[] = {
    "begin",         // nothing written yet
    "tmp-partial",   // temp file torn mid-write
    "tmp-complete",  // temp file complete, not yet renamed
    "done",          // bundle renamed into place: durable
};

/// Atomically persist one envelope-framed bundle as `<sha>.spab` in
/// `directory`: write to `<sha>.spab.tmp`, then rename over the final name
/// (atomic on POSIX). A crash mid-write leaves only a torn `.tmp` that
/// recovery deletes; readers never observe a partial bundle.
void writeSpabAtomic(const std::filesystem::path& directory,
                     const std::string& apkSha256,
                     std::span<const std::uint8_t> envelopeBytes,
                     const KillProbe& probe = {});

/// The whole of `path` in one sized read: open, take the file's size, one
/// `read` into a buffer of that size. Throws std::runtime_error when the
/// file cannot be opened or sized or yields fewer bytes than its size.
/// Every reader of a checkpoint bundle goes through it.
[[nodiscard]] std::vector<std::uint8_t> readFileBytes(
    const std::filesystem::path& path);

/// Incremental checkpointer for a running study. Thread-safe: shards call
/// checkpoint() concurrently as runs finalize, and every write goes to its
/// own sha-named file.
class CheckpointWriter {
 public:
  /// Creates `directory` if missing.
  explicit CheckpointWriter(std::string directory, KillProbe probe = {});

  /// Persist one finalized run as `<sha>.spab` (writeSpabAtomic).
  void checkpoint(std::uint64_t jobIndex, const core::ApkLossAccount& account,
                  const core::RunArtifacts& artifacts);

  [[nodiscard]] const std::string& directory() const noexcept {
    return directory_;
  }

 private:
  void probe(std::string_view point) const;

  std::string directory_;
  KillProbe probe_;
};

/// One bundle that survived the crash, ready to replay.
struct RecoveredRun {
  std::size_t jobIndex = 0;
  core::ApkLossAccount account;
  core::RunArtifacts artifacts;
};

struct RecoveryReport {
  /// Valid checkpointed bundles, sorted by job index (replay order).
  std::vector<RecoveredRun> runs;

  struct Quarantined {
    std::string file;   // filename within the checkpoint directory
    std::string error;  // why it was rejected
  };
  /// Corrupt/truncated bundles, moved to <dir>/quarantine/ — never fatal.
  std::vector<Quarantined> quarantined;

  std::size_t tmpFilesRemoved = 0;  // torn mid-write temp files deleted
};

/// Post-crash scan of a checkpoint directory, and the one reader of a
/// study's bundles. Quarantines instead of throwing: a single corrupt
/// bundle must never abandon the rest of a study's data. Files other than
/// `.spab` bundles and `.tmp` leftovers are ignored. Bundles are read and
/// decoded on min(hardware threads, bundle count) threads; the verdicts
/// (quarantine, duplicate index, survivor) are then applied one at a time
/// in sorted path order, so the report, the quarantine directory
/// and the log are deterministic. An exception other than a read failure
/// or a DecodeError is rethrown on the calling thread after every worker
/// has joined: the first such exception in path order, once the verdicts
/// of the bundles before it are applied.
class StudyRecovery {
 public:
  static constexpr std::string_view kQuarantineDir = "quarantine";

  [[nodiscard]] static RecoveryReport scan(const std::string& directory);
};

}  // namespace libspector::orch
