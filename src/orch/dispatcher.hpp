// The job dispatcher and worker fleet (paper Fig. 1, §II-B3).
//
// The paper runs a dispatcher that hands apks to emulator workers on a
// CentOS cluster.  Here workers are std::jthreads; each pulls a job, boots
// a fresh EmulatorInstance, runs the app, and hands the artifact bundle to
// the result sink.
//
// Two delivery modes:
//  - run(): job pulls and result delivery are serialized by the dispatcher,
//    so sources and sinks need no locking of their own. Simple, but the
//    whole fleet funnels through one sink — anything expensive in the sink
//    (the offline attribution stage used to live there) collapses the
//    fleet to one core.
//  - runConcurrent(): results are delivered on the worker thread that
//    produced them, tagged with the job index, with no serialization. The
//    sink must be thread-safe; in exchange heavy per-result work
//    (attribution) runs in parallel, and the index lets an order-restoring
//    consumer (core::StudyAccumulator) keep output deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dex/apk.hpp"
#include "dex/disassembler.hpp"
#include "ingest/sink.hpp"
#include "net/server.hpp"
#include "orch/emulator.hpp"
#include "rt/program.hpp"

namespace libspector::orch {

struct DispatcherConfig {
  /// 0 = one worker per hardware thread.
  std::size_t workers = 0;
  EmulatorConfig emulator;
  /// Per-app emulator seeds derive from this and the job index.
  std::uint64_t baseSeed = 0x11b59ec701ULL;
};

class Dispatcher {
 public:
  struct Job {
    dex::ApkFile apk;
    rt::AppProgram program;
    /// When set, the job runs under this index instead of the next
    /// pull-order one. Emulator seeds derive from the index, so resumed
    /// studies use this to re-run gap jobs under their original
    /// identities and reproduce the uninterrupted run byte for byte.
    std::optional<std::size_t> index;
    /// Precomputed hex sha256 of `apk` (empty = the emulator hashes it).
    /// The generation tier fills this so the hash overlaps generation
    /// instead of stalling an emulator worker.
    std::string apkSha256;
  };
  /// Returns the next job or std::nullopt when the corpus is exhausted.
  using JobSource = std::function<std::optional<Job>()>;
  /// Receives each finished app's artifacts (serialized delivery).
  using ResultSink = std::function<void(core::RunArtifacts&&)>;
  /// Concurrent delivery: called on the producing worker thread with the
  /// job's dispatch index. Must be thread-safe.
  using IndexedResultSink =
      std::function<void(std::size_t jobIndex, core::RunArtifacts&&)>;

  struct FailedJob {
    std::string packageName;
    std::string error;
  };
  /// Concurrent failure notification (same threading rules as
  /// IndexedResultSink); lets order-restoring consumers release jobs that
  /// will never arrive.
  using FailureSink =
      std::function<void(std::size_t jobIndex, const FailedJob& failure)>;

  /// Fleet throughput counters, cumulative across run() calls (like
  /// appsProcessed). Job wall time covers the emulator run only; sink time
  /// is what the worker spent inside the result sink, and blocked time is
  /// what it spent waiting for the serialized sink lock (always 0 for
  /// runConcurrent, which has no lock — that difference is the whole point
  /// of the parallel attribution path).
  struct Stats {
    std::size_t jobs = 0;
    double elapsedSeconds = 0.0;
    double jobMsTotal = 0.0;
    double jobMsMax = 0.0;
    double sinkMsTotal = 0.0;
    double sinkMsMax = 0.0;
    double sinkBlockedMsTotal = 0.0;

    [[nodiscard]] double jobsPerSecond() const noexcept {
      return elapsedSeconds > 0.0 ? static_cast<double>(jobs) / elapsedSeconds
                                  : 0.0;
    }
    [[nodiscard]] double jobMsMean() const noexcept {
      return jobs != 0 ? jobMsTotal / static_cast<double>(jobs) : 0.0;
    }
    [[nodiscard]] double sinkMsMean() const noexcept {
      return jobs != 0 ? sinkMsTotal / static_cast<double>(jobs) : 0.0;
    }
  };

  Dispatcher(const net::ServerFarm& farm, ingest::ReportSink* collector,
             DispatcherConfig config);

  /// Process every job; blocks until done. Callable multiple times.
  /// A job whose emulator run throws is recorded as failed and skipped —
  /// one broken apk must not take down the fleet (the paper's dispatcher
  /// ran 25,000 heterogeneous Play-store apps).
  void run(const JobSource& source, const ResultSink& sink);

  /// Like run(), but results are delivered concurrently with job indices
  /// (assigned in source-pull order, which also seeds the emulators).
  /// `onFailure` is optional.
  void runConcurrent(const JobSource& source, const IndexedResultSink& sink,
                     const FailureSink& onFailure = {});

  [[nodiscard]] std::size_t appsProcessed() const noexcept { return processed_; }
  [[nodiscard]] const std::vector<FailedJob>& failures() const noexcept {
    return failures_;
  }
  [[nodiscard]] Stats stats() const noexcept { return stats_; }

 private:
  void recordJob(double jobMs, double sinkMs, double blockedMs);

  const net::ServerFarm& farm_;
  ingest::ReportSink* collector_;
  DispatcherConfig config_;
  /// Fleet-wide frame-translation-table cache, shared by every emulator
  /// this dispatcher boots (keyed on apk digest, so re-runs of the same
  /// apk skip the dex walk entirely).
  dex::FrameTableCache frameTables_;
  std::size_t processed_ = 0;
  std::vector<FailedJob> failures_;
  Stats stats_;
  std::mutex statsMutex_;
};

}  // namespace libspector::orch
