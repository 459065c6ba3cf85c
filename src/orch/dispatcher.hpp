// The job dispatcher and worker fleet (paper Fig. 1, §II-B3).
//
// The paper runs a dispatcher that hands apks to emulator workers on a
// CentOS cluster.  Here workers are std::jthreads; each pulls a job, boots
// a fresh EmulatorInstance, runs the app, and hands the artifact bundle to
// the result sink.
//
// Every job carries its own index: it seeds the emulator and tags the
// delivery, so artifacts depend on what a job is, never on which worker
// pulled it or when. One delivery mode, runConcurrent(): the source is
// called from every worker with no lock, so a source that expands jobs
// (makeJob + sha256 for a study) does it in parallel, and results are
// delivered on the worker thread that produced them, tagged with the job
// index. Source and sink must be thread-safe — a source claims indices
// from an atomic cursor, a sink locks what it shares — and an
// order-restoring consumer (core::StudyAccumulator) keeps output
// deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dex/apk.hpp"
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
    /// The job's identity in its study. Emulator seeds and report worker
    /// ids derive from it, so a study passes the corpus index: resumed
    /// studies re-run gap jobs under their original identities and
    /// reproduce the uninterrupted run byte for byte.
    std::size_t index = 0;
  };
  /// Returns the next job or std::nullopt once the worker should stop.
  /// runConcurrent calls it from every worker at once.
  using JobSource = std::function<std::optional<Job>()>;
  /// Called on the producing worker thread with the job's index. Must be
  /// thread-safe.
  using ArtifactSink =
      std::function<void(std::size_t jobIndex, core::RunArtifacts&&)>;

  struct FailedJob {
    std::string packageName;
    std::string error;
  };
  /// Concurrent failure notification (same threading rules as
  /// ArtifactSink); lets order-restoring consumers release jobs that
  /// will never arrive.
  using FailureSink =
      std::function<void(std::size_t jobIndex, const FailedJob& failure)>;

  /// Fleet throughput counters, cumulative across runConcurrent() calls
  /// (like appsProcessed). Job wall time covers the emulator run only;
  /// sink time is what the worker spent inside the result sink.
  struct Stats {
    std::size_t jobs = 0;
    double elapsedSeconds = 0.0;
    double jobMsTotal = 0.0;
    double jobMsMax = 0.0;
    double sinkMsTotal = 0.0;
    double sinkMsMax = 0.0;

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

  /// Process every job; blocks until done. Callable multiple times. The
  /// source is called concurrently and results are delivered concurrently
  /// with their job indices; both must be thread-safe. A job whose
  /// emulator run throws is recorded as failed, reported to `onFailure`
  /// (optional) and skipped — one broken apk must not take down the fleet
  /// (the paper's dispatcher ran 25,000 heterogeneous Play-store apps).
  void runConcurrent(const JobSource& source, const ArtifactSink& sink,
                     const FailureSink& onFailure = {});

  [[nodiscard]] std::size_t appsProcessed() const noexcept { return processed_; }
  [[nodiscard]] const std::vector<FailedJob>& failures() const noexcept {
    return failures_;
  }
  [[nodiscard]] Stats stats() const noexcept { return stats_; }

 private:
  void recordJob(double jobMs, double sinkMs);

  const net::ServerFarm& farm_;
  ingest::ReportSink* collector_;
  DispatcherConfig config_;
  std::size_t processed_ = 0;
  std::vector<FailedJob> failures_;
  Stats stats_;
  std::mutex statsMutex_;
};

}  // namespace libspector::orch
