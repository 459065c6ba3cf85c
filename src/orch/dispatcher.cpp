#include "orch/dispatcher.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "util/log.hpp"

namespace libspector::orch {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double millisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

Dispatcher::Dispatcher(const net::ServerFarm& farm,
                       ingest::ReportSink* collector, DispatcherConfig config)
    : farm_(farm), collector_(collector), config_(config) {}

void Dispatcher::recordJob(double jobMs, double sinkMs) {
  const std::scoped_lock lock(statsMutex_);
  ++stats_.jobs;
  stats_.jobMsTotal += jobMs;
  stats_.jobMsMax = std::max(stats_.jobMsMax, jobMs);
  stats_.sinkMsTotal += sinkMs;
  stats_.sinkMsMax = std::max(stats_.sinkMsMax, sinkMs);
}

void Dispatcher::runConcurrent(const JobSource& source,
                               const ArtifactSink& sink,
                               const FailureSink& onFailure) {
  const std::size_t workerCount =
      config_.workers != 0
          ? config_.workers
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());

  const auto runStart = Clock::now();
  std::mutex failureMutex;
  std::atomic<std::size_t> completed{0};

  const auto workerLoop = [&] {
    // The source runs here, on the worker, with no lock: expanding a job
    // is per-app work like emulating it. Per-app seeds follow the job's
    // own index, so every artifact byte is independent of worker count.
    while (std::optional<Job> job = source()) {
      const std::size_t index = job->index;
      EmulatorConfig emulatorConfig = config_.emulator;
      emulatorConfig.seed = config_.baseSeed + index;
      // Job indices are unique per study, so (workerId, sequence) uniquely
      // identifies every framed report the fleet emits.
      emulatorConfig.workerId = static_cast<std::uint32_t>(index);
      EmulatorInstance emulator(farm_, collector_, emulatorConfig);
      const auto jobStart = Clock::now();
      try {
        core::RunArtifacts artifacts = emulator.run(job->apk, job->program);
        const double jobMs = millisSince(jobStart);
        const auto sinkStart = Clock::now();
        sink(index, std::move(artifacts));
        recordJob(jobMs, millisSince(sinkStart));
      } catch (const std::exception& error) {
        const FailedJob failure{job->apk.packageName, error.what()};
        {
          const std::scoped_lock lock(failureMutex);
          failures_.push_back(failure);
        }
        util::logWarn("dispatcher: app %s failed: %s",
                      failure.packageName.c_str(), failure.error.c_str());
        if (onFailure) onFailure(index, failure);
        continue;
      }
      const std::size_t done = completed.fetch_add(1) + 1;
      if (done % 500 == 0)
        util::logInfo("dispatcher: %zu apps processed", done);
    }
  };

  {
    std::vector<std::jthread> workers;
    workers.reserve(workerCount);
    for (std::size_t i = 0; i < workerCount; ++i) workers.emplace_back(workerLoop);
  }  // jthreads join here

  processed_ += completed.load();
  {
    const std::scoped_lock lock(statsMutex_);
    stats_.elapsedSeconds +=
        std::chrono::duration<double>(Clock::now() - runStart).count();
  }
}

}  // namespace libspector::orch
