// The Method Monitor (paper §II-A2, §II-B1, §IV-C).
//
// Wraps the modified-ART unique-method tracer, writes the method trace file
// at the end of an experiment, and computes Java method coverage: the ratio
// of trace-file signatures that exist in the apk's dex files over the total
// number of dex methods.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dex/apk.hpp"
#include "rt/tracer.hpp"

namespace libspector::core {

/// One keep-alive request boundary observed by the runtime: pooled socket
/// `socketId` started carrying logical request `ordinal` (>= 1; the connect
/// is ordinal 0) at simulated time `timestampMs`. Persisted in RunArtifacts
/// (v3) so offline consumers can audit per-request flow splitting.
struct RequestBoundary {
  std::uint64_t socketId = 0;
  std::uint32_t ordinal = 0;
  std::uint64_t timestampMs = 0;

  [[nodiscard]] bool operator==(const RequestBoundary&) const = default;
};

struct CoverageResult {
  std::size_t coveredMethods = 0;  // trace entries found in the dex files
  std::size_t totalMethods = 0;    // all dex methods
  std::size_t traceEntries = 0;    // full trace size (incl. framework calls)

  [[nodiscard]] double ratio() const noexcept {
    return totalMethods == 0
               ? 0.0
               : static_cast<double>(coveredMethods) /
                     static_cast<double>(totalMethods);
  }
};

class MethodMonitor {
 public:
  MethodMonitor() = default;
  // The boundary tracer holds a reference to this monitor.
  MethodMonitor(const MethodMonitor&) = delete;
  MethodMonitor& operator=(const MethodMonitor&) = delete;

  /// The tracer to hand to the runtime (Android Profiler listener analogue).
  /// Forwards method entries to the unique-method tracer and records
  /// request-boundary events on the side.
  [[nodiscard]] rt::MethodTracer& tracer() noexcept { return boundaryTracer_; }

  /// Write the method trace file: all unique recorded entries.
  [[nodiscard]] std::vector<std::string> writeTraceFile() const {
    return tracer_.traceFile();
  }

  /// Request boundaries in observation order (empty unless the keep-alive
  /// scenario reused connections during the run).
  [[nodiscard]] const std::vector<RequestBoundary>& requestBoundaries()
      const noexcept {
    return boundaries_;
  }

  /// Coverage of `apk` given a trace file (§IV-C methodology: intersect the
  /// trace with the dex method set, divide by dex method count).
  [[nodiscard]] static CoverageResult computeCoverage(
      const std::vector<std::string>& traceFile, const dex::ApkFile& apk);

 private:
  class BoundaryTracer final : public rt::MethodTracer {
   public:
    explicit BoundaryTracer(MethodMonitor& owner) noexcept : owner_(owner) {}
    void onMethodEntry(std::string_view signature) override {
      owner_.tracer_.onMethodEntry(signature);
    }
    void onAppMethodEntry(rt::MethodId id,
                          std::string_view signature) override {
      owner_.tracer_.onAppMethodEntry(id, signature);
    }
    [[nodiscard]] std::vector<std::string> traceFile() const override {
      return owner_.tracer_.traceFile();
    }
    [[nodiscard]] std::size_t droppedCount() const noexcept override {
      return owner_.tracer_.droppedCount();
    }
    void onRequestBoundary(std::uint64_t socketId, std::uint32_t ordinal,
                           std::uint64_t timestampMs) override {
      owner_.boundaries_.push_back({socketId, ordinal, timestampMs});
    }

   private:
    MethodMonitor& owner_;
  };

  rt::UniqueMethodTracer tracer_;
  std::vector<RequestBoundary> boundaries_;
  BoundaryTracer boundaryTracer_{*this};
};

}  // namespace libspector::core
