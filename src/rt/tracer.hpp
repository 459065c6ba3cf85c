// Method tracing (the Android Profiler role, paper §II-B1).
//
// The stock profiler stores every method *call* into a fixed user-specified
// buffer, which fills within seconds; Libspector's ART modification records
// each unique method only on its first invocation.  Both variants are
// implemented so the ablation bench can quantify the difference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rt/action.hpp"
#include "util/strings.hpp"

namespace libspector::rt {

/// Receives one event per method entry. App methods report their full type
/// signature together with their AppProgram method id, framework methods
/// their frame name.
class MethodTracer {
 public:
  virtual ~MethodTracer() = default;

  virtual void onMethodEntry(std::string_view signature) = 0;

  /// An app method's entry: `signature` is `id`'s signature in the running
  /// program. Defaults to the string path, so a tracer that keys on
  /// nothing but the signature sees every entry there.
  virtual void onAppMethodEntry(MethodId id, std::string_view signature) {
    (void)id;
    onMethodEntry(signature);
  }

  /// A pooled keep-alive connection started carrying a new logical request
  /// (ordinal >= 1; the connect itself is ordinal 0 and not reported here).
  /// Default no-op so the stock tracers ignore it; core::MethodMonitor
  /// records these as the request-boundary artifact records.
  virtual void onRequestBoundary(std::uint64_t socketId, std::uint32_t ordinal,
                                 std::uint64_t timestampMs) {
    (void)socketId;
    (void)ordinal;
    (void)timestampMs;
  }

  /// The method trace file written at the end of an experiment: the list of
  /// recorded entries (semantics depend on the tracer variant).
  [[nodiscard]] virtual std::vector<std::string> traceFile() const = 0;

  /// Entries that could not be recorded (buffer exhaustion).
  [[nodiscard]] virtual std::size_t droppedCount() const noexcept = 0;
};

/// Stock behaviour: bounded buffer, records repeated calls, drops on overflow.
class RingBufferTracer final : public MethodTracer {
 public:
  explicit RingBufferTracer(std::size_t capacity);

  void onMethodEntry(std::string_view signature) override;
  [[nodiscard]] std::vector<std::string> traceFile() const override;
  [[nodiscard]] std::size_t droppedCount() const noexcept override { return dropped_; }

 private:
  std::size_t capacity_;
  std::vector<std::string> buffer_;
  std::size_t dropped_ = 0;
};

/// The paper's modification: one record per unique method, never drops.
///
/// Like the modified ART, it recognises a method it has already recorded by
/// runtime identity rather than by string: each app method id keeps the
/// position of the trace entry it recorded, and a repeat costs that lookup
/// plus one string compare. The compare is what keeps the trace a function
/// of the signatures alone: the same id can name a different method in the
/// next program a reused tracer runs, and two ids can share a signature.
/// A signature is hashed and copied only on the first entry of its id;
/// framework frames, which have no id, look their name up without
/// allocating.
class UniqueMethodTracer final : public MethodTracer {
 public:
  UniqueMethodTracer() = default;
  // The trace views the keys of the tracer's own map: a copy would view
  // the source's.
  UniqueMethodTracer(const UniqueMethodTracer&) = delete;
  UniqueMethodTracer& operator=(const UniqueMethodTracer&) = delete;

  void onMethodEntry(std::string_view signature) override;
  void onAppMethodEntry(MethodId id, std::string_view signature) override;
  [[nodiscard]] std::vector<std::string> traceFile() const override;
  [[nodiscard]] std::size_t droppedCount() const noexcept override { return 0; }

  [[nodiscard]] std::size_t uniqueCount() const noexcept { return order_.size(); }
  [[nodiscard]] std::size_t totalEntries() const noexcept { return totalEntries_; }

 private:
  /// Position of `signature` in the trace, recording it first if new.
  std::uint32_t record(std::string_view signature);

  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  std::unordered_map<std::string, std::uint32_t, util::TransparentStringHash,
                     std::equal_to<>>
      positions_;
  std::vector<std::string_view> order_;  // first-invocation order; keys of positions_
  std::vector<std::uint32_t> slotById_;  // method id -> trace position
  std::size_t totalEntries_ = 0;
};

}  // namespace libspector::rt
