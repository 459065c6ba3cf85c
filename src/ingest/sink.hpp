// The datagram ingestion boundary.
//
// Everything that can receive a supervisor report datagram — the sharded
// ingest router, the spectord ingest client, the fault-injection channel —
// implements this one-method interface, so emulators and
// dispatchers are wired against the boundary rather than a concrete
// collector.
#pragma once

#include <cstdint>
#include <span>

namespace libspector::ingest {

class ReportSink {
 public:
  virtual ~ReportSink() = default;

  /// Ingest one raw datagram. Must be callable from any thread; malformed
  /// input is counted and dropped, never thrown (UDP gives no integrity
  /// guarantee, so a bad datagram is data, not an error).
  virtual void submitDatagram(std::span<const std::uint8_t> payload) = 0;
};

}  // namespace libspector::ingest
