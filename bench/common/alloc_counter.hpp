// Heap allocation counter for the benches that count allocations.
//
// common/alloc_counter.cpp replaces the global operator new and delete so
// that every operator new in the process ticks one counter. Replacing them
// changes the whole binary, so it is compiled into exactly the benches
// that count: wire_and_memory and store_generation.
#pragma once

#include <cstdint>

namespace libspector::bench {

/// Allocations made through any operator new in this process so far.
[[nodiscard]] std::uint64_t allocationCount() noexcept;

}  // namespace libspector::bench
