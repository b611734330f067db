// Bench-only heap allocation counter.
//
// alloc_counter.cc replaces the global operator new/delete of the binary
// that links it (the benchmark and its tests, never the library). While
// counting is on, every operator new call — including the library's own
// std::vector and std::function allocations — increments one counter, so
// allocations per call are exact and repeat bit for bit for one seed.
// Single-threaded by design: the benchmark runs on one thread.

#ifndef PERFBENCH_SRC_ALLOC_COUNTER_H_
#define PERFBENCH_SRC_ALLOC_COUNTER_H_

#include <cstdint>

namespace perfbench {

// Turns counting on or off; the count itself is never reset.
void SetAllocCounting(bool on);
bool AllocCounting();

// operator new calls made while counting was on.
uint64_t AllocCount();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_ALLOC_COUNTER_H_
