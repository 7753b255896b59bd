// Heap-allocation counter of the benchmark binary. alloc_count.cc replaces
// the global operator new for the whole program (engine libraries
// included), so every allocation is counted on the thread that made it.
// Counts are per thread and never contended; the tracer charges a
// thread's count to its open span.

#ifndef PERFBENCH_ALLOC_COUNT_H_
#define PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

/// Allocations made so far by the calling thread.
uint64_t ThreadAllocs();

/// Allocations made so far by every thread of the process, exited ones
/// included. Exact only while no other thread is allocating.
uint64_t TotalAllocs();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNT_H_
