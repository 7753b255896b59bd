// Span tracing for the benchmark's traced runs, recorded entirely from
// outside the engine: the benchmark opens spans around its own calls into
// the public API and inside the seam wrappers it installs (seams.h).
//
// Every thread keeps its own open-span stack, per-kind aggregates and a
// bounded span log, so recording takes no lock. A span's self time and
// self allocations are its own minus what its child spans (same thread)
// covered. Aggregates and logs are read and reset only at quiescent
// points, between engine calls, when worker threads are parked.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench {

enum class SpanKind : uint8_t {
  // Operations the client issues (always on the coordinating thread).
  kOpInsert,
  kOpWave,
  kOpSegment,
  kOpSubmit,
  kOpUnsubscribe,
  kOpPrune,
  // One dispatched message, by the role its CqMsgType plays.
  kRewriter,
  kEvaluator,
  kSubscriber,
  kReliability,
  kOtherRole,
  // One typed overlay hop handed to the transport.
  kHop,
  kCount,
};

inline constexpr size_t kSpanKinds = static_cast<size_t>(SpanKind::kCount);

const char* SpanKindName(SpanKind kind);
bool IsOpSpan(SpanKind kind);

struct SpanStats {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  uint64_t self_allocs = 0;

  void Add(const SpanStats& o) {
    count += o.count;
    total_ns += o.total_ns;
    self_ns += o.self_ns;
    self_allocs += o.self_allocs;
  }
};

/// Aggregates over all threads since the last Reset().
struct TraceTotals {
  /// Spans recorded on the coordinating (client) thread, and on the
  /// simulator's worker threads.
  std::array<SpanStats, kSpanKinds> main{};
  std::array<SpanStats, kSpanKinds> workers{};
  /// Time covered by outermost work spans (handler or hop spans with no
  /// enclosing span other than an operation), per side.
  uint64_t busy_ns_main = 0;
  uint64_t busy_ns_workers = 0;

  void Add(const TraceTotals& o) {
    for (size_t k = 0; k < kSpanKinds; ++k) {
      main[k].Add(o.main[k]);
      workers[k].Add(o.workers[k]);
    }
    busy_ns_main += o.busy_ns_main;
    busy_ns_workers += o.busy_ns_workers;
  }

  SpanStats Of(SpanKind kind) const {
    SpanStats s = main[static_cast<size_t>(kind)];
    s.Add(workers[static_cast<size_t>(kind)]);
    return s;
  }
};

/// Process-wide tracer switch and collection. Spans opened while disabled
/// cost one branch.
class Tracer {
 public:
  /// Turns recording on or off; the calling thread becomes the
  /// coordinating thread. Call between engine calls only.
  static void Enable(bool on);
  static bool enabled();

  /// Operation id stamped on spans opened from now on, on any thread.
  static void SetOp(uint64_t op);

  /// Clears aggregates and span logs of every thread.
  static void Reset();
  static TraceTotals Collect();

  /// Writes the span logs as Chrome trace-event JSON; false on I/O error.
  static bool WriteChromeTrace(const std::string& path);
};

/// RAII span on the calling thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
};

/// RAII region of benchmark bookkeeping inside a span (e.g. copying a
/// frame for later measurement): its time and allocations are excluded
/// from the enclosing span's self figures, as if it were an unnamed child.
class ExcludedRegion {
 public:
  ExcludedRegion();
  ~ExcludedRegion();

  ExcludedRegion(const ExcludedRegion&) = delete;
  ExcludedRegion& operator=(const ExcludedRegion&) = delete;

 private:
  bool active_;
  int64_t start_ns_ = 0;
  uint64_t start_allocs_ = 0;
};

/// Monotonic wall clock in nanoseconds.
int64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
