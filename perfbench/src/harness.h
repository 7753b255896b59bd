// Round bookkeeping shared by the workloads: one round builds engines,
// runs a fixed, seeded operation sequence against them and records what
// the benchmark reports — per-operation wall and CPU time, allocations,
// the engine's deterministic counters and, in traced rounds, the span
// aggregates and seam counters.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "chord/types.h"
#include "common/histogram.h"
#include "common/status.h"
#include "core/engine.h"
#include "seams.h"
#include "sim/net_stats.h"
#include "trace.h"

namespace perfbench {

inline constexpr size_t kMsgClasses =
    static_cast<size_t>(sim::MsgClass::kClassCount);

/// 64-bit FNV-1a hash of `s`.
uint64_t Fnv1a(const std::string& s);

/// Metric-name form of a message class ("tuple_index", ...).
const char* MsgClassMetricName(sim::MsgClass c);

/// The engine's deterministic counters over a round's measured phase.
/// Equal inputs must give equal counters at any worker count, traced or
/// not.
struct Counters {
  uint64_t hops[kMsgClasses] = {};
  uint64_t drops[kMsgClasses] = {};
  uint64_t bytes[kMsgClasses] = {};
  uint64_t total_hops = 0;
  uint64_t total_bytes = 0;
  uint64_t deferred = 0;
  uint64_t shed = 0;
  uint64_t events = 0;
  core::NodeMetrics metrics;  // Delta over the measured phase.
  core::NodeStorage storage;  // At the end of the round.
  uint64_t notifications = 0;
  uint64_t content_digest = 0;  // Over the sorted content-key set.
  uint64_t pruned = 0;

  /// Every field, in a fixed order, for exact comparison.
  std::string Fingerprint() const;
};

/// One open-loop rate rung (serving workload only).
struct Rung {
  double rate = 0;
  uint64_t arrivals = 0;
  uint64_t measured = 0;
  double p50 = 0;
  double p99 = 0;
};

struct CodecStats {
  uint64_t frames = 0;
  uint64_t unencodable = 0;
  uint64_t bytes = 0;
  uint64_t encode_ns = 0;
  uint64_t decode_ns = 0;
};

struct RoundResult {
  int workers = 1;              // Simulator workers the round ran with.
  std::vector<double> setup_s;  // One entry per engine built.
  // Wall and CPU time of each measured operation, in operation order.
  std::vector<double> op_wall_us, op_cpu_us;
  uint64_t ops = 0;
  uint64_t failed_ops = 0;
  uint64_t tuples = 0;
  uint64_t op_ns = 0;
  uint64_t cpu_ns = 0;
  uint64_t op_allocs = 0;
  uint64_t gen_ns = 0;

  // Per operation type (window-churn workload).
  uint64_t submits = 0, submit_ns = 0;
  uint64_t unsubscribes = 0, unsubscribe_ns = 0;
  uint64_t prunes = 0, prune_ns = 0;

  // Open-loop serving.
  std::vector<Rung> rungs;
  uint64_t inflight_max = 0;
  uint64_t buffered_max = 0;
  uint64_t pending_events_max = 0;

  Counters counters;

  // Traced rounds only.
  TraceTotals trace;
  uint64_t seam_frames = 0;
  uint64_t seam_messages = 0;
  CodecStats codec;

  /// Output checks that failed in this round (oracle mismatch, abandoned
  /// reliable messages, ...), one line each.
  std::vector<std::string> check_failures;
  /// Findings worth printing that are not failures.
  std::vector<std::string> notes;

  double TuplesPerSecond() const {
    return op_ns == 0 ? 0 : static_cast<double>(tuples) * 1e9 /
                                static_cast<double>(op_ns);
  }
};

/// Collects notification content keys drained from an engine; the digest
/// is over the sorted, deduplicated set.
class ContentDigest {
 public:
  /// Drains every node's inbox into the digest; returns the notifications
  /// drained. With `keys` non-null, also inserts their content keys.
  uint64_t Drain(core::ContinuousQueryNetwork& net,
                 std::set<std::string>* keys = nullptr);
  void Add(const core::Notification& n, std::set<std::string>* keys);
  uint64_t Value() const;
  uint64_t count() const { return count_; }
  /// Records the notification count and digest in `counters`.
  void SealInto(Counters* counters) const {
    counters->notifications = count_;
    counters->content_digest = Value();
  }

 private:
  std::vector<uint64_t> hashes_;
  uint64_t count_ = 0;
};

/// Measures one engine's part of a round: snapshots counters when the
/// measured phase begins, times every operation, and folds the counter
/// deltas into the round at End().
class Measure {
 public:
  Measure(RoundResult* round, core::ContinuousQueryNetwork* net);

  /// Times one operation inserting `tuples` tuples. `fn` returns the
  /// operation's Status; a non-OK status counts as a failed operation.
  template <typename Fn>
  Status Op(SpanKind kind, uint64_t tuples, Fn&& fn) {
    Tracer::SetOp(++op_seq_);
    const uint64_t allocs0 = TotalAllocs();
    const int64_t cpu0 = CpuNs();
    const int64_t t0 = NowNs();
    Status st;
    {
      ScopedSpan span(kind);
      st = fn();
    }
    const int64_t t1 = NowNs();
    const int64_t cpu1 = CpuNs();
    const uint64_t allocs1 = TotalAllocs();
    Record(kind, tuples, static_cast<uint64_t>(t1 - t0),
           static_cast<uint64_t>(cpu1 - cpu0), allocs1 - allocs0, st.ok());
    return st;
  }

  /// Folds the measured phase's counters into the round (storage is read
  /// now, as end-of-round state) and drains notifications into `digest`.
  void End(ContentDigest* digest);

 private:
  static int64_t CpuNs();
  void Record(SpanKind kind, uint64_t tuples, uint64_t wall_ns,
              uint64_t cpu_ns, uint64_t allocs, bool ok);

  RoundResult* round_;
  core::ContinuousQueryNetwork* net_;
  sim::NetStats stats0_;
  core::NodeMetrics metrics0_;
  uint64_t events0_;
  uint64_t op_seq_ = 0;
};

/// Wall-clock seconds elapsed since `start_ns`.
double SecondsSince(int64_t start_ns);

/// Sets up tracing for one engine of a traced round; a no-op object in
/// untraced rounds.
class RoundTracing {
 public:
  RoundTracing(bool traced, core::ContinuousQueryNetwork* net,
               size_t sample_frames);

  /// Folds seam counters into the round and measures the codec on the
  /// sampled frames (outside every operation).
  void Finish(RoundResult* round, const rel::Catalog& catalog);

 private:
  std::unique_ptr<SeamTracing> seams_;
};

/// Compares engine notifications against the oracle's content set;
/// appends a failure line to `round` on mismatch.
void CompareContent(const std::string& what,
                    const std::set<std::string>& expected,
                    const std::set<std::string>& actual, RoundResult* round);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
