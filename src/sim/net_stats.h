// Network traffic accounting. One overlay hop = one message transmission =
// one unit of traffic, the cost model used throughout the paper.

#ifndef CONTJOIN_SIM_NET_STATS_H_
#define CONTJOIN_SIM_NET_STATS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace contjoin::sim {

/// Message categories tallied by the network layer. A multisend batch
/// transmission counts as one hop under the batch's class (that sharing is
/// exactly why the recursive multisend is cheaper in practice).
enum class MsgClass : int {
  kLookup = 0,      // Plain DHT lookups (find_successor probes).
  kMaintenance,     // Stabilize / notify / fix-finger / join traffic.
  kQueryIndex,      // query() messages indexing a query at attribute level.
  kTupleIndex,      // al-index/vl-index batches of a tuple insertion.
  kRewrittenQuery,  // join(q') reindexing messages.
  kNotification,    // Notification delivery.
  kControl,         // Unsubscribe / IP updates / misc control.
  kOneTime,         // PIER-style one-time join traffic (baseline).
  kClassCount,
};

/// Human-readable class name.
const char* MsgClassName(MsgClass c);

/// Flat counters; cheap to snapshot and diff, which is how the benchmarks
/// measure the traffic of a workload phase. Every counter is one slot of a
/// single array: (hops, drops, bytes) per MsgClass, then shed and deferred,
/// so copying, resetting and differencing are one loop each and the totals
/// are sums over classes. Increments are relaxed atomics so concurrently
/// executing event shards can account hops without locks: the totals are
/// exact because relaxed add is still atomic, and snapshots are only taken
/// at serial quiescent points between simulator epochs.
class NetStats {
 public:
  NetStats() = default;
  NetStats(const NetStats& other) { *this = other; }
  NetStats& operator=(const NetStats& other) {
    for (size_t i = 0; i < kSlots; ++i) Store(i, other.Load(i));
    return *this;
  }

  void AddHop(MsgClass c) { Add(Slot(kHops, c), 1); }
  void AddDrop(MsgClass c) { Add(Slot(kDrops, c), 1); }
  /// Bytes-on-wire for one encoded frame. Only accounted when the engine
  /// installs a frame sizer (wire-format encoding has a real cost, so the
  /// meter is opt-in); zero otherwise.
  void AddBytes(MsgClass c, uint64_t n) { Add(Slot(kBytes, c), n); }
  /// Backpressure accounting (serving extension): a delivery refused
  /// outright at the high-water mark, or pushed to a later epoch.
  void AddShed() { Add(kShedSlot, 1); }
  void AddDeferred() { Add(kDeferredSlot, 1); }

  uint64_t hops(MsgClass c) const { return Load(Slot(kHops, c)); }
  uint64_t total_hops() const { return Sum(kHops); }
  uint64_t dropped() const { return Sum(kDrops); }
  uint64_t dropped(MsgClass c) const { return Load(Slot(kDrops, c)); }
  uint64_t bytes(MsgClass c) const { return Load(Slot(kBytes, c)); }
  uint64_t total_bytes() const { return Sum(kBytes); }
  uint64_t shed() const { return Load(kShedSlot); }
  uint64_t deferred() const { return Load(kDeferredSlot); }

  void Reset();

  /// Difference (*this - earlier), per class; used to isolate a phase.
  NetStats Since(const NetStats& earlier) const;

  /// Multi-line per-class report.
  std::string Report() const;

 private:
  static constexpr size_t kNumClasses =
      static_cast<size_t>(MsgClass::kClassCount);
  enum PerClass : size_t { kHops, kDrops, kBytes, kNumPerClass };
  static constexpr size_t kShedSlot = kNumPerClass * kNumClasses;
  static constexpr size_t kDeferredSlot = kShedSlot + 1;
  static constexpr size_t kSlots = kDeferredSlot + 1;

  static size_t Slot(PerClass kind, MsgClass c) {
    return kind * kNumClasses + static_cast<size_t>(c);
  }
  uint64_t Load(size_t i) const {
    return slots_[i].load(std::memory_order_relaxed);
  }
  void Store(size_t i, uint64_t v) {
    slots_[i].store(v, std::memory_order_relaxed);
  }
  void Add(size_t i, uint64_t n) {
    slots_[i].fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Sum(PerClass kind) const;

  std::array<std::atomic<uint64_t>, kSlots> slots_{};
};

}  // namespace contjoin::sim

#endif  // CONTJOIN_SIM_NET_STATS_H_
