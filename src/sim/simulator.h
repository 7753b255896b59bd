// Discrete-event simulator: a virtual clock plus a deterministic FIFO event
// queue keyed by time. All overlay traffic, stabilization timers and
// tuple/query arrivals are events. The core executes events in virtual-time
// epochs: every event at the current minimum timestamp forms one batch; a
// batch whose events all carry a destination shard may be fanned across a
// worker pool, and the events each handler schedules are merged back into
// the queue in a canonical order, so the same seed yields bit-identical
// traffic, metrics and notification sets at any thread count.
//
// The queue is a hashed timing wheel (Varghese and Lauck, SOSP 1987): one
// FIFO list per tick for the next kWheelSize ticks, plus an overflow heap
// for events further out. Scheduling is an append, and an epoch leaves the
// queue as one slot hand-off. Events live in pooled nodes that are never
// moved, and every event carries a move-only Action whose inline buffer
// fits the hot closures, so steady-state scheduling does not allocate.

#ifndef CONTJOIN_SIM_SIMULATOR_H_
#define CONTJOIN_SIM_SIMULATOR_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace contjoin::sim {

/// Virtual time, in abstract ticks. Tuple publication times and query
/// insertion times are simulator timestamps.
using SimTime = uint64_t;

/// Shard id for events with no single-node destination; such events force
/// their epoch batch onto the serial path.
inline constexpr uint64_t kNoShard = ~uint64_t{0};

/// Cancellation handle for a scheduled event. Setting the flag makes the
/// simulator discard the event without running it — and, critically,
/// without advancing the virtual clock to its timestamp. This is what keeps
/// speculative far-future timers (reliability retry backoff) from
/// stretching every drain-to-empty out to their horizon: a cancelled timer
/// simply never happened. The flag is atomic because handlers running on
/// worker threads cancel timers mid-epoch; discards only happen on the
/// coordinating thread between epochs, after the pool barrier, so
/// cancellation is deterministic at any worker count (an event and its
/// cancellation in the same epoch batch: the event still runs — batch
/// membership is fixed before execution on both the serial and parallel
/// paths).
using CancelToken = std::shared_ptr<std::atomic<bool>>;

/// Makes a fresh, unset cancellation token.
inline CancelToken MakeCancelToken() {
  return std::make_shared<std::atomic<bool>>(false);
}

/// A move-only `void()` callable: what every scheduled event runs. A
/// closure of at most kInlineSize bytes lives inside the Action, so
/// handing it to the simulator allocates nothing; a larger one (a deferred
/// delivery that owns a Notification) is moved to the heap.
class Action {
 public:
  /// Sized for the largest closure scheduled once per overlay hop: the
  /// delivery in chord::Network::ScheduleDelivery (network and destination
  /// pointers plus a HopFrame by value, 96 B on LP64; network.cc asserts
  /// that it fits).
  static constexpr size_t kInlineSize = 96;

  Action() = default;
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, Action>>>
  Action(F&& f) {  // NOLINT(google-explicit-constructor): like std::function.
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(void*) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }
  Action(Action&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) ops_->relocate(buf_, other.buf_);
    other.ops_ = nullptr;
  }
  Action& operator=(Action&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
    return *this;
  }
  ~Action() { Reset(); }

  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void* self);
    // Move-constructs the callable at `dst` from `src` and destroys `src`.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* self);
  };
  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* self) { (*static_cast<Fn*>(self))(); },
      [](void* dst, void* src) {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* self) { static_cast<Fn*>(self)->~Fn(); }};
  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* self) { (**static_cast<Fn**>(self))(); },
      [](void* dst, void* src) {
        ::new (dst) Fn*(*static_cast<Fn**>(src));
      },
      [](void* self) { delete *static_cast<Fn**>(self); }};

  void Reset() {
    if (ops_ != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  // ops_ first: a small closure then shares a cache line with it.
  const Ops* ops_ = nullptr;
  alignas(void*) unsigned char buf_[kInlineSize];
};

/// Deterministic discrete-event scheduler.
///
/// Events scheduled for the same timestamp run in scheduling order (FIFO),
/// which makes a zero-latency message cascade deterministic: the full
/// consequence chain of one insertion drains before the next insertion that
/// was scheduled at a later time. An event a running handler schedules at
/// delay 0 runs in a later batch at the same timestamp.
///
/// Determinism contract for parallel execution: events in one epoch batch
/// are grouped by shard; groups run concurrently but each group preserves
/// FIFO order, and handlers sharing a shard never interleave. Events
/// scheduled by a running handler are buffered per worker, tagged with the
/// batch position of the event that scheduled them, and merged on the
/// coordinating thread in (batch position, scheduling order) — the exact
/// order serial execution would have enqueued them in.
class Simulator {
 public:
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  SimTime Now() const { return now_; }

  /// Schedules `action` to run `delay` ticks from now.
  void Schedule(SimTime delay, Action action) {
    ScheduleShardedAt(now_ + delay, kNoShard, std::move(action), nullptr);
  }

  /// Schedules `action` at an absolute virtual time (>= Now()).
  void ScheduleAt(SimTime when, Action action) {
    ScheduleShardedAt(when, kNoShard, std::move(action), nullptr);
  }

  /// Schedules `action` under `shard` (the destination node's serial):
  /// within one epoch all events of a shard run on one thread, in order.
  void ScheduleSharded(SimTime delay, uint64_t shard, Action action) {
    ScheduleShardedAt(now_ + delay, shard, std::move(action), nullptr);
  }

  /// Absolute-time form of ScheduleSharded. Safe to call from inside a
  /// running handler on any worker thread: the event lands in the
  /// worker's child buffer and is merged canonically after the epoch.
  void ScheduleShardedAt(SimTime when, uint64_t shard, Action action) {
    ScheduleShardedAt(when, shard, std::move(action), nullptr);
  }

  /// ScheduleSharded with a cancellation handle: if `*cancel` is set before
  /// the event's epoch forms, the event is dropped without running and
  /// without the clock ever reaching its timestamp.
  void ScheduleCancellable(SimTime delay, uint64_t shard, CancelToken cancel,
                           Action action) {
    ScheduleShardedAt(now_ + delay, shard, std::move(action),
                      std::move(cancel));
  }

  /// Runs events until the queue drains. Returns the number of events run.
  size_t Run();

  /// Runs events with timestamp <= `until` (the clock stops at `until` even
  /// if the queue drained earlier). Returns the number of events run.
  size_t RunUntil(SimTime until);

  /// Advances the clock without running events (used by drivers to space
  /// arrivals when the queue is empty). No live event may be pending
  /// before `when`: the next epoch would move the clock backwards.
  void AdvanceTo(SimTime when);

  /// Sets the worker count (>= 1; 1 disables the pool). Must be called
  /// between runs, never from inside a handler. The CONTJOIN_THREADS
  /// environment variable provides the initial value.
  void SetWorkers(int workers);
  int workers() const { return workers_; }

  /// True when the calling thread is currently executing an event of this
  /// simulator.
  bool InExecution() const;

  /// Events scheduled and not yet run or discarded. A cancelled event
  /// counts until the queue drops it: when it reaches the head of the
  /// queue, or when its timestamp's batch forms.
  size_t pending_events() const { return pending_; }
  uint64_t total_events_run() const { return events_run_; }
  uint64_t parallel_batches_run() const { return parallel_batches_run_; }

 private:
  // A scheduled event. Events live in pool chunks and never move: the
  // queue, the running batch and the free list link or point to them.
  struct Event {
    Event* next = nullptr;  // Slot FIFO or free-list link.
    SimTime when = 0;
    uint64_t shard = kNoShard;
    CancelToken cancel;  // Null for the (common) non-cancellable case.
    Action action;
  };
  // One wheel tick: the FIFO of events at one timestamp.
  struct Slot {
    Event* head = nullptr;
    Event* tail = nullptr;
  };
  // A far-future event. `seq` keeps FIFO order among overflow events of
  // one timestamp.
  struct Overflow {
    SimTime when;
    uint64_t seq;
    Event* event;
  };
  // An event scheduled by a handler mid-epoch on the parallel path. It is
  // queued when the epoch merges, in batch order (see ChildSpan).
  struct PendingChild {
    SimTime when;
    uint64_t shard;
    CancelToken cancel;
    Action action;
  };
  // Where batch event i's children sit: children_[worker][begin, end).
  struct ChildSpan {
    uint32_t worker = 0;
    uint32_t begin = 0;
    uint32_t end = 0;
  };
  // Installed in thread-local storage around every handler invocation;
  // `children` is null on the serial path (children are queued at once,
  // preserving the historical single-threaded behaviour bit for bit).
  struct ExecContext {
    Simulator* sim = nullptr;
    std::vector<PendingChild>* children = nullptr;
  };

  // Ticks the wheel covers. Hop latency, slot release, deferral and digest
  // flush delays are a few ticks, and the serving driver schedules
  // arrivals one 32-tick segment ahead. Reliability retry backoff doubles
  // from base_timeout * max(1, hop_latency): at hop latency 1 and a base
  // of 4 its eight retries stay within 1024 ticks, so only longer backoff
  // waits in the overflow heap. A power of two, so a timestamp's slot is a
  // mask; 16 KB of slots.
  static constexpr SimTime kWheelSize = 1024;
  static constexpr size_t kWheelWords = kWheelSize / 64;
  // Events per pool chunk (about 36 KB): the pool grows by a chunk when
  // the free list runs dry, and keeps what it grew to.
  static constexpr size_t kChunkEvents = 256;
  // Returned by the queue scans when nothing is pending.
  static constexpr SimTime kNever = ~SimTime{0};
  // Minimum epoch width worth fanning out; below this the barrier overhead
  // dominates and the serial path is both faster and trivially identical.
  static constexpr size_t kMinParallelBatch = 4;

  // Every Schedule form lands here; the action moves once more, into its
  // event.
  void ScheduleShardedAt(SimTime when, uint64_t shard, Action&& action,
                         CancelToken cancel);
  Event* Allocate();
  void Release(Event* event);
  /// Queues an event (coordinating thread only).
  void Enqueue(SimTime when, uint64_t shard, CancelToken cancel,
               Action&& action);
  /// Earliest timestamp with an event queued, cancelled or not; kNever if
  /// none.
  SimTime HeadTime() const;
  /// Drops cancelled events off the queue head without running them or
  /// moving the clock, and returns the earliest live timestamp (kNever if
  /// none is left). Called between epochs, on the coordinating thread.
  SimTime DiscardCancelled();
  bool LiveEventBefore(SimTime when) const;
  size_t RunBatch(SimTime t);
  void ExecuteSerial();
  void ExecuteParallel();
  void RunEvent(Event* event, std::vector<PendingChild>* children);
  void ProcessGroups(uint32_t worker);
  void WorkerLoop(uint32_t worker);
  void EnsurePool();
  void StopPool();

  static bool Cancelled(const Event* e) {
    return e->cancel != nullptr && e->cancel->load(std::memory_order_acquire);
  }

  static thread_local ExecContext exec_context_;

  SimTime now_ = 0;
  uint64_t events_run_ = 0;
  uint64_t parallel_batches_run_ = 0;

  // The queue. Every wheel event's timestamp lies in
  // [cursor_, cursor_ + kWheelSize), so its slot is unambiguous; cursor_
  // never passes now_ and only moves forward. Overflow events were too far
  // out when scheduled. Because cursor_ is monotone, every overflow event
  // of a timestamp was scheduled before every wheel event of it, so a
  // batch takes the overflow events first.
  std::array<Slot, kWheelSize> wheel_{};
  std::array<uint64_t, kWheelWords> occupied_{};  // Non-empty slots.
  SimTime cursor_ = 0;
  std::vector<Overflow> overflow_;  // Min-heap on (when, seq).
  uint64_t overflow_seq_ = 0;
  size_t pending_ = 0;

  std::vector<std::unique_ptr<Event[]>> chunks_;
  Event* free_ = nullptr;

  // Epoch scratch state, owned by the coordinating thread; workers read it
  // only between the generation hand-off and their active-count decrement,
  // both of which synchronize through pool_mu_.
  std::vector<Event*> batch_;
  std::vector<std::vector<PendingChild>> children_;  // One per worker.
  std::vector<ChildSpan> child_spans_;               // One per batch event.
  std::vector<uint32_t> group_order_;   // Batch indices, grouped by shard.
  std::vector<uint32_t> group_bounds_;  // group_order_ slice boundaries.
  std::atomic<size_t> next_group_{0};

  int workers_ = 1;
  std::vector<std::thread> pool_;
  std::mutex pool_mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  uint64_t work_generation_ = 0;
  size_t workers_active_ = 0;
  bool shutdown_ = false;
};

}  // namespace contjoin::sim

#endif  // CONTJOIN_SIM_SIMULATOR_H_
