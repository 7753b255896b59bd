// Discrete-event simulator: a virtual clock plus a deterministic FIFO event
// queue. All overlay traffic, stabilization timers and tuple/query arrivals
// are events. The core executes events in virtual-time epochs: every event
// at the current minimum timestamp forms one batch; a batch whose events all
// carry a destination shard may be fanned across a worker pool, and the
// events each handler schedules are merged back into the queue in a
// canonical order, so the same seed yields bit-identical traffic, metrics
// and notification sets at any thread count.

#ifndef CONTJOIN_SIM_SIMULATOR_H_
#define CONTJOIN_SIM_SIMULATOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
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

/// Deterministic discrete-event scheduler.
///
/// Events scheduled for the same timestamp run in scheduling order (FIFO),
/// which makes a zero-latency message cascade deterministic: the full
/// consequence chain of one insertion drains before the next insertion that
/// was scheduled at a later time.
///
/// Determinism contract for parallel execution: events in one epoch batch
/// are grouped by shard; groups run concurrently but each group preserves
/// FIFO order, and handlers sharing a shard never interleave. Events
/// scheduled by a running handler are buffered per event and merged on the
/// coordinating thread in (batch position, scheduling order), receiving the
/// exact sequence numbers serial execution would have assigned.
class Simulator {
 public:
  using Action = std::function<void()>;

  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  SimTime Now() const { return now_; }

  /// Schedules `action` to run `delay` ticks from now.
  void Schedule(SimTime delay, Action action) {
    ScheduleShardedAt(now_ + delay, kNoShard, std::move(action));
  }

  /// Schedules `action` at an absolute virtual time (>= Now()).
  void ScheduleAt(SimTime when, Action action) {
    ScheduleShardedAt(when, kNoShard, std::move(action));
  }

  /// Schedules `action` under `shard` (the destination node's serial):
  /// within one epoch all events of a shard run on one thread, in order.
  void ScheduleSharded(SimTime delay, uint64_t shard, Action action) {
    ScheduleShardedAt(now_ + delay, shard, std::move(action));
  }

  /// Absolute-time form of ScheduleSharded. Safe to call from inside a
  /// running handler on any worker thread: the event lands in the
  /// handler's child buffer and is merged canonically after the epoch.
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
  /// arrivals when the queue is empty).
  void AdvanceTo(SimTime when) {
    CJ_CHECK(when >= now_) << "clock cannot move backwards";
    now_ = when;
  }

  /// Sets the worker count (>= 1; 1 disables the pool). Must be called
  /// between runs, never from inside a handler. The CONTJOIN_THREADS
  /// environment variable provides the initial value.
  void SetWorkers(int workers);
  int workers() const { return workers_; }

  /// True when the calling thread is currently executing an event of this
  /// simulator.
  bool InExecution() const;

  size_t pending_events() const { return queue_.size(); }
  uint64_t total_events_run() const { return events_run_; }
  uint64_t parallel_batches_run() const { return parallel_batches_run_; }

 private:
  struct Event {
    SimTime when;
    uint64_t seq;  // FIFO tiebreak within a timestamp.
    uint64_t shard;
    Action action;
    CancelToken cancel;  // Null for the (common) non-cancellable case.
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  // An event scheduled by a handler mid-epoch, before it has a seq.
  struct PendingChild {
    SimTime when;
    uint64_t shard;
    Action action;
    CancelToken cancel;
  };
  // Installed in thread-local storage around every handler invocation;
  // `children` is null on the serial path (children push straight into the
  // queue, preserving the historical single-threaded behaviour bit for
  // bit).
  struct ExecContext {
    Simulator* sim = nullptr;
    std::vector<PendingChild>* children = nullptr;
  };

  // Minimum epoch width worth fanning out; below this the barrier overhead
  // dominates and the serial path is both faster and trivially identical.
  static constexpr size_t kMinParallelBatch = 4;

  void ScheduleShardedAt(SimTime when, uint64_t shard, Action action,
                         CancelToken cancel);
  /// Pops cancelled events off the queue head without running them or
  /// moving the clock. Called between epochs, on the coordinating thread.
  void DiscardCancelled();
  size_t RunBatch();
  void ExecuteSerial();
  void ExecuteParallel();
  void RunEvent(size_t index, std::vector<PendingChild>* children);
  void ProcessGroups();
  void WorkerLoop();
  void EnsurePool();
  void StopPool();

  static thread_local ExecContext exec_context_;

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_run_ = 0;
  uint64_t parallel_batches_run_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventLater> queue_;

  // Epoch scratch state, owned by the coordinating thread; workers read it
  // only between the generation hand-off and their active-count decrement,
  // both of which synchronize through pool_mu_.
  std::vector<Event> batch_;
  std::vector<std::vector<PendingChild>> child_bufs_;
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
