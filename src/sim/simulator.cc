#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <utility>

namespace contjoin::sim {

thread_local Simulator::ExecContext Simulator::exec_context_;

namespace {

// Min-heap order for the overflow: the earliest (when, seq) on top.
struct OverflowLater {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }
};

}  // namespace

Simulator::Simulator() {
  if (const char* env = std::getenv("CONTJOIN_THREADS")) {
    char* end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 && v <= 256) {
      workers_ = static_cast<int>(v);
    }
  }
}

Simulator::~Simulator() { StopPool(); }

Simulator::Event* Simulator::Allocate() {
  if (free_ == nullptr) {
    chunks_.push_back(std::make_unique<Event[]>(kChunkEvents));
    Event* chunk = chunks_.back().get();
    for (size_t i = 0; i < kChunkEvents; ++i) {
      chunk[i].next = free_;
      free_ = &chunk[i];
    }
  }
  Event* event = free_;
  free_ = event->next;
  return event;
}

void Simulator::Release(Event* event) {
  // Drop the closure and token now: they may own tuples or notifications.
  event->action = Action();
  event->cancel.reset();
  event->next = free_;
  free_ = event;
}

// contjoin-check: hot
void Simulator::Enqueue(SimTime when, uint64_t shard, CancelToken cancel,
                        Action&& action) {
  Event* event = Allocate();
  event->when = when;
  event->shard = shard;
  event->cancel = std::move(cancel);
  event->action = std::move(action);
  ++pending_;
  if (event->when - cursor_ < kWheelSize) {
    const size_t index = event->when & (kWheelSize - 1);
    Slot& slot = wheel_[index];
    event->next = nullptr;
    if (slot.tail == nullptr) {
      slot.head = event;
      occupied_[index / 64] |= uint64_t{1} << (index % 64);
    } else {
      slot.tail->next = event;
    }
    slot.tail = event;
    return;
  }
  overflow_.push_back(Overflow{event->when, overflow_seq_++, event});
  std::push_heap(overflow_.begin(), overflow_.end(), OverflowLater());
}

// contjoin-check: hot
void Simulator::ScheduleShardedAt(SimTime when, uint64_t shard,
                                  Action&& action, CancelToken cancel) {
  CJ_CHECK(when >= now_) << "cannot schedule in the past: " << when << " < "
                         << now_;
  ExecContext& ctx = exec_context_;
  if (ctx.sim == this && ctx.children != nullptr) {
    ctx.children->push_back(
        PendingChild{when, shard, std::move(cancel), std::move(action)});
    return;
  }
  Enqueue(when, shard, std::move(cancel), std::move(action));
}

bool Simulator::InExecution() const { return exec_context_.sim == this; }

SimTime Simulator::HeadTime() const {
  SimTime head = overflow_.empty() ? kNever : overflow_.front().when;
  // First occupied slot at or after the cursor's, wrapping once around.
  const size_t start = cursor_ & (kWheelSize - 1);
  for (size_t k = 0; k <= kWheelWords; ++k) {
    const size_t word = (start / 64 + k) % kWheelWords;
    uint64_t bits = occupied_[word];
    if (k == 0) bits &= ~uint64_t{0} << (start % 64);
    if (k == kWheelWords) bits &= (uint64_t{1} << (start % 64)) - 1;
    if (bits != 0) {
      const size_t index =
          word * 64 + static_cast<size_t>(std::countr_zero(bits));
      return std::min(head, cursor_ + ((index - start) & (kWheelSize - 1)));
    }
  }
  return head;
}

SimTime Simulator::DiscardCancelled() {
  for (;;) {
    const SimTime t = HeadTime();
    if (t == kNever) return kNever;
    // At one timestamp the overflow events come first (see cursor_).
    if (!overflow_.empty() && overflow_.front().when == t) {
      Event* head = overflow_.front().event;
      if (!Cancelled(head)) return t;
      std::pop_heap(overflow_.begin(), overflow_.end(), OverflowLater());
      overflow_.pop_back();
      --pending_;
      Release(head);
      continue;
    }
    const size_t index = t & (kWheelSize - 1);
    Slot& slot = wheel_[index];
    Event* head = slot.head;
    if (!Cancelled(head)) return t;
    slot.head = head->next;
    if (slot.head == nullptr) {
      slot.tail = nullptr;
      occupied_[index / 64] &= ~(uint64_t{1} << (index % 64));
    }
    --pending_;
    Release(head);
  }
}

bool Simulator::LiveEventBefore(SimTime when) const {
  if (HeadTime() >= when) return false;
  for (const Overflow& o : overflow_) {
    if (o.when < when && !Cancelled(o.event)) return true;
  }
  for (const Slot& slot : wheel_) {
    for (const Event* e = slot.head; e != nullptr; e = e->next) {
      if (e->when < when && !Cancelled(e)) return true;
    }
  }
  return false;
}

void Simulator::AdvanceTo(SimTime when) {
  CJ_CHECK(when >= now_) << "clock cannot move backwards";
  CJ_CHECK(!LiveEventBefore(when))
      << "an event is still pending before " << when;
  now_ = when;
  // An empty wheel may restart at the new time, widening its horizon.
  if (std::all_of(occupied_.begin(), occupied_.end(),
                  [](uint64_t bits) { return bits == 0; })) {
    cursor_ = now_;
  }
}

size_t Simulator::Run() {
  size_t ran = 0;
  for (SimTime t = DiscardCancelled(); t != kNever; t = DiscardCancelled()) {
    ran += RunBatch(t);
  }
  return ran;
}

size_t Simulator::RunUntil(SimTime until) {
  size_t ran = 0;
  for (SimTime t = DiscardCancelled(); t != kNever && t <= until;
       t = DiscardCancelled()) {
    ran += RunBatch(t);
  }
  if (now_ < until) AdvanceTo(until);
  return ran;
}

// contjoin-check: hot
size_t Simulator::RunBatch(SimTime t) {
  now_ = t;
  cursor_ = t;
  batch_.clear();
  bool all_sharded = true;
  // Membership is fixed here, before any event runs: an event cancelled
  // further down the cohort is dropped now (the clock is already at t
  // because of a live sibling), and one its siblings cancel still runs.
  auto admit = [&](Event* event) {
    --pending_;
    if (Cancelled(event)) {
      Release(event);
      return;
    }
    batch_.push_back(event);
    if (event->shard == kNoShard) all_sharded = false;
  };
  while (!overflow_.empty() && overflow_.front().when == t) {
    Event* event = overflow_.front().event;
    std::pop_heap(overflow_.begin(), overflow_.end(), OverflowLater());
    overflow_.pop_back();
    admit(event);
  }
  // The slot's whole FIFO becomes the batch; a delay-0 child starts a new
  // FIFO in the emptied slot and so runs in a later batch at t.
  const size_t index = t & (kWheelSize - 1);
  Slot& slot = wheel_[index];
  Event* event = slot.head;
  slot.head = slot.tail = nullptr;
  occupied_[index / 64] &= ~(uint64_t{1} << (index % 64));
  while (event != nullptr) {
    Event* next = event->next;
    admit(event);
    event = next;
  }
  const size_t n = batch_.size();
  if (workers_ > 1 && all_sharded && n >= kMinParallelBatch) {
    ExecuteParallel();
  } else {
    ExecuteSerial();
  }
  batch_.clear();
  events_run_ += n;
  return n;
}

// contjoin-check: hot
void Simulator::RunEvent(Event* event, std::vector<PendingChild>* children) {
  ExecContext& ctx = exec_context_;
  ctx.sim = this;
  ctx.children = children;
  event->action();
  ctx.sim = nullptr;
  ctx.children = nullptr;
}

void Simulator::ExecuteSerial() {
  // Children are queued straight away with the next FIFO positions —
  // exactly what the historical one-event-at-a-time loop did.
  for (Event* event : batch_) {
    RunEvent(event, nullptr);
    Release(event);
  }
}

void Simulator::ExecuteParallel() {
  EnsurePool();
  ++parallel_batches_run_;
  const size_t n = batch_.size();
  child_spans_.assign(n, ChildSpan());

  // Group batch positions by shard; within a shard the original FIFO order
  // is preserved (the sort key breaks ties by position).
  group_order_.resize(n);
  for (size_t i = 0; i < n; ++i) group_order_[i] = static_cast<uint32_t>(i);
  std::sort(group_order_.begin(), group_order_.end(),
            [this](uint32_t a, uint32_t b) {
              if (batch_[a]->shard != batch_[b]->shard) {
                return batch_[a]->shard < batch_[b]->shard;
              }
              return a < b;
            });
  group_bounds_.clear();
  group_bounds_.push_back(0);
  for (size_t k = 1; k < n; ++k) {
    if (batch_[group_order_[k]]->shard != batch_[group_order_[k - 1]]->shard) {
      group_bounds_.push_back(static_cast<uint32_t>(k));
    }
  }
  group_bounds_.push_back(static_cast<uint32_t>(n));
  next_group_.store(0, std::memory_order_relaxed);

  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    ++work_generation_;
    workers_active_ = pool_.size();
  }
  work_cv_.notify_all();
  ProcessGroups(0);  // The coordinating thread pulls groups too.
  {
    std::unique_lock<std::mutex> lk(pool_mu_);
    done_cv_.wait(lk, [this] { return workers_active_ == 0; });
  }

  // Canonical merge: walking events in batch order and each event's
  // children in scheduling order reproduces the exact queue order the
  // serial path would have produced.
  for (size_t i = 0; i < n; ++i) {
    const ChildSpan& span = child_spans_[i];
    std::vector<PendingChild>& buf = children_[span.worker];
    for (uint32_t k = span.begin; k < span.end; ++k) {
      PendingChild& child = buf[k];
      Enqueue(child.when, child.shard, std::move(child.cancel),
              std::move(child.action));
    }
    Release(batch_[i]);
  }
  for (std::vector<PendingChild>& buf : children_) buf.clear();
}

void Simulator::ProcessGroups(uint32_t worker) {  // contjoin-check: hot — lock-free group pull
  const size_t num_groups = group_bounds_.size() - 1;
  std::vector<PendingChild>& buf = children_[worker];
  for (;;) {
    size_t g = next_group_.fetch_add(1, std::memory_order_relaxed);
    if (g >= num_groups) return;
    for (uint32_t k = group_bounds_[g]; k < group_bounds_[g + 1]; ++k) {
      const size_t index = group_order_[k];
      ChildSpan& span = child_spans_[index];
      span.worker = worker;
      span.begin = static_cast<uint32_t>(buf.size());
      RunEvent(batch_[index], &buf);
      span.end = static_cast<uint32_t>(buf.size());
    }
  }
}

void Simulator::WorkerLoop(uint32_t worker) {
  uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(pool_mu_);
      work_cv_.wait(lk, [this, seen_generation] {
        return shutdown_ || work_generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = work_generation_;
    }
    ProcessGroups(worker);
    {
      std::lock_guard<std::mutex> lk(pool_mu_);
      --workers_active_;
      if (workers_active_ == 0) done_cv_.notify_all();
    }
  }
}

void Simulator::EnsurePool() {
  const size_t want = static_cast<size_t>(workers_ - 1);
  if (pool_.size() == want) return;
  StopPool();
  children_.resize(want + 1);
  pool_.reserve(want);
  for (size_t i = 0; i < want; ++i) {
    const auto worker = static_cast<uint32_t>(i + 1);
    pool_.emplace_back([this, worker] { WorkerLoop(worker); });
  }
}

void Simulator::StopPool() {
  if (pool_.empty()) return;
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : pool_) worker.join();
  pool_.clear();
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    shutdown_ = false;
  }
}

void Simulator::SetWorkers(int workers) {
  CJ_CHECK(!InExecution()) << "SetWorkers must not run inside a handler";
  if (workers < 1) workers = 1;
  if (workers == workers_) return;
  StopPool();
  workers_ = workers;
}

}  // namespace contjoin::sim
