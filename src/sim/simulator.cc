#include "sim/simulator.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

namespace contjoin::sim {

thread_local Simulator::ExecContext Simulator::exec_context_;

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

// contjoin-check: hot
void Simulator::ScheduleShardedAt(SimTime when, uint64_t shard, Action action,
                                  CancelToken cancel) {
  CJ_CHECK(when >= now_) << "cannot schedule in the past: " << when << " < "
                         << now_;
  ExecContext& ctx = exec_context_;
  if (ctx.sim == this && ctx.children != nullptr) {
    ctx.children->push_back(
        PendingChild{when, shard, std::move(action), std::move(cancel)});
    return;
  }
  queue_.push(
      Event{when, next_seq_++, shard, std::move(action), std::move(cancel)});
}

bool Simulator::InExecution() const { return exec_context_.sim == this; }

void Simulator::DiscardCancelled() {
  while (!queue_.empty() && queue_.top().cancel != nullptr &&
         queue_.top().cancel->load(std::memory_order_acquire)) {
    queue_.pop();
  }
}

size_t Simulator::Run() {
  size_t ran = 0;
  for (;;) {
    DiscardCancelled();
    if (queue_.empty()) break;
    ran += RunBatch();
  }
  return ran;
}

size_t Simulator::RunUntil(SimTime until) {
  size_t ran = 0;
  for (;;) {
    DiscardCancelled();
    if (queue_.empty() || queue_.top().when > until) break;
    ran += RunBatch();
  }
  if (now_ < until) now_ = until;
  return ran;
}

// contjoin-check: hot
size_t Simulator::RunBatch() {
  const SimTime t = queue_.top().when;
  now_ = t;
  batch_.clear();
  bool all_sharded = true;
  while (!queue_.empty() && queue_.top().when == t) {
    // A cancelled event further down the same timestamp cohort: drop it
    // here (the clock is already at t because of a live sibling).
    if (queue_.top().cancel != nullptr &&
        queue_.top().cancel->load(std::memory_order_acquire)) {
      queue_.pop();
      continue;
    }
    // Moving out of a priority_queue top requires a const_cast; the element
    // is popped immediately after.
    batch_.push_back(std::move(const_cast<Event&>(queue_.top())));
    queue_.pop();
    if (batch_.back().shard == kNoShard) all_sharded = false;
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
void Simulator::RunEvent(size_t index, std::vector<PendingChild>* children) {
  ExecContext& ctx = exec_context_;
  ctx.sim = this;
  ctx.children = children;
  batch_[index].action();
  ctx.sim = nullptr;
  ctx.children = nullptr;
}

void Simulator::ExecuteSerial() {
  // Children push straight into the queue with fresh sequence numbers —
  // exactly what the historical one-event-at-a-time loop did.
  for (size_t i = 0; i < batch_.size(); ++i) RunEvent(i, nullptr);
}

void Simulator::ExecuteParallel() {
  EnsurePool();
  ++parallel_batches_run_;
  const size_t n = batch_.size();
  if (child_bufs_.size() < n) child_bufs_.resize(n);
  for (size_t i = 0; i < n; ++i) child_bufs_[i].clear();

  // Group batch positions by shard; within a shard the original FIFO order
  // is preserved (batch_ is already seq-sorted, and the sort key breaks
  // ties by position).
  group_order_.resize(n);
  for (size_t i = 0; i < n; ++i) group_order_[i] = static_cast<uint32_t>(i);
  std::sort(group_order_.begin(), group_order_.end(),
            [this](uint32_t a, uint32_t b) {
              if (batch_[a].shard != batch_[b].shard) {
                return batch_[a].shard < batch_[b].shard;
              }
              return a < b;
            });
  group_bounds_.clear();
  group_bounds_.push_back(0);
  for (size_t k = 1; k < n; ++k) {
    if (batch_[group_order_[k]].shard != batch_[group_order_[k - 1]].shard) {
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
  ProcessGroups();  // The coordinating thread pulls groups too.
  {
    std::unique_lock<std::mutex> lk(pool_mu_);
    done_cv_.wait(lk, [this] { return workers_active_ == 0; });
  }

  // Canonical merge: walking events in batch order and each event's
  // children in scheduling order reproduces the exact sequence numbers the
  // serial path would have assigned.
  for (size_t i = 0; i < n; ++i) {
    for (PendingChild& child : child_bufs_[i]) {
      queue_.push(Event{child.when, next_seq_++, child.shard,
                        std::move(child.action), std::move(child.cancel)});
    }
    child_bufs_[i].clear();
  }
}

void Simulator::ProcessGroups() {  // contjoin-check: hot — lock-free group pull
  const size_t num_groups = group_bounds_.size() - 1;
  for (;;) {
    size_t g = next_group_.fetch_add(1, std::memory_order_relaxed);
    if (g >= num_groups) return;
    for (uint32_t k = group_bounds_[g]; k < group_bounds_[g + 1]; ++k) {
      const size_t index = group_order_[k];
      RunEvent(index, &child_bufs_[index]);
    }
  }
}

void Simulator::WorkerLoop() {
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
    ProcessGroups();
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
  pool_.reserve(want);
  for (size_t i = 0; i < want; ++i) {
    pool_.emplace_back([this] { WorkerLoop(); });
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
