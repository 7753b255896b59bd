#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "alloc_count.h"

namespace perfbench {
namespace {

// Span log entries kept per thread; beyond this only aggregates grow.
constexpr size_t kMaxLoggedSpansPerThread = 100000;

struct SpanRecord {
  SpanKind kind;
  int32_t parent;  // Index in the same thread's log; -1 = none.
  uint64_t op;
  int64_t start_ns;
  int64_t end_ns;
};

struct OpenSpan {
  SpanKind kind;
  bool work_root;
  int32_t log_index;
  int64_t start_ns;
  uint64_t start_allocs;
  uint64_t child_ns;
  uint64_t child_allocs;
};

struct ThreadTrace {
  uint32_t tid = 0;
  bool is_main = false;
  std::vector<OpenSpan> stack;
  std::array<SpanStats, kSpanKinds> stats{};
  uint64_t busy_ns = 0;
  std::vector<SpanRecord> log;
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_op{0};
std::thread::id g_main_thread;
std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadTrace>> g_registry;  // Guarded by mu.
thread_local ThreadTrace* t_trace = nullptr;

ThreadTrace* Current() {
  if (t_trace == nullptr) {
    auto trace = std::make_unique<ThreadTrace>();
    trace->is_main = std::this_thread::get_id() == g_main_thread;
    std::lock_guard<std::mutex> lock(g_registry_mu);
    trace->tid = static_cast<uint32_t>(g_registry.size());
    t_trace = trace.get();
    g_registry.push_back(std::move(trace));
  }
  return t_trace;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOpInsert:
      return "op.insert";
    case SpanKind::kOpWave:
      return "op.wave";
    case SpanKind::kOpSegment:
      return "op.segment";
    case SpanKind::kOpSubmit:
      return "op.submit";
    case SpanKind::kOpUnsubscribe:
      return "op.unsubscribe";
    case SpanKind::kOpPrune:
      return "op.prune";
    case SpanKind::kRewriter:
      return "rewriter";
    case SpanKind::kEvaluator:
      return "evaluator";
    case SpanKind::kSubscriber:
      return "subscriber";
    case SpanKind::kReliability:
      return "reliability";
    case SpanKind::kOtherRole:
      return "other_role";
    case SpanKind::kHop:
      return "chord.hop";
    case SpanKind::kCount:
      break;
  }
  return "?";
}

bool IsOpSpan(SpanKind kind) { return kind <= SpanKind::kOpPrune; }

void Tracer::Enable(bool on) {
  g_main_thread = std::this_thread::get_id();
  g_enabled.store(on, std::memory_order_relaxed);
}

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Tracer::SetOp(uint64_t op) { g_op.store(op, std::memory_order_relaxed); }

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (auto& t : g_registry) {
    t->stack.clear();
    t->stats = {};
    t->busy_ns = 0;
    t->log.clear();
    t->log.shrink_to_fit();
  }
}

TraceTotals Tracer::Collect() {
  TraceTotals totals;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& t : g_registry) {
    auto& side = t->is_main ? totals.main : totals.workers;
    for (size_t k = 0; k < kSpanKinds; ++k) side[k].Add(t->stats[k]);
    (t->is_main ? totals.busy_ns_main : totals.busy_ns_workers) += t->busy_ns;
  }
  return totals;
}

bool Tracer::WriteChromeTrace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  int64_t origin = INT64_MAX;
  for (const auto& t : g_registry) {
    for (const SpanRecord& r : t->log) origin = std::min(origin, r.start_ns);
  }
  std::fputs("{\"traceEvents\": [\n", f);
  bool first = true;
  for (const auto& t : g_registry) {
    for (size_t i = 0; i < t->log.size(); ++i) {
      const SpanRecord& r = t->log[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"op\": %llu, \"id\": %zu, \"parent\": %d}}",
                   first ? "" : ",\n", SpanKindName(r.kind), t->tid,
                   static_cast<double>(r.start_ns - origin) / 1e3,
                   static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                   static_cast<unsigned long long>(r.op), i, r.parent);
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanKind kind)
    : active_(g_enabled.load(std::memory_order_relaxed)) {
  if (!active_) return;
  ThreadTrace* t = Current();
  OpenSpan open;
  open.kind = kind;
  open.work_root = !IsOpSpan(kind) &&
                   (t->stack.empty() || IsOpSpan(t->stack.back().kind));
  open.log_index = -1;
  open.child_ns = 0;
  open.child_allocs = 0;
  if (t->log.size() < kMaxLoggedSpansPerThread) {
    open.log_index = static_cast<int32_t>(t->log.size());
    t->log.push_back(SpanRecord{
        kind, t->stack.empty() ? -1 : t->stack.back().log_index,
        g_op.load(std::memory_order_relaxed), 0, 0});
  }
  // Read the counters last so the span's own bookkeeping stays outside.
  open.start_allocs = ThreadAllocs();
  open.start_ns = NowNs();
  t->stack.push_back(open);
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const int64_t end = NowNs();
  const uint64_t allocs = ThreadAllocs();
  ThreadTrace* t = Current();
  const OpenSpan open = t->stack.back();
  t->stack.pop_back();
  const uint64_t dur = static_cast<uint64_t>(end - open.start_ns);
  const uint64_t own_allocs = allocs - open.start_allocs;
  SpanStats& s = t->stats[static_cast<size_t>(open.kind)];
  ++s.count;
  s.total_ns += dur;
  s.self_ns += dur > open.child_ns ? dur - open.child_ns : 0;
  s.self_allocs +=
      own_allocs > open.child_allocs ? own_allocs - open.child_allocs : 0;
  if (open.work_root) t->busy_ns += dur;
  if (!t->stack.empty()) {
    t->stack.back().child_ns += dur;
    t->stack.back().child_allocs += own_allocs;
  }
  if (open.log_index >= 0) {
    SpanRecord& r = t->log[static_cast<size_t>(open.log_index)];
    r.start_ns = open.start_ns;
    r.end_ns = end;
  }
}

ExcludedRegion::ExcludedRegion()
    : active_(g_enabled.load(std::memory_order_relaxed)) {
  if (!active_) return;
  start_allocs_ = ThreadAllocs();
  start_ns_ = NowNs();
}

ExcludedRegion::~ExcludedRegion() {
  if (!active_) return;
  const int64_t end = NowNs();
  const uint64_t allocs = ThreadAllocs();
  ThreadTrace* t = Current();
  if (t->stack.empty()) return;
  t->stack.back().child_ns += static_cast<uint64_t>(end - start_ns_);
  t->stack.back().child_allocs += allocs - start_allocs_;
}

}  // namespace perfbench
