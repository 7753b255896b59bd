// Join Fingers Routing Table (paper §4.7 "optimizations"): a bounded LRU
// cache at rewriter nodes mapping value-level identifiers to evaluator
// addresses, so reindexing a rewritten query costs one hop instead of
// O(log N) once the evaluator is known.

#ifndef CONTJOIN_CORE_JFRT_H_
#define CONTJOIN_CORE_JFRT_H_

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>

#include "chord/types.h"

namespace contjoin::core {

/// LRU cache: value-level identifier -> evaluator identifier. A stale entry
/// (responsibility moved after churn) is corrected when the true evaluator
/// acknowledges a routed join.
class Jfrt {
 public:
  explicit Jfrt(size_t capacity) : capacity_(capacity) {}

  /// std::nullopt on miss. A hit refreshes recency.
  std::optional<chord::NodeId> Lookup(const chord::NodeId& vindex);

  /// Inserts or updates, evicting the least-recently-used entry if full.
  void Insert(const chord::NodeId& vindex, const chord::NodeId& evaluator);

  /// Drops an entry (stale detection).
  void Erase(const chord::NodeId& vindex);

  size_t size() const { return map_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  struct Entry {
    chord::NodeId vindex;
    chord::NodeId evaluator;
  };
  using List = std::list<Entry>;

  size_t capacity_;
  List lru_;  // Front = most recent.
  std::unordered_map<chord::NodeId, List::iterator> map_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace contjoin::core

#endif  // CONTJOIN_CORE_JFRT_H_
