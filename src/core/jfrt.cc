#include "core/jfrt.h"

namespace contjoin::core {

std::optional<chord::NodeId> Jfrt::Lookup(const chord::NodeId& vindex) {
  auto it = map_.find(vindex);
  if (it == map_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->evaluator;
}

void Jfrt::Insert(const chord::NodeId& vindex,
                  const chord::NodeId& evaluator) {
  if (capacity_ == 0) return;
  auto it = map_.find(vindex);
  if (it != map_.end()) {
    it->second->evaluator = evaluator;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (map_.size() >= capacity_) {
    map_.erase(lru_.back().vindex);
    lru_.pop_back();
  }
  lru_.push_front(Entry{vindex, evaluator});
  map_[vindex] = lru_.begin();
}

void Jfrt::Erase(const chord::NodeId& vindex) {
  auto it = map_.find(vindex);
  if (it == map_.end()) return;
  lru_.erase(it->second);
  map_.erase(it);
}

}  // namespace contjoin::core
