#include "core/tables.h"

namespace contjoin::core {

// --- AttrLevelQueryTable ---------------------------------------------------

void AttrLevelQueryTable::Insert(const std::string& level1,
                                 const std::string& signature,
                                 AlqtEntry entry) {
  Group& group = map_[level1][signature];
  for (AlqtEntry& existing : group) {
    if (existing.query->key() == entry.query->key() &&
        existing.index_side == entry.index_side) {
      // Retried or replayed indexing, or a bucket handed back: already
      // stored, but the other copy may have reached other evaluators.
      for (const chord::NodeId& id : entry.evaluators) {
        existing.AddEvaluator(id);
      }
      return;
    }
  }
  group.push_back(std::move(entry));
  ++size_;
}

AttrLevelQueryTable::GroupMap* AttrLevelQueryTable::Find(
    const std::string& level1) {
  auto it = map_.find(level1);
  return it == map_.end() ? nullptr : &it->second;
}

AttrLevelQueryTable::Group AttrLevelQueryTable::RemoveQuery(
    const std::string& level1, const std::string& query_key) {
  Group removed;
  auto l1 = map_.find(level1);
  if (l1 == map_.end()) return removed;
  GroupMap& groups = l1->second;
  for (auto l2 = groups.begin(); l2 != groups.end();) {
    Group& group = l2->second;
    for (auto it = group.begin(); it != group.end();) {
      if (it->query->key() == query_key) {
        removed.push_back(std::move(*it));
        it = group.erase(it);
      } else {
        ++it;
      }
    }
    l2 = group.empty() ? groups.erase(l2) : std::next(l2);
  }
  if (groups.empty()) map_.erase(l1);
  size_ -= removed.size();
  return removed;
}

AttrLevelQueryTable::GroupMap AttrLevelQueryTable::TakeLevel1(
    const std::string& level1) {
  auto it = map_.find(level1);
  if (it == map_.end()) return {};
  GroupMap out = std::move(it->second);
  for (const auto& [signature, group] : out) size_ -= group.size();
  map_.erase(it);
  return out;
}

void AttrLevelQueryTable::AbsorbLevel1(const std::string& level1,
                                       GroupMap groups) {
  for (auto& [signature, group] : groups) {
    for (AlqtEntry& entry : group) {
      Insert(level1, signature, std::move(entry));
    }
  }
}

std::vector<std::string> AttrLevelQueryTable::Level1Keys() const {
  std::vector<std::string> keys;
  keys.reserve(map_.size());
  // contjoin-check: ordered-ok(keys are collected and sorted below)
  for (const auto& [level1, groups] : map_) keys.push_back(level1);
  std::sort(keys.begin(), keys.end());
  return keys;
}

// --- ValueLevelTable ---------------------------------------------------------

template <typename Policy>
const typename ValueLevelTable<Policy>::Bucket* ValueLevelTable<Policy>::Find(
    const std::string& level1, const Key2& key2) const {
  auto l1 = map_.find(level1);
  if (l1 == map_.end()) return nullptr;
  auto l2 = l1->second.find(key2);
  return l2 == l1->second.end() ? nullptr : &l2->second;
}

template <typename Policy>
std::vector<typename ValueLevelTable<Policy>::Coord>
ValueLevelTable<Policy>::BucketKeys() const {
  std::vector<Coord> keys;
  // contjoin-check: ordered-ok(keys are collected and sorted below)
  for (const auto& [level1, by_key2] : map_) {
    // contjoin-check: ordered-ok(keys are collected and sorted below)
    for (const auto& [key2, bucket] : by_key2) keys.emplace_back(level1, key2);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

template <typename Policy>
typename ValueLevelTable<Policy>::Bucket ValueLevelTable<Policy>::TakeBucket(
    const std::string& level1, const Key2& key2) {
  auto l1 = map_.find(level1);
  if (l1 == map_.end()) return {};
  auto l2 = l1->second.find(key2);
  if (l2 == l1->second.end()) return {};
  Bucket out = std::move(l2->second);
  size_ -= out.size();
  l1->second.erase(l2);
  if (l1->second.empty()) map_.erase(l1);
  return out;
}

template <typename Policy>
void ValueLevelTable<Policy>::AbsorbBucket(const std::string& level1,
                                           const Key2& key2, Bucket bucket) {
  if (bucket.empty()) return;
  Bucket& dst = map_[level1][key2];
  for (auto& entry : bucket) {
    if (Policy::Insert(dst, std::move(entry))) ++size_;
  }
}

template <typename Policy>
template <typename EraseFn>
size_t ValueLevelTable<Policy>::EraseFrom(EraseFn erase) {
  size_t dropped = 0;
  for (auto l1 = map_.begin(); l1 != map_.end();) {
    dropped += erase(l1->second);
    l1 = l1->second.empty() ? map_.erase(l1) : std::next(l1);
  }
  size_ -= dropped;
  return dropped;
}

template <typename Policy>
template <typename Pred>
size_t ValueLevelTable<Policy>::EraseIf(Pred pred) {
  return EraseFrom([&pred](ByKey2& by_key2) {
    size_t dropped = 0;
    for (auto l2 = by_key2.begin(); l2 != by_key2.end();) {
      dropped += std::erase_if(l2->second, pred);
      l2 = l2->second.empty() ? by_key2.erase(l2) : std::next(l2);
    }
    return dropped;
  });
}

template <typename Policy>
size_t ValueLevelTable<Policy>::ExpireBefore(rel::Timestamp cutoff) {
  return EraseIf([cutoff](const typename Bucket::value_type& e) {
    return Policy::TimeOf(e) < cutoff;
  });
}

template <typename Policy>
size_t ValueLevelTable<Policy>::RemoveQuery(const std::string& query_key)
  requires(requires(const typename Bucket::value_type& e) {
    Policy::QueryKeyOf(e);
  } || requires(const std::string& k) { Policy::KeysOf(k); })
{
  if constexpr (requires { Policy::KeysOf(query_key); }) {
    const auto keys = Policy::KeysOf(query_key);
    return EraseFrom([&keys](ByKey2& by_key2) {
      size_t dropped = 0;
      for (const Key2& key : keys) {
        auto l2 = by_key2.find(key);
        if (l2 == by_key2.end()) continue;
        dropped += l2->second.size();
        by_key2.erase(l2);
      }
      return dropped;
    });
  } else {
    return EraseIf([&query_key](const typename Bucket::value_type& e) {
      return Policy::QueryKeyOf(e) == query_key;
    });
  }
}

// --- Insert rules ------------------------------------------------------------

namespace {

/// Advances a stored rewritten query to trigger tuple `trigger` if it is
/// newer.
void Refresh(StoredRewritten& stored, const rel::TuplePtr& trigger) {
  if (stored.trigger->Before(trigger->pub_time(), trigger->seq())) {
    stored.trigger = trigger;
  }
}

}  // namespace

bool VlqtPolicy::Insert(Bucket& bucket, const RewrittenEntry& entry) {
  auto it = bucket.lower_bound(entry.rewritten_id);
  if (it != bucket.end() && it->first == entry.rewritten_id) {
    // Same rewritten query: only the trigger time advances (§4.3.3).
    Refresh(it->second, entry.trigger);
    return false;
  }
  bucket.emplace_hint(it, entry.rewritten_id,
                      StoredRewritten{entry.query, entry.remaining_side,
                                      entry.required_value, entry.trigger});
  return true;
}

bool VlqtPolicy::Insert(Bucket& bucket, Entry&& entry) {
  auto [it, is_new] = bucket.try_emplace(entry.first, std::move(entry.second));
  if (!is_new) Refresh(it->second, entry.second.trigger);
  return is_new;
}

bool VlttPolicy::Insert(Bucket& bucket, StoredTuple stored) {
  for (const StoredTuple& existing : bucket) {
    if (existing.tuple->seq() == stored.tuple->seq() &&
        existing.index_attr == stored.index_attr) {
      return false;  // Retried or replayed publication: already stored.
    }
  }
  bucket.push_back(std::move(stored));
  return true;
}

bool DaivPolicy::Insert(Bucket& bucket, DaivStored stored) {
  for (const DaivStored& existing : bucket) {
    // Retried projection.
    if (existing.tuple->seq() == stored.tuple->seq()) return false;
  }
  bucket.push_back(std::move(stored));
  return true;
}

bool MwPartialPolicy::Insert(Bucket& bucket, const MwPartial& partial) {
  auto [it, is_new] = bucket.try_emplace(partial.partial_key, partial);
  if (!is_new && partial.min_pub > it->second.min_pub) {
    it->second.min_pub = partial.min_pub;
    it->second.max_pub = partial.max_pub;
    it->second.last_seq = partial.last_seq;
  }
  return is_new;
}

template class ValueLevelTable<VlqtPolicy>;
template class ValueLevelTable<VlttPolicy>;
template class ValueLevelTable<DaivPolicy>;
template class ValueLevelTable<MwPartialPolicy>;

}  // namespace contjoin::core
