#include "core/tables.h"

namespace contjoin::core {

// --- AttrLevelQueryTable ---------------------------------------------------

void AttrLevelQueryTable::Insert(const std::string& level1,
                                 const std::string& signature,
                                 AlqtEntry entry) {
  Group& group = map_[level1][signature];
  for (const AlqtEntry& existing : group) {
    if (existing.query->key() == entry.query->key() &&
        existing.index_side == entry.index_side) {
      return;  // Retried or replayed indexing: already stored.
    }
  }
  group.push_back(std::move(entry));
  ++size_;
}

const AttrLevelQueryTable::GroupMap* AttrLevelQueryTable::Find(
    const std::string& level1) const {
  auto it = map_.find(level1);
  return it == map_.end() ? nullptr : &it->second;
}

size_t AttrLevelQueryTable::RemoveQuery(const std::string& query_key) {
  size_t removed = 0;
  for (auto l1 = map_.begin(); l1 != map_.end();) {
    for (auto l2 = l1->second.begin(); l2 != l1->second.end();) {
      Group& group = l2->second;
      for (auto it = group.begin(); it != group.end();) {
        if (it->query->key() == query_key) {
          it = group.erase(it);
          ++removed;
        } else {
          ++it;
        }
      }
      l2 = group.empty() ? l1->second.erase(l2) : std::next(l2);
    }
    l1 = l1->second.empty() ? map_.erase(l1) : std::next(l1);
  }
  size_ -= removed;
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

// --- ValueLevelQueryTable ----------------------------------------------------

bool ValueLevelQueryTable::InsertOrRefresh(const std::string& level1,
                                           const std::string& value_key,
                                           const RewrittenEntry& entry) {
  Bucket& bucket = map_[level1][value_key];
  auto it = bucket.find(entry.rewritten_key);
  if (it != bucket.end()) {
    // Same rewritten key: only the trigger time advances (§4.3.3).
    if (entry.trigger_pub > it->second.latest_trigger_pub ||
        (entry.trigger_pub == it->second.latest_trigger_pub &&
         entry.trigger_seq > it->second.latest_trigger_seq)) {
      it->second.latest_trigger_pub = entry.trigger_pub;
      it->second.latest_trigger_seq = entry.trigger_seq;
    }
    return false;
  }
  StoredRewritten stored;
  stored.query = entry.query;
  stored.remaining_side = entry.remaining_side;
  stored.required_value = entry.required_value;
  stored.row = entry.row;
  stored.latest_trigger_pub = entry.trigger_pub;
  stored.latest_trigger_seq = entry.trigger_seq;
  bucket.emplace(entry.rewritten_key, std::move(stored));
  ++size_;
  return true;
}

const ValueLevelQueryTable::Bucket* ValueLevelQueryTable::Find(
    const std::string& level1, const std::string& value_key) const {
  auto l1 = map_.find(level1);
  if (l1 == map_.end()) return nullptr;
  auto l2 = l1->second.find(value_key);
  return l2 == l1->second.end() ? nullptr : &l2->second;
}

std::vector<std::pair<std::string, std::string>>
ValueLevelQueryTable::BucketKeys() const {
  std::vector<std::pair<std::string, std::string>> keys;
  // contjoin-check: ordered-ok(keys are collected and sorted below)
  for (const auto& [level1, by_value] : map_) {
    // contjoin-check: ordered-ok(keys are collected and sorted below)
    for (const auto& [value_key, bucket] : by_value) {
      keys.emplace_back(level1, value_key);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

ValueLevelQueryTable::Bucket ValueLevelQueryTable::TakeBucket(
    const std::string& level1, const std::string& value_key) {
  auto l1 = map_.find(level1);
  if (l1 == map_.end()) return {};
  auto l2 = l1->second.find(value_key);
  if (l2 == l1->second.end()) return {};
  Bucket out = std::move(l2->second);
  size_ -= out.size();
  l1->second.erase(l2);
  if (l1->second.empty()) map_.erase(l1);
  return out;
}

void ValueLevelQueryTable::AbsorbBucket(const std::string& level1,
                                        const std::string& value_key,
                                        Bucket bucket) {
  Bucket& dst = map_[level1][value_key];
  for (auto& [rewritten_key, stored] : bucket) {
    auto it = dst.find(rewritten_key);
    if (it == dst.end()) {
      dst.emplace(rewritten_key, std::move(stored));
      ++size_;
    } else if (stored.latest_trigger_pub > it->second.latest_trigger_pub ||
               (stored.latest_trigger_pub == it->second.latest_trigger_pub &&
                stored.latest_trigger_seq > it->second.latest_trigger_seq)) {
      it->second.latest_trigger_pub = stored.latest_trigger_pub;
      it->second.latest_trigger_seq = stored.latest_trigger_seq;
    }
  }
}

size_t ValueLevelQueryTable::RemoveQuery(const std::string& query_key) {
  size_t removed = 0;
  for (auto l1 = map_.begin(); l1 != map_.end();) {
    for (auto l2 = l1->second.begin(); l2 != l1->second.end();) {
      Bucket& bucket = l2->second;
      for (auto it = bucket.begin(); it != bucket.end();) {
        if (it->second.query->key() == query_key) {
          it = bucket.erase(it);
          ++removed;
        } else {
          ++it;
        }
      }
      l2 = bucket.empty() ? l1->second.erase(l2) : std::next(l2);
    }
    l1 = l1->second.empty() ? map_.erase(l1) : std::next(l1);
  }
  size_ -= removed;
  return removed;
}

// --- ValueLevelTupleTable -----------------------------------------------------

void ValueLevelTupleTable::Insert(const std::string& level1,
                                  const std::string& value_key,
                                  StoredTuple stored) {
  Bucket& bucket = map_[level1][value_key];
  for (const StoredTuple& existing : bucket) {
    if (existing.tuple->seq() == stored.tuple->seq() &&
        existing.index_attr == stored.index_attr) {
      return;  // Retried or replayed publication: already stored.
    }
  }
  bucket.push_back(std::move(stored));
  ++size_;
}

std::vector<std::pair<std::string, std::string>>
ValueLevelTupleTable::BucketKeys() const {
  std::vector<std::pair<std::string, std::string>> keys;
  // contjoin-check: ordered-ok(keys are collected and sorted below)
  for (const auto& [level1, by_value] : map_) {
    // contjoin-check: ordered-ok(keys are collected and sorted below)
    for (const auto& [value_key, bucket] : by_value) {
      keys.emplace_back(level1, value_key);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

ValueLevelTupleTable::Bucket ValueLevelTupleTable::TakeBucket(
    const std::string& level1, const std::string& value_key) {
  auto l1 = map_.find(level1);
  if (l1 == map_.end()) return {};
  auto l2 = l1->second.find(value_key);
  if (l2 == l1->second.end()) return {};
  Bucket out = std::move(l2->second);
  size_ -= out.size();
  l1->second.erase(l2);
  if (l1->second.empty()) map_.erase(l1);
  return out;
}

void ValueLevelTupleTable::AbsorbBucket(const std::string& level1,
                                        const std::string& value_key,
                                        Bucket bucket) {
  for (StoredTuple& stored : bucket) {
    Insert(level1, value_key, std::move(stored));
  }
}

const ValueLevelTupleTable::Bucket* ValueLevelTupleTable::Find(
    const std::string& level1, const std::string& value_key) const {
  auto l1 = map_.find(level1);
  if (l1 == map_.end()) return nullptr;
  auto l2 = l1->second.find(value_key);
  return l2 == l1->second.end() ? nullptr : &l2->second;
}

size_t ValueLevelTupleTable::ExpireBefore(rel::Timestamp cutoff) {
  size_t dropped = 0;
  for (auto l1 = map_.begin(); l1 != map_.end();) {
    for (auto l2 = l1->second.begin(); l2 != l1->second.end();) {
      Bucket& bucket = l2->second;
      for (auto it = bucket.begin(); it != bucket.end();) {
        if (it->tuple->pub_time() < cutoff) {
          it = bucket.erase(it);
          ++dropped;
        } else {
          ++it;
        }
      }
      l2 = bucket.empty() ? l1->second.erase(l2) : std::next(l2);
    }
    l1 = l1->second.empty() ? map_.erase(l1) : std::next(l1);
  }
  size_ -= dropped;
  return dropped;
}

// --- DaivStore ---------------------------------------------------------------

void DaivStore::Insert(const std::string& value_key,
                       const std::string& query_key, int side,
                       DaivStored stored) {
  Bucket& bucket = map_[value_key][SubKey(query_key, side)];
  for (const DaivStored& existing : bucket) {
    if (existing.seq == stored.seq) return;  // Retried projection.
  }
  bucket.push_back(std::move(stored));
  ++size_;
}

std::vector<std::pair<std::string, std::string>> DaivStore::BucketKeys()
    const {
  std::vector<std::pair<std::string, std::string>> keys;
  // contjoin-check: ordered-ok(keys are collected and sorted below)
  for (const auto& [value_key, by_sub] : map_) {
    // contjoin-check: ordered-ok(keys are collected and sorted below)
    for (const auto& [sub_key, bucket] : by_sub) {
      keys.emplace_back(value_key, sub_key);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

DaivStore::Bucket DaivStore::TakeBucket(const std::string& value_key,
                                        const std::string& sub_key) {
  auto l1 = map_.find(value_key);
  if (l1 == map_.end()) return {};
  auto l2 = l1->second.find(sub_key);
  if (l2 == l1->second.end()) return {};
  Bucket out = std::move(l2->second);
  size_ -= out.size();
  l1->second.erase(l2);
  if (l1->second.empty()) map_.erase(l1);
  return out;
}

void DaivStore::AbsorbBucket(const std::string& value_key,
                             const std::string& sub_key, Bucket bucket) {
  Bucket& dst = map_[value_key][sub_key];
  for (DaivStored& stored : bucket) {
    bool dup = false;
    for (const DaivStored& existing : dst) {
      if (existing.seq == stored.seq) {
        dup = true;
        break;
      }
    }
    if (!dup) {
      dst.push_back(std::move(stored));
      ++size_;
    }
  }
}

const DaivStore::Bucket* DaivStore::Find(const std::string& value_key,
                                         const std::string& query_key,
                                         int side) const {
  auto l1 = map_.find(value_key);
  if (l1 == map_.end()) return nullptr;
  auto l2 = l1->second.find(SubKey(query_key, side));
  return l2 == l1->second.end() ? nullptr : &l2->second;
}

size_t DaivStore::ExpireBefore(rel::Timestamp cutoff) {
  size_t dropped = 0;
  for (auto l1 = map_.begin(); l1 != map_.end();) {
    for (auto l2 = l1->second.begin(); l2 != l1->second.end();) {
      Bucket& bucket = l2->second;
      for (auto it = bucket.begin(); it != bucket.end();) {
        if (it->pub_time < cutoff) {
          it = bucket.erase(it);
          ++dropped;
        } else {
          ++it;
        }
      }
      l2 = bucket.empty() ? l1->second.erase(l2) : std::next(l2);
    }
    l1 = l1->second.empty() ? map_.erase(l1) : std::next(l1);
  }
  size_ -= dropped;
  return dropped;
}

size_t DaivStore::RemoveQuery(const std::string& query_key) {
  std::string keys[2] = {SubKey(query_key, 0), SubKey(query_key, 1)};
  size_t removed = 0;
  for (auto l1 = map_.begin(); l1 != map_.end();) {
    for (const std::string& key : keys) {
      auto l2 = l1->second.find(key);
      if (l2 != l1->second.end()) {
        removed += l2->second.size();
        l1->second.erase(l2);
      }
    }
    l1 = l1->second.empty() ? map_.erase(l1) : std::next(l1);
  }
  size_ -= removed;
  return removed;
}

}  // namespace contjoin::core
