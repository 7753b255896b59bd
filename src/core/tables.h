// Local two-level hash-table data structures maintained by rewriter and
// evaluator nodes (paper §4.3.5): the attribute-level query table (ALQT),
// the value-level query table (VLQT), the value-level tuple table (VLTT)
// and the DAI-V evaluator store.

#ifndef CONTJOIN_CORE_TABLES_H_
#define CONTJOIN_CORE_TABLES_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/messages.h"
#include "query/query.h"
#include "relational/tuple.h"

namespace contjoin::core {

// --- ALQT ----------------------------------------------------------------------

/// Attribute-level query table: level 1 keyed by the index attribute
/// ("R+A"), level 2 by the join-condition signature, grouping similar
/// queries so a tuple triggers a whole group in one step (§4.3.5).
///
/// Level 2 is an ordered map: triggered groups are iterated when building
/// outgoing join batches, so the iteration order reaches the wire and must
/// not depend on hash-table layout.
class AttrLevelQueryTable {
 public:
  using Group = std::vector<AlqtEntry>;
  using GroupMap = std::map<std::string, Group>;

  /// Inserts unless an entry with the same (query key, index side) already
  /// sits in the group — re-indexing after a retry or a soft-state refresh
  /// is therefore idempotent.
  void Insert(const std::string& level1, const std::string& signature,
              AlqtEntry entry);

  /// Groups triggered by a tuple indexed under `level1`; nullptr if none.
  const GroupMap* Find(const std::string& level1) const;

  /// Removes every entry of `query_key`; returns the number removed.
  size_t RemoveQuery(const std::string& query_key);

  /// Extracts and returns an entire level-1 bucket (used when an
  /// attribute-level identifier is moved to another node, §4.7).
  GroupMap TakeLevel1(const std::string& level1);

  /// Merges a handed-off level-1 bucket (key-range handoff during churn
  /// repair); duplicates collapse via the Insert dedup rule.
  void AbsorbLevel1(const std::string& level1, GroupMap groups);

  /// Level-1 keys in sorted order (deterministic handoff sweeps).
  std::vector<std::string> Level1Keys() const;

  /// Total stored queries (storage-load contribution).
  size_t size() const { return size_; }

 private:
  std::unordered_map<std::string, GroupMap> map_;
  size_t size_ = 0;
};

// --- VLQT ----------------------------------------------------------------------

/// A rewritten query stored at an evaluator. Identical rewritten queries
/// (same rewritten key) collapse into one entry whose trigger time advances
/// (§4.3.3: "if there is a query with the same key, only pubT(t) is stored").
struct StoredRewritten {
  query::QueryPtr query;
  int remaining_side = 0;
  rel::Value required_value;
  RowTemplate row;
  rel::Timestamp latest_trigger_pub = 0;
  uint64_t latest_trigger_seq = 0;
};

/// Value-level query table: level 1 keyed by the load-distributing
/// attribute ("DisR+DisA"), level 2 by the required value, then by
/// rewritten key. Buckets are ordered maps: an arriving tuple iterates a
/// whole bucket emitting notifications, so the order must be reproducible.
class ValueLevelQueryTable {
 public:
  using Bucket = std::map<std::string, StoredRewritten>;

  /// Inserts or refreshes; returns true when the rewritten key is new.
  bool InsertOrRefresh(const std::string& level1, const std::string& value_key,
                       const RewrittenEntry& entry);

  /// Rewritten queries possibly matched by a tuple of `level1` with value
  /// `value_key`; nullptr if none.
  const Bucket* Find(const std::string& level1,
                     const std::string& value_key) const;

  size_t RemoveQuery(const std::string& query_key);

  /// All (level1, value_key) bucket coordinates in sorted order.
  std::vector<std::pair<std::string, std::string>> BucketKeys() const;

  /// Extracts one bucket for handoff; empty if absent.
  Bucket TakeBucket(const std::string& level1, const std::string& value_key);

  /// Merges a handed-off bucket; an existing rewritten key only has its
  /// trigger time advanced, mirroring InsertOrRefresh.
  void AbsorbBucket(const std::string& level1, const std::string& value_key,
                    Bucket bucket);

  size_t size() const { return size_; }

 private:
  std::unordered_map<std::string, std::unordered_map<std::string, Bucket>>
      map_;
  size_t size_ = 0;
};

// --- VLTT ----------------------------------------------------------------------

/// A tuple stored at the value level with the attribute that indexed it.
struct StoredTuple {
  rel::TuplePtr tuple;
  size_t index_attr = 0;
};

/// Value-level tuple table: level 1 "R+A", level 2 the attribute's value.
/// Supports sliding-window expiry of stored tuples.
class ValueLevelTupleTable {
 public:
  using Bucket = std::vector<StoredTuple>;

  /// Inserts unless a tuple with the same (sequence number, index attribute)
  /// already sits in the bucket, so re-publication after a retry or a
  /// soft-state refresh is idempotent.
  void Insert(const std::string& level1, const std::string& value_key,
              StoredTuple stored);

  /// Bucket for matching; nullptr if none. The bucket may contain expired
  /// tuples; callers filter by time (or call ExpireBefore first).
  const Bucket* Find(const std::string& level1,
                     const std::string& value_key) const;

  /// All (level1, value_key) bucket coordinates in sorted order.
  std::vector<std::pair<std::string, std::string>> BucketKeys() const;

  /// Extracts one bucket for handoff; empty if absent.
  Bucket TakeBucket(const std::string& level1, const std::string& value_key);

  /// Merges a handed-off bucket via the Insert dedup rule.
  void AbsorbBucket(const std::string& level1, const std::string& value_key,
                    Bucket bucket);

  /// Drops every tuple with pub_time < cutoff; returns the number dropped.
  size_t ExpireBefore(rel::Timestamp cutoff);

  /// Visits every stored tuple (one-time scans) in deterministic
  /// (level1, value) key order — scans feed rehash messages, so the visit
  /// order reaches the wire. A tuple stored under h attributes is visited
  /// h times; filter on StoredTuple::index_attr to see each tuple once.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    using ByValue = std::unordered_map<std::string, Bucket>;
    std::vector<std::pair<std::string_view, const ByValue*>> level1s;
    level1s.reserve(map_.size());
    // contjoin-check: ordered-ok(keys are collected and sorted below)
    for (const auto& [level1, by_value] : map_) {
      level1s.emplace_back(level1, &by_value);
    }
    std::sort(level1s.begin(), level1s.end());
    std::vector<std::pair<std::string_view, const Bucket*>> values;
    for (const auto& [level1, by_value] : level1s) {
      values.clear();
      values.reserve(by_value->size());
      // contjoin-check: ordered-ok(keys are collected and sorted below)
      for (const auto& [value, bucket] : *by_value) {
        values.emplace_back(value, &bucket);
      }
      std::sort(values.begin(), values.end());
      for (const auto& [value, bucket] : values) {
        for (const StoredTuple& stored : *bucket) fn(stored);
      }
    }
  }

  size_t size() const { return size_; }

 private:
  std::unordered_map<std::string, std::unordered_map<std::string, Bucket>>
      map_;
  size_t size_ = 0;
};

// --- DAI-V store ------------------------------------------------------------------

/// Projected tuple stored at a DAI-V evaluator on behalf of one side of one
/// query (§4.5: the evaluator stores t', the projection of the trigger
/// tuple, and matches future opposite-side rewritten queries against it).
struct DaivStored {
  RowTemplate row;
  rel::Timestamp pub_time = 0;
  uint64_t seq = 0;
  /// The query this projection was stored for. Lets the adaptive load
  /// manager reconstruct and re-send the entry as an ordinary kDaivJoin
  /// when a split directive re-places the bucket; null in legacy paths
  /// is tolerated (such entries simply cannot be re-shipped).
  query::QueryPtr query;
};

class DaivStore {
 public:
  using Bucket = std::vector<DaivStored>;

  /// Inserts unless an entry with the same sequence number already sits in
  /// the bucket (replay-idempotent, like the other tables).
  void Insert(const std::string& value_key, const std::string& query_key,
              int side, DaivStored stored);

  /// Entries stored for (`query_key`, `side`) under `value_key`.
  const Bucket* Find(const std::string& value_key,
                     const std::string& query_key, int side) const;

  /// All (value_key, sub_key) bucket coordinates in sorted order; sub_key
  /// is the internal "query#side" composite, fed back into TakeBucket /
  /// AbsorbBucket verbatim.
  std::vector<std::pair<std::string, std::string>> BucketKeys() const;

  /// Extracts one bucket for handoff; empty if absent.
  Bucket TakeBucket(const std::string& value_key, const std::string& sub_key);

  /// Merges a handed-off bucket via the Insert dedup rule.
  void AbsorbBucket(const std::string& value_key, const std::string& sub_key,
                    Bucket bucket);

  size_t ExpireBefore(rel::Timestamp cutoff);
  size_t RemoveQuery(const std::string& query_key);

  size_t size() const { return size_; }

 private:
  static std::string SubKey(const std::string& query_key, int side) {
    return query_key + (side == 0 ? "#L" : "#R");
  }

  std::unordered_map<std::string, std::unordered_map<std::string, Bucket>>
      map_;  // value_key -> (query#side -> entries)
  size_t size_ = 0;
};

}  // namespace contjoin::core

#endif  // CONTJOIN_CORE_TABLES_H_
