// Local two-level hash-table data structures maintained by rewriter and
// evaluator nodes (paper §4.3.5): the attribute-level query table (ALQT)
// and one value-level table template, instantiated as the value-level
// query table (VLQT), the value-level tuple table (VLTT), the DAI-V
// evaluator store and the multi-way partial table.

#ifndef CONTJOIN_CORE_TABLES_H_
#define CONTJOIN_CORE_TABLES_H_

#include <algorithm>
#include <array>
#include <compare>
#include <cstdint>
#include <functional>
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

// --- ALQT --------------------------------------------------------------------

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
  /// is therefore idempotent. A duplicate's evaluators are merged into the
  /// stored entry.
  void Insert(const std::string& level1, const std::string& signature,
              AlqtEntry entry);

  /// Groups triggered by a tuple indexed under `level1`; nullptr if none.
  /// Mutable so that rewrites can record their evaluators on the entries.
  GroupMap* Find(const std::string& level1);

  /// Removes the entries of `query_key` from the `level1` bucket alone and
  /// returns them.
  Group RemoveQuery(const std::string& level1, const std::string& query_key);

  /// Extracts and returns an entire level-1 bucket (used when an
  /// attribute-level identifier is moved to another node, §4.7).
  GroupMap TakeLevel1(const std::string& level1);

  /// Merges a handed-off level-1 bucket (key-range handoff during churn
  /// repair); duplicates collapse via the Insert dedup rule, evaluators
  /// merged.
  void AbsorbLevel1(const std::string& level1, GroupMap groups);

  /// Level-1 keys in sorted order (deterministic handoff sweeps).
  std::vector<std::string> Level1Keys() const;

  /// Total stored queries (storage-load contribution).
  size_t size() const { return size_; }

 private:
  std::unordered_map<std::string, GroupMap> map_;
  size_t size_ = 0;
};

// --- Value-level tables ------------------------------------------------------

/// Where a split value family keeps an entry (adaptive value splitting,
/// after Metwally's replicate-or-partition scheme): a replicated entry
/// lives at every shard, a partitioned one at its sequence number's shard
/// alone, so each pair of opposite entries meets at exactly one shard.
enum class Placement : uint8_t { kReplicated, kPartitioned };

/// Two-level table of evaluator state (§4.3.5): level 1 a string key,
/// level 2 a `Policy::Key2`, each holding one bucket of entries. The
/// policy, fixed at compile time, supplies the bucket type and its insert
/// rule, each entry's time, sequence number and query key, and a bucket's
/// Placement; every table operation is written once, here. Buckets are
/// never empty: an operation that empties one erases it.
template <typename Policy>
class ValueLevelTable {
 public:
  using Key2 = typename Policy::Key2;
  using Bucket = typename Policy::Bucket;
  using Coord = std::pair<std::string, Key2>;

  /// Applies the policy's insert rule (dedup or refresh); returns true
  /// when the entry is new.
  template <typename In>
  bool Insert(const std::string& level1, const Key2& key2, In&& in) {
    const bool is_new =
        Policy::Insert(map_[level1][key2], std::forward<In>(in));
    if (is_new) ++size_;
    return is_new;
  }

  /// The bucket at (`level1`, `key2`); nullptr if none. Entries past the
  /// window stay until ExpireBefore; callers filter by time.
  const Bucket* Find(const std::string& level1, const Key2& key2) const;

  /// All bucket coordinates in sorted order (deterministic handoff sweeps).
  std::vector<Coord> BucketKeys() const;

  /// Extracts one bucket for handoff; empty if absent.
  Bucket TakeBucket(const std::string& level1, const Key2& key2);

  /// Merges a handed-off bucket entry by entry via the insert rule.
  void AbsorbBucket(const std::string& level1, const Key2& key2,
                    Bucket bucket);

  /// Drops every entry whose time is before `cutoff`; returns the number
  /// dropped.
  size_t ExpireBefore(rel::Timestamp cutoff);

  /// Drops every entry stored for `query_key`; returns the number dropped.
  /// Where level 2 names the query (Policy::KeysOf), the query's buckets
  /// are dropped whole, by key, without reading their entries.
  size_t RemoveQuery(const std::string& query_key)
    requires(requires(const typename Bucket::value_type& e) {
      Policy::QueryKeyOf(e);
    } || requires(const std::string& k) { Policy::KeysOf(k); });

  /// Visits every entry in sorted (level1, key2) order — one-time scans
  /// feed rehash messages, so the visit order reaches the wire.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    std::vector<std::pair<std::string_view, const ByKey2*>> level1s;
    level1s.reserve(map_.size());
    // contjoin-check: ordered-ok(keys are collected and sorted below)
    for (const auto& [level1, by_key2] : map_) {
      level1s.emplace_back(level1, &by_key2);
    }
    std::sort(level1s.begin(), level1s.end());
    std::vector<std::pair<const Key2*, const Bucket*>> buckets;
    for (const auto& [level1, by_key2] : level1s) {
      buckets.clear();
      buckets.reserve(by_key2->size());
      // contjoin-check: ordered-ok(keys are collected and sorted below)
      for (const auto& [key2, bucket] : *by_key2) {
        buckets.emplace_back(&key2, &bucket);
      }
      std::sort(buckets.begin(), buckets.end(),
                [](const auto& a, const auto& b) {
                  return *a.first < *b.first;
                });
      for (const auto& [key2, bucket] : buckets) {
        for (const auto& entry : *bucket) fn(entry);
      }
    }
  }

  /// Total stored entries (storage-load contribution).
  size_t size() const { return size_; }

 private:
  using ByKey2 = std::unordered_map<Key2, Bucket>;

  /// Applies `erase` to every level-1 map — it returns the number of
  /// entries it dropped and leaves no bucket empty — then erases the
  /// level-1 maps left empty.
  template <typename EraseFn>
  size_t EraseFrom(EraseFn erase);

  /// Erases the entries matching `pred` and every bucket left empty.
  template <typename Pred>
  size_t EraseIf(Pred pred);

  std::unordered_map<std::string, ByKey2> map_;
  size_t size_ = 0;
};

// --- VLQT --------------------------------------------------------------------

/// A rewritten query stored at an evaluator. Identical rewritten queries
/// (same Key(q'), hence same RewriteId) collapse into one entry whose
/// trigger time advances (§4.3.3: "if there is a query with the same key,
/// only pubT(t) is stored"). The entry holds its latest trigger tuple,
/// shared with every other query that tuple rewrote: its side's select
/// values are the bound row, its (pub, seq) the trigger time. An advance
/// swaps in the newer tuple, which binds the same row — the same id means
/// the same Key(q').
struct StoredRewritten {
  query::QueryPtr query;
  int remaining_side = 0;
  rel::Value required_value;
  rel::TuplePtr trigger;  // Never null.
};

/// Value-level query table: level 1 keyed by the load-distributing
/// attribute ("DisR+DisA"), level 2 by the required value, then by the
/// rewritten query's id. Buckets are ordered maps: an arriving tuple
/// iterates a whole bucket emitting notifications, so the order must be
/// reproducible. It is ascending RewriteId order — a fixed pseudo-random
/// permutation of the queries, the same on every node and every run. A
/// rewritten query expires once its latest trigger has left the window;
/// a split family replicates it to every shard.
struct VlqtPolicy {
  using Key2 = std::string;
  using Bucket = std::map<RewriteId, StoredRewritten>;
  using Entry = Bucket::value_type;

  /// Inserts, or only advances the stored trigger time of the same
  /// rewritten query (never rewinds it).
  static bool Insert(Bucket& bucket, const RewrittenEntry& entry);
  static bool Insert(Bucket& bucket, Entry&& entry);

  static rel::Timestamp TimeOf(const Entry& e) {
    return e.second.trigger->pub_time();
  }
  static uint64_t SeqOf(const Entry& e) { return e.second.trigger->seq(); }
  static const std::string& QueryKeyOf(const Entry& e) {
    return e.second.query->key();
  }
  static Placement PlacementOf(const Key2&) { return Placement::kReplicated; }
};

using ValueLevelQueryTable = ValueLevelTable<VlqtPolicy>;

// --- VLTT --------------------------------------------------------------------

/// A tuple stored at the value level with the attribute that indexed it.
struct StoredTuple {
  rel::TuplePtr tuple;
  size_t index_attr = 0;
};

/// Value-level tuple table: level 1 "R+A", level 2 the attribute's value.
/// A split family partitions its tuples by sequence number.
struct VlttPolicy {
  using Key2 = std::string;
  using Bucket = std::vector<StoredTuple>;
  using Entry = StoredTuple;

  /// Inserts unless a tuple with the same (sequence number, index
  /// attribute) already sits in the bucket, so re-publication after a
  /// retry or a soft-state refresh is idempotent.
  static bool Insert(Bucket& bucket, StoredTuple stored);

  static rel::Timestamp TimeOf(const Entry& e) { return e.tuple->pub_time(); }
  static uint64_t SeqOf(const Entry& e) { return e.tuple->seq(); }
  static Placement PlacementOf(const Key2&) { return Placement::kPartitioned; }
};

/// A tuple stored under h attributes is visited h times by ForEach; filter
/// on StoredTuple::index_attr to see each tuple once.
using ValueLevelTupleTable = ValueLevelTable<VlttPolicy>;

// --- DAI-V store -------------------------------------------------------------

/// Trigger tuple stored at a DAI-V evaluator on behalf of one side of one
/// query (§4.5: the evaluator stores t', the projection of the trigger
/// tuple, and matches future opposite-side rewritten queries against it).
/// The projection is late: the tuple is kept whole, shared with every
/// other query it triggered, and projected only into a notification.
struct DaivStored {
  rel::TuplePtr tuple;  // Never null.
  /// The query this tuple was stored for; never null. Lets the adaptive
  /// load manager re-send the entry as an ordinary kDaivJoin when a split
  /// directive re-places the bucket.
  query::QueryPtr query;
};

/// Level 2 of the DAI-V store: the query and the trigger side an entry
/// was stored for. Level 1 is the join value.
struct DaivKey {
  std::string query_key;
  int side = 0;

  auto operator<=>(const DaivKey&) const = default;
};

/// Split placement of DAI-V entries by trigger side: side 1 replicates to
/// every shard, side 0 is partitioned by sequence number.
inline Placement DaivPlacement(int side) {
  return side == 1 ? Placement::kReplicated : Placement::kPartitioned;
}

struct DaivPolicy {
  using Key2 = DaivKey;
  using Bucket = std::vector<DaivStored>;
  using Entry = DaivStored;

  /// Inserts unless an entry with the same sequence number already sits in
  /// the bucket (replay-idempotent, like the other tables).
  static bool Insert(Bucket& bucket, DaivStored stored);

  static rel::Timestamp TimeOf(const Entry& e) { return e.tuple->pub_time(); }
  static uint64_t SeqOf(const Entry& e) { return e.tuple->seq(); }
  static std::array<DaivKey, 2> KeysOf(const std::string& query_key) {
    return {DaivKey{query_key, 0}, DaivKey{query_key, 1}};
  }
  static Placement PlacementOf(const Key2& key) {
    return DaivPlacement(key.side);
  }
};

using DaivStore = ValueLevelTable<DaivPolicy>;

// --- Multi-way partials ------------------------------------------------------

/// Stored multi-way partial bindings (extension): level 1 "R+A", level 2
/// the value, then the partials by content key. Buckets are ordered maps:
/// an arriving tuple iterates a whole bucket emitting notifications and
/// next-hop partials, so the order must be reproducible.
struct MwPartialPolicy {
  using Key2 = std::string;
  using Bucket = std::map<std::string, MwPartial>;
  using Entry = Bucket::value_type;

  /// Inserts; identical content keeps the tightest publication span, so
  /// windowed matching stays maximally permissive for future tuples.
  static bool Insert(Bucket& bucket, const MwPartial& partial);
  static bool Insert(Bucket& bucket, Entry&& entry) {
    return Insert(bucket, entry.second);
  }

  /// A partial can complete only while its earliest bound tuple is in
  /// the window.
  static rel::Timestamp TimeOf(const Entry& e) { return e.second.min_pub; }
  static const std::string& QueryKeyOf(const Entry& e) {
    return e.second.query->key();
  }
};

using MwPartialTable = ValueLevelTable<MwPartialPolicy>;

}  // namespace contjoin::core

template <>
struct std::hash<contjoin::core::DaivKey> {
  size_t operator()(const contjoin::core::DaivKey& key) const {
    return std::hash<std::string>()(key.query_key) * 2 +
           static_cast<size_t>(key.side);
  }
};

#endif  // CONTJOIN_CORE_TABLES_H_
