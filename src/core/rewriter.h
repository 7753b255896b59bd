// The rewriter role (attribute level, paper §4.3): stores queries in the
// ALQT, keeps per-attribute arrival statistics, reacts to al-indexed tuples
// by rewriting triggered queries down to the value level, and owns the §4.7
// machinery — moved identifiers, attribute-level replication and the join
// fingers routing table.

#ifndef CONTJOIN_CORE_REWRITER_H_
#define CONTJOIN_CORE_REWRITER_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>

#include "chord/types.h"
#include "common/fingerprint.h"
#include "core/context.h"
#include "core/jfrt.h"
#include "core/tables.h"

namespace contjoin::core {

/// Per-attribute arrival statistics a rewriter keeps so index-attribute
/// selection strategies can consult it at query-submission time (§4.3.6:
/// "any node can simply ask the two possible rewriter nodes").
struct AttrArrivalStats {
  uint64_t tuples_seen = 0;
  /// Bounded per-value frequency map (skew / distinct-count estimation).
  /// Ordered: when two bounded maps merge at the capacity limit (§4.7
  /// identifier moves), the iteration order decides which values stay
  /// tracked, so it must not depend on hash-table layout.
  std::map<std::string, uint64_t> value_counts;
  uint64_t overflow_values = 0;  // Arrivals beyond the tracked-value cap.

  static constexpr size_t kMaxTrackedValues = 4096;

  void Record(const std::string& value_key);
  /// Folds another node's statistics in (identifier migration, §4.7).
  void Merge(const AttrArrivalStats& other);
  /// Share of the most frequent value (1.0 = fully skewed).
  double SkewEstimate() const;
  size_t DistinctEstimate() const { return value_counts.size(); }
};

namespace rewriter {

/// The tables a node keeps to play the rewriter role.
struct State {
  explicit State(size_t jfrt_capacity) : jfrt(jfrt_capacity) {}

  AttrLevelQueryTable alqt;
  Jfrt jfrt;

  /// Arrival statistics per attribute-level key "R+A#<replica>".
  std::unordered_map<std::string, AttrArrivalStats> attr_stats;
  /// DAI-T dedup (§4.4.3): ids of the rewritten queries this rewriter has
  /// already reindexed, so each Key(q') is sent once. Cleared by
  /// RefreshIndexes, which must re-create what a crash destroyed.
  FingerprintSet sent_rewritten_ids;

  /// §4.7 "moving an identifier": at the base node of a moved key, where
  /// the role now lives; at the holder, the generation it holds.
  struct MovedAttr {
    int generation;
    chord::NodeId holder;
  };
  std::unordered_map<std::string, MovedAttr> moved_attrs;
  std::unordered_map<std::string, int> held_generation;
};

/// Attribute-level bucket key: "R+A#<replica>". One node can hold buckets
/// for several (key, replica) pairs, especially after identifier moves.
std::string MKey(const std::string& level1, int replica);

/// Forwards an attribute-level message when its key has moved (§4.7);
/// returns true if forwarded.
bool ForwardIfMoved(ProtocolContext& ctx, chord::Node& node, State& state,
                    const std::string& mkey, const chord::AppMessage& msg);

// Message handlers (wired up by the dispatch registry).
void HandleQueryIndex(ProtocolContext& ctx, chord::Node& node,
                      const chord::AppMessage& msg);
void HandleTupleAl(ProtocolContext& ctx, chord::Node& node,
                   const chord::AppMessage& msg);
void HandleUnsubscribe(ProtocolContext& ctx, chord::Node& node,
                       const chord::AppMessage& msg);
void HandleMigrateCmd(ProtocolContext& ctx, chord::Node& node,
                      const chord::AppMessage& msg);
void HandleMigrateBucket(ProtocolContext& ctx, chord::Node& node,
                         const chord::AppMessage& msg);
void HandleMovedPointer(ProtocolContext& ctx, chord::Node& node,
                        const chord::AppMessage& msg);
void HandleJfrtAck(ProtocolContext& ctx, chord::Node& node,
                   const chord::AppMessage& msg);

}  // namespace rewriter
}  // namespace contjoin::core

#endif  // CONTJOIN_CORE_REWRITER_H_
