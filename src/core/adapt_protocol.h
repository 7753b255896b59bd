// Adaptive load manager — protocol glue (ROADMAP item 3). The policy,
// tracker and directive directory live in src/adapt; this module wires
// them into the message flow: it observes arrivals at the natural
// deciders (replica 0 of an attribute-level key, shard 0 / the plain
// owner of a value family), issues versioned kAdaptReplicate /
// kAdaptSplit directives, re-places stranded state when a directive
// changes a family's shard set, and redirects traffic that still
// targets dead keys.
//
// Hot attribute-level keys gain rewriter replicas (the broadcast-style
// side is replicated); hot value-level keys split into deterministic
// virtual sub-keys "v#s<j>" (the point-style side is partitioned):
// publications hash to one shard by sequence number while rewritten
// queries fan to every shard, so matching stays family-complete at any
// single shard owner. Cooling reverses both under a hysteresis dwell.

#ifndef CONTJOIN_CORE_ADAPT_PROTOCOL_H_
#define CONTJOIN_CORE_ADAPT_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "chord/types.h"
#include "core/context.h"
#include "core/messages.h"
#include "core/tables.h"

namespace chord {
class Node;
}  // namespace chord

namespace contjoin::core {
struct NodeState;
}  // namespace contjoin::core

namespace contjoin::core::adapt {

/// True when the adaptive load manager is switched on.
inline bool Enabled(const ProtocolContext& ctx) {
  return ctx.options().adapt.enabled;
}

// --- Sub-key naming re-exports (callers inside contjoin::core would
// otherwise have this namespace shadow ::contjoin::adapt) ---------------------

/// Base value of a (possibly virtual) value-level key.
std::string BaseValueOf(const std::string& value_key);

/// Virtual sub-key `shard` of `base` under split factor `split`.
std::string SubValueKey(const std::string& base, int shard, int split);

/// Half-open shard index range [first, last).
struct ShardRange {
  int first = 0;
  int last = 1;
};

/// The one placement rule for a split family's evaluator state: the shards
/// of `split` at which an entry with sequence number `seq` lives — all of
/// them when it is replicated, its sequence shard alone when partitioned.
/// An unsplit family (split <= 1) has the single shard 0.
ShardRange HomeShards(Placement placement, uint64_t seq, int split);

// --- Directory reads for senders ----------------------------------------------

/// Split directive of value family (`level1`, `value`) as seen by
/// `state`'s directory: returns the split factor (1 when absent or the
/// manager is disabled) and stores the directive version (0 when absent)
/// into `*version`. DAI-V families pass an empty `level1`.
int SplitFor(const ProtocolContext& ctx, const NodeState& state,
             const std::string& level1, const std::string& value,
             uint64_t* version);

/// Effective rewriter replica count of attribute-level key `level1` as
/// seen by `state`'s directory (>= the static attribute_replication
/// floor; exactly the floor when disabled).
int ReplicasFor(const ProtocolContext& ctx, const NodeState& state,
                const std::string& level1);

// --- Directive message handlers (dispatch table) -------------------------------

void HandleReplicate(ProtocolContext& ctx, chord::Node& node,
                     const chord::AppMessage& msg);
void HandleSplit(ProtocolContext& ctx, chord::Node& node,
                 const chord::AppMessage& msg);

// --- Arrival hooks -------------------------------------------------------------
//
// The bool-returning hooks run before the base handler logic; true means
// the message was consumed (redirected to its live owner) and the base
// handler must return without processing it.

/// kQueryIndex at a rewriter, after the ALQT insert: replica 0 forwards
/// armed copies to replicas the submitter's static fan missed.
void OnQueryIndexed(ProtocolContext& ctx, chord::Node& node,
                    const QueryIndexPayload& p);

/// kTupleAl at a rewriter, before triggering: records load and decides
/// at replica 0; redirects arrivals at de-replicated (cooled) replicas.
bool OnAttrTuple(ProtocolContext& ctx, chord::Node& node,
                 const TupleIndexPayload& p);

/// kTupleVl at an evaluator: records load and decides at the family's
/// decider key; forwards arrivals at dead sub-keys to the live owner,
/// preceded by a directive refresh so a stale owner cannot bounce the
/// tuple back forever.
bool OnValueTuple(ProtocolContext& ctx, chord::Node& node,
                  const TupleIndexPayload& p);

/// kJoin at a T1 evaluator: applies the directive the batch carries
/// (known_split/split_version), re-dispatches batches addressed to dead
/// sub-keys, and at shard 0 tops up the shards a stale sender missed.
bool OnJoinArrival(ProtocolContext& ctx, chord::Node& node,
                   const JoinPayload& p);

/// kDaivJoin at a DAI-V evaluator; like OnJoinArrival, but side-aware:
/// trigger-side-0 entries (projected tuples to store) hash to one shard,
/// side-1 entries fan to all shards.
bool OnDaivJoinArrival(ProtocolContext& ctx, chord::Node& node,
                       const DaivJoinPayload& p);

}  // namespace contjoin::core::adapt

#endif  // CONTJOIN_CORE_ADAPT_PROTOCOL_H_
