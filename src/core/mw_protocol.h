// Multi-way continuous joins (future-work extension; recursive SAI): a
// query is indexed once under its root relation, and each arriving tuple
// starts or extends a partially bound combination that chases the query's
// join tree condition by condition, reindexed at the value level hop by
// hop, until every relation is bound and a notification is emitted.

#ifndef CONTJOIN_CORE_MW_PROTOCOL_H_
#define CONTJOIN_CORE_MW_PROTOCOL_H_

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "chord/types.h"
#include "core/context.h"
#include "core/messages.h"
#include "core/tables.h"
#include "query/mw_query.h"

namespace contjoin::core {
struct NodeState;

namespace mw {

/// The tables a node keeps for the multi-way extension.
struct State {
  /// Multi-way queries indexed at this rewriter, by "R+A#replica".
  std::unordered_map<std::string, std::vector<query::MwQueryPtr>> alqt;
  /// Stored partial bindings: "R+A" -> value -> partial key -> partial.
  MwPartialTable vlqt;
  size_t alqt_size = 0;
};

/// Triggers every multi-way query indexed under `mkey` with an arriving
/// attribute-level tuple (called from the rewriter's al-index handler).
void TriggerAll(ProtocolContext& ctx, chord::Node& node, NodeState& state,
                const std::string& mkey, const rel::Tuple& tuple);

/// Matches an incoming value-level tuple against stored partials (called
/// from the evaluator's vl-index handler).
void MatchTupleVl(ProtocolContext& ctx, chord::Node& node, NodeState& state,
                  const TupleIndexPayload& p);

// Message handlers (wired up by the dispatch registry).
void HandleQueryIndex(ProtocolContext& ctx, chord::Node& node,
                      const chord::AppMessage& msg);
void HandleJoin(ProtocolContext& ctx, chord::Node& node,
                const chord::AppMessage& msg);

}  // namespace mw
}  // namespace contjoin::core

#endif  // CONTJOIN_CORE_MW_PROTOCOL_H_
