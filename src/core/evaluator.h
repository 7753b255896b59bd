// The evaluator role (value level, paper §4.3.4/§4.4/§4.5): stores
// rewritten queries (VLQT), tuples (VLTT) and DAI-V projections, and
// produces notifications by matching the two against each other according
// to the configured algorithm's policy.

#ifndef CONTJOIN_CORE_EVALUATOR_H_
#define CONTJOIN_CORE_EVALUATOR_H_

#include <cstddef>
#include <string>

#include "chord/types.h"
#include "core/context.h"
#include "core/messages.h"
#include "core/tables.h"

namespace contjoin::core::evaluator {

/// The tables a node keeps to play the evaluator role.
struct State {
  ValueLevelQueryTable vlqt;
  ValueLevelTupleTable vltt;
  DaivStore daiv;
};

/// Evaluator-side unsubscription: drops every trace of `query_key`.
void RemoveQuery(State& state, const std::string& query_key);

/// Sliding-window expiry over the evaluator's value-level state: tuples,
/// DAI-V projections and rewritten queries whose latest trigger is older
/// than `cutoff`. Returns the number of objects dropped.
size_t ExpireBefore(State& state, rel::Timestamp cutoff);

/// Stale join-fingers entry (§4.7): a join message sent straight to a
/// cached evaluator that no longer owns its target identifier is re-routed
/// from here, under the same reliable id and with an ack request so the
/// true evaluator refreshes the rewriter's table. Returns true when `msg`
/// was re-routed. Runs before reliable-delivery bookkeeping, so a stale
/// node neither acks nor dedups a message it only forwards. Routed joins
/// always arrive at their owner and pass straight through.
bool RerouteIfStale(ProtocolContext& ctx, chord::Node& node,
                    const chord::AppMessage& msg);

// Message handlers (wired up by the dispatch registry).
void HandleTupleVl(ProtocolContext& ctx, chord::Node& node,
                   const chord::AppMessage& msg);
void HandleJoin(ProtocolContext& ctx, chord::Node& node,
                const chord::AppMessage& msg);
void HandleDaivJoin(ProtocolContext& ctx, chord::Node& node,
                    const chord::AppMessage& msg);

}  // namespace contjoin::core::evaluator

#endif  // CONTJOIN_CORE_EVALUATOR_H_
