// Per-algorithm strategy objects: the policy differences between the
// paper's four algorithms (where tuples are indexed, what gets rewritten,
// how evaluators store and match, dedup rules) expressed behind one
// interface consulted by the role handlers, so a fifth algorithm is a new
// strategy rather than another pass through the protocol modules.

#ifndef CONTJOIN_CORE_ALGORITHM_H_
#define CONTJOIN_CORE_ALGORITHM_H_

#include "chord/types.h"
#include "core/context.h"
#include "core/options.h"
#include "query/query.h"

namespace contjoin::core {

class AlgorithmStrategy {
 public:
  virtual ~AlgorithmStrategy() = default;

  virtual Algorithm id() const = 0;
  const char* name() const { return AlgorithmName(id()); }

  // --- Submission & insertion policy -----------------------------------------

  /// DAI algorithms index every query under both join-attribute identifiers
  /// (§4.4.1); SAI picks a single side.
  virtual bool DoubleIndexesQueries() const = 0;
  /// T1 algorithms index tuples at the value level too; DAI-V keeps tuples
  /// at the attribute level only (§4.5).
  virtual bool IndexesTuplesAtValueLevel() const = 0;
  /// T2 expression joins are evaluable only under DAI-V (§4.5).
  virtual bool SupportsT2Queries() const = 0;
  /// The recursive-SAI multi-way extension builds on single-side indexing.
  virtual bool SupportsRecursiveMultiway() const = 0;

  // --- Rewriter policy --------------------------------------------------------

  /// Rewriters emit DAI-V projections (the join value alone addresses the
  /// evaluator) instead of T1 rewritten queries.
  virtual bool RewritesToDaiv() const = 0;
  /// Rewriters never reindex the same rewritten key twice (DAI-T §4.4.3).
  /// Sliding windows need fresh trigger times, so dedup is windowless-only.
  virtual bool DeduplicatesRewrites(const Options& options) const = 0;

  // --- Evaluator policy -------------------------------------------------------

  /// Arriving rewritten queries are stored in the VLQT (SAI, DAI-T).
  virtual bool StoresRewrittenQueries() const = 0;
  /// Arriving rewritten queries probe the VLTT immediately (SAI, DAI-Q).
  virtual bool MatchesTuplesOnJoinArrival() const = 0;
  /// Join-arrival matching admits only strictly-older stored tuples — the
  /// DAI-Q exactly-once rule (§4.4.2).
  virtual bool RequiresStrictlyOlderStored() const = 0;
  /// Arriving value-level tuples probe the VLQT (SAI, DAI-T).
  virtual bool MatchesRewrittenOnTupleArrival() const = 0;
  /// Value-level tuples are stored in the VLTT (SAI for completeness §4.3.4,
  /// DAI-Q because its evaluators join on query arrival §4.4.2).
  virtual bool StoresTuples() const = 0;

  /// The strategy singleton for `a`.
  static const AlgorithmStrategy& For(Algorithm a);
};

/// True when evaluators keep per-query state that an unsubscription must
/// clear: rewritten queries (SAI, DAI-T), projections (DAI-V), or, under
/// the adaptive manager, symmetrically stored joins. DAI-Q evaluators
/// store tuples only (§4.4.2), so cancelling a DAI-Q query is complete
/// once its rewriters drop it.
bool EvaluatorsHoldQueryState(const Options& options);

/// SAI index-side selection (§4.3.6): applies options().sai_strategy,
/// probing live attribute statistics at the rewriter nodes when informed.
int ChooseSaiIndexSide(ProtocolContext& ctx, chord::Node& origin,
                       const query::ContinuousQuery& q);

}  // namespace contjoin::core

#endif  // CONTJOIN_CORE_ALGORITHM_H_
