#include "core/algorithm.h"

#include <string>

#include "chord/node.h"
#include "core/messages.h"
#include "core/rewriter.h"
#include "core/state.h"

namespace contjoin::core {

const char* AlgorithmName(Algorithm a) {
  switch (a) {
    case Algorithm::kSai:
      return "SAI";
    case Algorithm::kDaiQ:
      return "DAI-Q";
    case Algorithm::kDaiT:
      return "DAI-T";
    case Algorithm::kDaiV:
      return "DAI-V";
  }
  return "?";
}

const char* SaiStrategyName(SaiStrategy s) {
  switch (s) {
    case SaiStrategy::kRandom:
      return "random";
    case SaiStrategy::kLowerRate:
      return "lower-rate";
    case SaiStrategy::kLowerSkew:
      return "lower-skew";
    case SaiStrategy::kSmallerDomain:
      return "smaller-domain";
  }
  return "?";
}

namespace {

class SaiAlgorithm final : public AlgorithmStrategy {
 public:
  Algorithm id() const override { return Algorithm::kSai; }
  bool DoubleIndexesQueries() const override { return false; }
  bool IndexesTuplesAtValueLevel() const override { return true; }
  bool SupportsT2Queries() const override { return false; }
  bool SupportsRecursiveMultiway() const override { return true; }
  bool RewritesToDaiv() const override { return false; }
  bool DeduplicatesRewrites(const Options&) const override { return false; }
  bool StoresRewrittenQueries() const override { return true; }
  bool MatchesTuplesOnJoinArrival() const override { return true; }
  bool RequiresStrictlyOlderStored() const override { return false; }
  bool MatchesRewrittenOnTupleArrival() const override { return true; }
  bool StoresTuples() const override { return true; }
};

class DaiQAlgorithm final : public AlgorithmStrategy {
 public:
  Algorithm id() const override { return Algorithm::kDaiQ; }
  bool DoubleIndexesQueries() const override { return true; }
  bool IndexesTuplesAtValueLevel() const override { return true; }
  bool SupportsT2Queries() const override { return false; }
  bool SupportsRecursiveMultiway() const override { return false; }
  bool RewritesToDaiv() const override { return false; }
  bool DeduplicatesRewrites(const Options&) const override { return false; }
  bool StoresRewrittenQueries() const override { return false; }
  bool MatchesTuplesOnJoinArrival() const override { return true; }
  bool RequiresStrictlyOlderStored() const override { return true; }
  bool MatchesRewrittenOnTupleArrival() const override { return false; }
  bool StoresTuples() const override { return true; }
};

class DaiTAlgorithm final : public AlgorithmStrategy {
 public:
  Algorithm id() const override { return Algorithm::kDaiT; }
  bool DoubleIndexesQueries() const override { return true; }
  bool IndexesTuplesAtValueLevel() const override { return true; }
  bool SupportsT2Queries() const override { return false; }
  bool SupportsRecursiveMultiway() const override { return false; }
  bool RewritesToDaiv() const override { return false; }
  bool DeduplicatesRewrites(const Options& options) const override {
    return options.window == 0;
  }
  bool StoresRewrittenQueries() const override { return true; }
  bool MatchesTuplesOnJoinArrival() const override { return false; }
  bool RequiresStrictlyOlderStored() const override { return false; }
  bool MatchesRewrittenOnTupleArrival() const override { return true; }
  bool StoresTuples() const override { return false; }
};

class DaiVAlgorithm final : public AlgorithmStrategy {
 public:
  Algorithm id() const override { return Algorithm::kDaiV; }
  bool DoubleIndexesQueries() const override { return true; }
  bool IndexesTuplesAtValueLevel() const override { return false; }
  bool SupportsT2Queries() const override { return true; }
  bool SupportsRecursiveMultiway() const override { return false; }
  bool RewritesToDaiv() const override { return true; }
  bool DeduplicatesRewrites(const Options&) const override { return false; }
  bool StoresRewrittenQueries() const override { return false; }
  bool MatchesTuplesOnJoinArrival() const override { return false; }
  bool RequiresStrictlyOlderStored() const override { return false; }
  bool MatchesRewrittenOnTupleArrival() const override { return false; }
  bool StoresTuples() const override { return false; }
};

/// Probes the rewriter responsible for (relation, attr) for its live
/// arrival statistics (§4.3.6: "any node can simply ask the two possible
/// rewriter nodes").
uint64_t ProbeAttrRate(ProtocolContext& ctx, chord::Node& origin,
                       const std::string& relation, const std::string& attr,
                       uint64_t* distinct, double* skew) {
  chord::NodeId aid = AttrIndexId(relation, attr, /*replica=*/0);
  chord::Node* rw = origin.FindSuccessor(aid, sim::MsgClass::kControl);
  if (rw == nullptr) {
    *distinct = 0;
    *skew = 0;
    return 0;
  }
  ctx.CountHop(sim::MsgClass::kControl);  // The response.
  std::string mkey = rewriter::MKey(AttrKey(relation, attr), 0);
  // Follow a moved identifier (§4.7) to the statistics' current holder.
  auto moved = ctx.StateOf(*rw).rewriter.moved_attrs.find(mkey);
  if (moved != ctx.StateOf(*rw).rewriter.moved_attrs.end()) {
    chord::Node* holder = ctx.NodeById(moved->second.holder);
    if (holder != nullptr && holder->alive()) {
      rw = holder;
      ctx.CountHop(sim::MsgClass::kControl);
    }
  }
  const AttrArrivalStats& stats = ctx.StateOf(*rw).rewriter.attr_stats[mkey];
  *distinct = stats.DistinctEstimate();
  *skew = stats.SkewEstimate();
  return stats.tuples_seen;
}

}  // namespace

const AlgorithmStrategy& AlgorithmStrategy::For(Algorithm a) {
  static const SaiAlgorithm sai;
  static const DaiQAlgorithm dai_q;
  static const DaiTAlgorithm dai_t;
  static const DaiVAlgorithm dai_v;
  switch (a) {
    case Algorithm::kSai:
      return sai;
    case Algorithm::kDaiQ:
      return dai_q;
    case Algorithm::kDaiT:
      return dai_t;
    case Algorithm::kDaiV:
      return dai_v;
  }
  return sai;
}

bool EvaluatorsHoldQueryState(const Options& options) {
  const AlgorithmStrategy& strategy = AlgorithmStrategy::For(options.algorithm);
  return options.adapt.enabled || strategy.StoresRewrittenQueries() ||
         strategy.RewritesToDaiv();
}

int ChooseSaiIndexSide(ProtocolContext& ctx, chord::Node& origin,
                       const query::ContinuousQuery& q) {
  if (ctx.options().sai_strategy == SaiStrategy::kRandom) {
    return static_cast<int>(ctx.GetRng().NextBelow(2));
  }
  uint64_t rate[2], distinct[2];
  double skew[2];
  for (int s = 0; s < 2; ++s) {
    rate[s] = ProbeAttrRate(ctx, origin, q.side(s).relation,
                            q.side(s).index_attr_name(), &distinct[s],
                            &skew[s]);
  }
  switch (ctx.options().sai_strategy) {
    case SaiStrategy::kLowerRate:
      // Index by the relation whose tuples arrive more rarely: fewer
      // triggers, fewer rewrites, less traffic (§4.3.6).
      if (rate[0] != rate[1]) return rate[0] < rate[1] ? 0 : 1;
      break;
    case SaiStrategy::kLowerSkew:
      // Index by the attribute whose values spread evaluators widest.
      if (skew[0] != skew[1]) return skew[0] < skew[1] ? 0 : 1;
      break;
    case SaiStrategy::kSmallerDomain:
      // Index by the attribute with the smaller observed value range.
      if (distinct[0] != distinct[1]) return distinct[0] < distinct[1] ? 0 : 1;
      break;
    case SaiStrategy::kRandom:
      break;
  }
  return static_cast<int>(ctx.GetRng().NextBelow(2));
}

}  // namespace contjoin::core
