// Continuous multi-way equi-join queries — the paper's stated future work
// (realized by the authors in "Continuous Multi-Way Joins over Distributed
// Hash Tables", EDBT 2008). This module generalizes the two-way
// representation to m relations joined by a tree of bare-attribute
// equalities:
//
//   SELECT ... FROM R1, ..., Rm
//   WHERE R1.A = R2.B AND R2.C = R3.D AND ... [AND single-relation preds]

#ifndef CONTJOIN_QUERY_MW_QUERY_H_
#define CONTJOIN_QUERY_MW_QUERY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "common/uint160.h"
#include "query/query.h"
#include "relational/schema.h"

namespace contjoin::query {

/// One relation of a multi-way query with its local selection predicates.
struct MwRelation {
  std::string relation;
  std::string alias;
  const rel::RelationSchema* schema = nullptr;
  std::vector<Predicate> predicates;

  bool SatisfiesPredicates(const rel::Tuple& tuple) const {
    for (const Predicate& pred : predicates) {
      auto match = pred.Matches(tuple);
      if (!match.ok() || !match.value()) return false;
    }
    return true;
  }
};

/// One edge of the join tree: sides_[a].attr_a = sides_[b].attr_b, both
/// bare attributes.
struct MwCondition {
  int rel_a = 0;
  size_t attr_a = 0;
  int rel_b = 0;
  size_t attr_b = 0;
  std::string display;  // "R.A = S.B".

  /// The attribute this condition uses on relation `rel`; rel must be one
  /// of the endpoints.
  size_t AttrOn(int rel) const { return rel == rel_a ? attr_a : attr_b; }
  int Other(int rel) const { return rel == rel_a ? rel_b : rel_a; }
  bool Touches(int rel) const { return rel == rel_a || rel == rel_b; }
};

/// A parsed continuous m-way equi-join query (2 <= m <= Expr::kMaxSides).
/// The join graph is a spanning tree: m-1 conditions, connected, acyclic.
class MwQuery {
 public:
  std::vector<MwRelation>& relations() { return relations_; }
  const std::vector<MwRelation>& relations() const { return relations_; }
  size_t num_relations() const { return relations_.size(); }

  std::vector<MwCondition>& conditions() { return conditions_; }
  const std::vector<MwCondition>& conditions() const { return conditions_; }

  std::vector<SelectItem>& select() { return select_; }
  const std::vector<SelectItem>& select() const { return select_; }

  /// Relation index by real name, or -1.
  int SideOfRelation(const std::string& relation) const;

  /// Lowest-index condition with exactly one endpoint inside `bound_mask`
  /// (the next tree edge to chase); -1 if none (all bound).
  int NextCondition(uint32_t bound_mask) const;

  // --- Submission metadata (mirrors ContinuousQuery) -------------------------

  const std::string& key() const { return key_; }
  void set_key(std::string key) { key_ = std::move(key); }
  const std::string& subscriber_key() const { return subscriber_key_; }
  void set_subscriber_key(std::string k) {
    subscriber_key_ = std::move(k);
    subscriber_id_ = HashKey(subscriber_key_);
  }
  /// HashKey(subscriber_key()), cached (see ContinuousQuery).
  const Uint160& subscriber_id() const { return subscriber_id_; }
  uint64_t subscriber_ip() const { return subscriber_ip_; }
  void set_subscriber_ip(uint64_t ip) { subscriber_ip_ = ip; }
  rel::Timestamp insertion_time() const { return insertion_time_; }
  void set_insertion_time(rel::Timestamp t) { insertion_time_ = t; }

  /// SQL text this query was parsed from (wire codec re-parses on receipt).
  const std::string& raw_sql() const { return raw_sql_; }
  void set_raw_sql(std::string sql) { raw_sql_ = std::move(sql); }

  std::string ToString() const;

 private:
  std::vector<MwRelation> relations_;
  std::vector<MwCondition> conditions_;
  std::vector<SelectItem> select_;

  std::string key_;
  std::string subscriber_key_;
  Uint160 subscriber_id_ = HashKey(subscriber_key_);
  uint64_t subscriber_ip_ = 0;
  rel::Timestamp insertion_time_ = 0;
  std::string raw_sql_;
};

using MwQueryPtr = std::shared_ptr<const MwQuery>;

/// Parses an m-way continuous equi-join. Enforces: 2..kMaxSides distinct
/// registered relations; exactly m-1 cross-relation conditions, all
/// bare-attribute equalities forming a spanning tree; every other conjunct
/// references a single relation; alias-qualified attributes.
StatusOr<MwQuery> ParseMwQuery(std::string_view sql,
                               const rel::Catalog& catalog);

}  // namespace contjoin::query

#endif  // CONTJOIN_QUERY_MW_QUERY_H_
