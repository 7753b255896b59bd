// The continuous two-way equi-join query representation (paper §3.2):
//
//   SELECT R.A1, ..., S.B1, ...  FROM R, S  WHERE alpha = beta [AND pred]*
//
// alpha references only attributes of R (plus constants), beta only
// attributes of S. Additional conjuncts referencing a single relation are
// selection predicates. Queries are classified T1 (both sides invertible
// single-attribute forms) or T2 (anything else; only DAI-V evaluates them).

#ifndef CONTJOIN_QUERY_QUERY_H_
#define CONTJOIN_QUERY_QUERY_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/uint160.h"
#include "query/expr.h"
#include "relational/schema.h"
#include "relational/tuple.h"

namespace contjoin::query {

enum class QueryType : unsigned char { kT1, kT2 };

enum class CmpOp : unsigned char { kEq, kNeq, kLt, kLe, kGt, kGe };

const char* CmpOpName(CmpOp op);

/// A selection predicate: `lhs op rhs`, both expressions referencing only
/// one side's attributes (and constants).
struct Predicate {
  std::unique_ptr<Expr> lhs;
  std::unique_ptr<Expr> rhs;
  CmpOp op = CmpOp::kEq;
  int side = 0;

  /// Evaluates against a tuple of the predicate's relation.
  StatusOr<bool> Matches(const rel::Tuple& tuple) const;

  std::string ToString() const;
};

/// One side of the join: relation, alias, join-condition expression,
/// invertibility analysis and local selection predicates.
struct QuerySide {
  std::string relation;
  std::string alias;
  const rel::RelationSchema* schema = nullptr;
  std::unique_ptr<Expr> join_expr;
  std::optional<LinearForm> linear;  // Set iff the side is invertible (T1).
  std::vector<Predicate> predicates;
  /// Attribute used to index the query at the attribute level for this side:
  /// the linear form's attribute for T1 sides, otherwise the first attribute
  /// the join expression references (paper §4.5).
  size_t index_attr = 0;

  const std::string& index_attr_name() const {
    return schema->attribute(index_attr).name;
  }

  /// True iff `tuple` satisfies all of this side's selection predicates.
  bool SatisfiesPredicates(const rel::Tuple& tuple) const;
};

/// One output column: an attribute of either side.
struct SelectItem {
  AttrRef ref;
  std::string label;  // "D.Title" as written.
};

/// A parsed continuous query. Subscriber identity, key and insertion time
/// are attached by the engine at submission.
class ContinuousQuery {
 public:
  ContinuousQuery() = default;
  ContinuousQuery(ContinuousQuery&&) = default;
  ContinuousQuery& operator=(ContinuousQuery&&) = default;

  // --- Structure (filled by the parser) -------------------------------------

  QuerySide& side(int i) { return sides_[i]; }
  const QuerySide& side(int i) const { return sides_[i]; }

  std::vector<SelectItem>& select() { return select_; }
  const std::vector<SelectItem>& select() const { return select_; }

  QueryType type() const { return type_; }
  void set_type(QueryType t) { type_ = t; }

  /// Canonical join-condition string, e.g. "(R.B) = (S.E)"; queries with
  /// equal signatures are grouped at rewriters and evaluators (§4.3.5).
  const std::string& signature() const { return signature_; }
  void set_signature(std::string s) { signature_ = std::move(s); }

  // --- Submission metadata (filled by the engine) ----------------------------

  const std::string& key() const { return key_; }
  void set_key(std::string key) { key_ = std::move(key); }

  const std::string& subscriber_key() const { return subscriber_key_; }
  void set_subscriber_key(std::string k) {
    subscriber_key_ = std::move(k);
    subscriber_id_ = HashKey(subscriber_key_);
  }

  /// HashKey(subscriber_key()): the identifier notifications are routed to
  /// (§4.6), hashed once here rather than per notification.
  const Uint160& subscriber_id() const { return subscriber_id_; }

  uint64_t subscriber_ip() const { return subscriber_ip_; }
  void set_subscriber_ip(uint64_t ip) { subscriber_ip_ = ip; }

  rel::Timestamp insertion_time() const { return insertion_time_; }
  void set_insertion_time(rel::Timestamp t) { insertion_time_ = t; }

  /// The SQL text this query was parsed from. The wire codec ships queries
  /// as raw SQL plus engine metadata and re-parses on receipt, so the
  /// parser stays the single source of structural truth.
  const std::string& raw_sql() const { return raw_sql_; }
  void set_raw_sql(std::string sql) { raw_sql_ = std::move(sql); }

  // --- Helpers -----------------------------------------------------------------

  /// Side index of the relation named `relation`, or -1.
  int SideOfRelation(const std::string& relation) const;

  /// Human-readable SQL-ish rendering.
  std::string ToString() const;

 private:
  QuerySide sides_[2];
  std::vector<SelectItem> select_;
  QueryType type_ = QueryType::kT1;
  std::string signature_;

  std::string key_;
  std::string subscriber_key_;
  Uint160 subscriber_id_ = HashKey(subscriber_key_);
  uint64_t subscriber_ip_ = 0;
  rel::Timestamp insertion_time_ = 0;
  std::string raw_sql_;
};

using QueryPtr = std::shared_ptr<const ContinuousQuery>;

}  // namespace contjoin::query

#endif  // CONTJOIN_QUERY_QUERY_H_
