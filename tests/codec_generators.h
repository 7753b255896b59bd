// Seeded random payload fields for the codec tests: strings (empty ones
// included), values of every type with extreme integers, identifiers with
// the zero and maximum sentinels, evaluator id lists, select rows with
// unbound positions, tuples and parsed queries over a small catalog.

#ifndef CONTJOIN_TESTS_CODEC_GENERATORS_H_
#define CONTJOIN_TESTS_CODEC_GENERATORS_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/sha1.h"
#include "common/uint160.h"
#include "core/messages.h"
#include "query/mw_query.h"
#include "query/parser.h"
#include "relational/schema.h"

namespace contjoin::core {

class CodecGenerators {
 protected:
  CodecGenerators() {
    for (const char* name : {"R", "S", "T"}) {
      CJ_CHECK(catalog_
                   .Register(rel::RelationSchema(
                       name, {{"a", rel::ValueType::kInt},
                              {"b", rel::ValueType::kInt},
                              {"c", rel::ValueType::kInt}}))
                   .ok());
    }
    CJ_CHECK(catalog_
                 .Register(rel::RelationSchema(
                     "Doc", {{"id", rel::ValueType::kInt},
                             {"title", rel::ValueType::kString}}))
                 .ok());
    CJ_CHECK(catalog_
                 .Register(rel::RelationSchema(
                     "Auth", {{"name", rel::ValueType::kString},
                              {"id", rel::ValueType::kInt}}))
                 .ok());
  }

  // -- Random field generators -------------------------------------------------

  static std::string RandomString(Rng& rng) {
    size_t len = rng.NextBelow(12);  // 0 is reachable: empty strings count.
    std::string s;
    s.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>('a' + rng.NextBelow(26)));
    }
    return s;
  }

  static rel::Value RandomValue(Rng& rng) {
    switch (rng.NextBelow(6)) {
      case 0:
        return rel::Value::Null();
      case 1:
        return rel::Value::Int(static_cast<int64_t>(rng.Next()));
      case 2:
        return rel::Value::Int(std::numeric_limits<int64_t>::min());
      case 3:
        return rel::Value::Double(rng.NextDouble() * 2e9 - 1e9);
      case 4:
        return rel::Value::Str("");
      default:
        return rel::Value::Str(RandomString(rng));
    }
  }

  static Uint160 RandomId(Rng& rng) {
    switch (rng.NextBelow(4)) {
      case 0:
        return Uint160();  // Zero (the "no node" sentinel).
      case 1:
        return Uint160::Max();
      default: {
        Sha1Digest d;
        for (uint8_t& b : d) b = static_cast<uint8_t>(rng.Next());
        return Uint160::FromDigest(d);
      }
    }
  }

  /// A sorted, distinct evaluator id list, as an ALQT entry keeps it.
  static std::vector<Uint160> RandomEvaluators(Rng& rng) {
    std::set<Uint160> ids;
    for (size_t j = 0, m = rng.NextBelow(4); j < m; ++j) {
      ids.insert(RandomId(rng));
    }
    return {ids.begin(), ids.end()};
  }

  static RowTemplate RandomRow(Rng& rng) {
    RowTemplate row(1 + rng.NextBelow(4));
    for (auto& slot : row) {
      if (rng.NextBelow(3) == 0) continue;  // Leave unbound.
      slot = RandomValue(rng);
    }
    return row;
  }

  static rel::TuplePtr RandomTuple(Rng& rng) {
    if (rng.NextBelow(2) == 0) {
      return std::make_shared<const rel::Tuple>(
          "R",
          std::vector<rel::Value>{
              rel::Value::Int(static_cast<int64_t>(rng.Next())),
              rel::Value::Int(rng.NextInRange(-5, 5)),
              rel::Value::Int(std::numeric_limits<int64_t>::max())},
          rng.Next(), rng.Next());
    }
    return std::make_shared<const rel::Tuple>(
        "Doc",
        std::vector<rel::Value>{
            rel::Value::Int(static_cast<int64_t>(rng.Next())),
            rel::Value::Str(RandomString(rng))},
        rng.Next(), rng.Next());
  }

  query::QueryPtr MakeQuery(Rng& rng, const std::string& sql) {
    StatusOr<query::ContinuousQuery> parsed = query::ParseQuery(sql, catalog_);
    CJ_CHECK(parsed.ok());
    query::ContinuousQuery q = std::move(parsed).value();
    q.set_key(RandomString(rng));
    q.set_subscriber_key(RandomString(rng));
    q.set_subscriber_ip(rng.Next());
    q.set_insertion_time(rng.Next());
    return std::make_shared<const query::ContinuousQuery>(std::move(q));
  }

  query::QueryPtr RandomQuery(Rng& rng) {
    return MakeQuery(rng, rng.NextBelow(2) == 0
                              ? "SELECT R.a, S.b FROM R, S WHERE R.b = S.a"
                              : "SELECT Doc.id, Auth.id FROM Doc, Auth "
                                "WHERE Doc.title = Auth.name");
  }

  query::MwQueryPtr RandomMwQuery(Rng& rng) {
    StatusOr<query::MwQuery> parsed = query::ParseMwQuery(
        "SELECT R.a, S.b, T.c FROM R, S, T WHERE R.a = S.a AND S.b = T.b",
        catalog_);
    CJ_CHECK(parsed.ok());
    query::MwQuery q = std::move(parsed).value();
    q.set_key(RandomString(rng));
    q.set_subscriber_key(RandomString(rng));
    q.set_subscriber_ip(rng.Next());
    q.set_insertion_time(rng.Next());
    return std::make_shared<const query::MwQuery>(std::move(q));
  }

  rel::Catalog catalog_;
};

}  // namespace contjoin::core

#endif  // CONTJOIN_TESTS_CODEC_GENERATORS_H_
