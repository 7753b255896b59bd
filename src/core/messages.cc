#include "core/messages.h"

#include <algorithm>
#include <utility>

#include "common/uint160.h"

namespace contjoin::core {

RewriteId RewriteIdOf(std::string_view query_key, int remaining_side,
                      const RowTemplate& row,
                      const rel::Value& required_value) {
  SipHasher hasher(kRewriteIdKey0, kRewriteIdKey1);
  auto feed = [&hasher](std::string_view piece) { hasher.Update(piece); };
  WriteRewrittenKey(feed, query_key, remaining_side, row, required_value);
  return hasher.Finish();
}

AlqtEntry::AlqtEntry(query::QueryPtr q, int side)
    : query(std::move(q)), index_side(side) {
  if (query == nullptr || (side != 0 && side != 1)) return;
  const query::QuerySide& remaining = query->side(1 - side);
  if (!remaining.linear.has_value()) return;
  const std::string& attr =
      remaining.schema->attribute(remaining.linear->ref.attr_index).name;
  remaining_level1 = AttrKey(remaining.relation, attr);
}

void AlqtEntry::AddEvaluator(const chord::NodeId& id) {
  auto it = std::lower_bound(evaluators.begin(), evaluators.end(), id);
  if (it == evaluators.end() || *it != id) evaluators.insert(it, id);
}

std::string AttrKey(const std::string& relation, const std::string& attr) {
  return relation + "+" + attr;
}

chord::NodeId AttrIndexIdOfKey(const std::string& attr_key, int replica) {
  std::string key = attr_key;
  if (replica > 0) key += "#r" + std::to_string(replica);
  return HashKey(key);
}

chord::NodeId AttrIndexId(const std::string& relation, const std::string& attr,
                          int replica) {
  return AttrIndexIdOfKey(AttrKey(relation, attr), replica);
}

std::string ValueKeyOf(const std::string& relation, const std::string& attr,
                       const std::string& value_key) {
  return ValueKeyOfAttrKey(AttrKey(relation, attr), value_key);
}

std::string ValueKeyOfAttrKey(const std::string& attr_key,
                              const std::string& value_key) {
  std::string key;
  key.reserve(attr_key.size() + 1 + value_key.size());
  key += attr_key;
  key += '+';
  key += value_key;
  return key;
}

chord::NodeId ValueIndexIdOfKey(const std::string& attr_key,
                                const std::string& value_key) {
  return HashKey(ValueKeyOfAttrKey(attr_key, value_key));
}

chord::NodeId ValueIndexId(const std::string& relation,
                           const std::string& attr,
                           const std::string& value_key) {
  return HashKey(ValueKeyOf(relation, attr, value_key));
}

chord::NodeId DaivIndexId(const std::string& value_key) {
  return HashKey(value_key);
}

chord::NodeId DaivPrefixedIndexId(const std::string& query_key,
                                  const std::string& value_key) {
  return HashKey(query_key + "+" + value_key);
}

}  // namespace contjoin::core
