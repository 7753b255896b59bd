#include "core/codec.h"

#include <atomic>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "common/logging.h"
#include "query/mw_query.h"
#include "query/parser.h"
#include "relational/tuple.h"
#include "relational/value.h"

namespace contjoin::core {
namespace {

// --- Shared field helpers ------------------------------------------------------

void WriteValue(wire::Writer& w, const rel::Value& v) {
  w.U8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case rel::ValueType::kNull:
      return;
    case rel::ValueType::kInt:
      w.I64(v.as_int());
      return;
    case rel::ValueType::kDouble:
      w.F64(v.as_double());
      return;
    case rel::ValueType::kString:
      w.Str(v.as_string());
      return;
  }
}

rel::Value ReadValue(wire::Reader& r) {
  switch (static_cast<rel::ValueType>(r.U8())) {
    case rel::ValueType::kNull:
      return rel::Value::Null();
    case rel::ValueType::kInt:
      return rel::Value::Int(r.I64());
    case rel::ValueType::kDouble:
      return rel::Value::Double(r.F64());
    case rel::ValueType::kString:
      return rel::Value::Str(r.Str());
  }
  r.Fail();  // Unknown tag; the caller checks r.ok().
  return rel::Value::Null();
}

/// Guards a decoded element count against the bytes actually present, so a
/// corrupt length cannot drive a multi-gigabyte allocation. Every element
/// costs at least one byte on the wire.
bool PlausibleCount(const wire::Reader& r, uint32_t n) {
  return n <= r.remaining();
}

void WriteRow(wire::Writer& w, const RowTemplate& row) {
  w.U32(static_cast<uint32_t>(row.size()));
  for (const std::optional<rel::Value>& v : row) {
    w.Bool(v.has_value());
    if (v.has_value()) WriteValue(w, *v);
  }
}

bool ReadRow(wire::Reader& r, RowTemplate* out) {
  uint32_t n = r.U32();
  if (!PlausibleCount(r, n)) return false;
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (r.Bool()) {
      out->push_back(ReadValue(r));
    } else {
      out->push_back(std::nullopt);
    }
  }
  return r.ok();
}

/// True when `a` and `b` would encode to the same bytes.
bool Identical(const rel::Value& a, const rel::Value& b) {
  return a.type() == b.type() && a == b;
}

/// A rewritten query's trigger tuple as a kJoin or kDaivJoin entry ships
/// it: a WriteRow row of `q`'s select list, bound at the items of side
/// `side` and unbound elsewhere, then the tuple's (pub, seq). Only the
/// projection travels.
// contjoin-check: hot
void WriteTrigger(wire::Writer& w, const query::ContinuousQuery& q, int side,
                  const rel::Tuple& trigger) {
  w.U32(static_cast<uint32_t>(q.select().size()));
  for (const query::SelectItem& item : q.select()) {
    const bool bound = item.ref.side == side;
    w.Bool(bound);
    if (bound) WriteValue(w, trigger.at(item.ref.attr_index));
  }
  w.U64(trigger.pub_time());
  w.U64(trigger.seq());
}

/// Reads what WriteTrigger wrote and rebuilds a tuple of side `side`'s
/// relation from it: the shipped values at their attributes, null
/// elsewhere, and the shipped (pub, seq). nullptr unless the row is
/// exactly such a projection: one slot per select item, bound at the
/// side's items and only there, and one value per attribute.
rel::TuplePtr ReadTrigger(wire::Reader& r, const query::ContinuousQuery& q,
                          int side) {
  const std::vector<query::SelectItem>& select = q.select();
  if (r.U32() != select.size()) return nullptr;
  const query::QuerySide& trigger_side = q.side(side);
  std::vector<rel::Value> values(trigger_side.schema->arity());
  std::vector<bool> bound(values.size(), false);
  for (const query::SelectItem& item : select) {
    if (r.Bool() != (item.ref.side == side)) return nullptr;
    if (item.ref.side != side) continue;
    rel::Value v = ReadValue(r);
    const size_t attr = item.ref.attr_index;
    if (bound[attr] && !Identical(values[attr], v)) return nullptr;
    bound[attr] = true;
    values[attr] = std::move(v);
  }
  const rel::Timestamp pub_time = r.U64();
  const uint64_t seq = r.U64();
  if (!r.ok()) return nullptr;
  return std::make_shared<const rel::Tuple>(trigger_side.relation,
                                            std::move(values), pub_time, seq);
}

void WriteTuple(wire::Writer& w, const rel::Tuple& t) {
  w.Str(t.relation());
  w.U32(static_cast<uint32_t>(t.arity()));
  for (const rel::Value& v : t.values()) WriteValue(w, v);
  w.U64(t.pub_time());
  w.U64(t.seq());
}

rel::TuplePtr ReadTuple(wire::Reader& r) {
  std::string relation = r.Str();
  uint32_t n = r.U32();
  if (!PlausibleCount(r, n)) return nullptr;
  std::vector<rel::Value> values;
  values.reserve(n);
  for (uint32_t i = 0; i < n; ++i) values.push_back(ReadValue(r));
  rel::Timestamp pub_time = r.U64();
  uint64_t seq = r.U64();
  if (!r.ok()) return nullptr;
  return std::make_shared<const rel::Tuple>(std::move(relation),
                                            std::move(values), pub_time, seq);
}

/// Queries ship as raw SQL plus the submission metadata the engine stamped
/// on; the receiver re-parses, so structure (sides, linear forms,
/// signature, T1/T2 classification) is re-derived rather than serialized.
void WriteQuery(wire::Writer& w, const query::ContinuousQuery& q) {
  w.Str(q.raw_sql());
  w.Str(q.key());
  w.Str(q.subscriber_key());
  w.U64(q.subscriber_ip());
  w.U64(q.insertion_time());
}

query::QueryPtr ReadQuery(wire::Reader& r, const rel::Catalog& catalog) {
  std::string sql = r.Str();
  std::string key = r.Str();
  std::string subscriber_key = r.Str();
  uint64_t subscriber_ip = r.U64();
  rel::Timestamp insertion_time = r.U64();
  if (!r.ok()) return nullptr;
  StatusOr<query::ContinuousQuery> parsed = query::ParseQuery(sql, catalog);
  if (!parsed.ok()) return nullptr;
  query::ContinuousQuery q = std::move(parsed).value();
  q.set_key(std::move(key));
  q.set_subscriber_key(std::move(subscriber_key));
  q.set_subscriber_ip(subscriber_ip);
  q.set_insertion_time(insertion_time);
  return std::make_shared<const query::ContinuousQuery>(std::move(q));
}

void WriteMwQuery(wire::Writer& w, const query::MwQuery& q) {
  w.Str(q.raw_sql());
  w.Str(q.key());
  w.Str(q.subscriber_key());
  w.U64(q.subscriber_ip());
  w.U64(q.insertion_time());
}

query::MwQueryPtr ReadMwQuery(wire::Reader& r, const rel::Catalog& catalog) {
  std::string sql = r.Str();
  std::string key = r.Str();
  std::string subscriber_key = r.Str();
  uint64_t subscriber_ip = r.U64();
  rel::Timestamp insertion_time = r.U64();
  if (!r.ok()) return nullptr;
  StatusOr<query::MwQuery> parsed = query::ParseMwQuery(sql, catalog);
  if (!parsed.ok()) return nullptr;
  query::MwQuery q = std::move(parsed).value();
  q.set_key(std::move(key));
  q.set_subscriber_key(std::move(subscriber_key));
  q.set_subscriber_ip(subscriber_ip);
  q.set_insertion_time(insertion_time);
  return std::make_shared<const query::MwQuery>(std::move(q));
}

void WriteNotification(wire::Writer& w, const Notification& n) {
  w.Str(n.query_key);
  w.U32(static_cast<uint32_t>(n.row.size()));
  for (const rel::Value& v : n.row) WriteValue(w, v);
  w.U64(n.earlier_pub);
  w.U64(n.later_pub);
  w.U64(n.created_at);
}

bool ReadNotification(wire::Reader& r, Notification* out) {
  out->query_key = r.Str();
  uint32_t n = r.U32();
  if (!PlausibleCount(r, n)) return false;
  out->row.clear();
  out->row.reserve(n);
  for (uint32_t i = 0; i < n; ++i) out->row.push_back(ReadValue(r));
  out->earlier_pub = r.U64();
  out->later_pub = r.U64();
  out->created_at = r.U64();
  return r.ok();
}

// --- Per-type codecs -----------------------------------------------------------
//
// One Encode/Decode pair per CqMsgType, kept adjacent so each type's wire
// layout reads as one unit. Field order here IS the wire format.

bool EncodeQueryIndex(const CqPayload& payload, wire::Writer& w) {
  const auto& p = static_cast<const QueryIndexPayload&>(payload);
  if (p.query == nullptr) return false;
  WriteQuery(w, *p.query);
  w.U8(static_cast<uint8_t>(p.index_side));
  w.Str(p.level1);
  w.U32(static_cast<uint32_t>(p.replica));
  return true;
}

std::shared_ptr<const CqPayload> DecodeQueryIndex(
    CqMsgType, wire::Reader& r, const rel::Catalog& catalog) {
  auto p = std::make_shared<QueryIndexPayload>();
  p->query = ReadQuery(r, catalog);
  if (p->query == nullptr) return nullptr;
  p->index_side = r.U8();
  p->level1 = r.Str();
  p->replica = static_cast<int>(r.U32());
  return r.ok() ? p : nullptr;
}

bool EncodeTupleIndex(const CqPayload& payload, wire::Writer& w) {
  const auto& p = static_cast<const TupleIndexPayload&>(payload);
  if (p.tuple == nullptr) return false;
  WriteTuple(w, *p.tuple);
  w.U32(static_cast<uint32_t>(p.attr_index));
  w.Str(p.level1);
  w.Str(p.value_key);
  w.U32(static_cast<uint32_t>(p.replica));
  return true;
}

std::shared_ptr<const CqPayload> DecodeTupleIndex(CqMsgType type,
                                                  wire::Reader& r,
                                                  const rel::Catalog&) {
  auto p =
      std::make_shared<TupleIndexPayload>(type == CqMsgType::kTupleVl);
  p->tuple = ReadTuple(r);
  if (p->tuple == nullptr) return nullptr;
  p->attr_index = r.U32();
  p->level1 = r.Str();
  p->value_key = r.Str();
  p->replica = static_cast<int>(r.U32());
  return r.ok() ? p : nullptr;
}

/// Key(q') as a length-prefixed string, spelled from the entry's own
/// fields straight into the writer; the length is patched in afterwards,
/// so a counting writer sizes it exactly.
// contjoin-check: hot
void WriteRewrittenKeyStr(wire::Writer& w, const RewrittenEntry& e) {
  const size_t length_at = w.size();
  w.U32(0);
  auto write = [&w](std::string_view piece) { w.Raw(piece); };
  WriteRewrittenKey(write, *e.query, e.remaining_side, *e.trigger,
                    e.required_value);
  w.PatchU32(length_at, static_cast<uint32_t>(w.size() - length_at - 4));
}

/// True when `shipped` is exactly the Key(q') of `e`'s fields. The key is
/// derived data, so a frame whose key disagrees with its entry is forged
/// or corrupt.
bool RewrittenKeyMatches(std::string_view shipped, const RewrittenEntry& e) {
  size_t pos = 0;
  bool same = true;
  auto compare = [&](std::string_view piece) {
    same = same && pos <= shipped.size() &&
           shipped.substr(pos, piece.size()) == piece;
    pos += piece.size();
  };
  WriteRewrittenKey(compare, *e.query, e.remaining_side, *e.trigger,
                    e.required_value);
  return same && pos == shipped.size();
}

bool EncodeJoin(const CqPayload& payload, wire::Writer& w) {
  const auto& p = static_cast<const JoinPayload&>(payload);
  w.Str(p.level1);
  w.Str(p.value_key);
  w.U32(static_cast<uint32_t>(p.entries.size()));
  for (const RewrittenEntry& e : p.entries) {
    if (e.query == nullptr || e.trigger == nullptr) return false;
    WriteQuery(w, *e.query);
    w.U8(static_cast<uint8_t>(e.remaining_side));
    WriteRewrittenKeyStr(w, e);
    WriteValue(w, e.required_value);
    WriteTrigger(w, *e.query, 1 - e.remaining_side, *e.trigger);
  }
  w.Id(p.rewriter);
  w.Id(p.vindex);
  w.Bool(p.want_ack);
  w.U32(static_cast<uint32_t>(p.known_split));
  w.U64(p.split_version);
  return true;
}

std::shared_ptr<const CqPayload> DecodeJoin(CqMsgType, wire::Reader& r,
                                            const rel::Catalog& catalog) {
  auto p = std::make_shared<JoinPayload>();
  p->level1 = r.Str();
  p->value_key = r.Str();
  uint32_t n = r.U32();
  if (!PlausibleCount(r, n)) return nullptr;
  p->entries.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    RewrittenEntry e;
    e.query = ReadQuery(r, catalog);
    if (e.query == nullptr) return nullptr;
    e.remaining_side = r.U8();
    if (e.remaining_side > 1) return nullptr;
    const std::string shipped_key = r.Str();
    e.required_value = ReadValue(r);
    e.trigger = ReadTrigger(r, *e.query, 1 - e.remaining_side);
    if (e.trigger == nullptr) return nullptr;
    if (!RewrittenKeyMatches(shipped_key, e)) return nullptr;
    e.rewritten_id = RewriteIdOf(*e.query, e.remaining_side, *e.trigger,
                                 e.required_value);
    p->entries.push_back(std::move(e));
  }
  p->rewriter = r.Id();
  p->vindex = r.Id();
  p->want_ack = r.Bool();
  p->known_split = static_cast<int>(r.U32());
  p->split_version = r.U64();
  return r.ok() ? p : nullptr;
}

bool EncodeDaivJoin(const CqPayload& payload, wire::Writer& w) {
  const auto& p = static_cast<const DaivJoinPayload&>(payload);
  w.Str(p.value_key);
  w.U32(static_cast<uint32_t>(p.entries.size()));
  for (const DaivEntry& e : p.entries) {
    if (e.query == nullptr || e.trigger == nullptr) return false;
    WriteQuery(w, *e.query);
    w.U8(static_cast<uint8_t>(e.trigger_side));
    WriteTrigger(w, *e.query, e.trigger_side, *e.trigger);
  }
  w.Id(p.rewriter);
  w.Id(p.vindex);
  w.Bool(p.want_ack);
  w.U32(static_cast<uint32_t>(p.known_split));
  w.U64(p.split_version);
  return true;
}

std::shared_ptr<const CqPayload> DecodeDaivJoin(CqMsgType, wire::Reader& r,
                                                const rel::Catalog& catalog) {
  auto p = std::make_shared<DaivJoinPayload>();
  p->value_key = r.Str();
  uint32_t n = r.U32();
  if (!PlausibleCount(r, n)) return nullptr;
  p->entries.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    DaivEntry e;
    e.query = ReadQuery(r, catalog);
    if (e.query == nullptr) return nullptr;
    e.trigger_side = r.U8();
    if (e.trigger_side > 1) return nullptr;
    e.trigger = ReadTrigger(r, *e.query, e.trigger_side);
    if (e.trigger == nullptr) return nullptr;
    p->entries.push_back(std::move(e));
  }
  p->rewriter = r.Id();
  p->vindex = r.Id();
  p->want_ack = r.Bool();
  p->known_split = static_cast<int>(r.U32());
  p->split_version = r.U64();
  return r.ok() ? p : nullptr;
}

bool EncodeNotification(const CqPayload& payload, wire::Writer& w) {
  const auto& p = static_cast<const NotificationPayload&>(payload);
  WriteNotification(w, p.notification);
  w.Str(p.subscriber_key);
  w.Id(p.evaluator);
  return true;
}

std::shared_ptr<const CqPayload> DecodeNotification(CqMsgType,
                                                    wire::Reader& r,
                                                    const rel::Catalog&) {
  auto p = std::make_shared<NotificationPayload>();
  if (!ReadNotification(r, &p->notification)) return nullptr;
  p->subscriber_key = r.Str();
  p->evaluator = r.Id();
  return r.ok() ? p : nullptr;
}

bool EncodeNotificationDigest(const CqPayload& payload, wire::Writer& w) {
  const auto& p = static_cast<const NotificationDigestPayload&>(payload);
  w.Str(p.subscriber_key);
  w.Id(p.evaluator);
  w.U32(static_cast<uint32_t>(p.notifications.size()));
  for (const Notification& n : p.notifications) WriteNotification(w, n);
  return true;
}

std::shared_ptr<const CqPayload> DecodeNotificationDigest(
    CqMsgType, wire::Reader& r, const rel::Catalog&) {
  auto p = std::make_shared<NotificationDigestPayload>();
  p->subscriber_key = r.Str();
  p->evaluator = r.Id();
  const uint32_t n = r.U32();
  if (!PlausibleCount(r, n)) return nullptr;
  p->notifications.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!ReadNotification(r, &p->notifications[i])) return nullptr;
  }
  return r.ok() ? p : nullptr;
}

bool EncodeUnsubscribe(const CqPayload& payload, wire::Writer& w) {
  const auto& p = static_cast<const UnsubscribePayload&>(payload);
  w.Str(p.query_key);
  w.Bool(p.at_evaluator);
  w.Str(p.level1);
  w.U32(static_cast<uint32_t>(p.replica));
  return true;
}

std::shared_ptr<const CqPayload> DecodeUnsubscribe(CqMsgType,
                                                   wire::Reader& r,
                                                   const rel::Catalog&) {
  auto p = std::make_shared<UnsubscribePayload>();
  p->query_key = r.Str();
  p->at_evaluator = r.Bool();
  p->level1 = r.Str();
  p->replica = static_cast<int>(r.U32());
  return r.ok() ? p : nullptr;
}

bool EncodeIpUpdate(const CqPayload& payload, wire::Writer& w) {
  const auto& p = static_cast<const IpUpdatePayload&>(payload);
  w.Str(p.subscriber_key);
  w.Id(p.node);
  w.U64(p.ip);
  return true;
}

std::shared_ptr<const CqPayload> DecodeIpUpdate(CqMsgType, wire::Reader& r,
                                                const rel::Catalog&) {
  auto p = std::make_shared<IpUpdatePayload>();
  p->subscriber_key = r.Str();
  p->node = r.Id();
  p->ip = r.U64();
  return r.ok() ? p : nullptr;
}

bool EncodeJfrtAck(const CqPayload& payload, wire::Writer& w) {
  const auto& p = static_cast<const JfrtAckPayload&>(payload);
  w.Id(p.vindex);
  w.Id(p.evaluator);
  return true;
}

std::shared_ptr<const CqPayload> DecodeJfrtAck(CqMsgType, wire::Reader& r,
                                               const rel::Catalog&) {
  auto p = std::make_shared<JfrtAckPayload>();
  p->vindex = r.Id();
  p->evaluator = r.Id();
  return r.ok() ? p : nullptr;
}

bool EncodeMigrateCmd(const CqPayload& payload, wire::Writer& w) {
  const auto& p = static_cast<const MigrateCmdPayload&>(payload);
  w.Str(p.level1);
  w.U32(static_cast<uint32_t>(p.replica));
  w.Id(p.base);
  return true;
}

std::shared_ptr<const CqPayload> DecodeMigrateCmd(CqMsgType,
                                                  wire::Reader& r,
                                                  const rel::Catalog&) {
  auto p = std::make_shared<MigrateCmdPayload>();
  p->level1 = r.Str();
  p->replica = static_cast<int>(r.U32());
  p->base = r.Id();
  return r.ok() ? p : nullptr;
}

bool EncodeMigrateBucket(const CqPayload& payload, wire::Writer& w) {
  const auto& p = static_cast<const MigrateBucketPayload&>(payload);
  w.Str(p.mkey);
  w.U32(static_cast<uint32_t>(p.generation));
  w.U32(static_cast<uint32_t>(p.queries.size()));
  for (const AlqtEntry& e : p.queries) {
    if (e.query == nullptr) return false;
    WriteQuery(w, *e.query);
    w.U8(static_cast<uint8_t>(e.index_side));
    w.U32(static_cast<uint32_t>(e.evaluators.size()));
    for (const chord::NodeId& id : e.evaluators) w.Id(id);
  }
  w.U64(p.tuples_seen);
  w.U32(static_cast<uint32_t>(p.value_counts.size()));
  for (const auto& [value, count] : p.value_counts) {
    w.Str(value);
    w.U64(count);
  }
  w.U64(p.overflow_values);
  return true;
}

std::shared_ptr<const CqPayload> DecodeMigrateBucket(
    CqMsgType, wire::Reader& r, const rel::Catalog& catalog) {
  auto p = std::make_shared<MigrateBucketPayload>();
  p->mkey = r.Str();
  p->generation = static_cast<int>(r.U32());
  uint32_t n = r.U32();
  if (!PlausibleCount(r, n)) return nullptr;
  p->queries.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    query::QueryPtr query = ReadQuery(r, catalog);
    if (query == nullptr) return nullptr;
    const int index_side = r.U8();
    if (index_side > 1) return nullptr;
    AlqtEntry& entry = p->queries.emplace_back(std::move(query), index_side);
    uint32_t nids = r.U32();
    if (!PlausibleCount(r, nids)) return nullptr;
    for (uint32_t j = 0; j < nids; ++j) {
      entry.evaluators.push_back(r.Id());
      // Kept sorted and distinct by the sender; anything else is forged.
      if (j > 0 && !(entry.evaluators[j - 1] < entry.evaluators[j])) {
        return nullptr;
      }
    }
  }
  p->tuples_seen = r.U64();
  uint32_t ncounts = r.U32();
  if (!PlausibleCount(r, ncounts)) return nullptr;
  for (uint32_t i = 0; i < ncounts; ++i) {
    std::string value = r.Str();
    p->value_counts[std::move(value)] = r.U64();
  }
  p->overflow_values = r.U64();
  return r.ok() ? p : nullptr;
}

bool EncodeMovedPointer(const CqPayload& payload, wire::Writer& w) {
  const auto& p = static_cast<const MovedPointerPayload&>(payload);
  w.Str(p.mkey);
  w.U32(static_cast<uint32_t>(p.generation));
  w.Id(p.holder);
  return true;
}

std::shared_ptr<const CqPayload> DecodeMovedPointer(CqMsgType,
                                                    wire::Reader& r,
                                                    const rel::Catalog&) {
  auto p = std::make_shared<MovedPointerPayload>();
  p->mkey = r.Str();
  p->generation = static_cast<int>(r.U32());
  p->holder = r.Id();
  return r.ok() ? p : nullptr;
}

bool EncodeMwQueryIndex(const CqPayload& payload, wire::Writer& w) {
  const auto& p = static_cast<const MwQueryIndexPayload&>(payload);
  if (p.query == nullptr) return false;
  WriteMwQuery(w, *p.query);
  w.Str(p.level1);
  return true;
}

std::shared_ptr<const CqPayload> DecodeMwQueryIndex(
    CqMsgType, wire::Reader& r, const rel::Catalog& catalog) {
  auto p = std::make_shared<MwQueryIndexPayload>();
  p->query = ReadMwQuery(r, catalog);
  if (p->query == nullptr) return nullptr;
  p->level1 = r.Str();
  return r.ok() ? p : nullptr;
}

bool EncodeMwJoin(const CqPayload& payload, wire::Writer& w) {
  const auto& p = static_cast<const MwJoinPayload&>(payload);
  w.Str(p.level1);
  w.Str(p.value_key);
  w.U32(static_cast<uint32_t>(p.entries.size()));
  for (const MwPartial& e : p.entries) {
    if (e.query == nullptr) return false;
    WriteMwQuery(w, *e.query);
    w.U32(e.bound_mask);
    WriteRow(w, e.row);
    w.U32(static_cast<uint32_t>(e.pending.size()));
    for (const auto& [cond, value] : e.pending) {
      w.I64(cond);
      WriteValue(w, value);
    }
    w.I64(e.target_condition);
    w.U64(e.min_pub);
    w.U64(e.max_pub);
    w.U64(e.last_seq);
    w.Str(e.partial_key);
  }
  return true;
}

std::shared_ptr<const CqPayload> DecodeMwJoin(CqMsgType, wire::Reader& r,
                                              const rel::Catalog& catalog) {
  auto p = std::make_shared<MwJoinPayload>();
  p->level1 = r.Str();
  p->value_key = r.Str();
  uint32_t n = r.U32();
  if (!PlausibleCount(r, n)) return nullptr;
  p->entries.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    MwPartial e;
    e.query = ReadMwQuery(r, catalog);
    if (e.query == nullptr) return nullptr;
    e.bound_mask = r.U32();
    if (!ReadRow(r, &e.row)) return nullptr;
    uint32_t npending = r.U32();
    if (!PlausibleCount(r, npending)) return nullptr;
    for (uint32_t j = 0; j < npending; ++j) {
      int cond = static_cast<int>(r.I64());
      e.pending.emplace(cond, ReadValue(r));
    }
    e.target_condition = static_cast<int>(r.I64());
    e.min_pub = r.U64();
    e.max_pub = r.U64();
    e.last_seq = r.U64();
    e.partial_key = r.Str();
    p->entries.push_back(std::move(e));
  }
  return r.ok() ? p : nullptr;
}

bool EncodeOtjScan(const CqPayload& payload, wire::Writer& w) {
  const auto& p = static_cast<const OtjScanPayload&>(payload);
  if (p.query == nullptr) return false;
  WriteQuery(w, *p.query);
  w.U64(p.otj_id);
  w.Id(p.issuer);
  return true;
}

std::shared_ptr<const CqPayload> DecodeOtjScan(CqMsgType, wire::Reader& r,
                                               const rel::Catalog& catalog) {
  auto p = std::make_shared<OtjScanPayload>();
  p->query = ReadQuery(r, catalog);
  if (p->query == nullptr) return nullptr;
  p->otj_id = r.U64();
  p->issuer = r.Id();
  return r.ok() ? p : nullptr;
}

bool EncodeOtjRehash(const CqPayload& payload, wire::Writer& w) {
  const auto& p = static_cast<const OtjRehashPayload&>(payload);
  if (p.query == nullptr) return false;
  WriteQuery(w, *p.query);
  w.U64(p.otj_id);
  w.Id(p.issuer);
  w.Str(p.value_key);
  w.U32(static_cast<uint32_t>(p.entries.size()));
  for (const OtjTuple& e : p.entries) {
    w.U8(static_cast<uint8_t>(e.side));
    WriteRow(w, e.row);
    w.U64(e.pub_time);
    w.U64(e.seq);
  }
  return true;
}

std::shared_ptr<const CqPayload> DecodeOtjRehash(
    CqMsgType, wire::Reader& r, const rel::Catalog& catalog) {
  auto p = std::make_shared<OtjRehashPayload>();
  p->query = ReadQuery(r, catalog);
  if (p->query == nullptr) return nullptr;
  p->otj_id = r.U64();
  p->issuer = r.Id();
  p->value_key = r.Str();
  uint32_t n = r.U32();
  if (!PlausibleCount(r, n)) return nullptr;
  p->entries.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    OtjTuple e;
    e.side = r.U8();
    if (!ReadRow(r, &e.row)) return nullptr;
    e.pub_time = r.U64();
    e.seq = r.U64();
    p->entries.push_back(std::move(e));
  }
  return r.ok() ? p : nullptr;
}

bool EncodeOtjResult(const CqPayload& payload, wire::Writer& w) {
  const auto& p = static_cast<const OtjResultPayload&>(payload);
  w.U64(p.otj_id);
  w.U32(static_cast<uint32_t>(p.rows.size()));
  for (const Notification& n : p.rows) WriteNotification(w, n);
  return true;
}

std::shared_ptr<const CqPayload> DecodeOtjResult(CqMsgType, wire::Reader& r,
                                                 const rel::Catalog&) {
  auto p = std::make_shared<OtjResultPayload>();
  p->otj_id = r.U64();
  const uint32_t n = r.U32();
  if (!PlausibleCount(r, n)) return nullptr;
  p->rows.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!ReadNotification(r, &p->rows[i])) return nullptr;
  }
  return r.ok() ? p : nullptr;
}

bool EncodeDeliveryAck(const CqPayload& payload, wire::Writer& w) {
  const auto& p = static_cast<const DeliveryAckPayload&>(payload);
  w.U64(p.msg_id);
  return true;
}

std::shared_ptr<const CqPayload> DecodeDeliveryAck(CqMsgType,
                                                   wire::Reader& r,
                                                   const rel::Catalog&) {
  auto p = std::make_shared<DeliveryAckPayload>();
  p->msg_id = r.U64();
  return r.ok() ? p : nullptr;
}

bool EncodeAdaptReplicate(const CqPayload& payload, wire::Writer& w) {
  const auto& p = static_cast<const AdaptReplicatePayload&>(payload);
  w.Str(p.level1);
  w.U32(static_cast<uint32_t>(p.replicas));
  w.U64(p.version);
  return true;
}

std::shared_ptr<const CqPayload> DecodeAdaptReplicate(CqMsgType,
                                                      wire::Reader& r,
                                                      const rel::Catalog&) {
  auto p = std::make_shared<AdaptReplicatePayload>();
  p->level1 = r.Str();
  p->replicas = static_cast<int>(r.U32());
  p->version = r.U64();
  return r.ok() ? p : nullptr;
}

bool EncodeAdaptSplit(const CqPayload& payload, wire::Writer& w) {
  const auto& p = static_cast<const AdaptSplitPayload&>(payload);
  w.Str(p.level1);
  w.Str(p.value);
  w.U32(static_cast<uint32_t>(p.split));
  w.U64(p.version);
  return true;
}

std::shared_ptr<const CqPayload> DecodeAdaptSplit(CqMsgType, wire::Reader& r,
                                                  const rel::Catalog&) {
  auto p = std::make_shared<AdaptSplitPayload>();
  p->level1 = r.Str();
  p->value = r.Str();
  p->split = static_cast<int>(r.U32());
  p->version = r.U64();
  return r.ok() ? p : nullptr;
}

PayloadCodec BuildDefaultCodec() {
  PayloadCodec table;
  bool ok = true;
  ok &= table.RegisterCodec(CqMsgType::kQueryIndex, EncodeQueryIndex,
                            DecodeQueryIndex);
  ok &= table.RegisterCodec(CqMsgType::kTupleAl, EncodeTupleIndex,
                            DecodeTupleIndex);
  ok &= table.RegisterCodec(CqMsgType::kTupleVl, EncodeTupleIndex,
                            DecodeTupleIndex);
  ok &= table.RegisterCodec(CqMsgType::kJoin, EncodeJoin, DecodeJoin);
  ok &= table.RegisterCodec(CqMsgType::kDaivJoin, EncodeDaivJoin,
                            DecodeDaivJoin);
  ok &= table.RegisterCodec(CqMsgType::kNotification, EncodeNotification,
                            DecodeNotification);
  ok &= table.RegisterCodec(CqMsgType::kUnsubscribe, EncodeUnsubscribe,
                            DecodeUnsubscribe);
  ok &= table.RegisterCodec(CqMsgType::kIpUpdate, EncodeIpUpdate,
                            DecodeIpUpdate);
  ok &= table.RegisterCodec(CqMsgType::kJfrtAck, EncodeJfrtAck,
                            DecodeJfrtAck);
  ok &= table.RegisterCodec(CqMsgType::kMigrateCmd, EncodeMigrateCmd,
                            DecodeMigrateCmd);
  ok &= table.RegisterCodec(CqMsgType::kMigrateBucket, EncodeMigrateBucket,
                            DecodeMigrateBucket);
  ok &= table.RegisterCodec(CqMsgType::kMovedPointer, EncodeMovedPointer,
                            DecodeMovedPointer);
  ok &= table.RegisterCodec(CqMsgType::kMwQueryIndex, EncodeMwQueryIndex,
                            DecodeMwQueryIndex);
  ok &= table.RegisterCodec(CqMsgType::kMwJoin, EncodeMwJoin, DecodeMwJoin);
  ok &= table.RegisterCodec(CqMsgType::kOtjScan, EncodeOtjScan,
                            DecodeOtjScan);
  ok &= table.RegisterCodec(CqMsgType::kOtjRehash, EncodeOtjRehash,
                            DecodeOtjRehash);
  ok &= table.RegisterCodec(CqMsgType::kOtjResult, EncodeOtjResult,
                            DecodeOtjResult);
  ok &= table.RegisterCodec(CqMsgType::kNotificationDigest,
                            EncodeNotificationDigest,
                            DecodeNotificationDigest);
  ok &= table.RegisterCodec(CqMsgType::kDeliveryAck, EncodeDeliveryAck,
                            DecodeDeliveryAck);
  ok &= table.RegisterCodec(CqMsgType::kAdaptReplicate, EncodeAdaptReplicate,
                            DecodeAdaptReplicate);
  ok &= table.RegisterCodec(CqMsgType::kAdaptSplit, EncodeAdaptSplit,
                            DecodeAdaptSplit);
  CJ_CHECK(ok) << "duplicate codec registration";
  for (size_t i = 0; i < kCqMsgTypeCount; ++i) {
    CJ_CHECK(table.HasCodec(static_cast<CqMsgType>(i)))
        << "no codec for CqMsgType " << i;
  }
  return table;
}

constexpr uint8_t kFrameVersion = 1;

}  // namespace

// --- Registry -------------------------------------------------------------------

const PayloadCodec& PayloadCodec::Default() {
  static const PayloadCodec table = BuildDefaultCodec();
  return table;
}

bool PayloadCodec::RegisterCodec(CqMsgType type, EncodeFn encode,
                                 DecodeFn decode) {
  size_t i = static_cast<size_t>(type);
  if (i >= kCqMsgTypeCount) return false;
  if (entries_[i].encode != nullptr || entries_[i].decode != nullptr) {
    return false;
  }
  if (encode == nullptr || decode == nullptr) return false;
  entries_[i] = {encode, decode};
  return true;
}

bool PayloadCodec::HasCodec(CqMsgType type) const {
  size_t i = static_cast<size_t>(type);
  return i < kCqMsgTypeCount && entries_[i].encode != nullptr;
}

// contjoin-check: hot
bool PayloadCodec::Encode(const CqPayload& payload, wire::Writer& w) const {
  size_t i = static_cast<size_t>(payload.type);
  if (i >= kCqMsgTypeCount || entries_[i].encode == nullptr) return false;
  if (w.counting()) {
    uint32_t memo = payload.encoded_size_.load(std::memory_order_relaxed);
    if (memo != 0) {
      w.Skip(memo);
      return true;
    }
  }
  size_t mark = w.size();
  w.U8(static_cast<uint8_t>(payload.type));
  if (!entries_[i].encode(payload, w)) {
    // Roll back the tag and any fields written before the fault was found,
    // so a failed encode leaves the buffer (or the count) untouched.
    w.Truncate(mark);
    return false;
  }
  size_t size = w.size() - mark;
  if (w.counting() && size <= std::numeric_limits<uint32_t>::max()) {
    payload.encoded_size_.store(static_cast<uint32_t>(size),
                                std::memory_order_relaxed);
  }
  return true;
}

std::shared_ptr<const CqPayload> PayloadCodec::Decode(
    wire::Reader& r, const rel::Catalog& catalog) const {
  uint8_t tag = r.U8();
  if (!r.ok() || tag >= kCqMsgTypeCount) return nullptr;
  CqMsgType type = static_cast<CqMsgType>(tag);
  return entries_[tag].decode(type, r, catalog);
}

// --- Message & frame codecs -----------------------------------------------------

// contjoin-check: hot
bool EncodeAppMessage(const chord::AppMessage& msg, wire::Writer& w) {
  size_t mark = w.size();
  w.Id(msg.target);
  w.U8(static_cast<uint8_t>(msg.cls));
  w.U8(static_cast<uint8_t>(msg.kind));
  w.U64(msg.reliable_id);
  w.Id(msg.reliable_origin);
  bool ok = false;
  switch (msg.kind) {
    case chord::MsgKind::kApp: {
      const auto* p = dynamic_cast<const CqPayload*>(msg.payload.get());
      ok = p != nullptr && PayloadCodec::Default().Encode(*p, w);
      break;
    }
    case chord::MsgKind::kDhtStore: {
      const auto* p =
          dynamic_cast<const chord::DhtStorePayload*>(msg.payload.get());
      const auto* item =
          p != nullptr ? dynamic_cast<const CqPayload*>(p->item.get())
                       : nullptr;
      if (item != nullptr) {
        w.Id(p->key);
        ok = PayloadCodec::Default().Encode(*item, w);
      }
      break;
    }
  }
  if (!ok) w.Truncate(mark);
  return ok;
}

bool DecodeAppMessage(wire::Reader& r, const rel::Catalog& catalog,
                      chord::AppMessage* out) {
  out->target = r.Id();
  out->cls = static_cast<sim::MsgClass>(r.U8());
  out->kind = static_cast<chord::MsgKind>(r.U8());
  out->reliable_id = r.U64();
  out->reliable_origin = r.Id();
  if (!r.ok() ||
      static_cast<int>(out->cls) >=
          static_cast<int>(sim::MsgClass::kClassCount)) {
    return false;
  }
  switch (out->kind) {
    case chord::MsgKind::kApp: {
      out->payload = PayloadCodec::Default().Decode(r, catalog);
      return out->payload != nullptr && r.ok();
    }
    case chord::MsgKind::kDhtStore: {
      auto store = std::make_shared<chord::DhtStorePayload>();
      store->key = r.Id();
      store->item = PayloadCodec::Default().Decode(r, catalog);
      if (store->item == nullptr || !r.ok()) return false;
      out->payload = std::move(store);
      return true;
    }
  }
  return false;
}

namespace {

/// The one hop-frame layout, shared by the encoder and the sizer. False on
/// a malformed message (the writer is then left partly written).
// contjoin-check: hot
bool WriteHopFrame(const chord::HopFrame& frame, wire::Writer& w) {
  w.U8(kFrameVersion);
  w.U8(static_cast<uint8_t>(frame.kind));
  w.U8(static_cast<uint8_t>(frame.cls));
  w.U32(static_cast<uint32_t>(frame.ttl));
  if (frame.kind == chord::HopFrame::Kind::kBroadcast) {
    const auto* p =
        dynamic_cast<const CqPayload*>(frame.broadcast_payload.get());
    if (p == nullptr || !PayloadCodec::Default().Encode(*p, w)) return false;
    w.Id(frame.broadcast_limit);
    return true;
  }
  w.U32(static_cast<uint32_t>(frame.msgs.size()));
  for (const chord::AppMessage& msg : frame.msgs) {
    if (!EncodeAppMessage(msg, w)) return false;
  }
  return true;
}

}  // namespace

// contjoin-check: hot
std::vector<uint8_t> EncodeHopFrame(const chord::HopFrame& frame) {
  wire::Writer w;
  if (!WriteHopFrame(frame, w)) return {};
  return w.Take();
}

// contjoin-check: hot
bool DecodeHopFrame(const uint8_t* data, size_t size,
                    const rel::Catalog& catalog, chord::HopFrame* out) {
  wire::Reader r(data, size);
  if (r.U8() != kFrameVersion) return false;
  uint8_t kind = r.U8();
  if (kind > static_cast<uint8_t>(chord::HopFrame::Kind::kBroadcast)) {
    return false;
  }
  out->kind = static_cast<chord::HopFrame::Kind>(kind);
  uint8_t cls = r.U8();
  if (cls >= static_cast<uint8_t>(sim::MsgClass::kClassCount)) return false;
  out->cls = static_cast<sim::MsgClass>(cls);
  out->ttl = static_cast<int>(r.U32());
  if (out->kind == chord::HopFrame::Kind::kBroadcast) {
    out->broadcast_payload = PayloadCodec::Default().Decode(r, catalog);
    if (out->broadcast_payload == nullptr) return false;
    out->broadcast_limit = r.Id();
  } else {
    uint32_t n = r.U32();
    if (!r.ok() || n > r.remaining()) return false;
    out->msgs.clear();
    out->msgs.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      chord::AppMessage msg;
      if (!DecodeAppMessage(r, catalog, &msg)) return false;
      out->msgs.push_back(std::move(msg));
    }
  }
  return r.AtEnd();
}

// contjoin-check: hot
size_t EncodedFrameSize(const chord::HopFrame& frame) {
  wire::Writer w = wire::Writer::Counting();
  return WriteHopFrame(frame, w) ? w.size() : 0;
}

}  // namespace contjoin::core
