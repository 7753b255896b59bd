// Application-level message payloads exchanged by the continuous-query
// protocols, plus the key-derivation helpers that implement the paper's
// two-level indexing identifiers.

#ifndef CONTJOIN_CORE_MESSAGES_H_
#define CONTJOIN_CORE_MESSAGES_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chord/types.h"
#include "core/notification.h"
#include "query/mw_query.h"
#include "query/query.h"
#include "relational/tuple.h"

namespace contjoin::core {

/// A partially bound select-list row: positions of the already-triggered
/// side are concrete; the remaining side's positions are empty until an
/// evaluator joins them with a matching tuple.
using RowTemplate = std::vector<std::optional<rel::Value>>;

// --- Identifier derivation (paper §4.2/§4.3) ---------------------------------

/// Level-1 key "R+A" (attribute level).
std::string AttrKey(const std::string& relation, const std::string& attr);

/// Attribute-level identifier, with optional load-balancing replicas
/// (§4.7): replica 0 hashes the plain "R+A" key, replica j > 0 hashes
/// "R+A#r<j>".
chord::NodeId AttrIndexId(const std::string& relation, const std::string& attr,
                          int replica);

/// AttrIndexId from an already-built attribute key (repair sweeps re-derive
/// a bucket's home identifier from its stored "R+A" key).
chord::NodeId AttrIndexIdOfKey(const std::string& attr_key, int replica);

/// Value-level key "R+A+v" and its identifier.
std::string ValueKeyOf(const std::string& relation, const std::string& attr,
                       const std::string& value_key);
/// ValueIndexId from an already-built attribute key.
chord::NodeId ValueIndexIdOfKey(const std::string& attr_key,
                                const std::string& value_key);
chord::NodeId ValueIndexId(const std::string& relation,
                           const std::string& attr,
                           const std::string& value_key);

/// DAI-V evaluator identifier: Hash(value) alone, or Hash(Key(q)+value) for
/// the key-prefixed variant (§4.5).
chord::NodeId DaivIndexId(const std::string& value_key);
chord::NodeId DaivPrefixedIndexId(const std::string& query_key,
                                  const std::string& value_key);

// --- Payloads ------------------------------------------------------------------

enum class CqMsgType : unsigned char {
  kQueryIndex,    // query(q): index a query at the attribute level.
  kTupleAl,       // al-index(t, A).
  kTupleVl,       // vl-index(t, A).
  kJoin,          // join(q'): rewritten queries for a T1-algorithm evaluator.
  kDaivJoin,      // join(q', t'): DAI-V rewritten query + projected tuple.
  kNotification,  // Routed notification (off-line / moved subscriber).
  kUnsubscribe,   // Query removal (extension beyond the paper).
  kIpUpdate,      // Subscriber address update (§4.6).
  kJfrtAck,       // Evaluator tells a rewriter its address (JFRT fill).
  kMigrateCmd,    // "Move this attribute-level identifier" (§4.7).
  kMwQueryIndex,  // Multi-way query indexing (future-work extension).
  kMwJoin,        // Multi-way partial binding reindexed at the value level.
  kOtjScan,    // One-time join: broadcast scan request (PIER baseline).
  kOtjRehash,  // One-time join: tuples rehashed by join value.
  kDeliveryAck,  // Reliable-delivery ack for a message id (back to origin).
  kNotificationDigest,  // Coalesced per-(destination, epoch) notifications.
  kAdaptReplicate,  // Adapt directive: attr key's effective replica count.
  kAdaptSplit,      // Adapt directive: value key's virtual split factor.
  kOtjResult,       // One-time join: result rows streamed to the issuer.
  kMigrateBucket,   // §4.7: a moved key's bucket, to its new holder.
  kMovedPointer,    // §4.7: a moved key's base learns the new holder.
};

/// Number of message types (size of dispatch / per-type counter tables).
inline constexpr size_t kCqMsgTypeCount =
    static_cast<size_t>(CqMsgType::kMovedPointer) + 1;

class PayloadCodec;

/// Base payload carrying the dispatch tag.
struct CqPayload : chord::Payload {
  explicit CqPayload(CqMsgType t) : type(t) {}
  /// A copy starts unsized: it is usually edited before it is sent.
  CqPayload(const CqPayload& other) : chord::Payload(other), type(other.type) {}
  CqMsgType type;

 private:
  friend class PayloadCodec;
  /// Encoded size (type tag + body), filled by the first counting encode
  /// (0 = not yet sized). Sent payloads are immutable, so the size holds on
  /// every later hop, retry and broadcast branch. Relaxed: every thread that
  /// sizes the payload computes the same value.
  mutable std::atomic<uint32_t> encoded_size_{0};
};

struct QueryIndexPayload : CqPayload {
  QueryIndexPayload() : CqPayload(CqMsgType::kQueryIndex) {}
  query::QueryPtr query;
  int index_side = 0;    // Side whose attribute indexes the query here.
  std::string level1;    // "R+A" of the index attribute.
  int replica = 0;       // Attribute-level replica this copy targets.
};

struct TupleIndexPayload : CqPayload {
  explicit TupleIndexPayload(bool value_level)
      : CqPayload(value_level ? CqMsgType::kTupleVl : CqMsgType::kTupleAl) {}
  rel::TuplePtr tuple;
  size_t attr_index = 0;  // IndexA(t): which attribute indexed it here.
  std::string level1;     // "R+A".
  std::string value_key;  // Canonical value (vl-index only).
  int replica = 0;        // Attribute-level replica (al-index only).
};

/// One rewritten query q' (paper §4.3.2): the original query reduced to a
/// select-project query by substituting the trigger tuple's values.
struct RewrittenEntry {
  query::QueryPtr query;
  int remaining_side = 0;        // DisR side, still to be matched.
  std::string rewritten_key;     // Key(q') = Key(q)+v1+...+vl+valDA (§4.3.3).
  rel::Value required_value;     // valDA.
  RowTemplate row;               // Trigger side's select values bound.
  rel::Timestamp trigger_pub = 0;
  uint64_t trigger_seq = 0;
};

struct JoinPayload : CqPayload {
  JoinPayload() : CqPayload(CqMsgType::kJoin) {}
  std::string level1;     // "DisR+DisA".
  std::string value_key;  // valDA canonical string (or a virtual sub-key).
  std::vector<RewrittenEntry> entries;  // Grouped rewritten queries (§4.3.5).
  chord::NodeId rewriter;               // For JFRT acks (zero = none).
  chord::NodeId vindex;                 // Target identifier (ack bookkeeping).
  bool want_ack = false;
  /// Split factor the sender fanned this batch across (adaptive load
  /// manager); a receiver with a newer directive tops up the shards the
  /// sender missed. 1 = the unsplit base scheme, 0 = a re-placement
  /// replay that must be processed where it lands.
  int known_split = 1;
  /// Version of the split directive `known_split` reflects (0 = none):
  /// the batch doubles as a directive carrier, so version comparison
  /// decides deterministically whether the sender or the receiver holds
  /// the fresher view of the family.
  uint64_t split_version = 0;
};

/// DAI-V rewritten query + projected trigger tuple (§4.5).
struct DaivEntry {
  query::QueryPtr query;
  int trigger_side = 0;
  RowTemplate row;        // Trigger side's select values bound.
  rel::Timestamp trigger_pub = 0;
  uint64_t trigger_seq = 0;
};

struct DaivJoinPayload : CqPayload {
  DaivJoinPayload() : CqPayload(CqMsgType::kDaivJoin) {}
  std::string value_key;  // valJC canonical string (level-1 in the store).
  std::vector<DaivEntry> entries;
  chord::NodeId rewriter;  // Zero = none.
  chord::NodeId vindex;
  bool want_ack = false;
  /// Split factor the sender fanned against (see JoinPayload).
  int known_split = 1;
  /// Version of the split directive `known_split` reflects (see
  /// JoinPayload).
  uint64_t split_version = 0;
};

struct NotificationPayload : CqPayload {
  NotificationPayload() : CqPayload(CqMsgType::kNotification) {}
  Notification notification;
  std::string subscriber_key;
  chord::NodeId evaluator;  // So the subscriber can send IP updates (0=none).
};

struct UnsubscribePayload : CqPayload {
  UnsubscribePayload() : CqPayload(CqMsgType::kUnsubscribe) {}
  std::string query_key;
  bool at_evaluator = false;  // false: rewriter stage; true: evaluator stage.
  std::string level1;         // Rewriter stage: "R+A" (migration routing).
  int replica = 0;
};

/// Command triggering the §4.7 "moving an identifier" load-balancing action
/// for one attribute-level key. Delivered to the key's base node, which
/// forwards it to the current holder if the identifier has already moved.
struct MigrateCmdPayload : CqPayload {
  MigrateCmdPayload() : CqPayload(CqMsgType::kMigrateCmd) {}
  std::string level1;
  int replica = 0;
  chord::NodeId base;  // Filled in at the base node (zero until then).
};

/// A query stored at a rewriter, together with the side it is indexed by.
struct AlqtEntry {
  query::QueryPtr query;
  int index_side = 0;
};

/// §4.7 bucket transfer: the attribute-level role of one "R+A#<replica>"
/// key — its stored queries and arrival statistics — handed from the old
/// holder to the successor of the key's next-generation identifier.
struct MigrateBucketPayload : CqPayload {
  MigrateBucketPayload() : CqPayload(CqMsgType::kMigrateBucket) {}
  std::string mkey;
  int generation = 0;  // Generation the receiver now holds.
  std::vector<AlqtEntry> queries;  // In table order.
  // The key's arrival statistics (AttrArrivalStats fields).
  uint64_t tuples_seen = 0;
  std::map<std::string, uint64_t> value_counts;
  uint64_t overflow_values = 0;
};

/// §4.7: points a moved key's base node at the node now holding the role,
/// so the base can forward attribute-level traffic in one hop.
struct MovedPointerPayload : CqPayload {
  MovedPointerPayload() : CqPayload(CqMsgType::kMovedPointer) {}
  std::string mkey;
  int generation = 0;
  chord::NodeId holder;
};

struct IpUpdatePayload : CqPayload {
  IpUpdatePayload() : CqPayload(CqMsgType::kIpUpdate) {}
  std::string subscriber_key;
  chord::NodeId node;
  uint64_t ip = 0;
};

struct JfrtAckPayload : CqPayload {
  JfrtAckPayload() : CqPayload(CqMsgType::kJfrtAck) {}
  chord::NodeId vindex;
  chord::NodeId evaluator;
};

// --- Multi-way joins (future-work extension; recursive SAI) --------------------

/// A partially bound m-way query: some relations are bound (their select
/// values filled into `row`, their outgoing join values recorded in
/// `pending`), and the partial is chasing `target_condition` toward the
/// next unbound relation of the join tree.
struct MwPartial {
  query::MwQueryPtr query;
  uint32_t bound_mask = 0;
  RowTemplate row;
  /// condition index -> required value of its (still unbound) other side.
  std::map<int, rel::Value> pending;
  int target_condition = -1;
  rel::Timestamp min_pub = 0;  // Publication span of the bound tuples
  rel::Timestamp max_pub = 0;  // (sliding-window checks).
  uint64_t last_seq = 0;
  std::string partial_key;  // Content identity (dedup at evaluators).
};

struct MwQueryIndexPayload : CqPayload {
  MwQueryIndexPayload() : CqPayload(CqMsgType::kMwQueryIndex) {}
  query::MwQueryPtr query;
  std::string level1;  // "R+A" of the root relation's index attribute.
};

struct MwJoinPayload : CqPayload {
  MwJoinPayload() : CqPayload(CqMsgType::kMwJoin) {}
  std::string level1;     // "Rj+B" of the chased condition's unbound side.
  std::string value_key;  // Required value, canonical form.
  std::vector<MwPartial> entries;
};

// --- One-time joins (PIER-style baseline) ----------------------------------------
//
// The paper contrasts its continuous algorithms with PIER, which evaluates
// one-time equi-joins over a DHT with a symmetric hash join: the query is
// disseminated to all nodes, every node rehashes its locally stored base
// tuples by the join value into a temporary namespace, and the nodes
// owning the temporary keys perform the join and stream results to the
// issuer. This baseline reproduces that architecture on our substrate.

/// Broadcast scan request: evaluate `query` over the snapshot of stored
/// tuples.
struct OtjScanPayload : CqPayload {
  OtjScanPayload() : CqPayload(CqMsgType::kOtjScan) {}
  query::QueryPtr query;
  uint64_t otj_id = 0;
  chord::NodeId issuer;
};

/// One side's projected tuple, rehashed by its join value.
struct OtjTuple {
  int side = 0;
  RowTemplate row;
  rel::Timestamp pub_time = 0;
  uint64_t seq = 0;
};

struct OtjRehashPayload : CqPayload {
  OtjRehashPayload() : CqPayload(CqMsgType::kOtjRehash) {}
  query::QueryPtr query;
  uint64_t otj_id = 0;
  chord::NodeId issuer;
  std::string value_key;  // Join value, canonical form.
  std::vector<OtjTuple> entries;
};

/// Result rows a temporary-key owner produced for execution `otj_id`,
/// streamed in one hop straight back to the issuer.
struct OtjResultPayload : CqPayload {
  OtjResultPayload() : CqPayload(CqMsgType::kOtjResult) {}
  uint64_t otj_id = 0;
  std::vector<Notification> rows;
};

/// Confirms delivery of the reliable message `msg_id` to its origin, which
/// then stops retrying it. Acks themselves are best-effort: a lost ack only
/// costs a redundant retry, which the receiver's dedup absorbs.
struct DeliveryAckPayload : CqPayload {
  DeliveryAckPayload() : CqPayload(CqMsgType::kDeliveryAck) {}
  uint64_t msg_id = 0;
};

/// Fan-out batching (serving extension): all notifications an evaluator
/// produced for one subscriber within one virtual-time epoch, coalesced
/// into a single digest message. Content-lossless: the receiver unpacks
/// the digest into the exact notification set the unbatched path delivers.
struct NotificationDigestPayload : CqPayload {
  NotificationDigestPayload() : CqPayload(CqMsgType::kNotificationDigest) {}
  std::vector<Notification> notifications;
  std::string subscriber_key;
  chord::NodeId evaluator;  // So the subscriber can send IP updates (0=none).
};

// --- Adaptive load manager (runtime hot-key directives) -------------------------
//
// Each directive is broadcast best-effort to refresh every node's routing
// directory, and — where a stale holder would strand state — additionally
// routed reliably to the bucket owners that must act on it. Per-key
// versions make application idempotent under retries and reorderings.

/// Directive: attribute-level key `level1` now runs `replicas` rewriter
/// replicas. Escalations ship the replica-0 query bucket to the new
/// replicas via ordinary (armed) kQueryIndex messages.
struct AdaptReplicatePayload : CqPayload {
  AdaptReplicatePayload() : CqPayload(CqMsgType::kAdaptReplicate) {}
  std::string level1;  // "R+A".
  int replicas = 1;
  uint64_t version = 0;
};

/// Directive: value family (`level1`, `value`) now splits across `split`
/// virtual sub-keys "value#s<j>". Routed copies reach every affected
/// sub-key owner so partitioned state is re-placed even if the broadcast
/// frame is lost.
struct AdaptSplitPayload : CqPayload {
  AdaptSplitPayload() : CqPayload(CqMsgType::kAdaptSplit) {}
  std::string level1;  // "DisR+DisA"; empty for DAI-V families.
  std::string value;   // Base value (no shard suffix).
  int split = 1;
  uint64_t version = 0;
};


}  // namespace contjoin::core

#endif  // CONTJOIN_CORE_MESSAGES_H_
