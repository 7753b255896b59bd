// Per-node load metrics (one of the paper's stated contributions is the
// introduction of metrics capturing individual node load and total system
// load).
//
// Definitions used throughout the benchmarks:
//  * Filtering load TF(n): the number of filtering operations node n
//    performed — each incoming al-index / vl-index / join message counts 1,
//    plus 1 per candidate (query, rewritten query or tuple) examined while
//    matching. Split into the attribute-level and value-level shares so the
//    two-level comparisons of the paper can be reproduced.
//  * Storage load TS(n): the number of objects resident at n — queries in
//    the ALQT, rewritten queries in the VLQT, tuples in the VLTT, DAI-V
//    projections, and stored off-line notifications.
//
// Each counter struct lists its counters once, in a table of
// {name, member} rows (kNodeMetricsFields, kNodeStorageFields). Folding,
// differencing and reporting loop over that table, and a static_assert
// refuses a field added without a row. Adaptive-load-manager events are
// counted here only (NodeMetrics::adapt_*); sim::NetStats keeps traffic.

#ifndef CONTJOIN_CORE_METRICS_H_
#define CONTJOIN_CORE_METRICS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>

#include "core/messages.h"

namespace contjoin::core {

struct NodeMetrics {
  // --- Filtering load --------------------------------------------------------
  uint64_t filter_ops_attr = 0;   // At the attribute level (rewriter role).
  uint64_t filter_ops_value = 0;  // At the value level (evaluator role).

  // --- Message receipts -------------------------------------------------------
  uint64_t tuples_received_attr = 0;
  uint64_t tuples_received_value = 0;
  uint64_t joins_received = 0;
  uint64_t queries_received = 0;

  // --- Work results -------------------------------------------------------------
  uint64_t rewrites_sent = 0;          // Rewritten-query entries emitted.
  uint64_t rewrites_skipped_dup = 0;   // DAI-T dedup savings.
  uint64_t rewrites_skipped_nosol = 0; // Inversion had no representable sol.
  uint64_t notifications_created = 0;

  // --- Reliable delivery (extension) --------------------------------------------
  uint64_t reliable_sent = 0;       // Messages armed with a reliable id here.
  uint64_t reliable_retries = 0;    // Timeout-triggered resends.
  uint64_t reliable_acks_sent = 0;  // Delivery acks emitted by this node.
  uint64_t reliable_dups_suppressed = 0;  // Duplicate deliveries absorbed.
  uint64_t reliable_abandoned = 0;  // Gave up after max_retries.

  // --- Adaptive load manager (extension) -----------------------------------------
  uint64_t adapt_directives = 0;  // Replicate/split directives issued here.
  uint64_t adapt_redirects = 0;   // Dead-key arrivals re-dispatched.
  uint64_t adapt_reships = 0;     // Bucket re-placements / top-up copies sent.

  // --- Dispatch-level receipts -------------------------------------------------
  /// Messages dispatched here, by CqMsgType index.
  std::array<uint64_t, kCqMsgTypeCount> received_by_type{};
  /// Messages whose type had no registered handler.
  uint64_t msgs_unhandled = 0;

  uint64_t TotalFilterOps() const { return filter_ops_attr + filter_ops_value; }

  /// Folds another node's counters in (system-wide aggregation).
  void Accumulate(const NodeMetrics& m);
  /// Counter-by-counter difference (*this - earlier); isolates a phase.
  NodeMetrics Since(const NodeMetrics& earlier) const;
  void Reset() { *this = NodeMetrics(); }
  /// One "name=value" line per counter, in table order.
  std::string Report() const;
  bool operator==(const NodeMetrics&) const = default;

 private:
  /// Calls op(counter of *this, same counter of `m`) for every counter.
  template <typename Op>
  void Zip(const NodeMetrics& m, Op op);
};

/// Storage snapshot of one node (computed from its tables on demand).
struct NodeStorage {
  uint64_t alqt_queries = 0;
  uint64_t vlqt_rewritten = 0;
  uint64_t vltt_tuples = 0;
  uint64_t daiv_entries = 0;
  uint64_t stored_notifications = 0;
  uint64_t mw_queries = 0;   // Multi-way queries at rewriters (extension).
  uint64_t mw_partials = 0;  // Multi-way partial bindings at evaluators.

  uint64_t Total() const;
  /// Folds another node's snapshot in (system-wide aggregation).
  void Accumulate(const NodeStorage& s);
  std::string Report() const;
};

/// One named counter of the counter struct S.
template <typename S>
struct CounterField {
  const char* name;
  uint64_t S::*member;
};

/// Every scalar counter of NodeMetrics. received_by_type, the one indexed
/// range, follows these rows in every loop.
inline constexpr CounterField<NodeMetrics> kNodeMetricsFields[] = {
    {"filter_ops_attr", &NodeMetrics::filter_ops_attr},
    {"filter_ops_value", &NodeMetrics::filter_ops_value},
    {"tuples_received_attr", &NodeMetrics::tuples_received_attr},
    {"tuples_received_value", &NodeMetrics::tuples_received_value},
    {"joins_received", &NodeMetrics::joins_received},
    {"queries_received", &NodeMetrics::queries_received},
    {"rewrites_sent", &NodeMetrics::rewrites_sent},
    {"rewrites_skipped_dup", &NodeMetrics::rewrites_skipped_dup},
    {"rewrites_skipped_nosol", &NodeMetrics::rewrites_skipped_nosol},
    {"notifications_created", &NodeMetrics::notifications_created},
    {"reliable_sent", &NodeMetrics::reliable_sent},
    {"reliable_retries", &NodeMetrics::reliable_retries},
    {"reliable_acks_sent", &NodeMetrics::reliable_acks_sent},
    {"reliable_dups_suppressed", &NodeMetrics::reliable_dups_suppressed},
    {"reliable_abandoned", &NodeMetrics::reliable_abandoned},
    {"adapt_directives", &NodeMetrics::adapt_directives},
    {"adapt_redirects", &NodeMetrics::adapt_redirects},
    {"adapt_reships", &NodeMetrics::adapt_reships},
    {"msgs_unhandled", &NodeMetrics::msgs_unhandled},
};
inline constexpr size_t kNodeMetricsSlots =
    std::size(kNodeMetricsFields) + kCqMsgTypeCount;
static_assert(sizeof(NodeMetrics) == 8 * kNodeMetricsSlots,
              "every NodeMetrics counter needs a row in kNodeMetricsFields");

inline constexpr CounterField<NodeStorage> kNodeStorageFields[] = {
    {"alqt_queries", &NodeStorage::alqt_queries},
    {"vlqt_rewritten", &NodeStorage::vlqt_rewritten},
    {"vltt_tuples", &NodeStorage::vltt_tuples},
    {"daiv_entries", &NodeStorage::daiv_entries},
    {"stored_notifications", &NodeStorage::stored_notifications},
    {"mw_queries", &NodeStorage::mw_queries},
    {"mw_partials", &NodeStorage::mw_partials},
};
static_assert(sizeof(NodeStorage) == 8 * std::size(kNodeStorageFields),
              "every NodeStorage counter needs a row in kNodeStorageFields");

template <typename Op>
void NodeMetrics::Zip(const NodeMetrics& m, Op op) {
  for (const auto& f : kNodeMetricsFields) op(this->*f.member, m.*f.member);
  for (size_t i = 0; i < kCqMsgTypeCount; ++i) {
    op(received_by_type[i], m.received_by_type[i]);
  }
}

inline void NodeMetrics::Accumulate(const NodeMetrics& m) {
  Zip(m, [](uint64_t& x, uint64_t y) { x += y; });
}

inline NodeMetrics NodeMetrics::Since(const NodeMetrics& earlier) const {
  NodeMetrics out = *this;
  out.Zip(earlier, [](uint64_t& x, uint64_t y) { x -= y; });
  return out;
}

inline std::string NodeMetrics::Report() const {
  std::string out;
  for (const auto& f : kNodeMetricsFields) {
    out += std::string(f.name) + "=" + std::to_string(this->*f.member) + "\n";
  }
  for (size_t i = 0; i < kCqMsgTypeCount; ++i) {
    const std::string name = "received_by_type[" + std::to_string(i) + "]";
    out += name + "=" + std::to_string(received_by_type[i]) + "\n";
  }
  return out;
}

inline uint64_t NodeStorage::Total() const {
  uint64_t total = 0;
  for (const auto& f : kNodeStorageFields) total += this->*f.member;
  return total;
}

inline void NodeStorage::Accumulate(const NodeStorage& s) {
  for (const auto& f : kNodeStorageFields) this->*f.member += s.*f.member;
}

inline std::string NodeStorage::Report() const {
  std::string out;
  for (const auto& f : kNodeStorageFields) {
    out += std::string(f.name) + "=" + std::to_string(this->*f.member) + "\n";
  }
  return out;
}

}  // namespace contjoin::core

#endif  // CONTJOIN_CORE_METRICS_H_
