// The subscriber role (paper §4.6): notification creation and delivery —
// direct by learned IP, or routed to Successor(Id(n)) and stored while the
// subscriber is off-line — plus the address-update machinery evaluators use
// to keep delivering after a subscriber reconnects from a new address.

#ifndef CONTJOIN_CORE_SUBSCRIBER_H_
#define CONTJOIN_CORE_SUBSCRIBER_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chord/types.h"
#include "core/context.h"
#include "core/messages.h"
#include "core/notification.h"

namespace contjoin::core::subscriber {

/// The state a node keeps to play the subscriber role (and to deliver to
/// other subscribers when acting as an evaluator).
struct State {
  /// Learned subscriber addresses (IP updates, §4.6).
  struct Addr {
    chord::Node* node;
    uint64_t ip;
  };
  std::unordered_map<std::string, Addr> subscriber_addr;

  std::vector<Notification> inbox;
  uint64_t next_query_serial = 0;

  // --- Serving extension (volatile evaluator-side state; a crash wipes it
  // like the index tables — buffered digests die with the process) --------

  /// Where one subscriber's digest goes: its identifier (the query's
  /// cached HashKey of the key) and the ip seen at emit time.
  struct DigestAddr {
    chord::NodeId id;
    uint64_t ip = 0;
  };
  /// Fan-out batching: notifications produced within the current epoch,
  /// buffered per subscriber key until the end-of-epoch flush. Ordered
  /// map: the flush iterates it, and iteration order is part of the
  /// determinism contract.
  std::map<std::string, std::pair<DigestAddr, std::vector<Notification>>>
      digest_buffer;
  bool digest_flush_scheduled = false;

  /// Backpressure: notification deliveries currently occupying one of this
  /// node's in-flight slots.
  uint64_t inflight = 0;
};

/// Builds the notification of the pair (`trigger` on side `trigger_side`
/// of `q`, `matched` on the other side) and delivers it (§4.6). Its row is
/// written once, straight from the two tuples.
void EmitNotification(ProtocolContext& ctx, chord::Node& evaluator,
                      const query::ContinuousQuery& q, int trigger_side,
                      const rel::Tuple& trigger, const rel::Tuple& matched);
void EmitMwNotification(ProtocolContext& ctx, chord::Node& evaluator,
                        const query::MwQuery& q, const RowTemplate& row,
                        rel::Timestamp earlier, rel::Timestamp later);

/// Delivery policy: local inbox, direct by IP (one hop), or routed to
/// Successor(Id(n)) where it is delivered or stored (§4.6).
/// `subscriber_id` is HashKey(subscriber_key), as cached on the query.
void DeliverNotification(ProtocolContext& ctx, chord::Node& evaluator,
                         const std::string& subscriber_key,
                         const chord::NodeId& subscriber_id,
                         uint64_t subscriber_ip, Notification n);

/// Chord key transfer handed stored items to `node`: notifications
/// addressed to it go to the inbox, everything else back to the store.
void AbsorbStoredItems(ProtocolContext& ctx, chord::Node& node,
                       const chord::NodeId& key,
                       std::vector<chord::PayloadPtr> items);

// Message handlers (wired up by the dispatch registry).
void HandleNotification(ProtocolContext& ctx, chord::Node& node,
                        const chord::AppMessage& msg);
void HandleNotificationDigest(ProtocolContext& ctx, chord::Node& node,
                              const chord::AppMessage& msg);
void HandleIpUpdate(ProtocolContext& ctx, chord::Node& node,
                    const chord::AppMessage& msg);

}  // namespace contjoin::core::subscriber

#endif  // CONTJOIN_CORE_SUBSCRIBER_H_
