// Reliable delivery for the critical protocol messages (extension beyond
// the paper: §3.2 "leaves all handling of failures to the underlying DHT",
// so a dropped query-index, vl-index, join(q') or notification is silently
// lost forever). This module adds a sender-side ack/timeout/retry loop with
// exponential backoff and receiver-side dedup on engine-unique message ids.
// It is a role module: engine state is reached only through the
// ProtocolContext seam. With ReliabilityOptions::enabled == false every
// entry point degrades to the historical best-effort send, bit-identically.

#ifndef CONTJOIN_CORE_RELIABILITY_H_
#define CONTJOIN_CORE_RELIABILITY_H_

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "chord/types.h"
#include "core/context.h"
#include "core/messages.h"

namespace contjoin::core {
namespace reliability {

/// A message awaiting its delivery ack at the origin. Destruction — ack,
/// abandonment, origin death, or the crash wipe of the whole table —
/// cancels the outstanding retry timer, so a confirmed message's
/// speculative backoff deadline never holds the virtual clock open during
/// a queue drain. Move-only: a copy would share the token and cancel the
/// live timer when the copy died.
struct PendingSend {
  PendingSend(chord::AppMessage m, int a, sim::CancelToken c)
      : msg(std::move(m)), attempts(a), cancel(std::move(c)) {}
  PendingSend(PendingSend&&) = default;
  PendingSend& operator=(PendingSend&&) = default;
  PendingSend(const PendingSend&) = delete;
  PendingSend& operator=(const PendingSend&) = delete;
  ~PendingSend() {
    if (cancel != nullptr) cancel->store(true, std::memory_order_release);
  }

  chord::AppMessage msg;
  int attempts = 0;  // Retries performed so far.
  sim::CancelToken cancel;
};

/// Per-node reliability state (volatile: a crash wipes it, like the other
/// protocol tables; the origin-side durable logs live in the engine).
struct State {
  /// Sender side: un-acked reliable messages by id.
  std::map<uint64_t, PendingSend> pending;
  /// Receiver side: ids already processed here (dedup set). Bounded: ids
  /// are retired once the origin's whole retry window has lapsed (no
  /// retransmission can still be in flight), via the companion queue.
  std::set<uint64_t> seen;
  /// (first-seen time, id) in arrival order, driving the retirement scan.
  std::deque<std::pair<sim::SimTime, uint64_t>> seen_by_time;
};

/// True for the message types whose loss costs answers: query indexing,
/// al-/vl-tuple indexing, rewritten-query reindex, DAI-V projections,
/// notification delivery, split directives and the §4.7 bucket transfer
/// and moved-pointer update. Control chatter (acks, JFRT hints, IP
/// updates) stays best-effort — losing it costs performance, never
/// answers.
bool IsCritical(CqMsgType type);

/// Stamps `msg` with a fresh reliable id, records it in the origin's
/// pending table and starts the retry timer. The caller still transports
/// the message (routed send, multisend batch, or direct TransmitMessage).
void Arm(ProtocolContext& ctx, chord::Node& from, chord::AppMessage& msg);

/// Routed send with reliability when enabled and the payload is critical;
/// plain ctx.Send otherwise.
void SendReliable(ProtocolContext& ctx, chord::Node& from,
                  chord::AppMessage msg);

/// Arms every critical message of a batch when reliability is enabled;
/// a no-op otherwise. The caller keeps its original transport call
/// (Send / Multisend) untouched, so the wire behaviour with reliability
/// disabled is bit-identical to the historical engine.
void ArmAll(ProtocolContext& ctx, chord::Node& from,
            std::vector<chord::AppMessage>& msgs);

/// Receiver-side hook, called by the dispatcher for every message carrying
/// a reliable id: acks to the origin and returns true when the id was
/// already processed here (the caller then suppresses the handler).
bool ObserveDelivery(ProtocolContext& ctx, chord::Node& node,
                     const chord::AppMessage& msg);

/// kDeliveryAck handler: clears the acked id from the pending table.
void HandleDeliveryAck(ProtocolContext& ctx, chord::Node& node,
                       const chord::AppMessage& msg);

/// Retransmits every un-acked pending message of `node` right now and
/// rearms their backoff timers. Called after ring repair: a message whose
/// target crashed would otherwise sit out the remainder of its exponential
/// backoff even though the route has already healed — retransmitting on
/// route change bounds post-repair delivery by hop latency instead of by
/// the retry horizon. Duplicates (the original did arrive, its ack was
/// lost) are absorbed by the receiver-side dedup set.
void RetransmitPending(ProtocolContext& ctx, chord::Node& node);

}  // namespace reliability
}  // namespace contjoin::core

#endif  // CONTJOIN_CORE_RELIABILITY_H_
