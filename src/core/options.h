// Configuration of the continuous-query network.

#ifndef CONTJOIN_CORE_OPTIONS_H_
#define CONTJOIN_CORE_OPTIONS_H_

#include <cstdint>
#include <cstddef>

#include "adapt/policy.h"
#include "chord/network.h"
#include "faults/fault_plan.h"
#include "relational/tuple.h"

namespace contjoin::core {

/// The four algorithms of the paper (Chapter 4).
enum class Algorithm : unsigned char { kSai, kDaiQ, kDaiT, kDaiV };

const char* AlgorithmName(Algorithm a);

/// SAI index-attribute selection strategies (§4.3.6).
enum class SaiStrategy : unsigned char {
  kRandom,         // Uniform coin flip.
  kLowerRate,      // Index by the relation with the lower tuple-arrival rate.
  kLowerSkew,      // Index by the attribute with more uniform values.
  kSmallerDomain,  // Index by the attribute with fewer observed values.
};

const char* SaiStrategyName(SaiStrategy s);

/// Reliable-delivery knobs (extension beyond the paper: §3.2 leaves failure
/// handling to the DHT; this layer adds ack/retry + dedup + repair on top).
struct ReliabilityOptions {
  /// Master switch. Off = the paper's best-effort semantics, bit-identical
  /// to the engine without this subsystem.
  bool enabled = false;

  /// Retries per critical message before giving up.
  int max_retries = 8;

  /// First retry fires after base_timeout * max(1, hop_latency) virtual
  /// time units; subsequent retries back off exponentially (x2).
  uint64_t base_timeout = 64;
};

/// Serving-path knobs (open-loop extension): subscriber fan-out batching
/// and per-node delivery backpressure. All off by default — the engine is
/// bit-identical to one without this subsystem when disabled.
struct ServingOptions {
  /// Coalesce an evaluator's notifications per (subscriber, epoch) into a
  /// single kNotificationDigest message instead of one kNotification each.
  bool fanout_batching = false;

  /// Cap in-flight notification deliveries per evaluator node. Past the
  /// high-water mark new deliveries are shed (dropped, counted) or
  /// deferred (retried after defer_delay), per `shed`.
  bool backpressure = false;
  uint64_t high_water = 64;
  bool shed = false;  // false = defer (retry later), true = drop.
  uint64_t defer_delay = 4;
};

struct Options {
  /// Ring size for the built-in ideal ring; ignored when the caller builds
  /// the ring itself.
  size_t num_nodes = 64;

  Algorithm algorithm = Algorithm::kSai;
  SaiStrategy sai_strategy = SaiStrategy::kRandom;

  /// Join fingers routing table (§4.7): evaluator-address caching at
  /// rewriters.
  bool use_jfrt = false;
  size_t jfrt_capacity = 1 << 16;

  /// Attribute-level load balancing (§4.7): number of rewriter replicas per
  /// "Relation+Attribute" key. 1 = the paper's base scheme.
  int attribute_replication = 1;

  /// Sliding window over value-level state: a stored tuple participates in
  /// joins only while (now - pubT) <= window. 0 means unlimited (the base
  /// semantics of the paper).
  rel::Timestamp window = 0;

  /// DAI-V variant prefixing the query key into evaluator identifiers
  /// (§4.5: better balance, ~250x the traffic — reproduced in Table 4.1).
  bool daiv_prefix_query_key = false;

  /// Ignored. Rewriters always record the evaluators an ALQT entry's
  /// rewrites reach wherever evaluators hold query state, so every
  /// unsubscription clears them. Still declared only because the
  /// benchmark driver (perfbench/src/workloads.cc) sets it; it goes away
  /// together with that assignment.
  bool track_evaluators = false;

  uint64_t seed = 42;

  /// Meter bytes-on-wire: the encoded size of every transmitted hop frame
  /// is accounted per message class in sim::NetStats. The size is measured
  /// by the codec's counting writer, not by encoding, and each payload
  /// memoises its own size, so a forwarded hop or a retry costs a few
  /// additions. Off by default; event ordering is unaffected either way
  /// (the counter is the only output).
  bool count_wire_bytes = false;

  chord::NetworkOptions chord;

  /// Fault injection applied to the overlay transport (none by default).
  faults::FaultOptions faults;

  ReliabilityOptions reliability;

  ServingOptions serving;

  /// Adaptive load manager (runtime hot-key detection, auto-replication,
  /// value splitting, hysteresis cooldown). Off by default — the engine
  /// is bit-identical to one without this subsystem when disabled.
  contjoin::adapt::Params adapt;
};

}  // namespace contjoin::core

#endif  // CONTJOIN_CORE_OPTIONS_H_
