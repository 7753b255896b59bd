// Deterministic fault injection for the simulated overlay. A FaultPlan is
// consulted by chord::Network::TransmitFrame for every hop and decides
// whether the message is dropped, duplicated, or delivered with extra
// latency. Decisions are pure hashes of (plan seed, stream, sequence,
// class): the fate of transmission k of sender s is a function of the plan
// alone, independent of the order in which concurrently executing event
// shards consult it — the property the parallel simulator core needs for
// thread-count-invariant runs. Probabilities are configured per
// sim::MsgClass, so experiments can target e.g. only the protocol traffic
// (query-index / tuple-index / join / notification) while leaving ring
// maintenance untouched. Same seed + same plan + same workload =>
// bit-identical fault sequence.

#ifndef CONTJOIN_FAULTS_FAULT_PLAN_H_
#define CONTJOIN_FAULTS_FAULT_PLAN_H_

#include <array>
#include <atomic>
#include <cstdint>

#include "sim/net_stats.h"
#include "sim/simulator.h"

namespace contjoin::faults {

/// Per-class fault probabilities. All zero (the default) means the class
/// is delivered exactly as without a plan.
struct FaultProfile {
  /// Probability the transmission is silently lost.
  double drop_prob = 0.0;
  /// Probability one extra copy of the transmission is delivered.
  double duplicate_prob = 0.0;
  /// Probability the hop takes extra time, and how much at most (the extra
  /// delay is uniform in [1, max_extra_delay]).
  double delay_prob = 0.0;
  sim::SimTime max_extra_delay = 0;

  bool active() const {
    return drop_prob > 0.0 || duplicate_prob > 0.0 || delay_prob > 0.0;
  }
};

/// Full plan configuration: one profile per message class plus the seed
/// keying the plan's decision hash.
struct FaultOptions {
  uint64_t seed = 1;
  std::array<FaultProfile, static_cast<size_t>(sim::MsgClass::kClassCount)>
      per_class{};

  FaultProfile& profile(sim::MsgClass c) {
    return per_class[static_cast<size_t>(c)];
  }
  const FaultProfile& profile(sim::MsgClass c) const {
    return per_class[static_cast<size_t>(c)];
  }

  /// Applies `p` to every class in `classes`.
  template <typename Container>
  void SetProfiles(const Container& classes, const FaultProfile& p) {
    for (sim::MsgClass c : classes) profile(c) = p;
  }

  bool active() const {
    for (const FaultProfile& p : per_class) {
      if (p.active()) return true;
    }
    return false;
  }
};

/// What happens to one transmission.
struct FaultDecision {
  bool drop = false;
  /// Number of extra copies to deliver (0 or 1).
  int duplicates = 0;
  sim::SimTime extra_delay = 0;
};

/// Seeded decision source. Every (stream, seq) pair maps to one fixed
/// decision; the network uses the sender's serial as the stream and a
/// per-sender transmission counter as the sequence, both of which advance
/// identically at any worker count.
class FaultPlan {
 public:
  explicit FaultPlan(FaultOptions options);

  /// Decides the fate of one transmission of class `c` on the plan's own
  /// serial stream (stream 0). Only valid from single-threaded call sites
  /// (tests, drivers); TransmitFrame uses the keyed form below.
  FaultDecision Decide(sim::MsgClass c) { return Decide(c, 0, serial_seq_++); }

  /// Decides the fate of transmission `seq` of `stream` for class `c`.
  /// Pure in (options, stream, seq, c) apart from the injection counters.
  FaultDecision Decide(sim::MsgClass c, uint64_t stream, uint64_t seq);

  const FaultOptions& options() const { return options_; }

  // Injection counters (for reports; the per-class drop *accounting* lives
  // in sim::NetStats, which also sees dead-target drops).
  uint64_t injected_drops() const {
    return injected_drops_.load(std::memory_order_relaxed);
  }
  uint64_t injected_duplicates() const {
    return injected_duplicates_.load(std::memory_order_relaxed);
  }
  uint64_t injected_delays() const {
    return injected_delays_.load(std::memory_order_relaxed);
  }

 private:
  FaultOptions options_;
  uint64_t serial_seq_ = 0;
  std::atomic<uint64_t> injected_drops_{0};
  std::atomic<uint64_t> injected_duplicates_{0};
  std::atomic<uint64_t> injected_delays_{0};
};

}  // namespace contjoin::faults

#endif  // CONTJOIN_FAULTS_FAULT_PLAN_H_
