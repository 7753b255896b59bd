// The open-loop serving driver: replays a seeded arrival process against
// the engine and measures what the closed-loop benches cannot — notification
// time-in-flight percentiles, queue depths over time, backpressure activity
// and retry amplification. Arrivals keep coming whether or not the system
// keeps up: tuples are stamped with their virtual-time birth when the
// arrival process emits them, and publications fire by simulator schedule,
// never gated on the previous cascade having drained.

#ifndef CONTJOIN_SERVING_DRIVER_H_
#define CONTJOIN_SERVING_DRIVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/metrics.h"
#include "serving/arrival.h"
#include "serving/latency.h"
#include "sim/net_stats.h"
#include "workload/workload.h"

namespace contjoin::serving {

struct ServingConfig {
  core::Options engine;
  workload::WorkloadOptions workload;
  ArrivalSpec arrivals;

  /// Seed of the arrival process (independent of engine / workload seeds).
  uint64_t arrival_seed = 7;
  /// Seed choosing publication origin nodes.
  uint64_t placement_seed = 11;

  /// Continuous queries installed before the open-loop phase; each query's
  /// SQL is submitted `fanout` times from distinct-ish subscriber nodes,
  /// so one join result must notify `fanout` subscribers (the fan-out the
  /// digest batching coalesces).
  size_t num_queries = 16;
  size_t fanout = 1;

  /// When nonzero, subscribers are drawn only from node indices
  /// [0, subscriber_nodes): co-locating many subscriptions on few nodes is
  /// what makes same-(destination, epoch) digests actually coalesce.
  size_t subscriber_nodes = 0;

  /// Open-loop phase length in virtual ticks, and the prefix of it whose
  /// notifications are excluded from latency statistics (ramp-up).
  sim::SimTime duration = 256;
  sim::SimTime warmup = 32;

  /// Queue depths are sampled at every multiple of this interval; segment
  /// boundaries are also where scripted churn applies (quiescent points).
  sim::SimTime sample_every = 32;

  /// Scripted churn storm through the open-loop phase: `churn_crashes`
  /// crashes then `churn_joins` joins, the first due `churn_start` ticks
  /// after the open-loop phase begins and the rest spaced
  /// `churn_interval` apart. Installed after the query population is in
  /// place (a script measured from construction time would crash
  /// subscriber nodes mid-installation), applied at segment boundaries.
  bool churn = false;
  sim::SimTime churn_start = 64;
  sim::SimTime churn_interval = 64;
  size_t churn_crashes = 3;
  size_t churn_joins = 2;
};

/// One queue-depth observation, taken at a quiescent segment boundary.
struct QueueSample {
  sim::SimTime at = 0;
  uint64_t pending_events = 0;    // Simulator events still scheduled.
  uint64_t inflight_total = 0;    // Occupied backpressure slots, all nodes.
  uint64_t buffered_total = 0;    // Digest-buffered notifications, all nodes.
};

struct ServingReport {
  LatencyRecorder latency;        // Post-warmup time-in-flight samples.
  size_t arrivals_scheduled = 0;
  size_t notifications = 0;       // Total delivered (incl. warmup).
  size_t measured = 0;            // Post-warmup first deliveries (latency).
  size_t redelivered = 0;         // Post-warmup repair-replay duplicates.
  /// One line per delivered notification, inbox order:
  /// "<node>|<ContentKey>|<earlier>|<later>|<created>|<delivered>".
  /// Equivalence tests compare sorted copies; determinism tests compare
  /// the raw order byte-for-byte.
  std::vector<std::string> delivered;
  uint64_t events_run = 0;
  std::vector<QueueSample> samples;
  sim::NetStats traffic;          // Open-loop phase only.
  core::NodeMetrics metrics;      // Open-loop phase only, all nodes.

  /// Retries per reliably-sent message (0 when reliability is off).
  double RetryAmplification() const {
    return metrics.reliable_sent == 0
               ? 0.0
               : static_cast<double>(metrics.reliable_retries) /
                     static_cast<double>(metrics.reliable_sent);
  }
};

class ServingDriver {
 public:
  explicit ServingDriver(ServingConfig config);

  /// The engine, e.g. to install a churn script before Run().
  core::ContinuousQueryNetwork& net() { return *net_; }

  /// Installs the query population (with fan-out duplication), replays the
  /// arrival process and drains the tail; one call per driver.
  ServingReport Run();

 private:
  ServingConfig config_;
  workload::WorkloadGenerator gen_;
  std::unique_ptr<core::ContinuousQueryNetwork> net_;
  bool ran_ = false;
};

}  // namespace contjoin::serving

#endif  // CONTJOIN_SERVING_DRIVER_H_
