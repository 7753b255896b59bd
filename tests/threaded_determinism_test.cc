// End-to-end determinism contract of the parallel simulator core: a full
// engine scenario (query installation, wave-streamed tuples, reliable
// delivery) must produce byte-for-byte identical notification streams,
// traffic statistics (bytes on the wire included) and metrics at every
// worker count. The byte meter sizes shared payloads from several workers
// at once, so under TSan this also covers the payload size memo.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "serving/driver.h"
#include "sim/net_stats.h"
#include "workload/driver.h"

namespace contjoin {
namespace {

struct ScenarioResult {
  std::string digest;  // Order-sensitive serialization.
  uint64_t parallel_batches = 0;
  uint64_t total_hops = 0;
  uint64_t total_bytes = 0;
  size_t notifications = 0;
};

workload::DriverConfig ScenarioConfig() {
  workload::DriverConfig cfg;
  cfg.engine.num_nodes = 48;
  cfg.engine.seed = 42;
  cfg.engine.reliability.enabled = true;
  cfg.engine.count_wire_bytes = true;
  cfg.workload.seed = 9;
  cfg.workload.num_relation_pairs = 4;
  cfg.workload.attrs_per_relation = 3;
  cfg.workload.domain = 150;  // Small domain so joins actually match.
  cfg.workload.zipf_theta = 0.8;
  return cfg;
}

/// Per-class bytes on the wire (NetStats::Report() leaves them out).
std::string BytesDigest(const sim::NetStats& stats) {
  std::string out = "|bytes";
  for (int c = 0; c < static_cast<int>(sim::MsgClass::kClassCount); ++c) {
    out += "|" + std::to_string(stats.bytes(static_cast<sim::MsgClass>(c)));
  }
  return out;
}

ScenarioResult RunScenario(int workers) {
  workload::DriverConfig cfg = ScenarioConfig();
  workload::ExperimentDriver driver(cfg);
  core::ContinuousQueryNetwork& net = driver.net();
  net.simulator()->SetWorkers(workers);

  driver.InstallQueries(30);
  Rng placement(123);
  for (int wave = 0; wave < 6; ++wave) {
    std::vector<std::pair<size_t, std::string>> origins;
    std::vector<std::vector<rel::Value>> rows;
    for (int i = 0; i < 32; ++i) {
      auto [relation, values] = driver.gen().NextTuple();
      origins.emplace_back(placement.NextBelow(cfg.engine.num_nodes),
                           relation);
      rows.push_back(std::move(values));
    }
    CJ_CHECK(net.InsertTupleWave(origins, std::move(rows)).ok());
  }

  ScenarioResult r;
  r.parallel_batches = net.simulator()->parallel_batches_run();
  r.total_hops = net.stats().total_hops();
  for (size_t i = 0; i < net.num_nodes(); ++i) {
    for (const core::Notification& n : net.TakeNotifications(i)) {
      r.digest += std::to_string(i) + "|" + n.ContentKey() + "|" +
                  std::to_string(n.earlier_pub) + "|" +
                  std::to_string(n.later_pub) + "|" +
                  std::to_string(n.created_at) + "\n";
      ++r.notifications;
    }
  }
  r.digest += net.stats().Report();
  r.digest += BytesDigest(net.stats());
  r.total_bytes = net.stats().total_bytes();
  const core::NodeMetrics totals = net.TotalMetrics();
  r.digest += "|sent=" + std::to_string(totals.reliable_sent) +
              "|retries=" + std::to_string(totals.reliable_retries) +
              "|acks=" + std::to_string(totals.reliable_acks_sent) +
              "|dups=" + std::to_string(totals.reliable_dups_suppressed);
  return r;
}

TEST(ThreadedDeterminism, EightWorkersMatchSerialByteForByte) {
  ScenarioResult serial = RunScenario(1);
  ScenarioResult threaded = RunScenario(8);

  // The scenario must actually exercise the parallel path, and produce
  // answers worth comparing.
  EXPECT_EQ(serial.parallel_batches, 0u);
  EXPECT_GT(threaded.parallel_batches, 0u);
  EXPECT_GT(serial.notifications, 0u);
  EXPECT_GT(serial.total_bytes, 0u);

  EXPECT_EQ(serial.digest, threaded.digest);
  EXPECT_EQ(serial.total_hops, threaded.total_hops);
  EXPECT_EQ(serial.total_bytes, threaded.total_bytes);
  EXPECT_EQ(serial.notifications, threaded.notifications);
}

TEST(ThreadedDeterminism, IntermediateWorkerCountsAgree) {
  ScenarioResult one = RunScenario(1);
  ScenarioResult two = RunScenario(2);
  ScenarioResult four = RunScenario(4);
  EXPECT_EQ(two.digest, four.digest);
  EXPECT_EQ(one.digest, two.digest);
}

// The open-loop serving path stacks every new mechanism at once — seeded
// arrivals, digest batching, backpressure deferral, reliable delivery
// under drops — and must still be byte-for-byte identical at every worker
// count, including the delivery timestamps and queue-depth samples.
std::string RunOpenLoopScenario(int workers, uint64_t* parallel_batches) {
  serving::ServingConfig config;
  config.engine.num_nodes = 32;
  config.engine.seed = 42;
  config.engine.reliability.enabled = true;
  config.engine.count_wire_bytes = true;
  config.engine.faults.profile(sim::MsgClass::kNotification).drop_prob = 0.05;
  config.engine.serving.fanout_batching = true;
  config.engine.serving.backpressure = true;
  config.engine.serving.high_water = 2;
  config.engine.serving.shed = false;  // Defer: retries stress the queue.
  config.engine.serving.defer_delay = 3;
  config.workload.seed = 9;
  config.workload.domain = 60;
  config.workload.zipf_theta = 0.8;
  config.arrivals.kind = serving::ArrivalKind::kBurstyOnOff;
  config.arrivals.rate = 1.0;
  config.arrivals.mean_on = 16;
  config.arrivals.mean_off = 16;
  config.num_queries = 8;
  config.fanout = 3;
  config.subscriber_nodes = 4;
  config.duration = 192;
  config.warmup = 16;
  config.sample_every = 32;

  serving::ServingDriver driver(config);
  driver.net().simulator()->SetWorkers(workers);
  serving::ServingReport report = driver.Run();
  *parallel_batches = driver.net().simulator()->parallel_batches_run();

  std::string digest;
  for (const std::string& line : report.delivered) digest += line + "\n";
  for (const serving::QueueSample& s : report.samples) {
    digest += "sample|" + std::to_string(s.at) + "|" +
              std::to_string(s.inflight_total) + "|" +
              std::to_string(s.buffered_total) + "\n";
  }
  digest += report.latency.Summary() + "\n";
  digest += report.traffic.Report();
  digest += BytesDigest(report.traffic);
  digest += "|arrivals=" + std::to_string(report.arrivals_scheduled) +
            "|events=" + std::to_string(report.events_run) +
            "|sent=" + std::to_string(report.reliable_sent) +
            "|retries=" + std::to_string(report.reliable_retries) +
            "|shed=" + std::to_string(report.traffic.shed()) +
            "|deferred=" + std::to_string(report.traffic.deferred());
  return digest;
}

TEST(ThreadedDeterminism, OpenLoopServingAgreesAcrossWorkerCounts) {
  uint64_t batches1 = 0;
  const std::string serial = RunOpenLoopScenario(1, &batches1);
  EXPECT_EQ(batches1, 0u);
  // The scenario must actually hit the high-water mark (nonzero deferrals;
  // the deferred counter is the digest's final field, so "=0" means idle).
  EXPECT_NE(serial.find("|deferred="), std::string::npos);
  EXPECT_EQ(serial.find("|deferred=0"), std::string::npos);
  for (int workers : {2, 4, 8}) {
    SCOPED_TRACE(workers);
    uint64_t batches = 0;
    EXPECT_EQ(serial, RunOpenLoopScenario(workers, &batches));
    EXPECT_GT(batches, 0u);
  }
}

}  // namespace
}  // namespace contjoin
