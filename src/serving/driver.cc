#include "serving/driver.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "faults/churn.h"

namespace contjoin::serving {

ServingDriver::ServingDriver(ServingConfig config)
    : config_(std::move(config)), gen_(config_.workload) {
  net_ = std::make_unique<core::ContinuousQueryNetwork>(config_.engine);
  CJ_CHECK(gen_.RegisterSchemas(net_->catalog()).ok());
}

ServingReport ServingDriver::Run() {
  CJ_CHECK(!ran_) << "one Run() per ServingDriver";
  ran_ = true;
  ServingReport report;
  Rng placement(config_.placement_seed);
  const size_t n = net_->num_nodes();
  const size_t sub_pool =
      config_.subscriber_nodes == 0 ? n : std::min(config_.subscriber_nodes, n);

  // Query population with subscriber fan-out: the same SQL submitted from
  // `fanout` nodes means every join result notifies `fanout` subscribers.
  // A small subscriber pool concentrates those subscriptions on few nodes,
  // which is what lets per-(destination, epoch) digests coalesce.
  for (size_t q = 0; q < config_.num_queries; ++q) {
    const std::string sql = gen_.NextQuerySql();
    for (size_t f = 0; f < config_.fanout; ++f) {
      CJ_CHECK(net_->SubmitQuery(placement.NextBelow(sub_pool), sql).ok());
    }
  }

  // The full open-loop workload exists before the first publication fires:
  // arrival instants from the seeded process, tuple contents and origins
  // from the generators, all independent of how the engine keeps up.
  const sim::SimTime start = net_->simulator()->Now() + 1;
  const sim::SimTime end = start + config_.duration;
  if (config_.churn) {
    // Crash ordinals are offset past the subscriber pool: the column
    // measures serving through fabric churn, and a crashed subscriber's
    // notifications sit in ring storage until it reconnects — which an
    // open-loop run never does — so its inflated "latency" would only
    // measure the storm's victim choice. Ordinals index the alive set in
    // creation order and the pool is never crashed, so the offset holds.
    faults::ChurnScript script;
    sim::SimTime at = start + config_.churn_start;
    for (size_t i = 0; i < config_.churn_crashes; ++i) {
      faults::ChurnEvent ev;
      ev.at = at;
      ev.kind = faults::ChurnEvent::Kind::kCrash;
      ev.ordinal = sub_pool + 2 * i + 1;
      script.events.push_back(ev);
      at += config_.churn_interval;
    }
    for (size_t i = 0; i < config_.churn_joins; ++i) {
      faults::ChurnEvent ev;
      ev.at = at;
      ev.kind = faults::ChurnEvent::Kind::kJoin;
      script.events.push_back(ev);
      at += config_.churn_interval;
    }
    net_->InstallChurnScript(std::move(script));
  }
  std::vector<sim::SimTime> arrivals = GenerateArrivals(
      config_.arrivals, config_.arrival_seed, start, config_.duration);
  struct Arrival {
    sim::SimTime at;
    size_t origin;
    std::string relation;
    std::vector<rel::Value> values;
  };
  std::vector<Arrival> schedule;
  schedule.reserve(arrivals.size());
  for (sim::SimTime at : arrivals) {
    auto [relation, values] = gen_.NextTuple();
    schedule.push_back(
        {at, placement.NextBelow(n), std::move(relation), std::move(values)});
  }
  report.arrivals_scheduled = schedule.size();

  const sim::NetStats before = net_->stats();
  const core::NodeMetrics metrics_before = net_->TotalMetrics();

  // Segmented replay: only the next segment's arrivals are scheduled
  // before each RunOpenLoopUntil, because churn repair at a boundary
  // drains the whole event queue — pre-scheduled future arrivals would
  // fire early and out of order relative to later churn.
  size_t next = 0;
  const sim::SimTime step = std::max<sim::SimTime>(1, config_.sample_every);
  for (sim::SimTime boundary = std::min(start + step, end);;
       boundary = std::min(boundary + step, end)) {
    while (next < schedule.size() && schedule[next].at <= boundary) {
      Arrival& a = schedule[next++];
      CJ_CHECK(net_->SchedulePublish(a.at, a.origin, a.relation,
                                     std::move(a.values))
                   .ok());
    }
    report.events_run += net_->RunOpenLoopUntil(boundary);

    QueueSample sample;
    sample.at = boundary;
    sample.pending_events = net_->simulator()->pending_events();
    for (size_t i = 0; i < net_->num_nodes(); ++i) {
      const core::NodeState* st = net_->state(i);
      if (st == nullptr) continue;
      sample.inflight_total += st->subscriber.inflight;
      for (const auto& [key, entry] : st->subscriber.digest_buffer) {
        sample.buffered_total += entry.second.size();
      }
    }
    report.samples.push_back(sample);
    if (boundary >= end) break;
  }
  // Tail drain: deferred deliveries and reliability retries past the last
  // arrival; no new work enters, so the queue empties.
  report.events_run += net_->simulator()->Run();

  report.traffic = net_->stats().Since(before);
  report.metrics = net_->TotalMetrics().Since(metrics_before);

  const sim::SimTime measure_from = start + config_.warmup;
  // Delivery is at-least-once: churn repair replays the publish log, so a
  // subscriber can receive the same result again long after the original.
  // Latency measures the FIRST delivery of each distinct result (what a
  // deduping subscriber experiences); replays count as redeliveries, not
  // as slow deliveries.
  std::set<std::string> first_delivery;
  for (size_t i = 0; i < net_->num_nodes(); ++i) {
    for (const core::Notification& note : net_->TakeNotifications(i)) {
      ++report.notifications;
      const std::string result_key =
          std::to_string(i) + "|" + note.ContentKey() + "|" +
          std::to_string(note.earlier_pub) + "|" +
          std::to_string(note.later_pub);
      report.delivered.push_back(result_key + "|" +
                                 std::to_string(note.created_at) + "|" +
                                 std::to_string(note.delivered_at));
      if (note.later_pub < measure_from) continue;
      CJ_CHECK(note.delivered_at >= note.later_pub);
      // Inbox order is deposit order, so the first occurrence carries the
      // earliest delivery stamp.
      if (!first_delivery.insert(result_key).second) {
        ++report.redelivered;
        continue;
      }
      ++report.measured;
      report.latency.Record(
          static_cast<double>(note.delivered_at - note.later_pub));
    }
  }
  return report;
}

}  // namespace contjoin::serving
