// contjoin_perfbench: runs one benchmark workload for a wall-clock budget
// and prints its metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set.
//
//   contjoin_perfbench --workload dait_closed --seed 1 --seconds 10 --trace 0
//
// A run repeats identical rounds (same seed, fresh engines) until the
// budget is spent; a traced run alternates untraced and traced rounds.
// Afterwards one untraced round at one worker feeds the reference oracle
// over its seeded prefix. Every round's deterministic counters must be
// identical — across rounds, traced or not, and at one worker or many.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "harness.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kMinRounds = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string commit = "unknown";
  std::string source_sha1 = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (flag == "--trace") {
      a->trace = v == "1";
    } else if (flag == "--trace-out") {
      a->trace_out = v;
    } else if (flag == "--commit") {
      a->commit = v;
    } else if (flag == "--source-sha1") {
      a->source_sha1 = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

bool SanitizedBuild() {
  // Sanitizer flags given to the build (CMAKE_CXX_FLAGS or CXXFLAGS)...
  if (std::string_view(PERFBENCH_CXX_FLAGS).find("-fsanitize") !=
      std::string_view::npos) {
    return true;
  }
  // ...or enabled some other way.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

/// The highest percentile of a round's operations with at least ten
/// samples beyond it. Chosen from the per-round count, which is fixed per
/// workload, so every run reports the same percentile.
double TailPercentile(uint64_t ops_per_round) {
  // Shares beyond each candidate, in thousandths, keep the test exact.
  constexpr std::pair<double, uint64_t> kCandidates[] = {
      {99.9, 1}, {99.0, 10}, {95.0, 50}, {90.0, 100}, {75.0, 250}};
  for (const auto& [p, per_mille] : kCandidates) {
    if (ops_per_round * per_mille >= 10 * 1000) return p;
  }
  return 50.0;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void PrintMetric(const Metric& m) {
  std::printf("  %-42s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

/// Per operation, the least of its times over `rounds`. Every round runs
/// the same operations in the same order.
LoadDistribution BestPerOp(const std::vector<RoundResult>& rounds,
                           std::vector<double> RoundResult::*times) {
  std::vector<double> best = rounds.front().*times;
  for (const RoundResult& r : rounds) {
    const std::vector<double>& t = r.*times;
    for (size_t i = 0; i < best.size(); ++i) best[i] = std::min(best[i], t[i]);
  }
  return LoadDistribution(std::move(best));
}

std::vector<Metric> EndToEnd(const std::vector<RoundResult>& plain,
                             double peak_rss_mb) {
  // Timings take each operation's least time over the untraced rounds.
  // The rest of a shared host only ever adds time, in bursts of seconds
  // that hit different rounds, so each operation's best time varies far
  // less between runs than pooled totals or per-round figures do.
  const RoundResult& first = plain.front();
  LoadDistribution setup;
  for (const RoundResult& r : plain) {
    for (double s : r.setup_s) setup.Add(s);
  }
  const LoadDistribution wall = BestPerOp(plain, &RoundResult::op_wall_us);
  const LoadDistribution cpu = BestPerOp(plain, &RoundResult::op_cpu_us);
  const double tuples = static_cast<double>(first.tuples);
  return {
      {"setup_s", setup.Percentile(50), "s"},
      {"tuples_per_s", Ratio(tuples * 1e6, wall.total()), "1/s"},
      {"op_p50_us", wall.Percentile(50), "us"},
      {"op_tail_us", wall.Percentile(TailPercentile(first.ops)), "us"},
      {"cpu_per_tuple_us", Ratio(cpu.total(), tuples), "us"},
      {"hops_per_tuple",
       Ratio(static_cast<double>(first.counters.total_hops),
             static_cast<double>(first.tuples)),
       "count"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"live_state_objects",
       static_cast<double>(first.counters.storage.Total()), "count"},
  };
}

/// Serving-only end-to-end figures (printed, not part of the gated set:
/// they do not exist on the closed-loop workloads).
std::vector<Metric> ServingExtras(const RoundResult& r) {
  if (r.rungs.empty()) return {};
  double max_rate = 0;
  for (const Rung& g : r.rungs) {
    if (g.p99 <= kServingSloTicks) max_rate = std::max(max_rate, g.rate);
  }
  const Rung& top = r.rungs.back();
  return {
      {"bytes_per_tuple",
       Ratio(static_cast<double>(r.counters.total_bytes),
             static_cast<double>(r.tuples)),
       "B"},
      {"notif_p50_ticks", top.p50, "ticks"},
      {"notif_p99_ticks", top.p99, "ticks"},
      {"max_rate_at_slo", max_rate, "1/tick"},
  };
}

std::vector<Metric> PerLayer(const std::vector<RoundResult>& plain,
                             const std::vector<RoundResult>& traced) {
  TraceTotals tt;
  double t_tuples = 0, t_op_ns = 0, frames = 0, frame_msgs = 0;
  double t_hops = 0, t_notifications = 0, submit_ns = 0, submits = 0;
  double unsub_ns = 0, unsubs = 0, prune_ns = 0, prunes = 0;
  CodecStats codec;
  for (const RoundResult& r : traced) {
    tt.Add(r.trace);
    t_tuples += static_cast<double>(r.tuples);
    t_op_ns += static_cast<double>(r.op_ns) * r.workers;
    frames += static_cast<double>(r.seam_frames);
    frame_msgs += static_cast<double>(r.seam_messages);
    t_hops += static_cast<double>(r.counters.total_hops);
    t_notifications += static_cast<double>(r.counters.notifications);
    submit_ns += static_cast<double>(r.submit_ns);
    submits += static_cast<double>(r.submits);
    unsub_ns += static_cast<double>(r.unsubscribe_ns);
    unsubs += static_cast<double>(r.unsubscribes);
    prune_ns += static_cast<double>(r.prune_ns);
    prunes += static_cast<double>(r.prunes);
    codec.frames += r.codec.frames;
    codec.unencodable += r.codec.unencodable;
    codec.bytes += r.codec.bytes;
    codec.encode_ns += r.codec.encode_ns;
    codec.decode_ns += r.codec.decode_ns;
  }
  const double n_traced = static_cast<double>(traced.size());
  // Deterministic counters are identical in every round (checked), so the
  // first untraced round stands for all of them.
  const RoundResult& d = plain.front();
  const Counters& c = d.counters;
  const core::NodeMetrics& m = c.metrics;
  const double tuples = static_cast<double>(d.tuples);
  auto per_tuple = [&](uint64_t n) {
    return Ratio(static_cast<double>(n), tuples);
  };
  auto us_per_traced_tuple = [&](uint64_t ns) {
    return Ratio(static_cast<double>(ns) / 1e3, t_tuples);
  };
  auto per_traced_tuple = [&](uint64_t n) {
    return Ratio(static_cast<double>(n), t_tuples);
  };
  const SpanStats rw = tt.Of(SpanKind::kRewriter);
  const SpanStats ev = tt.Of(SpanKind::kEvaluator);
  const SpanStats sub = tt.Of(SpanKind::kSubscriber);
  const SpanStats hop = tt.Of(SpanKind::kHop);
  SpanStats ops;
  for (size_t k = 0; k < kSpanKinds; ++k) {
    if (IsOpSpan(static_cast<SpanKind>(k))) ops.Add(tt.main[k]);
  }
  const double busy = static_cast<double>(tt.busy_ns_main + tt.busy_ns_workers);

  double plain_allocs = 0, plain_tuples = 0, gen_ns = 0;
  LoadDistribution plain_tps, traced_tps;
  for (const RoundResult& r : plain) {
    plain_allocs += static_cast<double>(r.op_allocs);
    plain_tuples += static_cast<double>(r.tuples);
    gen_ns += static_cast<double>(r.gen_ns);
    plain_tps.Add(r.TuplesPerSecond());
  }
  for (const RoundResult& r : traced) traced_tps.Add(r.TuplesPerSecond());

  std::vector<Metric> out = {
      {"rewriter.self_us_per_tuple", us_per_traced_tuple(rw.self_ns), "us"},
      {"rewriter.msgs_per_tuple", per_traced_tuple(rw.count), "count"},
      {"rewriter.allocs_per_tuple", per_traced_tuple(rw.self_allocs),
       "count"},
      {"rewriter.filter_ops_per_tuple", per_tuple(m.filter_ops_attr),
       "count"},
      {"rewriter.rewrites_per_tuple", per_tuple(m.rewrites_sent), "count"},
      {"rewriter.dedup_skip_ratio",
       Ratio(static_cast<double>(m.rewrites_skipped_dup),
             static_cast<double>(m.rewrites_sent + m.rewrites_skipped_dup)),
       "ratio"},
      {"evaluator.self_us_per_tuple", us_per_traced_tuple(ev.self_ns), "us"},
      {"evaluator.msgs_per_tuple", per_traced_tuple(ev.count), "count"},
      {"evaluator.allocs_per_tuple", per_traced_tuple(ev.self_allocs),
       "count"},
      {"evaluator.filter_ops_per_tuple", per_tuple(m.filter_ops_value),
       "count"},
      {"evaluator.match_ratio",
       Ratio(static_cast<double>(m.notifications_created),
             static_cast<double>(m.filter_ops_value)),
       "ratio"},
      {"sim.events_per_tuple", per_tuple(c.events), "count"},
      {"sim.self_us_per_tuple", us_per_traced_tuple(ops.self_ns), "us"},
      {"sim.offthread_handler_share",
       Ratio(static_cast<double>(tt.busy_ns_workers), busy), "ratio"},
      {"sim.worker_idle_share", t_op_ns == 0 ? 0 : 1 - busy / t_op_ns,
       "ratio"},
      {"sim.allocs_per_tuple", per_traced_tuple(ops.self_allocs), "count"},
  };
  for (size_t i = 0; i < kMsgClasses; ++i) {
    out.push_back({std::string("chord.hops_per_tuple.") +
                       MsgClassMetricName(static_cast<sim::MsgClass>(i)),
                   per_tuple(c.hops[i]), "count"});
  }
  const double encodable = static_cast<double>(codec.frames - codec.unencodable);
  std::vector<Metric> rest = {
      {"chord.send_us_per_tuple", us_per_traced_tuple(hop.self_ns), "us"},
      {"chord.msgs_per_frame", Ratio(frame_msgs, frames), "count"},
      {"chord.closure_hops_per_tuple", Ratio(t_hops - frames, t_tuples),
       "count"},
      {"codec.bytes_per_frame", Ratio(static_cast<double>(codec.bytes),
                                      encodable),
       "B"},
      {"codec.encode_ns_per_frame",
       Ratio(static_cast<double>(codec.encode_ns),
             static_cast<double>(codec.frames)),
       "ns"},
      {"codec.decode_ns_per_frame",
       Ratio(static_cast<double>(codec.decode_ns), encodable), "ns"},
      {"codec.unencodable_frames",
       Ratio(static_cast<double>(codec.unencodable), n_traced), "count"},
      {"subscriber.self_us_per_tuple", us_per_traced_tuple(sub.self_ns),
       "us"},
      {"subscriber.msgs_per_notification",
       Ratio(static_cast<double>(sub.count), t_notifications), "count"},
      {"reliability.acks_per_tuple", per_tuple(m.reliable_acks_sent),
       "count"},
      {"reliability.retry_amplification",
       Ratio(static_cast<double>(m.reliable_retries),
             static_cast<double>(m.reliable_sent)),
       "ratio"},
      {"reliability.dups_suppressed",
       static_cast<double>(m.reliable_dups_suppressed), "count"},
      {"reliability.abandoned", static_cast<double>(m.reliable_abandoned),
       "count"},
      {"serving.deferred_per_tuple", per_tuple(c.deferred), "count"},
      {"serving.inflight_max", static_cast<double>(d.inflight_max), "count"},
      {"serving.buffered_max", static_cast<double>(d.buffered_max), "count"},
      {"serving.pending_events_max", static_cast<double>(d.pending_events_max),
       "count"},
      {"query.submit_us", Ratio(submit_ns / 1e3, submits), "us"},
      {"query.unsubscribe_us", Ratio(unsub_ns / 1e3, unsubs), "us"},
      {"state.prune_us", Ratio(prune_ns / 1e3, prunes), "us"},
      {"state.pruned_per_call",
       Ratio(static_cast<double>(c.pruned), static_cast<double>(d.prunes)),
       "count"},
      {"state.alqt_objects", static_cast<double>(c.storage.alqt_queries),
       "count"},
      {"state.vltt_objects", static_cast<double>(c.storage.vltt_tuples),
       "count"},
      {"engine.allocs_per_tuple", Ratio(plain_allocs, plain_tuples), "count"},
      {"workload.gen_us_per_tuple", Ratio(gen_ns / 1e3, plain_tuples), "us"},
      {"trace.tuples_per_s_ratio",
       Ratio(traced_tps.Percentile(50), plain_tps.Percentile(50)), "ratio"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

int Run(const Args& args) {
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:",
                 args.workload.c_str());
    for (const Workload& k : AllWorkloads()) std::fprintf(stderr, " %s", k.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (SanitizedBuild()) {
    std::fprintf(stderr, "refusing to report from a sanitizer build\n");
    return 3;
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::printf("workload: %s (operation: %s; round: %s)\n", w->name,
              w->op.c_str(), w->shape.c_str());
  std::printf(
      "provenance: {\"seed\": %llu, \"nproc\": %u, \"compiler\": %s, "
      "\"build_type\": %s, \"cxx_flags\": %s, \"git_commit\": %s, "
      "\"source_sha1\": %s}\n",
      static_cast<unsigned long long>(args.seed), nproc,
      JsonString(__VERSION__).c_str(), JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(PERFBENCH_CXX_FLAGS).c_str(), JsonString(args.commit).c_str(),
      JsonString(args.source_sha1).c_str());

  // Measured rounds.
  std::vector<RoundResult> plain, traced;
  const int64_t start = NowNs();
  for (size_t i = 0;; ++i) {
    const bool trace_round = args.trace && i % 2 == 1;
    RoundOptions ro;
    ro.seed = args.seed;
    ro.traced = trace_round;
    if (trace_round) {
      Tracer::Reset();
      Tracer::Enable(true);
    }
    RoundResult r = w->run(ro);
    if (trace_round) {
      Tracer::Enable(false);
      r.trace = Tracer::Collect();
      traced.push_back(std::move(r));
    } else {
      plain.push_back(std::move(r));
    }
    const bool enough = plain.size() >= kMinRounds &&
                        (!args.trace || traced.size() >= 1);
    if (enough && SecondsSince(start) >= args.seconds) break;
  }
  const double measured_s = SecondsSince(start);
  const double peak_rss = PeakRssMb();
  if (args.trace && !args.trace_out.empty() &&
      !Tracer::WriteChromeTrace(args.trace_out)) {
    std::fprintf(stderr, "could not write trace to %s\n",
                 args.trace_out.c_str());
  }

  // Output checks: the oracle over the seeded prefix, on one worker.
  RoundOptions check_opts;
  check_opts.seed = args.seed;
  check_opts.check = true;
  check_opts.workers = 1;
  const int64_t check0 = NowNs();
  RoundResult check = w->run(check_opts);
  const double check_s = SecondsSince(check0);

  std::vector<std::string> failures;
  uint64_t attempted = 0, failed_ops = 0;
  const std::string reference = plain.front().counters.Fingerprint();
  auto audit = [&](const RoundResult& r, const std::string& what) {
    attempted += r.ops;
    failed_ops += r.failed_ops;
    for (const std::string& f : r.check_failures) failures.push_back(what + ": " + f);
    if (r.counters.Fingerprint() != reference) {
      failures.push_back(what + ": deterministic counters differ from round 1");
    }
  };
  for (size_t i = 0; i < plain.size(); ++i) {
    audit(plain[i], "untraced round " + std::to_string(i + 1));
  }
  for (size_t i = 0; i < traced.size(); ++i) {
    audit(traced[i], "traced round " + std::to_string(i + 1) +
                         " (non-perturbation)");
  }
  audit(check, "oracle round at 1 worker");
  const uint64_t failed = failed_ops + failures.size();
  attempted += failures.size();  // A failed check is a failed attempt.

  const RoundResult& first = plain.front();
  std::printf(
      "rounds: %zu untraced, %zu traced in %.2f s (budget %.0f s); "
      "%llu operations and %llu tuples per round; %d simulator worker(s)\n",
      plain.size(), traced.size(), measured_s, args.seconds,
      static_cast<unsigned long long>(first.ops),
      static_cast<unsigned long long>(first.tuples), first.workers);
  std::printf("tuples_per_s by untraced round:");
  for (const RoundResult& r : plain) std::printf(" %.1f", r.TuplesPerSecond());
  std::printf("\n");
  std::printf(
      "op_tail_us is p%g of the run's operations (>= 10 beyond in each "
      "round of %llu)\n",
      TailPercentile(first.ops), static_cast<unsigned long long>(first.ops));
  std::printf("deterministic: {\"hops_per_tuple\": %s, \"live_state_objects\": %llu",
              JsonNumber(Ratio(static_cast<double>(first.counters.total_hops),
                               static_cast<double>(first.tuples)))
                  .c_str(),
              static_cast<unsigned long long>(first.counters.storage.Total()));
  const std::vector<Metric> extras = ServingExtras(first);
  for (const Metric& m : extras) {
    std::printf(", %s: %s", JsonString(m.name).c_str(),
                JsonNumber(m.value).c_str());
  }
  std::printf(", \"fingerprint_fnv\": \"%016llx\"}\n",
              static_cast<unsigned long long>(Fnv1a(reference)));

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = PerLayer(plain, traced);
    std::printf("per-layer metrics (traced rounds; deterministic counters "
                "from round 1):\n");
  } else {
    metrics = EndToEnd(plain, peak_rss);
    std::printf("end-to-end metrics (untraced rounds):\n");
  }
  for (const Metric& m : metrics) PrintMetric(m);
  if (!args.trace) {
    for (const Metric& m : extras) PrintMetric(m);
    if (!first.rungs.empty()) {
      std::printf(
          "  open loop: latency counts from each arrival's scheduled "
          "virtual time, so generator lateness is 0 by construction; "
          "p99 SLO %.0f ticks\n",
          kServingSloTicks);
      for (const Rung& g : first.rungs) {
        std::printf(
            "  rung %.3f tuples/tick: %llu arrivals, %llu measured, "
            "p50 %.1f, p99 %.1f ticks (%s)\n",
            g.rate, static_cast<unsigned long long>(g.arrivals),
            static_cast<unsigned long long>(g.measured), g.p50, g.p99,
            g.p99 <= kServingSloTicks ? "meets SLO" : "misses SLO");
      }
    } else {
      std::printf(
          "  bytes_per_tuple, notif_p50_ticks, notif_p99_ticks, "
          "max_rate_at_slo: n/a (daiv_serving only)\n");
    }
  }
  const double error_rate =
      Ratio(static_cast<double>(failed), static_cast<double>(attempted));
  std::printf("  %-42s %16.6g %s\n", "error_rate", error_rate, "ratio");
  std::printf("checks (%.2f s): %s\n", check_s,
              failures.empty() ? "all passed" : "FAILED");
  for (const std::string& f : failures) std::printf("  FAIL %s\n", f.c_str());
  for (const std::string& n : check.notes) std::printf("  note: %s\n", n.c_str());

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(metrics[i].name) + ": {\"value\": " +
            JsonNumber(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out PATH] [--commit C] [--source-sha1 H]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
