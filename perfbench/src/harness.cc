#include "harness.h"

#include <algorithm>
#include <ctime>
#include <iterator>
#include <sstream>

#include "core/codec.h"
#include "core/notification.h"

namespace perfbench {
uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

const char* MsgClassMetricName(sim::MsgClass c) {
  switch (c) {
    case sim::MsgClass::kLookup:
      return "lookup";
    case sim::MsgClass::kMaintenance:
      return "maintenance";
    case sim::MsgClass::kQueryIndex:
      return "query_index";
    case sim::MsgClass::kTupleIndex:
      return "tuple_index";
    case sim::MsgClass::kRewrittenQuery:
      return "rewritten_query";
    case sim::MsgClass::kNotification:
      return "notification";
    case sim::MsgClass::kControl:
      return "control";
    case sim::MsgClass::kOneTime:
      return "one_time";
    case sim::MsgClass::kClassCount:
      break;
  }
  return "unknown";
}

std::string Counters::Fingerprint() const {
  std::ostringstream out;
  for (size_t c = 0; c < kMsgClasses; ++c) {
    out << "c" << c << ":" << hops[c] << "/" << drops[c] << "/" << bytes[c]
        << " ";
  }
  out << "hops:" << total_hops << " bytes:" << total_bytes
      << " deferred:" << deferred << " shed:" << shed << " events:" << events;
  const core::NodeMetrics& m = metrics;
  out << " metrics:" << m.filter_ops_attr << "," << m.filter_ops_value << ","
      << m.tuples_received_attr << "," << m.tuples_received_value << ","
      << m.joins_received << "," << m.queries_received << ","
      << m.rewrites_sent << "," << m.rewrites_skipped_dup << ","
      << m.rewrites_skipped_nosol << "," << m.notifications_created << ","
      << m.reliable_sent << "," << m.reliable_retries << ","
      << m.reliable_acks_sent << "," << m.reliable_dups_suppressed << ","
      << m.reliable_abandoned << "," << m.adapt_directives << ","
      << m.adapt_redirects << "," << m.adapt_reships << ","
      << m.msgs_unhandled;
  for (uint64_t n : m.received_by_type) out << "," << n;
  const core::NodeStorage& s = storage;
  out << " storage:" << s.alqt_queries << "," << s.vlqt_rewritten << ","
      << s.vltt_tuples << "," << s.daiv_entries << ","
      << s.stored_notifications << "," << s.mw_queries << ","
      << s.mw_partials;
  out << " notifications:" << notifications << " digest:" << content_digest
      << " pruned:" << pruned;
  return out.str();
}

uint64_t ContentDigest::Drain(core::ContinuousQueryNetwork& net,
                              std::set<std::string>* keys) {
  uint64_t drained = 0;
  for (size_t i = 0; i < net.num_nodes(); ++i) {
    for (const core::Notification& n : net.TakeNotifications(i)) {
      Add(n, keys);
      ++drained;
    }
  }
  return drained;
}

void ContentDigest::Add(const core::Notification& n,
                        std::set<std::string>* keys) {
  std::string key = n.ContentKey();
  hashes_.push_back(Fnv1a(key));
  if (keys != nullptr) keys->insert(std::move(key));
  ++count_;
}

uint64_t ContentDigest::Value() const {
  std::vector<uint64_t> sorted = hashes_;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  uint64_t h = 1469598103934665603ull;
  for (uint64_t v : sorted) {
    h ^= v;
    h *= 1099511628211ull;
  }
  return h ^ sorted.size();
}

Measure::Measure(RoundResult* round, core::ContinuousQueryNetwork* net)
    : round_(round),
      net_(net),
      stats0_(net->stats()),
      metrics0_(net->TotalMetrics()),
      events0_(net->simulator()->total_events_run()) {}

int64_t Measure::CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void Measure::Record(SpanKind kind, uint64_t tuples, uint64_t wall_ns,
                     uint64_t cpu_ns, uint64_t allocs, bool ok) {
  RoundResult& r = *round_;
  ++r.ops;
  if (!ok) ++r.failed_ops;
  r.tuples += tuples;
  r.op_ns += wall_ns;
  r.cpu_ns += cpu_ns;
  r.op_allocs += allocs;
  r.op_wall_us.push_back(static_cast<double>(wall_ns) / 1e3);
  r.op_cpu_us.push_back(static_cast<double>(cpu_ns) / 1e3);
  switch (kind) {
    case SpanKind::kOpSubmit:
      ++r.submits;
      r.submit_ns += wall_ns;
      break;
    case SpanKind::kOpUnsubscribe:
      ++r.unsubscribes;
      r.unsubscribe_ns += wall_ns;
      break;
    case SpanKind::kOpPrune:
      ++r.prunes;
      r.prune_ns += wall_ns;
      break;
    default:
      break;
  }
}

void Measure::End(ContentDigest* digest) {
  Counters& c = round_->counters;
  const sim::NetStats d = net_->stats().Since(stats0_);
  for (size_t i = 0; i < kMsgClasses; ++i) {
    const auto cls = static_cast<sim::MsgClass>(i);
    c.hops[i] += d.hops(cls);
    c.drops[i] += d.dropped(cls);
    c.bytes[i] += d.bytes(cls);
  }
  c.total_hops += d.total_hops();
  c.total_bytes += d.total_bytes();
  c.deferred += d.deferred();
  c.shed += d.shed();
  c.events += net_->simulator()->total_events_run() - events0_;

  // NodeMetrics has no Since(); add the delta field by field.
  const core::NodeMetrics now = net_->TotalMetrics();
  const core::NodeMetrics& was = metrics0_;
  core::NodeMetrics& m = c.metrics;
  m.filter_ops_attr += now.filter_ops_attr - was.filter_ops_attr;
  m.filter_ops_value += now.filter_ops_value - was.filter_ops_value;
  m.tuples_received_attr += now.tuples_received_attr - was.tuples_received_attr;
  m.tuples_received_value +=
      now.tuples_received_value - was.tuples_received_value;
  m.joins_received += now.joins_received - was.joins_received;
  m.queries_received += now.queries_received - was.queries_received;
  m.rewrites_sent += now.rewrites_sent - was.rewrites_sent;
  m.rewrites_skipped_dup += now.rewrites_skipped_dup - was.rewrites_skipped_dup;
  m.rewrites_skipped_nosol +=
      now.rewrites_skipped_nosol - was.rewrites_skipped_nosol;
  m.notifications_created +=
      now.notifications_created - was.notifications_created;
  m.reliable_sent += now.reliable_sent - was.reliable_sent;
  m.reliable_retries += now.reliable_retries - was.reliable_retries;
  m.reliable_acks_sent += now.reliable_acks_sent - was.reliable_acks_sent;
  m.reliable_dups_suppressed +=
      now.reliable_dups_suppressed - was.reliable_dups_suppressed;
  m.reliable_abandoned += now.reliable_abandoned - was.reliable_abandoned;
  m.adapt_directives += now.adapt_directives - was.adapt_directives;
  m.adapt_redirects += now.adapt_redirects - was.adapt_redirects;
  m.adapt_reships += now.adapt_reships - was.adapt_reships;
  for (size_t i = 0; i < m.received_by_type.size(); ++i) {
    m.received_by_type[i] += now.received_by_type[i] - was.received_by_type[i];
  }
  m.msgs_unhandled += now.msgs_unhandled - was.msgs_unhandled;

  c.storage.Accumulate(net_->TotalStorage());
  digest->Drain(*net_);
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

RoundTracing::RoundTracing(bool traced, core::ContinuousQueryNetwork* net,
                           size_t sample_frames) {
  if (traced) seams_ = std::make_unique<SeamTracing>(net, sample_frames);
}

void RoundTracing::Finish(RoundResult* round, const rel::Catalog& catalog) {
  if (seams_ == nullptr) return;
  TracingTransport& t = seams_->transport();
  round->seam_frames += t.frames();
  round->seam_messages += t.messages();
  for (const chord::HopFrame& frame : t.TakeSample()) {
    CodecStats& c = round->codec;
    ++c.frames;
    const int64_t t0 = NowNs();
    const std::vector<uint8_t> bytes = core::EncodeHopFrame(frame);
    const int64_t t1 = NowNs();
    c.encode_ns += static_cast<uint64_t>(t1 - t0);
    if (bytes.empty()) {
      ++c.unencodable;
      continue;
    }
    c.bytes += bytes.size();
    chord::HopFrame decoded;
    const int64_t t2 = NowNs();
    const bool ok =
        core::DecodeHopFrame(bytes.data(), bytes.size(), catalog, &decoded);
    c.decode_ns += static_cast<uint64_t>(NowNs() - t2);
    if (!ok) {
      round->check_failures.push_back(
          "codec: an encoded frame failed to decode");
    }
  }
  seams_.reset();
}

void CompareContent(const std::string& what,
                    const std::set<std::string>& expected,
                    const std::set<std::string>& actual, RoundResult* round) {
  if (expected == actual) return;
  std::vector<std::string> missing, extra;
  std::set_difference(expected.begin(), expected.end(), actual.begin(),
                      actual.end(), std::back_inserter(missing));
  std::set_difference(actual.begin(), actual.end(), expected.begin(),
                      expected.end(), std::back_inserter(extra));
  round->check_failures.push_back(
      what + ": " + std::to_string(missing.size()) +
      " notifications missing, " + std::to_string(extra.size()) +
      " spurious (oracle has " + std::to_string(expected.size()) + ")");
}

}  // namespace perfbench
