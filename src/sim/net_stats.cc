#include "sim/net_stats.h"

#include <sstream>

namespace contjoin::sim {

const char* MsgClassName(MsgClass c) {
  switch (c) {
    case MsgClass::kLookup:
      return "lookup";
    case MsgClass::kMaintenance:
      return "maintenance";
    case MsgClass::kQueryIndex:
      return "query-index";
    case MsgClass::kTupleIndex:
      return "tuple-index";
    case MsgClass::kRewrittenQuery:
      return "join";
    case MsgClass::kNotification:
      return "notification";
    case MsgClass::kControl:
      return "control";
    case MsgClass::kOneTime:
      return "one-time";
    case MsgClass::kClassCount:
      break;
  }
  return "unknown";
}

void NetStats::Reset() {
  for (size_t i = 0; i < kSlots; ++i) Store(i, 0);
}

NetStats NetStats::Since(const NetStats& earlier) const {
  NetStats out;
  for (size_t i = 0; i < kSlots; ++i) out.Store(i, Load(i) - earlier.Load(i));
  return out;
}

uint64_t NetStats::Sum(PerClass kind) const {
  uint64_t total = 0;
  for (size_t i = 0; i < kNumClasses; ++i) {
    total += Load(Slot(kind, static_cast<MsgClass>(i)));
  }
  return total;
}

std::string NetStats::Report() const {
  std::ostringstream out;
  out << "total overlay hops: " << total_hops();
  if (dropped() > 0) out << " (dropped: " << dropped() << ")";
  out << "\n";
  for (size_t i = 0; i < kNumClasses; ++i) {
    const MsgClass c = static_cast<MsgClass>(i);
    if (hops(c) == 0 && dropped(c) == 0) continue;
    out << "  " << MsgClassName(c) << ": " << hops(c);
    if (dropped(c) > 0) out << " (dropped: " << dropped(c) << ")";
    out << "\n";
  }
  // Backpressure lines only appear when the serving extension is active,
  // keeping legacy reports (and their golden digests) byte-identical.
  if (shed() > 0) out << "  backpressure shed: " << shed() << "\n";
  if (deferred() > 0) out << "  backpressure deferred: " << deferred() << "\n";
  return out.str();
}

}  // namespace contjoin::sim
