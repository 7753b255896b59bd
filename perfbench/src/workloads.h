// The benchmark's four workloads. Each runs one round: it builds its
// engine(s) from the seed, installs its query population, warms up, then
// times a fixed operation sequence, so a round's length in operations
// never depends on how fast the host is.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RoundOptions {
  uint64_t seed = 1;
  bool traced = false;
  /// Feed the reference oracle over the seeded prefix and compare.
  bool check = false;
  /// Simulator workers; 0 = the workload's own setting.
  int workers = 0;
};

struct Workload {
  const char* name;
  /// What one timed operation is.
  std::string op;
  /// Size of a round, for the report.
  std::string shape;
  RoundResult (*run)(const RoundOptions& options);
};

const std::vector<Workload>& AllWorkloads();
const Workload* FindWorkload(const std::string& name);

/// The serving workload's p99 latency objective, in virtual ticks.
inline constexpr double kServingSloTicks = 32.0;

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
