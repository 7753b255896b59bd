// Shared infrastructure for the figure-regeneration benchmarks. Every
// binary reproduces one table/figure of the paper's evaluation chapter:
// it prints the series the figure plots plus the paper's qualitative
// expectation, so EXPERIMENTS.md can record paper-vs-measured.
//
// Scale: defaults finish in seconds on a laptop core. Set CONTJOIN_SCALE
// (e.g. 4 or 10) to scale node, query and tuple counts toward the paper's
// 10^4-node / 10^5-query operating point.

#ifndef CONTJOIN_BENCH_BENCH_COMMON_H_
#define CONTJOIN_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "workload/driver.h"

namespace contjoin::bench {

/// CONTJOIN_SCALE environment multiplier (default 1.0). Exits with a fatal
/// diagnostic when the variable is set but not a positive number.
double ScaleFactor();

/// base * ScaleFactor(), at least `min`.
size_t Scaled(size_t base, size_t min = 1);

/// Baseline configuration shared by the engine benchmarks (DESIGN.md §5):
/// 512 nodes, 8 relation pairs x 4 integer attributes, |dom| = 50 000,
/// Zipf theta = 0.9, seed 42. Individual figures override what they sweep.
workload::DriverConfig DefaultConfig();

/// Prints the standard figure banner.
void PrintFigure(const std::string& id, const std::string& title,
                 const std::string& expectation);

/// Prints the effective (post-CONTJOIN_SCALE) workload sizes as a header
/// line, so every figure records the operating point it actually ran at.
/// Pass 0 for a dimension the figure sweeps (or does not use); it prints
/// as "swept".
void PrintEffective(size_t nodes, size_t queries, size_t tuples);

/// Prints a separator-formatted row: columns joined by '\t'.
void PrintRow(const std::string& row);

/// Convenience formatting.
std::string Fmt(double v);
std::string Fmt(uint64_t v);

/// A JSON object whose fields keep insertion order. A record renders on
/// one line, {"key": value, ...}; a BENCH_*.json file is one such object
/// written with one top-level field per line and one record per line in
/// each list.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v);  // Formatted by Fmt.
  JsonObject& Int(const std::string& key, uint64_t v);
  JsonObject& Bool(const std::string& key, bool v);
  JsonObject& Str(const std::string& key, const std::string& v);
  JsonObject& Obj(const std::string& key, const JsonObject& v);
  JsonObject& List(const std::string& key, const std::vector<JsonObject>& v);

  /// {"key": value, ...} on one line.
  std::string Line() const;
  /// Writes the object to `path` as a BENCH_*.json document.
  void WriteFile(const std::string& path) const;

 private:
  JsonObject& Raw(const std::string& key, std::string value);

  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Runs the standard two-phase experiment: install `num_queries`, reset the
/// load counters, stream `num_tuples`, drain inboxes. Returns the traffic
/// delta of the streaming phase.
struct PhaseResult {
  sim::NetStats traffic;
  size_t notifications = 0;
};
PhaseResult RunStandardPhases(workload::ExperimentDriver* driver,
                              size_t num_queries, size_t num_tuples);

}  // namespace contjoin::bench

#endif  // CONTJOIN_BENCH_BENCH_COMMON_H_
