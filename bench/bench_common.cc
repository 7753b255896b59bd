#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace contjoin::bench {

double ScaleFactor() {
  // Parsed once: a typo'd multiplier (e.g. CONTJOIN_SCALE=1O) silently
  // truncating to 1 would invalidate a whole sweep, so reject anything
  // strtod cannot consume entirely.
  static const double factor = [] {
    const char* env = std::getenv("CONTJOIN_SCALE");
    if (env == nullptr || *env == '\0') return 1.0;
    char* end = nullptr;
    double v = std::strtod(env, &end);
    if (end == env || *end != '\0') {
      std::fprintf(stderr,
                   "fatal: CONTJOIN_SCALE=\"%s\" is not a number "
                   "(trailing junk at \"%s\")\n",
                   env, end == nullptr ? env : end);
      std::exit(2);
    }
    if (v <= 0) {
      std::fprintf(stderr, "fatal: CONTJOIN_SCALE=\"%s\" must be > 0\n", env);
      std::exit(2);
    }
    return v;
  }();
  return factor;
}

size_t Scaled(size_t base, size_t min) {
  size_t v = static_cast<size_t>(static_cast<double>(base) * ScaleFactor());
  return v < min ? min : v;
}

workload::DriverConfig DefaultConfig() {
  workload::DriverConfig cfg;
  cfg.engine.num_nodes = Scaled(512, 16);
  cfg.engine.seed = 42;
  cfg.workload.seed = 42;
  cfg.workload.num_relation_pairs = 8;
  cfg.workload.attrs_per_relation = 4;
  cfg.workload.domain = 50000;
  cfg.workload.zipf_theta = 0.9;
  return cfg;
}

void PrintFigure(const std::string& id, const std::string& title,
                 const std::string& expectation) {
  std::printf("# %s: %s\n", id.c_str(), title.c_str());
  std::printf("# paper expectation: %s\n", expectation.c_str());
  std::printf("# scale factor: %.2f (set CONTJOIN_SCALE to change)\n",
              ScaleFactor());
}

void PrintEffective(size_t nodes, size_t queries, size_t tuples) {
  auto fmt = [](size_t v) {
    return v == 0 ? std::string("swept") : std::to_string(v);
  };
  std::printf("# effective: %s nodes, %s queries, %s tuples\n",
              fmt(nodes).c_str(), fmt(queries).c_str(), fmt(tuples).c_str());
}

void PrintRow(const std::string& row) { std::printf("%s\n", row.c_str()); }

std::string Fmt(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<int64_t>(v)) && v < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
  }
  return buf;
}

std::string Fmt(uint64_t v) { return std::to_string(v); }

JsonObject& JsonObject::Raw(const std::string& key, std::string value) {
  fields_.emplace_back(key, std::move(value));
  return *this;
}

JsonObject& JsonObject::Num(const std::string& key, double v) {
  return Raw(key, Fmt(v));
}

JsonObject& JsonObject::Int(const std::string& key, uint64_t v) {
  return Raw(key, std::to_string(v));
}

JsonObject& JsonObject::Bool(const std::string& key, bool v) {
  return Raw(key, v ? "true" : "false");
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& v) {
  return Raw(key, "\"" + v + "\"");
}

JsonObject& JsonObject::Obj(const std::string& key, const JsonObject& v) {
  return Raw(key, v.Line());
}

JsonObject& JsonObject::List(const std::string& key,
                             const std::vector<JsonObject>& v) {
  std::string out = "[\n";
  for (size_t i = 0; i < v.size(); ++i) {
    out += "    " + v[i].Line() + (i + 1 < v.size() ? ",\n" : "\n");
  }
  return Raw(key, out + "  ]");
}

std::string JsonObject::Line() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + fields_[i].first + "\": " + fields_[i].second;
  }
  return out + "}";
}

void JsonObject::WriteFile(const std::string& path) const {
  std::ofstream file(path);
  file << "{\n";
  for (size_t i = 0; i < fields_.size(); ++i) {
    file << "  \"" << fields_[i].first << "\": " << fields_[i].second
         << (i + 1 < fields_.size() ? ",\n" : "\n");
  }
  file << "}\n";
}

PhaseResult RunStandardPhases(workload::ExperimentDriver* driver,
                              size_t num_queries, size_t num_tuples) {
  driver->InstallQueries(num_queries);
  driver->net().ResetLoadMetrics();
  (void)driver->TrafficSinceLastSnapshot();
  driver->StreamTuples(num_tuples);
  PhaseResult out;
  out.traffic = driver->TrafficSinceLastSnapshot();
  out.notifications = driver->DrainNotifications();
  return out;
}

}  // namespace contjoin::bench
