// Tracing wrappers installed on the engine's public seams for a traced
// round: a chord::Application per node that forwards to the engine's
// HandleMessage / HandleStoredItems (one span per dispatched message,
// named by the role its CqMsgType plays), and a chord::Transport that
// delegates to the network's in-simulator transport (one span per typed
// hop). Neither changes what the engine does, so a traced round's
// deterministic counters equal an untraced round's.

#ifndef PERFBENCH_SEAMS_H_
#define PERFBENCH_SEAMS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "chord/transport.h"
#include "chord/types.h"
#include "core/engine.h"
#include "trace.h"

namespace perfbench {

// The benchmark names engine types by their layer namespace (core::,
// chord::, ...), as the engine's own code does.
using namespace contjoin;

/// Role of a dispatched message, by its CqMsgType (and, for
/// unsubscriptions, the stage it is at).
SpanKind RoleOf(const chord::AppMessage& msg);

class TracingApp : public chord::Application {
 public:
  explicit TracingApp(core::ContinuousQueryNetwork* engine)
      : engine_(engine) {}

  void HandleMessage(chord::Node& node, const chord::AppMessage& msg) override;
  void HandleStoredItems(chord::Node& node, const chord::NodeId& key,
                         std::vector<chord::PayloadPtr> items) override;

 private:
  core::ContinuousQueryNetwork* engine_;
};

class TracingTransport : public chord::Transport {
 public:
  /// With `sample_frames` > 0, copies of the first that many frames are
  /// kept for the codec measurement after the round.
  TracingTransport(chord::Network* network, size_t sample_frames)
      : network_(network), sample_cap_(sample_frames) {}

  void SendHop(chord::Node* from, const chord::NodeId& to,
               chord::HopFrame frame) override;

  uint64_t frames() const { return frames_.load(std::memory_order_relaxed); }
  uint64_t messages() const {
    return messages_.load(std::memory_order_relaxed);
  }
  /// The sampled frames; read only after the round.
  std::vector<chord::HopFrame> TakeSample();

 private:
  chord::Network* network_;
  size_t sample_cap_;
  std::atomic<uint64_t> frames_{0};
  std::atomic<uint64_t> messages_{0};
  std::mutex sample_mu_;
  std::vector<chord::HopFrame> sample_;  // Guarded by sample_mu_.
};

/// Installs the wrappers on `engine` for its lifetime (restores the
/// engine as every node's application and the default transport on
/// destruction).
class SeamTracing {
 public:
  SeamTracing(core::ContinuousQueryNetwork* engine, size_t sample_frames);
  ~SeamTracing();

  SeamTracing(const SeamTracing&) = delete;
  SeamTracing& operator=(const SeamTracing&) = delete;

  TracingTransport& transport() { return transport_; }

 private:
  core::ContinuousQueryNetwork* engine_;
  TracingApp app_;
  TracingTransport transport_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SEAMS_H_
