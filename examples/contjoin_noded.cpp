// contjoin_noded: one process of a multi-process continuous-query ring.
//
// The N-node overlay is partitioned over D daemons; daemon i owns every
// node whose serial s satisfies s % D == i. Each daemon instantiates the
// full engine (ring topology and routing tables are pure functions of the
// shared options, so every process derives the identical ring), but
// application state only ever mutates at a node's owning daemon: protocol
// hops addressed to locally-owned nodes stay in the local simulator, hops
// to remotely-owned nodes are serialized by the wire codec and shipped to
// the owner over TCP (chord::TcpTransport), where they re-enter that
// simulator via Node::ApplyHop. Clients submit queries and tuples to the
// daemon owning the origin node and drain notifications from the daemon
// owning each subscriber.
//
// Scope: every overlay hop is a typed frame, so every protocol path
// travels the wire: query and tuple indexing, rewriting, evaluation, JFRT
// direct joins and their acks, notification delivery, reliable-delivery
// acks/retries, §4.7 migration state transfer and one-time-join results.
//
//   $ ./contjoin_noded --index 0 --daemons 5 --nodes 20 --port-base 9800
//       [--algorithm sai|daiq|dait|daiv] [--reliability on|off]
//       [--jfrt on|off] [--seed S]

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "chord/tcp_transport.h"
#include "core/codec.h"
#include "core/engine.h"
#include "ring_common.h"

using namespace contjoin;

namespace {

struct DaemonArgs {
  int index = 0;
  int daemons = 1;
  size_t nodes = 20;
  int port_base = 9800;
  core::Algorithm algorithm = core::Algorithm::kSai;
  bool reliability = true;
  bool jfrt = false;
  uint64_t seed = 7;
};

bool ParseArgs(int argc, char** argv, DaemonArgs* out) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--index") {
      out->index = std::atoi(value.c_str());
    } else if (flag == "--daemons") {
      out->daemons = std::atoi(value.c_str());
    } else if (flag == "--nodes") {
      out->nodes = static_cast<size_t>(std::atoll(value.c_str()));
    } else if (flag == "--port-base") {
      out->port_base = std::atoi(value.c_str());
    } else if (flag == "--algorithm") {
      if (value == "sai") out->algorithm = core::Algorithm::kSai;
      else if (value == "daiq") out->algorithm = core::Algorithm::kDaiQ;
      else if (value == "dait") out->algorithm = core::Algorithm::kDaiT;
      else if (value == "daiv") out->algorithm = core::Algorithm::kDaiV;
      else return false;
    } else if (flag == "--reliability") {
      out->reliability = value == "on";
    } else if (flag == "--jfrt") {
      out->jfrt = value == "on";
    } else if (flag == "--seed") {
      out->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      return false;
    }
  }
  return out->daemons > 0 && out->index >= 0 && out->index < out->daemons;
}

std::string RunCommand(core::ContinuousQueryNetwork& net,
                       const DaemonArgs& args, const std::string& line,
                       bool* quit) {
  std::vector<std::string> tokens = ringdemo::SplitTokens(line);
  if (tokens.empty()) return "err empty command";
  const std::string& cmd = tokens[0];

  if (cmd == "quit") {
    *quit = true;
    return "ok";
  }
  if (cmd == "advance") {
    if (tokens.size() != 2) return "err usage: advance <time>";
    uint64_t when = std::strtoull(tokens[1].c_str(), nullptr, 10);
    if (when > net.simulator()->Now()) net.simulator()->AdvanceTo(when);
    return "ok";
  }
  if (cmd == "drain") {
    std::string out;
    for (size_t i = static_cast<size_t>(args.index); i < net.num_nodes();
         i += static_cast<size_t>(args.daemons)) {
      for (const core::Notification& n : net.TakeNotifications(i)) {
        if (!out.empty()) out += '\n';
        out += ringdemo::PrintableKey(n);
      }
    }
    return out;
  }
  if (cmd == "submit" || cmd == "insert") {
    if (tokens.size() < 3) return "err usage: " + cmd + " <node> ...";
    size_t node = static_cast<size_t>(std::atoll(tokens[1].c_str()));
    if (node >= net.num_nodes()) return "err node out of range";
    if (node % static_cast<size_t>(args.daemons) !=
        static_cast<size_t>(args.index)) {
      return "err node " + tokens[1] + " is not owned by this daemon";
    }
    if (cmd == "submit") {
      std::string sql;
      for (size_t i = 2; i < tokens.size(); ++i) {
        if (i > 2) sql += ' ';
        sql += tokens[i];
      }
      auto key = net.SubmitQuery(node, sql);
      if (!key.ok()) return "err " + key.status().ToString();
      return "ok " + key.value();
    }
    std::vector<rel::Value> values;
    for (size_t i = 3; i < tokens.size(); ++i) {
      values.push_back(ringdemo::ParseValue(tokens[i]));
    }
    Status st = net.InsertTuple(node, tokens[2], std::move(values));
    if (!st.ok()) return "err " + st.ToString();
    return "ok";
  }
  if (cmd == "status") {
    // Filled in by the caller, which also sees the transport.
    return "err status handled by caller";
  }
  return "err unknown command '" + cmd + "'";
}

}  // namespace

int main(int argc, char** argv) {
  DaemonArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: contjoin_noded --index I --daemons D --nodes N "
                 "--port-base P [--algorithm sai|daiq|dait|daiv] "
                 "[--reliability on|off] [--jfrt on|off] [--seed S]\n");
    return 2;
  }

  core::Options options;
  options.num_nodes = args.nodes;
  options.algorithm = args.algorithm;
  options.reliability.enabled = args.reliability;
  options.use_jfrt = args.jfrt;
  options.seed = args.seed;
  core::ContinuousQueryNetwork net(options);
  if (!ringdemo::RegisterRingSchemas(net.catalog())) return 1;
  // One engine thread: socket polling, command execution and simulation
  // interleave on the main thread.
  net.simulator()->SetWorkers(1);

  chord::TcpTransportOptions topts;
  topts.listen_port = static_cast<uint16_t>(args.port_base + args.index);
  topts.self = args.index;
  for (int i = 0; i < args.daemons; ++i) {
    topts.peers.push_back("127.0.0.1:" + std::to_string(args.port_base + i));
  }
  topts.owner_of = [&args](const chord::Node& node) {
    return static_cast<int>(node.serial() %
                            static_cast<uint64_t>(args.daemons));
  };
  topts.encode_frame = core::EncodeHopFrame;
  chord::TcpTransport transport(net.network(), topts);
  net.network()->set_transport(&transport);
  if (!transport.Listen()) {
    std::fprintf(stderr, "contjoin_noded[%d]: cannot listen on port %d\n",
                 args.index, args.port_base + args.index);
    return 1;
  }

  bool quit = false;
  transport.set_message_handler([&](int fd, uint8_t tag,
                                    std::vector<uint8_t> payload) {
    if (tag == chord::TcpTransport::kTagHop) {
      wire::Reader r(payload.data(), payload.size());
      chord::NodeId to = r.Id();
      if (!r.ok()) return;
      chord::HopFrame frame;
      if (!core::DecodeHopFrame(payload.data() + 20, payload.size() - 20,
                                *net.catalog(), &frame)) {
        return;
      }
      chord::Node* node = net.network()->FindById(to);
      if (node == nullptr || !node->alive()) {
        net.network()->CountDrop(frame.cls);
        return;
      }
      net.simulator()->ScheduleSharded(
          0, node->serial(),
          [node, frame = std::move(frame)]() mutable {
            node->ApplyHop(std::move(frame));
          });
      net.simulator()->Run();
      return;
    }
    if (tag != ringdemo::kTagCmd) return;
    std::string line(payload.begin(), payload.end());
    std::string reply;
    if (line == "status") {
      bool busy =
          net.simulator()->pending_events() > 0 || !transport.idle();
      reply = busy ? "busy" : "idle";
    } else {
      reply = RunCommand(net, args, line, &quit);
    }
    transport.SendOn(fd, ringdemo::kTagReply,
                     std::vector<uint8_t>(reply.begin(), reply.end()));
  });

  while (!quit) {
    transport.Poll(/*timeout_ms=*/20);
    net.simulator()->Run();
  }
  // Push the final "ok" out before closing.
  for (int i = 0; i < 5 && !transport.idle(); ++i) transport.Poll(10);
  transport.CloseAll();
  net.network()->set_transport(nullptr);
  return 0;
}
