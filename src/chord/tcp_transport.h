// TcpTransport: the socket implementation of the transport seam. A ring of
// N overlay nodes is partitioned over D daemon processes; hops whose
// destination node is owned by this process fall through to the in-simulator
// transport, hops to remotely-owned nodes are encoded (via an injected
// frame encoder — the chord layer cannot serialize application payloads)
// and shipped to the owning peer over a length-prefixed TCP stream.
//
// The socket machinery is poll(2)-based and non-blocking: Poll() makes one
// round of accept/read/write progress and dispatches every complete inbound
// message to the installed handler. Messages are tagged bytes — the
// transport reserves kTagHop for its own frames and passes everything else
// (daemon control commands, replies) through opaquely, so one listening
// port serves both peers and clients.
//
// Wire framing: [u32 length][u8 tag][payload], little-endian length of
// tag+payload. A kTagHop payload is [20-byte destination identifier]
// [encoded HopFrame] (the frame itself does not carry its destination).

#ifndef CONTJOIN_CHORD_TCP_TRANSPORT_H_
#define CONTJOIN_CHORD_TCP_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "chord/transport.h"
#include "chord/types.h"

namespace contjoin::chord {

class Network;
class Node;

struct TcpTransportOptions {
  /// Port this process listens on (loopback only).
  uint16_t listen_port = 0;

  /// Index of this process in `peers`.
  int self = 0;

  /// "host:port" of every daemon in the ring, indexed by daemon number.
  std::vector<std::string> peers;

  /// Maps an overlay node to the daemon that owns it. Defaults to
  /// serial() % peers.size() when unset.
  std::function<int(const Node&)> owner_of;

  /// Serializes a hop frame (injected from the layer that owns the codec;
  /// required whenever `peers` names more than one daemon).
  std::function<std::vector<uint8_t>(const HopFrame&)> encode_frame;
};

class TcpTransport : public Transport {
 public:
  /// Message tag of an encoded hop frame. Other tag values are free for
  /// the embedding application (daemon command/reply channels).
  static constexpr uint8_t kTagHop = 1;

  /// Inbound message callback: connection fd (usable with SendOn for
  /// replies), tag byte, payload bytes.
  using MessageHandler =
      std::function<void(int fd, uint8_t tag, std::vector<uint8_t> payload)>;

  TcpTransport(Network* network, TcpTransportOptions options);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  void set_message_handler(MessageHandler handler) {
    handler_ = std::move(handler);
  }

  /// Binds and listens on options.listen_port. False on error.
  bool Listen();

  /// Locally-owned destination: delegate to the in-simulator transport.
  /// Remote destination: encode and enqueue to the owning peer
  /// (connecting lazily). Unknown identifiers are dropped and counted,
  /// mirroring the sim transport's dead-node drops.
  void SendHop(Node* from, const NodeId& to, HopFrame frame) override;

  /// Queues a tagged message on an accepted connection (replies).
  void SendOn(int fd, uint8_t tag, const std::vector<uint8_t>& payload);

  /// One round of socket progress: accepts, reads, writes; blocks at most
  /// `timeout_ms`. Complete inbound messages are dispatched to the handler
  /// after the socket sweep, so handlers may freely send (even connect).
  void Poll(int timeout_ms);

  /// True when every outbound byte has been handed to the kernel and no
  /// inbound message is partially read — the process's contribution to
  /// ring-wide quiescence.
  bool idle() const;

  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t frames_received() const { return frames_received_; }

  void CloseAll();

 private:
  struct Conn {
    std::vector<uint8_t> in;
    std::vector<uint8_t> out;
  };

  /// Connected fd for peer daemon `peer`, dialing on first use; -1 on
  /// connection failure.
  int PeerFd(int peer);
  void QueueLocked(int fd, uint8_t tag, const uint8_t* payload, size_t size);
  void FlushLocked(int fd, Conn& conn);
  void CloseLocked(int fd);

  Network* network_;
  TcpTransportOptions options_;
  MessageHandler handler_;

  mutable std::mutex mu_;
  int listen_fd_ = -1;
  std::map<int, Conn> conns_;
  std::vector<int> peer_fds_;  // daemon index -> fd, -1 when not connected.

  uint64_t frames_sent_ = 0;
  uint64_t frames_received_ = 0;
};

}  // namespace contjoin::chord

#endif  // CONTJOIN_CHORD_TCP_TRANSPORT_H_
