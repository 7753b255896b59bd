#include "chord/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <tuple>
#include <utility>

#include "chord/network.h"
#include "chord/node.h"
#include "common/logging.h"
#include "common/wire.h"

namespace contjoin::chord {

namespace {

// Backstop against corrupt length prefixes; no protocol message comes close.
constexpr uint32_t kMaxMessageBytes = 64u << 20;

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Parses "host:port" into a loopback/IPv4 sockaddr. False on bad input.
bool ParseEndpoint(const std::string& endpoint, sockaddr_in* addr) {
  size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) return false;
  std::string host = endpoint.substr(0, colon);
  int port = std::atoi(endpoint.c_str() + colon + 1);
  if (port <= 0 || port > 65535) return false;
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<uint16_t>(port));
  return ::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) == 1;
}

}  // namespace

TcpTransport::TcpTransport(Network* network, TcpTransportOptions options)
    : network_(network), options_(std::move(options)) {
  peer_fds_.assign(options_.peers.size(), -1);
}

TcpTransport::~TcpTransport() { CloseAll(); }

bool TcpTransport::Listen() {
  std::lock_guard<std::mutex> lock(mu_);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return false;
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.listen_port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 64) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  SetNonBlocking(listen_fd_);
  return true;
}

void TcpTransport::SendHop(Node* from, const NodeId& to, HopFrame frame) {
  Node* dest = network_->FindById(to);
  if (dest == nullptr) {
    network_->CountDrop(frame.cls);
    return;
  }
  int owner = options_.owner_of
                  ? options_.owner_of(*dest)
                  : static_cast<int>(dest->serial() %
                                     std::max<size_t>(1, peer_fds_.size()));
  if (owner == options_.self || peer_fds_.empty()) {
    network_->sim_transport()->SendHop(from, to, std::move(frame));
    return;
  }

  CJ_CHECK(options_.encode_frame) << "a multi-daemon ring needs encode_frame";
  std::vector<uint8_t> body = options_.encode_frame(frame);
  // A shipped hop is still one overlay hop; the per-class counters stay
  // comparable with in-simulator runs (byte metering, when installed,
  // already ran in Network::TransmitHop).
  network_->CountHop(frame.cls);

  wire::Writer w;
  w.Id(to);
  std::vector<uint8_t> payload = w.Take();
  payload.insert(payload.end(), body.begin(), body.end());

  std::lock_guard<std::mutex> lock(mu_);
  int fd = PeerFd(owner);
  if (fd < 0) {
    network_->CountDrop(frame.cls);
    return;
  }
  QueueLocked(fd, kTagHop, payload.data(), payload.size());
  ++frames_sent_;
}

void TcpTransport::SendOn(int fd, uint8_t tag,
                          const std::vector<uint8_t>& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (conns_.count(fd) == 0) return;
  QueueLocked(fd, tag, payload.data(), payload.size());
}

int TcpTransport::PeerFd(int peer) {
  if (peer < 0 || static_cast<size_t>(peer) >= peer_fds_.size()) return -1;
  if (peer_fds_[peer] >= 0) return peer_fds_[peer];

  sockaddr_in addr;
  if (!ParseEndpoint(options_.peers[peer], &addr)) return -1;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  // Blocking connect: peers listen before any traffic flows (the client
  // only issues work once every daemon answered), so this succeeds
  // immediately on loopback.
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  SetNonBlocking(fd);
  SetNoDelay(fd);
  conns_[fd];  // Register for Poll (peers may answer on the same socket).
  peer_fds_[peer] = fd;
  return fd;
}

void TcpTransport::QueueLocked(int fd, uint8_t tag, const uint8_t* payload,
                               size_t size) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  std::vector<uint8_t>& out = it->second.out;
  uint32_t len = static_cast<uint32_t>(size) + 1;  // tag + payload.
  out.push_back(static_cast<uint8_t>(len));
  out.push_back(static_cast<uint8_t>(len >> 8));
  out.push_back(static_cast<uint8_t>(len >> 16));
  out.push_back(static_cast<uint8_t>(len >> 24));
  out.push_back(tag);
  out.insert(out.end(), payload, payload + size);
  FlushLocked(fd, it->second);
}

void TcpTransport::FlushLocked(int fd, Conn& conn) {
  while (!conn.out.empty()) {
    ssize_t n = ::send(fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn.out.erase(conn.out.begin(), conn.out.begin() + n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    CloseLocked(fd);
    return;
  }
}

void TcpTransport::CloseLocked(int fd) {
  ::close(fd);
  conns_.erase(fd);
  for (int& peer_fd : peer_fds_) {
    if (peer_fd == fd) peer_fd = -1;
  }
}

void TcpTransport::Poll(int timeout_ms) {
  std::vector<pollfd> fds;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (listen_fd_ >= 0) fds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& [fd, conn] : conns_) {
      short events = POLLIN;
      if (!conn.out.empty()) events |= POLLOUT;
      fds.push_back({fd, events, 0});
    }
  }
  if (::poll(fds.data(), fds.size(), timeout_ms) < 0) return;

  // fd, tag, payload of every message completed this round.
  std::vector<std::tuple<int, uint8_t, std::vector<uint8_t>>> inbox;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const pollfd& p : fds) {
      if (p.fd == listen_fd_) {
        if ((p.revents & POLLIN) == 0) continue;
        while (true) {
          int fd = ::accept(listen_fd_, nullptr, nullptr);
          if (fd < 0) break;
          SetNonBlocking(fd);
          SetNoDelay(fd);
          conns_[fd];
        }
        continue;
      }
      auto it = conns_.find(p.fd);
      if (it == conns_.end()) continue;
      if (p.revents & (POLLIN | POLLHUP | POLLERR)) {
        while (true) {
          uint8_t buf[65536];
          ssize_t n = ::recv(p.fd, buf, sizeof(buf), 0);
          if (n > 0) {
            it->second.in.insert(it->second.in.end(), buf, buf + n);
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          CloseLocked(p.fd);  // Peer departed (or hard error).
          it = conns_.end();
          break;
        }
        if (it == conns_.end()) continue;
      }
      if (p.revents & POLLOUT) FlushLocked(p.fd, it->second);
    }

    for (auto& [fd, conn] : conns_) {
      while (conn.in.size() >= 4) {
        uint32_t len = static_cast<uint32_t>(conn.in[0]) |
                       static_cast<uint32_t>(conn.in[1]) << 8 |
                       static_cast<uint32_t>(conn.in[2]) << 16 |
                       static_cast<uint32_t>(conn.in[3]) << 24;
        if (len < 1 || len > kMaxMessageBytes) {
          conn.in.clear();  // Corrupt stream; drop the buffered bytes.
          break;
        }
        if (conn.in.size() < 4 + static_cast<size_t>(len)) break;
        uint8_t tag = conn.in[4];
        std::vector<uint8_t> payload(conn.in.begin() + 5,
                                     conn.in.begin() + 4 + len);
        conn.in.erase(conn.in.begin(), conn.in.begin() + 4 + len);
        if (tag == kTagHop) ++frames_received_;
        inbox.emplace_back(fd, tag, std::move(payload));
      }
    }
  }

  // Dispatch outside the lock: handlers send replies, ship follow-up hops
  // (possibly dialing new peers), and run simulator events.
  for (auto& [fd, tag, payload] : inbox) {
    if (handler_) handler_(fd, tag, std::move(payload));
  }
}

bool TcpTransport::idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [fd, conn] : conns_) {
    if (!conn.out.empty() || !conn.in.empty()) return false;
  }
  return true;
}

void TcpTransport::CloseAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [fd, conn] : conns_) ::close(fd);
  conns_.clear();
  peer_fds_.assign(peer_fds_.size(), -1);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace contjoin::chord
