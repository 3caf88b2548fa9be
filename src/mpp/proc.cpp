#include "octgb/mpp/proc.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "octgb/mpp/faults.hpp"
#include "octgb/trace/trace.hpp"
#include "octgb/util/check.hpp"
#include "octgb/util/io.hpp"
#include "octgb/util/strings.hpp"

namespace octgb::mpp::proc {

namespace {

using Clock = std::chrono::steady_clock;

// Reserved control tags. User and collective tags are always >= 0, so
// negative tags never collide with real traffic.
constexpr int kHelloTag = -1;
constexpr int kHeartbeatTag = -2;

// Cadence of wire heartbeat frames on idle TCP connections.
constexpr auto kWireHeartbeatEvery = std::chrono::milliseconds(50);

// Sleep when a drain pass finds nothing (bounds shm latency while keeping
// an idle waiter off the CPU).
constexpr int kIdleSleepUs = 200;

std::string port_file(const std::string& dir, int rank) {
  return dir + "/ep." + std::to_string(rank);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void sleep_ms(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<long long>(ms * 1000.0)));
}

}  // namespace

double backoff::delay_ms(int i) {
  if (i <= 0) return 0.0;
  return std::min(cap_ms, base_ms * std::pow(factor, i - 1));
}

ProcEndpoint::ProcEndpoint(shm::Segment* segment, int rank,
                           std::string job_dir)
    : seg_(segment),
      rank_(rank),
      size_(segment->ranks()),
      topology_(segment->topology()),
      dir_(std::move(job_dir)),
      last_heartbeat_wire_(Clock::now()) {
  OCTGB_CHECK_MSG(rank_ >= 0 && rank_ < size_,
                  "rank " << rank_ << " outside segment of " << size_);
  in_rings_.resize(size_);
  out_rings_.resize(size_);
  ring_buf_.resize(size_);
  fd_buf_.resize(size_);
  peer_fd_.assign(size_, -1);
  ever_connected_.assign(size_, 0);
  pending_.resize(size_);
  for (int r = 0; r < size_; ++r) {
    if (r == rank_) continue;
    in_rings_[r] = seg_->ring(r, rank_);
    out_rings_[r] = seg_->ring(rank_, r);
  }

  // Listener for cross-node peers (and for reconnects from any of them).
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  OCTGB_CHECK_MSG(listen_fd_ >= 0, "cannot create transport listener");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  OCTGB_CHECK_MSG(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)) == 0,
                  "cannot bind transport listener");
  OCTGB_CHECK_MSG(::listen(listen_fd_, size_ + 4) == 0,
                  "cannot listen on transport socket");
  socklen_t len = sizeof(addr);
  OCTGB_CHECK_MSG(::getsockname(listen_fd_,
                                reinterpret_cast<sockaddr*>(&addr),
                                &len) == 0,
                  "cannot read transport listener port");
  set_nonblocking(listen_fd_);
  const int port = static_cast<int>(ntohs(addr.sin_port));
  OCTGB_CHECK_MSG(util::io::write_file_atomic(port_file(dir_, rank_),
                                              std::to_string(port)),
                  "cannot publish rendezvous port file for rank " << rank_);

  // Eagerly dial every cross-node peer we initiate to (higher connects to
  // lower), so a rank that only ever *receives* from us still gets its
  // socket without having to dial back.
  for (int p = 0; p < size_; ++p) {
    if (p == rank_ || topology_.same_node(rank_, p)) continue;
    if (rank_ > p) ensure_connection(p);
  }
}

ProcEndpoint::~ProcEndpoint() {
  for (int fd : peer_fd_)
    if (fd >= 0) ::close(fd);
  for (auto& hs : handshakes_)
    if (hs.fd >= 0) ::close(hs.fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

double ProcEndpoint::default_deadline_ms() const {
  return seg_->default_deadline_ms();
}

bool ProcEndpoint::is_alive(int rank) const { return seg_->is_alive(rank); }

int ProcEndpoint::failure_epoch() const { return seg_->failure_epoch(); }

std::uint64_t ProcEndpoint::heartbeat_of(int rank) const {
  return seg_->heartbeat_of(rank);
}

void ProcEndpoint::heartbeat() { seg_->beat(rank_); }

// --- connection management --------------------------------------------------

int ProcEndpoint::connect_to(int peer) {
  for (int attempt = 0; attempt < backoff::attempts; ++attempt) {
    sleep_ms(backoff::delay_ms(attempt));
    if (!seg_->is_alive(peer)) return -1;
    std::string port_text;
    if (!util::io::read_file(port_file(dir_, peer), port_text))
      continue;  // peer has not published its listener yet
    const int port = std::atoi(port_text.c_str());
    if (port <= 0) continue;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) continue;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
            0 &&
        wire::write_frame_fd(fd, rank_, kHelloTag, nullptr, 0)) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      set_nonblocking(fd);
      if (ever_connected_[peer]) {
        ++stats_.reconnects;
        trace::instant("mpp.transport.reconnect");
      }
      ever_connected_[peer] = 1;
      return fd;
    }
    ::close(fd);
  }
  return -1;
}

int ProcEndpoint::ensure_connection(int dest) {
  if (peer_fd_[dest] >= 0) return peer_fd_[dest];
  if (!seg_->is_alive(dest)) return -1;
  if (rank_ > dest) {
    // We are the pair's initiator: dial (and re-dial) with backoff.
    const int fd = connect_to(dest);
    if (fd < 0) {
      // The peer's listener is unreachable after the full backoff
      // schedule: treat it as dead so receivers fail fast.
      seg_->mark_dead(dest);
      return -1;
    }
    peer_fd_[dest] = fd;
    return fd;
  }
  // The peer initiates: wait for its (re)connect to land on our listener.
  for (int attempt = 0; attempt < backoff::attempts; ++attempt) {
    sleep_ms(backoff::delay_ms(attempt));
    drain_step(false);
    if (peer_fd_[dest] >= 0) return peer_fd_[dest];
    if (!seg_->is_alive(dest)) return -1;
  }
  seg_->mark_dead(dest);
  return -1;
}

void ProcEndpoint::lose_connection(int peer) {
  if (peer_fd_[peer] < 0) return;
  ::close(peer_fd_[peer]);
  peer_fd_[peer] = -1;
  // A cut mid-frame leaves a partial frame in the staging buffer; it can
  // never complete on a fresh socket, so drop it (the in-flight message
  // is lost, like an injected drop — retry/recovery handles it).
  fd_buf_[peer].clear();
  ++stats_.connection_losses;
  trace::instant("mpp.transport.connection_lost");
}

void ProcEndpoint::accept_connections() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    set_nonblocking(fd);
    handshakes_.push_back(Handshake{fd, {}});
  }
}

void ProcEndpoint::adopt_handshakes() {
  for (std::size_t i = 0; i < handshakes_.size();) {
    Handshake& hs = handshakes_[i];
    std::uint8_t tmp[4096];
    bool dead_fd = false;
    for (;;) {
      const ssize_t n = ::recv(hs.fd, tmp, sizeof(tmp), 0);
      if (n > 0) {
        hs.buf.insert(hs.buf.end(), tmp, tmp + n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      dead_fd = true;
      break;
    }
    wire::FrameHeader h;
    if (hs.buf.size() >= sizeof(h)) {
      std::memcpy(&h, hs.buf.data(), sizeof(h));
      const std::size_t frame_len = sizeof(h) + h.payload_bytes;
      if (h.tag != kHelloTag || h.payload_bytes != 0 || h.src < 0 ||
          h.src >= size_ || h.src == rank_) {
        dead_fd = true;  // not a rank of ours — refuse
      } else if (hs.buf.size() >= frame_len) {
        const int peer = h.src;
        // A fresh hello supersedes any half-dead previous socket.
        if (peer_fd_[peer] >= 0) lose_connection(peer);
        peer_fd_[peer] = hs.fd;
        fd_buf_[peer].assign(hs.buf.begin() +
                                 static_cast<std::ptrdiff_t>(frame_len),
                             hs.buf.end());
        if (ever_connected_[peer]) {
          ++stats_.reconnects;
          trace::instant("mpp.transport.reconnect");
        }
        ever_connected_[peer] = 1;
        handshakes_.erase(handshakes_.begin() +
                          static_cast<std::ptrdiff_t>(i));
        continue;
      }
    }
    if (dead_fd) {
      ::close(hs.fd);
      handshakes_.erase(handshakes_.begin() +
                        static_cast<std::ptrdiff_t>(i));
      continue;
    }
    ++i;
  }
}

// --- receive path -----------------------------------------------------------

bool ProcEndpoint::parse_buffer(int src, std::vector<std::uint8_t>& buf,
                                bool from_shm) {
  std::size_t off = 0;
  while (buf.size() - off >= sizeof(wire::FrameHeader)) {
    wire::FrameHeader h;
    std::memcpy(&h, buf.data() + off, sizeof(h));
    if (h.payload_bytes > wire::kMaxFramePayload) {
      // A corrupt length field: the stream is unrecoverable. Rings are
      // private to the job and never lose sync short of memory
      // corruption, so there this is a hard contract break.
      OCTGB_CHECK_MSG(!from_shm, "shm ring stream from rank "
                                     << src << " is corrupt");
      buf.clear();
      return false;
    }
    const std::size_t frame_len = sizeof(h) + h.payload_bytes;
    if (buf.size() - off < frame_len) break;
    const std::uint8_t* payload = buf.data() + off + sizeof(h);
    if (h.tag != kHelloTag && h.tag != kHeartbeatTag) {
      Pending pd;
      pd.tag = h.tag;
      pd.crc_ok = faults::crc32(payload, h.payload_bytes) == h.crc;
      if (!pd.crc_ok) ++stats_.crc_failures;
      pd.payload.assign(payload, payload + h.payload_bytes);
      // Route by the fd/ring the frame arrived on, not the header's src
      // field — a corrupt header must not let traffic impersonate
      // another rank.
      pending_[src].push_back(std::move(pd));
    }
    ++stats_.frames_received;
    if (from_shm)
      ++stats_.shm_frames;
    else
      ++stats_.tcp_frames;
    off += frame_len;
  }
  if (off > 0)
    buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(off));
  return true;
}

void ProcEndpoint::pump_rings() {
  std::uint8_t tmp[8192];
  for (int src = 0; src < size_; ++src) {
    if (!in_rings_[src].valid()) continue;
    bool got = false;
    for (;;) {
      const std::size_t n = in_rings_[src].try_pop(tmp, sizeof(tmp));
      if (n == 0) break;
      ring_buf_[src].insert(ring_buf_[src].end(), tmp, tmp + n);
      got = true;
    }
    if (got) parse_buffer(src, ring_buf_[src], true);
  }
}

void ProcEndpoint::pump_fd(int peer) {
  std::uint8_t tmp[16384];
  for (;;) {
    const ssize_t n = ::recv(peer_fd_[peer], tmp, sizeof(tmp), 0);
    if (n > 0) {
      fd_buf_[peer].insert(fd_buf_[peer].end(), tmp, tmp + n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // 0 = clean close, < 0 = ECONNRESET and friends: either way the
    // connection is gone. Frames fully received before the close (a peer
    // often sends its last message and exits) must still be delivered;
    // only a trailing partial frame is lost with the connection.
    parse_buffer(peer, fd_buf_[peer], false);
    lose_connection(peer);
    return;
  }
  if (!parse_buffer(peer, fd_buf_[peer], false)) lose_connection(peer);
}

void ProcEndpoint::send_wire_heartbeats() {
  const auto now = Clock::now();
  if (now - last_heartbeat_wire_ < kWireHeartbeatEvery) return;
  last_heartbeat_wire_ = now;
  std::vector<std::uint8_t> frame;
  wire::encode_frame(rank_, kHeartbeatTag, nullptr, 0, frame);
  for (int p = 0; p < size_; ++p) {
    if (peer_fd_[p] < 0) continue;
    // Best effort: a full socket buffer just skips this beat.
    const ssize_t n = ::send(peer_fd_[p], frame.data(), frame.size(),
                             MSG_NOSIGNAL);
    if (n == static_cast<ssize_t>(frame.size()))
      ++stats_.heartbeats_sent;
    else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
             errno != EINTR)
      lose_connection(p);
  }
}

void ProcEndpoint::drain_step(bool allow_sleep) {
  const std::uint64_t before = stats_.frames_received;
  pump_rings();
  accept_connections();
  adopt_handshakes();
  for (int p = 0; p < size_; ++p)
    if (peer_fd_[p] >= 0) pump_fd(p);
  send_wire_heartbeats();
  if (allow_sleep && stats_.frames_received == before)
    ::usleep(kIdleSleepUs);
}

CommResult ProcEndpoint::recv(int src, int tag, void* data,
                              std::size_t bytes, double deadline_ms,
                              int abort_epoch) {
  const bool finite = deadline_ms > 0.0;
  const auto deadline =
      finite ? Clock::now() + std::chrono::microseconds(
                                  static_cast<long long>(deadline_ms *
                                                         1000.0))
             : Clock::time_point::max();
  for (;;) {
    auto& q = pending_[src];
    for (auto it = q.begin(); it != q.end(); ++it) {
      if (it->tag != tag) continue;
      if (!it->crc_ok) {
        // Consume the corrupt copy so a retry can match a clean resend.
        q.erase(it);
        return CommResult::failure(
            {CommStatus::ChecksumMismatch, rank_, src, tag, bytes});
      }
      OCTGB_CHECK_MSG(it->payload.size() == bytes,
                      "message size mismatch: got " << it->payload.size()
                                                    << ", want " << bytes);
      if (bytes) std::memcpy(data, it->payload.data(), bytes);
      q.erase(it);
      return CommResult::success({});
    }
    // Drain before trusting the dead flag: frames a rank pushed before
    // being SIGKILLed are still sitting in its rings/sockets and must be
    // deliverable after its death.
    drain_step(false);
    bool matched = false;
    for (const auto& pd : q)
      if (pd.tag == tag) matched = true;
    if (matched) continue;
    if (!seg_->is_alive(src))
      return CommResult::failure(
          {CommStatus::PeerDead, rank_, src, tag, bytes});
    if (abort_epoch >= 0 && seg_->failure_epoch() > abort_epoch)
      return CommResult::failure(
          {CommStatus::Timeout, rank_, src, tag, bytes});
    if (finite && Clock::now() >= deadline)
      return CommResult::failure(
          {CommStatus::Timeout, rank_, src, tag, bytes});
    ::usleep(kIdleSleepUs);
  }
}

// --- send path --------------------------------------------------------------

void ProcEndpoint::send(int dest, int tag, const void* data,
                        std::size_t bytes, std::uint64_t op) {
  (void)op;  // fault determinism is the in-thread transport's concern
  if (!seg_->is_alive(dest)) {
    ++stats_.sends_dropped_dead;
    return;
  }
  std::vector<std::uint8_t> frame;
  frame.reserve(sizeof(wire::FrameHeader) + bytes);
  wire::encode_frame(rank_, tag, data, bytes, frame);

  if (topology_.same_node(rank_, dest)) {
    shm::Ring& ring = out_rings_[dest];
    OCTGB_CHECK_MSG(ring.valid(), "no shm ring for same-node pair");
    std::size_t off = 0;
    while (off < frame.size()) {
      const std::size_t n =
          ring.try_push(frame.data() + off, frame.size() - off);
      off += n;
      if (n != 0) continue;
      if (!seg_->is_alive(dest)) {
        // Consumer died with the ring full: drop the rest (a dead peer's
        // ring never drains again).
        ++stats_.sends_dropped_dead;
        return;
      }
      // Ring full but consumer alive: drain our own inbox so a mutual
      // large exchange cannot deadlock on two full rings, then yield.
      drain_step(false);
      ::usleep(kIdleSleepUs);
    }
    ++stats_.frames_sent;
    stats_.bytes_sent += frame.size();
    return;
  }

  send_tcp(dest, frame);
}

void ProcEndpoint::send_tcp(int dest, const std::vector<std::uint8_t>& frame) {
  for (int round = 0;; ++round) {
    const int fd = ensure_connection(dest);
    if (fd < 0) {
      ++stats_.sends_dropped_dead;
      return;
    }
    std::size_t off = 0;
    bool broken = false;
    while (off < frame.size()) {
      const ssize_t n = ::send(fd, frame.data() + off, frame.size() - off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!seg_->is_alive(dest)) {
          ++stats_.sends_dropped_dead;
          return;
        }
        // Socket buffer full: drain our inbox (unblocking the peer if it
        // is stuck sending to us) and retry.
        drain_step(false);
        ::usleep(kIdleSleepUs);
        continue;
      }
      broken = true;  // EPIPE/ECONNRESET/...
      break;
    }
    if (!broken) {
      ++stats_.frames_sent;
      stats_.bytes_sent += frame.size();
      return;
    }
    lose_connection(dest);
    if (round + 1 >= backoff::attempts) {
      // Reconnects keep failing: give the peer up for dead so receivers
      // waiting on it fail fast.
      seg_->mark_dead(dest);
      ++stats_.sends_dropped_dead;
      return;
    }
    sleep_ms(backoff::delay_ms(round + 1));
  }
}

// --- per-process runtime ----------------------------------------------------

std::optional<ProcessRuntime::Env> ProcessRuntime::from_env() {
  const char* rank = std::getenv(kEnvRank);
  const char* size = std::getenv(kEnvSize);
  const char* dir = std::getenv(kEnvDir);
  if (rank == nullptr || size == nullptr || dir == nullptr)
    return std::nullopt;
  Env env;
  env.rank = std::atoi(rank);
  env.size = std::atoi(size);
  env.dir = dir;
  if (env.rank < 0 || env.size <= 0 || env.rank >= env.size ||
      env.dir.empty())
    return std::nullopt;
  return env;
}

ProcessRuntime::RunResult ProcessRuntime::run(
    const Env& env, const std::function<void(Comm&)>& rank_main) {
  shm::Segment seg = shm::Segment::attach(env.dir + "/shm");
  OCTGB_CHECK_MSG(seg.ranks() == env.size,
                  "segment has " << seg.ranks() << " ranks, env says "
                                 << env.size);
  ProcEndpoint ep(&seg, env.rank, env.dir);
  Comm comm = detail::make_comm(&ep, env.rank, env.size);
  rank_main(comm);
  return RunResult{comm.counters(), ep.stats()};
}

}  // namespace octgb::mpp::proc
