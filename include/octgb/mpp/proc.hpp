#pragma once
/// \file proc.hpp
/// Out-of-process transport endpoint + per-process runtime (DESIGN.md
/// §2.10).
///
/// Ranks are real processes started by tools/octgb_launch. Rendezvous is a
/// job directory (environment variables below): it holds the shared-memory
/// segment (mpp/shm.hpp), one `ep.<rank>` port file per rank, and the
/// file-backed checkpoint store. Data paths, selected per peer by the
/// Topology:
///
///   * same node  → the pair's SPSC shm ring (frames flow through in
///     pieces when larger than the ring);
///   * cross node → one length-prefixed TCP connection per pair (loopback
///     in this harness), established lazily: the higher rank connects to
///     the lower rank's listener and introduces itself with a hello frame;
///     both directions share the socket.
///
/// Both media carry the wire frame codec of mpp/transport.hpp, so every
/// hop — including collective internals — is CRC-protected.
///
/// Failure semantics: a SIGKILLed rank process is the real-world analogue
/// of the in-thread injector's kill rule. The launcher reaps it and marks
/// it dead in the segment (the failure-detector ground truth); in-flight
/// frames are simply lost, exactly like an injected drop. A broken socket
/// (EOF, ECONNRESET, EPIPE, a cut landing mid-frame) is ConnectionLost:
/// the connection's initiator retries with capped exponential backoff and,
/// when the peer is genuinely gone, marks it dead so blocked receivers
/// fail fast with PeerDead instead of draining their deadlines. Heartbeat
/// frames flow over idle connections so wire-level liveness is exercised,
/// while the segment stays authoritative for death (only the launcher
/// reliably observes a SIGKILL).

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "octgb/mpp/mpp.hpp"
#include "octgb/mpp/shm.hpp"
#include "octgb/mpp/transport.hpp"

namespace octgb::mpp::proc {

/// Rendezvous environment variables set by the launcher for every rank.
inline constexpr const char* kEnvRank = "OCTGB_MPP_RANK";
inline constexpr const char* kEnvSize = "OCTGB_MPP_SIZE";
inline constexpr const char* kEnvDir = "OCTGB_MPP_DIR";

/// Reconnect schedule: capped exponential backoff, `attempts` tries.
struct BackoffPolicy {
  int attempts = 10;
  double base_ms = 5.0;
  double factor = 2.0;
  double cap_ms = 100.0;

  /// Sleep before attempt `i` (0-based; attempt 0 is immediate).
  double delay_ms(int i) const;
};

/// Wire-level counters for the mpp.transport.* metrics schema
/// (OBSERVABILITY.md).
struct TransportStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t shm_frames = 0;        ///< of frames_received
  std::uint64_t tcp_frames = 0;        ///< of frames_received
  std::uint64_t bytes_sent = 0;
  std::uint64_t reconnects = 0;        ///< successful re-establishments
  std::uint64_t connection_losses = 0; ///< sockets that broke
  std::uint64_t crc_failures = 0;      ///< frames failing CRC on receive
  std::uint64_t heartbeats_sent = 0;   ///< wire heartbeat frames
  std::uint64_t sends_dropped_dead = 0;///< sends to already-dead peers
};

/// The out-of-process transport endpoint for one rank. Single-threaded
/// like the Comm that owns it; not movable once constructed (peers hold
/// its listener address).
class ProcEndpoint final : public detail::Endpoint {
 public:
  ProcEndpoint(shm::Segment* segment, int rank, std::string job_dir,
               BackoffPolicy backoff = {});
  ~ProcEndpoint() override;
  ProcEndpoint(const ProcEndpoint&) = delete;
  ProcEndpoint& operator=(const ProcEndpoint&) = delete;

  const Topology& topology() const override { return topology_; }
  double default_deadline_ms() const override;
  void send(int dest, int tag, const void* data, std::size_t bytes,
            std::uint64_t op) override;
  CommResult recv(int src, int tag, void* data, std::size_t bytes,
                  double deadline_ms, int abort_epoch) override;
  bool is_alive(int rank) const override;
  int failure_epoch() const override;
  std::uint64_t heartbeat_of(int rank) const override;
  void heartbeat() override;

  const TransportStats& stats() const { return stats_; }

 private:
  /// A received frame waiting to be matched by recv().
  struct Pending {
    int tag = 0;
    bool crc_ok = true;
    std::vector<std::uint8_t> payload;
  };

  void drain_step(bool allow_sleep);
  void pump_rings();
  void pump_fd(int peer);
  /// Extract complete frames from a staging buffer; false when the stream
  /// lost sync (TCP only — the caller drops the connection).
  bool parse_buffer(int src, std::vector<std::uint8_t>& buf, bool from_shm);
  void accept_connections();
  void adopt_handshakes();
  void lose_connection(int peer);
  int ensure_connection(int dest);
  int connect_to(int peer);
  void send_tcp(int dest, const std::vector<std::uint8_t>& frame);
  void send_wire_heartbeats();

  shm::Segment* seg_;
  int rank_;
  int size_;
  Topology topology_;
  std::string dir_;
  BackoffPolicy backoff_;

  std::vector<shm::Ring> in_rings_;   ///< per src; invalid when no shm path
  std::vector<shm::Ring> out_rings_;  ///< per dst
  std::vector<std::vector<std::uint8_t>> ring_buf_;  ///< per-src staging

  int listen_fd_ = -1;
  std::vector<int> peer_fd_;                          ///< per peer; -1 none
  std::vector<std::vector<std::uint8_t>> fd_buf_;     ///< per-peer staging
  std::vector<std::uint8_t> ever_connected_;  ///< per peer: reconnect stat
  /// Accepted sockets whose hello frame has not arrived yet.
  struct Handshake {
    int fd = -1;
    std::vector<std::uint8_t> buf;
  };
  std::vector<Handshake> handshakes_;

  std::vector<std::deque<Pending>> pending_;  ///< per src
  std::chrono::steady_clock::time_point last_heartbeat_wire_;
  TransportStats stats_;
};

/// Entry point helper for rank executables (tools/octgb_worker).
class ProcessRuntime {
 public:
  /// Rendezvous read from the environment.
  struct Env {
    int rank = -1;
    int size = 0;
    std::string dir;
  };

  /// Parse kEnvRank/kEnvSize/kEnvDir; nullopt when not launched by
  /// octgb_launch.
  static std::optional<Env> from_env();

  struct RunResult {
    perf::CommCounters counters;
    TransportStats transport;
  };

  /// Attach the job segment, build the endpoint + Comm, run `rank_main`.
  /// Returns this rank's communication and transport counters.
  static RunResult run(const Env& env,
                       const std::function<void(Comm&)>& rank_main);
};

}  // namespace octgb::mpp::proc
