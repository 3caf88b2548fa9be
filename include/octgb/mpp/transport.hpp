#pragma once
/// \file transport.hpp
/// The transport seam of the mpp runtime (DESIGN.md §2.10).
///
/// Comm's public API (point-to-point, collectives, failure detector) is
/// transport-agnostic: every data-path and detector operation goes through
/// the detail::Endpoint interface below. Two transports implement it:
///
///   * the in-thread transport (src/mpp/mpp.cpp) — ranks are std::threads
///     sharing mailboxes, faults are injected by a seeded FaultInjector;
///   * the out-of-process transport (mpp/proc.hpp) — ranks are real
///     processes talking over lock-free shared-memory rings (intra-node)
///     and length-prefixed TCP sockets (inter-node), launched by
///     tools/octgb_launch; faults are real SIGKILLs delivered by the
///     launcher, and connection loss / short reads map onto the same
///     CommStatus taxonomy the recovery code already handles.
///
/// This header also defines that taxonomy (CommStatus/CommError) and the
/// wire frame codec shared by the shm rings and the TCP framing, so both
/// media carry the same CRC-protected envelope and can be truncation-swept
/// by the same tests.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "octgb/util/expected.hpp"

namespace octgb::mpp {

/// Maps ranks onto cluster nodes. Rank r lives on node r / ranks_per_node —
/// the block placement ibrun uses on Lonestar4. The out-of-process
/// transport also selects its medium from this: same_node pairs use
/// shared-memory rings, cross-node pairs use TCP.
struct Topology {
  int ranks_per_node = 12;

  int node_of(int rank) const { return rank / ranks_per_node; }
  bool same_node(int a, int b) const { return node_of(a) == node_of(b); }
};

// --- failure taxonomy -------------------------------------------------------

/// Why a recoverable communication operation failed.
enum class CommStatus : std::uint8_t {
  Timeout,           ///< deadline expired with no matching message
  PeerDead,          ///< the source rank died (failure detector)
  ChecksumMismatch,  ///< per-message CRC did not verify (corruption)
  ConnectionLost,    ///< transport connection dropped / frame truncated
};

/// Stable display name for a CommStatus ("timeout", ...).
const char* comm_status_name(CommStatus status);

/// Inverse of comm_status_name: parse a display name back to the status;
/// nullopt for unknown names. Used by log/metrics scrapers — the pair
/// round-trips for every enumerator (tested in mpp_test).
std::optional<CommStatus> comm_status_from_name(std::string_view name);

/// A failed communication operation: what went wrong and the (src, tag,
/// bytes) triple that identifies the message being waited for.
struct CommError {
  CommStatus status = CommStatus::Timeout;
  int rank = -1;           ///< the rank the operation ran on
  int src = -1;            ///< expected source rank
  int tag = 0;             ///< expected tag
  std::size_t bytes = 0;   ///< expected payload size

  /// Human-readable description including the (src, tag, bytes) triple.
  std::string describe() const;
};

/// Result of a recoverable receive.
using CommResult = util::Expected<util::Unit, CommError>;

/// Thrown by the *blocking* communication API when a failure-semantics
/// error occurs (deadline expiry under a default deadline, dead peer,
/// checksum mismatch, lost connection). Carries the structured CommError.
class CommException : public std::runtime_error {
 public:
  explicit CommException(CommError error)
      : std::runtime_error(error.describe()), error_(error) {}

  /// The structured error.
  const CommError& error() const { return error_; }

 private:
  CommError error_;
};

// --- the transport interface ------------------------------------------------

namespace detail {

/// Per-rank transport endpoint: what Comm needs from a medium — rank
/// placement and the default deadline, tagged send and matched receive,
/// and the failure detector. One instance per rank, alive for the
/// duration of the rank's run; Comm never owns it.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// Rank → node placement (drives intra/inter-node accounting and, for
  /// the out-of-process transport, the shm-vs-TCP medium choice).
  virtual const Topology& topology() const = 0;

  /// Deadline applied to plain blocking receives; 0 waits forever.
  virtual double default_deadline_ms() const = 0;

  /// Deliver `bytes` to `dest` under `tag`. `op` is the sender's comm-op
  /// index — the in-thread transport feeds it to the fault injector so
  /// fault schedules stay deterministic. Never blocks indefinitely: a
  /// dead or unreachable destination drops the message (the receiver
  /// observes the death through the failure detector, not a hang).
  virtual void send(int dest, int tag, const void* data, std::size_t bytes,
                    std::uint64_t op) = 0;

  /// Matched receive with deadline (<= 0 waits forever). When
  /// `abort_epoch` >= 0, the wait additionally aborts early once the
  /// failure epoch moves past it (returning PeerDead if `src` died, else
  /// Timeout) — the fail-fast contract retry-with-backoff relies on.
  virtual CommResult recv(int src, int tag, void* data, std::size_t bytes,
                          double deadline_ms, int abort_epoch) = 0;

  /// Failure detector: liveness, global failure epoch, heartbeats.
  virtual bool is_alive(int rank) const = 0;
  virtual int failure_epoch() const = 0;
  virtual std::uint64_t heartbeat_of(int rank) const = 0;
  /// Bump this rank's own heartbeat (called on every comm op).
  virtual void heartbeat() = 0;

  /// Injection hook run at the top of every comm op, after the heartbeat.
  /// The in-thread transport applies scheduled stalls/kills here; the
  /// out-of-process transport leaves it empty — its faults are real
  /// SIGKILLs delivered by the launcher.
  virtual void fault_hook(std::uint64_t op) { (void)op; }
};

}  // namespace detail

// --- wire frame codec -------------------------------------------------------
//
// Both out-of-process media (shm ring slots and TCP streams) carry the
// same envelope: a fixed header followed by the payload. The CRC is
// always on for the wire — unlike the in-thread transport's opt-in
// checksum, a real medium can corrupt bits without an injector's help —
// and covers the payload, so collective internals (bcast/reduce/gatherv
// hops) are protected hop by hop exactly like point-to-point sends.

namespace wire {

/// Fixed per-message envelope. `payload_bytes` leads so a stream reader
/// can length-prefix-frame without peeking further.
struct FrameHeader {
  std::uint32_t payload_bytes = 0;  ///< bytes following the header
  std::int32_t src = -1;            ///< sending rank
  std::int32_t tag = 0;             ///< message tag
  std::uint32_t crc = 0;            ///< CRC-32 of the payload
};

/// Refuse frames claiming more than this (a corrupt length field, not a
/// real message): 1 GiB, far above any collective payload in the repo.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 30;

/// One decoded message.
struct Frame {
  int src = -1;
  int tag = 0;
  std::vector<std::uint8_t> payload;
};

/// Serialize header + payload into `out` (appended; `out` is not
/// cleared). The CRC is computed here.
void encode_frame(int src, int tag, const void* data, std::size_t bytes,
                  std::vector<std::uint8_t>& out);

/// Decode a complete frame from a contiguous buffer (the shm-ring path).
/// Fails with ChecksumMismatch on a CRC break and ConnectionLost on a
/// short or implausible buffer.
util::Expected<Frame, CommStatus> decode_frame(const std::uint8_t* data,
                                               std::size_t bytes);

/// Read one frame from a blocking fd (the TCP path), using the hardened
/// util::io short-read/EINTR loop. A clean close or error — including one
/// landing mid-frame, the truncation case the sweep tests — yields
/// ConnectionLost; a CRC break yields ChecksumMismatch.
util::Expected<Frame, CommStatus> read_frame_fd(int fd);

/// Write one frame to a blocking fd; false on any write failure (the
/// caller maps it to its reconnect/backoff path).
bool write_frame_fd(int fd, int src, int tag, const void* data,
                    std::size_t bytes);

}  // namespace wire

}  // namespace octgb::mpp
