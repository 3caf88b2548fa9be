#pragma once
/// \file mpp.hpp
/// Message-passing runtime — the reproduction's stand-in for MPI/MVAPICH2
/// on the Lonestar4 cluster (see DESIGN.md §2).
///
/// The API is the MPI subset the paper's algorithm (Fig. 4) needs:
/// blocking tagged send/recv, Allreduce of the partial integrals and of
/// Epol, and Allgatherv of the Born radii. The collectives are built from
/// Bcast, Reduce and Gatherv over point-to-point messages with
/// binomial-tree algorithms, exactly like a real MPI implementation, so
/// measured message counts and byte volumes are faithful. A Topology maps
/// ranks to nodes/sockets so traffic is classified intra- vs inter-node
/// for the cost model.
///
/// Comm is transport-agnostic (mpp/transport.hpp): the same communicator
/// runs over the in-thread transport below (ranks are std::threads inside
/// one process, Runtime::run) or over the out-of-process transport
/// (mpp/proc.hpp: shared-memory rings + TCP between real rank processes
/// started by tools/octgb_launch).
///
/// Failure model (DESIGN.md §2.5, §2.10): failures are first-class events,
/// not hangs. In-thread, a seeded faults::FaultInjector
/// (Runtime::Options::fault_plan) can drop/delay/duplicate/corrupt
/// messages and stall or kill ranks on a reproducible schedule;
/// out-of-process, the launcher SIGKILLs real rank processes and the wire
/// can genuinely drop connections. Either way: receives gain deadline and
/// retry-with-backoff variants returning Expected<..., CommError>;
/// per-message CRCs turn corruption into a detectable ChecksumMismatch;
/// and a shared failure detector (dead flags + per-rank heartbeats + a
/// global failure epoch) makes blocking receives and collectives *fail
/// fast* with PeerDead instead of deadlocking when a peer dies — a
/// retrying receive even aborts its remaining backoff window the moment
/// the failure epoch advances.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "octgb/mpp/faults.hpp"
#include "octgb/mpp/transport.hpp"
#include "octgb/perf/machine_model.hpp"
#include "octgb/trace/trace.hpp"
#include "octgb/util/check.hpp"
#include "octgb/util/expected.hpp"

namespace octgb::mpp {

/// Thrown inside a rank when a FaultPlan kill rule fires: the in-process
/// equivalent of the OS killing an MPI process. The runtime marks the rank
/// dead in the failure detector *before* throwing, treats an escaped
/// RankKilledError as a simulated process exit (not a global abort), and
/// surviving ranks observe the death through PeerDead errors. (The
/// out-of-process transport needs no analogue — its kills are SIGKILLs.)
class RankKilledError : public std::runtime_error {
 public:
  RankKilledError(int rank, std::uint64_t op)
      : std::runtime_error("rank " + std::to_string(rank) +
                           " killed by fault plan at comm op " +
                           std::to_string(op)),
        rank_(rank) {}

  /// The rank that died.
  int rank() const { return rank_; }

 private:
  int rank_;
};

/// Backoff schedule for recv_bytes_retry: `attempts` tries, the first with
/// `deadline_ms`, each subsequent deadline multiplied by `backoff`. The
/// remaining attempts (and any in-progress wait) are abandoned as soon as
/// the failure epoch advances past its value at the first attempt: a
/// death anywhere in the job means the caller should re-plan now, not
/// after the backoff window drains. PeerDead always fails fast.
struct RetryPolicy {
  int attempts = 3;
  double deadline_ms = 100.0;
  double backoff = 2.0;
};

class Comm;

namespace detail {
/// Bind a Comm to a transport endpoint (used by the runtimes; Comm's
/// constructor stays private so user code cannot fabricate handles).
Comm make_comm(Endpoint* endpoint, int rank, int size);
}  // namespace detail

/// Per-rank communicator handle. Valid only inside Runtime::run (thread
/// transport) or ProcessRuntime::run (out-of-process transport).
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const { return size_; }
  const Topology& topology() const;

  // --- point to point ----------------------------------------------------

  /// Blocking tagged send of raw bytes.
  void send_bytes(int dest, int tag, const void* data, std::size_t bytes);
  /// Blocking tagged receive; message size must equal `bytes`. Throws
  /// CommException on timeout (when the transport's default deadline is
  /// set), dead peer, checksum mismatch, or lost connection.
  void recv_bytes(int src, int tag, void* data, std::size_t bytes);

  /// Receive with an explicit deadline (milliseconds; <= 0 waits
  /// forever). Returns the error instead of throwing so recovery code can
  /// branch without exceptions.
  CommResult recv_bytes_deadline(int src, int tag, void* data,
                                 std::size_t bytes, double deadline_ms);

  /// Receive with retry-with-backoff: re-arms the deadline per attempt
  /// (survives injected delays and corrupt copies followed by clean
  /// duplicates). Timeout/ChecksumMismatch retry; PeerDead fails fast,
  /// and so does any advance of the failure epoch mid-wait.
  CommResult recv_bytes_retry(int src, int tag, void* data,
                              std::size_t bytes, const RetryPolicy& policy);

  template <class T>
  void send_value(int dest, int tag, const T& v) {
    send_bytes(dest, tag, &v, sizeof(T));
  }
  template <class T>
  T recv_value(int src, int tag) {
    T v;
    recv_bytes(src, tag, &v, sizeof(T));
    return v;
  }
  /// recv_value with a deadline; returns the value or the CommError.
  template <class T>
  util::Expected<T, CommError> recv_value_deadline(int src, int tag,
                                                   double deadline_ms) {
    T v;
    auto r = recv_bytes_deadline(src, tag, &v, sizeof(T), deadline_ms);
    if (!r) return util::Expected<T, CommError>::failure(r.error());
    return util::Expected<T, CommError>::success(std::move(v));
  }

  // --- failure detector ---------------------------------------------------

  /// True when `rank` has not (yet) died. Exact in the in-thread runtime
  /// (a killed rank flips its dead flag before unwinding); out-of-process
  /// it reflects the launcher's reap of the rank's real process.
  bool is_alive(int rank) const;

  /// Ascending list of currently-alive ranks (a consistent snapshot at
  /// some instant; pair with failure_epoch() to detect churn).
  std::vector<int> alive_ranks() const;

  /// Monotonic counter bumped on every rank death. Recovery protocols
  /// snapshot it before a phase and re-plan when it moved.
  int failure_epoch() const;

  /// Heartbeat of `rank`: its comm-op count. A rank whose heartbeat stops
  /// advancing while alive is stalled (straggler), not dead.
  std::uint64_t heartbeat_of(int rank) const;

  /// Advance this rank's comm-op counter through the fault point without
  /// transferring data: refreshes the heartbeat and lets injected stalls
  /// and kills land at a deterministic point. Long compute sections
  /// should poll periodically so the failure detector can tell "busy"
  /// from "dead" — the elastic hybrid driver polls before every task.
  void poll();

  /// Receive attempts retried by recv_bytes_retry on this rank.
  std::uint64_t retries() const { return retries_; }

  // --- collectives (binomial tree; every rank must participate) ----------
  //
  // With the failure detector active, a collective involving a dead rank
  // fails fast (CommException{PeerDead}) instead of hanging; the elastic
  // driver (core/hybrid.hpp) catches and re-plans over the survivors.
  // Collective internals inherit per-hop CRC protection from the
  // transport (opt-in checksum in-thread, always-on on the wire).

  /// Broadcast root's buffer to all ranks (in place).
  template <class T>
  void bcast(std::span<T> data, int root);

  /// Element-wise sum-reduce onto root (in place at root).
  template <class T>
  void reduce_sum(std::span<T> inout, int root);

  /// Element-wise sum Allreduce (reduce + bcast), in place on all ranks.
  template <class T>
  void allreduce_sum(std::span<T> inout);

  /// Scalar sum Allreduce convenience.
  double allreduce_sum(double v);
  std::uint64_t allreduce_sum(std::uint64_t v);

  /// Gather variable-size contributions to root; root gets the
  /// rank-ordered concatenation, others get an empty vector.
  template <class T>
  std::vector<T> gatherv(std::span<const T> mine, int root);

  /// Allgatherv: every rank receives the rank-ordered concatenation.
  template <class T>
  std::vector<T> allgatherv(std::span<const T> mine);

  /// Traffic accounted against this rank so far.
  const perf::CommCounters& counters() const { return counters_; }

 private:
  friend class Runtime;
  friend Comm detail::make_comm(detail::Endpoint* endpoint, int rank,
                                int size);
  Comm(detail::Endpoint* endpoint, int rank, int size)
      : ep_(endpoint), rank_(rank), size_(size) {}

  void account_send(int dest, std::size_t bytes);
  int next_coll_tag();

  /// Heartbeat + injector checkpoint run at the top of every comm op;
  /// returns the op's index. In-thread, applies scheduled stalls and
  /// kills (the latter by marking this rank dead and throwing
  /// RankKilledError).
  std::uint64_t fault_point();
  /// The deadline/retry receive core shared by all receive flavours.
  /// `abort_epoch` >= 0 aborts the wait once the failure epoch passes it.
  CommResult recv_impl(int src, int tag, void* data, std::size_t bytes,
                       double deadline_ms, int abort_epoch = -1);

  detail::Endpoint* ep_;
  int rank_;
  int size_;
  int coll_seq_ = 0;
  std::uint64_t ops_ = 0;
  std::uint64_t retries_ = 0;
  perf::CommCounters counters_;
};

/// Runs a function on P ranks, each on its own thread (the in-thread
/// transport). For real rank processes see mpp/proc.hpp.
class Runtime {
 public:
  struct Options {
    int ranks = 1;
    Topology topology;
    /// Deadline (milliseconds) applied to plain recv_bytes calls;
    /// 0 waits forever (the classic MPI hang). Setting it turns a receive
    /// of a never-sent message into CommException{Timeout} carrying the
    /// (src, tag, bytes) triple instead of a silent deadlock.
    double default_deadline_ms = 0.0;
    /// Attach a CRC-32 to every message and verify it on receive;
    /// injected corruption then surfaces as ChecksumMismatch instead of
    /// silently wrong payloads. Collective internals are covered too —
    /// every hop of a bcast/reduce/gatherv is a checksummed message.
    bool checksum = false;
    /// Seeded fault schedule executed by a deterministic FaultInjector;
    /// empty = no faults (and zero overhead on the message path).
    faults::FaultPlan fault_plan;
    /// When set, receives the injector's fire counts after the run
    /// (zeroed when fault_plan is empty).
    faults::FaultStats* fault_stats_out = nullptr;
  };

  /// Execute rank_main(comm) on every rank; blocks until all complete.
  /// Exceptions thrown by any rank are rethrown (first wins), except
  /// RankKilledError, which is absorbed as a simulated process exit.
  /// Returns the per-rank communication counters.
  static std::vector<perf::CommCounters> run(
      const Options& opts, const std::function<void(Comm&)>& rank_main);
};

// ---- template implementations --------------------------------------------

namespace detail {

// Reserved tag space for collectives: user tags must be < kCollTagBase.
inline constexpr int kCollTagBase = 1 << 24;

}  // namespace detail

template <class T>
void Comm::bcast(std::span<T> data, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  OCTGB_SPAN("mpp.bcast");
  const int tag = next_coll_tag();
  // Binomial tree rooted at `root`: relative rank r receives from
  // r - 2^k (highest set bit), then forwards to r + 2^k for growing k.
  const int rel = (rank_ - root + size_) % size_;
  int mask = 1;
  while (mask < size_) {
    if (rel & mask) {
      const int src = (rel - mask + root) % size_;
      recv_bytes(src, tag, data.data(), data.size_bytes());
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < size_) {
      const int dest = (rel + mask + root) % size_;
      send_bytes(dest, tag, data.data(), data.size_bytes());
    }
    mask >>= 1;
  }
  ++counters_.collectives;
}

template <class T>
void Comm::reduce_sum(std::span<T> inout, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  OCTGB_SPAN("mpp.reduce");
  const int tag = next_coll_tag();
  const int rel = (rank_ - root + size_) % size_;
  std::vector<T> tmp(inout.size());
  int mask = 1;
  while (mask < size_) {
    if (rel & mask) {
      const int dest = (rel - mask + root) % size_;
      send_bytes(dest, tag, inout.data(), inout.size_bytes());
      break;
    }
    if (rel + mask < size_) {
      const int src = (rel + mask + root) % size_;
      recv_bytes(src, tag, tmp.data(), tmp.size() * sizeof(T));
      for (std::size_t i = 0; i < inout.size(); ++i) inout[i] += tmp[i];
    }
    mask <<= 1;
  }
  ++counters_.collectives;
}

template <class T>
void Comm::allreduce_sum(std::span<T> inout) {
  reduce_sum(inout, 0);
  bcast(inout, 0);
}

template <class T>
std::vector<T> Comm::gatherv(std::span<const T> mine, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  OCTGB_SPAN("mpp.gatherv");
  const int tag = next_coll_tag();
  const int tag2 = next_coll_tag();
  std::vector<T> out;
  if (rank_ == root) {
    std::vector<std::vector<T>> parts(size_);
    parts[root].assign(mine.begin(), mine.end());
    for (int r = 0; r < size_; ++r) {
      if (r == root) continue;
      const auto n = recv_value<std::uint64_t>(r, tag);
      parts[r].resize(n);
      if (n) recv_bytes(r, tag2, parts[r].data(), n * sizeof(T));
    }
    for (int r = 0; r < size_; ++r)
      out.insert(out.end(), parts[r].begin(), parts[r].end());
  } else {
    send_value<std::uint64_t>(root, tag, mine.size());
    if (!mine.empty())
      send_bytes(root, tag2, mine.data(), mine.size_bytes());
  }
  ++counters_.collectives;
  return out;
}

template <class T>
std::vector<T> Comm::allgatherv(std::span<const T> mine) {
  std::vector<T> all = gatherv(mine, 0);
  auto n = static_cast<std::uint64_t>(all.size());
  std::span<std::uint64_t> nspan(&n, 1);
  bcast(nspan, 0);
  all.resize(n);
  bcast(std::span<T>(all), 0);
  return all;
}

}  // namespace octgb::mpp
