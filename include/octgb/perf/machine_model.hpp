#pragma once
/// \file machine_model.hpp
/// Model of the paper's evaluation platform (Table I): Lonestar4 —
/// 3.33 GHz hexa-core Intel Westmere, 2 sockets (12 cores) per node, 24 GB
/// RAM, 12 MB shared L3 per socket, InfiniBand fat-tree at 40 Gb/s.
///
/// The model converts measured WorkCounters and communication traffic into
/// time. Every figure runs on this one machine, so its per-operation cycle
/// costs (documented below) are compile-time constants, never tuned
/// per-experiment; the network side follows the textbook cost model the
/// paper itself uses for its complexity analysis (t_s · log P + t_w ·
/// words).

#include <cstdint>

#include "octgb/perf/counters.hpp"

namespace octgb::perf {

/// Per-operation cycle costs and machine constants of the Table I node.
namespace machine {

// --- Table I constants -------------------------------------------------
inline constexpr double clock_hz = 3.33e9;          ///< Westmere core clock
inline constexpr int cores_per_node = 12;           ///< 2 sockets × 6 cores
inline constexpr int sockets_per_node = 2;  ///< sockets (L3 domains) per node
inline constexpr double l3_bytes = 12.0 * 1024 * 1024;  ///< per-socket L3
inline constexpr double ram_bytes = 24.0 * 1024 * 1024 * 1024;  ///< per node

// --- Network (InfiniBand, 40 Gb/s p2p, fat tree) ------------------------
// Startup terms are software latencies of a collective tree level
// (MPI stack + progress engine), not raw wire latency — MVAPICH2-era
// small-message collectives cost tens of microseconds per step.
inline constexpr double net_ts = 1.5e-5;   ///< inter-node per-level latency (s)
inline constexpr double net_tw = 2.0e-10;  ///< inter-node per-byte time: 5 GB/s
inline constexpr double shm_ts = 5.0e-6;   ///< intra-node (shared-memory MPI)
inline constexpr double shm_tw = 5.0e-11;  ///< intra-node per-byte: 20 GB/s

// --- Per-operation compute costs, in cycles ----------------------------
// A Born exact interaction is a dot product + r^6 + divide (~1 rsqrt-free
// form): ~24 cycles. A GB pair term adds exp+sqrt: ~60 cycles. Node-level
// pseudo-interactions cost the same arithmetic as their exact
// counterparts; tree visits model pointer chasing + the far/near test.
inline constexpr double cyc_born_exact = 24.0;   ///< exact atom×q-point term
inline constexpr double cyc_born_approx = 24.0;  ///< Born pseudo-interaction
inline constexpr double cyc_born_visit = 14.0;   ///< Born-phase node visit
inline constexpr double cyc_push_visit = 10.0;   ///< push prefix-pass visit
inline constexpr double cyc_push_atom = 20.0;    ///< Born-radius finalization
inline constexpr double cyc_epol_exact = 60.0;   ///< GB pair term (exp + sqrt)
inline constexpr double cyc_epol_bin = 60.0;     ///< bin-pair pseudo-term
inline constexpr double cyc_epol_visit = 14.0;   ///< Epol-phase node visit
inline constexpr double cyc_pairlist_pair = 60.0;  ///< neighbour-list pair
inline constexpr double cyc_grid_cell = 10.0;    ///< GBr6 volume-grid cell
inline constexpr double cyc_spawn = 90.0;        ///< cilk-style spawn
inline constexpr double cyc_steal = 900.0;  ///< successful steal (cold deque)

/// Multiplier applied to interaction costs when approximate math
/// (fast rsqrt / exp) is enabled. The paper measures ×1.42 end-to-end.
inline constexpr double approx_math_speedup = 1.42;

/// Cache pressure: when a core's working set exceeds its share of L3,
/// interaction costs inflate toward `cache_miss_penalty` (the paper uses
/// this effect to explain the superlinear region of Fig. 6).
inline constexpr double cache_miss_penalty = 1.6;

/// Raw compute seconds for `w` on a single core whose working set is
/// `working_set_bytes`, with `cores_sharing_l3` cores resident on the
/// same socket. `approx_math` applies the fast-math discount.
double compute_seconds(const WorkCounters& w, double working_set_bytes,
                       int cores_sharing_l3, bool approx_math);

/// Cache inflation factor in [1, cache_miss_penalty].
double cache_factor(double working_set_bytes, int cores_sharing_l3);

}  // namespace machine

/// Traffic summary for one rank (filled by the mpp runtime).
struct CommCounters {
  std::uint64_t messages_internode = 0;  ///< messages crossing a node boundary
  std::uint64_t messages_intranode = 0;  ///< messages between co-located ranks
  std::uint64_t bytes_internode = 0;     ///< payload bytes sent inter-node
  std::uint64_t bytes_intranode = 0;     ///< payload bytes sent intra-node
  std::uint64_t collectives = 0;  ///< number of collective operations joined

  /// Field-wise accumulation (e.g. totals across ranks).
  CommCounters& operator+=(const CommCounters& o) {
    messages_internode += o.messages_internode;
    messages_intranode += o.messages_intranode;
    bytes_internode += o.bytes_internode;
    bytes_intranode += o.bytes_intranode;
    collectives += o.collectives;
    return *this;
  }
};

}  // namespace octgb::perf
