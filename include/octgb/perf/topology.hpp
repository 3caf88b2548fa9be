#pragma once
/// \file topology.hpp
/// CPU topology discovery: sockets, last-level-cache (L3) domains, and SMT
/// sibling groups, read once from Linux sysfs with a flat single-domain
/// fallback for containers and non-Linux hosts.
///
/// The paper's platform model (machine_model.hpp) fixes "2 sockets x 6
/// cores, 12 MB shared L3 per socket" as Table I constants and never reads
/// the host; this module discovers the *actual* host shape so the
/// locality-aware execution layer (DESIGN.md §2.11) can act on it:
/// ws::Scheduler derives hierarchical steal-victim tiers (same L3 → same
/// socket → remote) from the per-cpu domain ids.
///
/// Discovery never throws: any missing or malformed sysfs attribute
/// degrades the affected cpu (and, when nothing at all is readable, the
/// whole topology) to the flat fallback — one socket, one L3 domain, no
/// SMT — which reproduces the pre-locality uniform behaviour exactly.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace octgb::perf {

/// Discovered shape of one host (or of a golden sysfs fixture in tests).
struct CpuTopology {
  /// One logical cpu's domain memberships. Domain ids are dense indices
  /// in [0, sockets) / [0, l3_domains) / [0, smt_groups), not raw sysfs
  /// package ids, so they are usable as array indices directly.
  struct Cpu {
    int id = 0;         ///< logical cpu number (sysfs cpuN)
    int socket = 0;     ///< dense socket (package / NUMA-ish) domain id
    int l3 = 0;         ///< dense last-level-cache sharing domain id
    int smt_group = 0;  ///< dense physical-core (thread sibling) group id
  };

  std::vector<Cpu> cpus;  ///< indexed by logical cpu id, dense from 0
  int sockets = 1;        ///< distinct socket domains
  int l3_domains = 1;     ///< distinct L3 sharing domains
  int smt_groups = 1;     ///< distinct physical cores
  /// True when sysfs was missing/unreadable and the topology is the
  /// synthesized flat single-domain shape rather than a discovery result.
  bool flat_fallback = false;
  /// Per-socket shared L3 capacity in bytes when sysfs reports it
  /// (cache/index3/size); 0 when unknown — callers keep their defaults.
  std::uint64_t l3_bytes = 0;

  int num_cpus() const { return static_cast<int>(cpus.size()); }

  /// Domain lookups clamp out-of-range cpu ids into the table (threads on
  /// cpus beyond the discovered set — offline cpus, affinity-restricted
  /// containers — fold onto the modulo cpu rather than faulting).
  const Cpu& cpu(int id) const {
    return cpus[static_cast<std::size_t>(id) % cpus.size()];
  }
  bool same_l3(int cpu_a, int cpu_b) const {
    return cpu(cpu_a).l3 == cpu(cpu_b).l3;
  }
  bool same_socket(int cpu_a, int cpu_b) const {
    return cpu(cpu_a).socket == cpu(cpu_b).socket;
  }
};

/// Parse a topology from a sysfs cpu directory (normally
/// "/sys/devices/system/cpu"; tests point it at golden fixture trees).
/// Reads, per cpuN: topology/physical_package_id (socket),
/// cache/index3/shared_cpu_list (L3 domain; falls back to index2, then to
/// the socket domain when no cache info exists — the container case), and
/// topology/thread_siblings_list (SMT group). Never throws: if no cpu
/// exposes a package id, returns the flat fallback sized to
/// `fallback_cpus` (0 → std::thread::hardware_concurrency).
CpuTopology discover_topology(const std::string& sysfs_cpu_root,
                              int fallback_cpus = 0);

/// The flat single-domain shape: `n` cpus, one socket, one L3 domain,
/// every cpu its own SMT group.
CpuTopology flat_topology(int n);

/// The host's topology, discovered once from /sys/devices/system/cpu on
/// first use and cached for the process lifetime. Thread-safe.
const CpuTopology& topology();

}  // namespace octgb::perf
