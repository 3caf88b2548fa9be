#include "octgb/perf/topology.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>

namespace octgb::perf {

namespace {

/// Read a small sysfs attribute; empty string when unreadable. sysfs
/// attributes are single-line, so one bounded read suffices.
std::string read_attr(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (!f) return {};
  char buf[256];
  std::string out;
  if (std::fgets(buf, sizeof(buf), f)) out = buf;
  std::fclose(f);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
    out.pop_back();
  return out;
}

/// Parse a non-negative integer attribute; -1 on absence or junk.
int parse_int(const std::string& s) {
  if (s.empty()) return -1;
  int v = 0;
  bool any = false;
  for (char c : s) {
    if (c < '0' || c > '9') return any ? v : -1;
    v = v * 10 + (c - '0');
    any = true;
  }
  return any ? v : -1;
}

/// Parse a cache size attribute like "12288K" / "16M" into bytes; 0 when
/// unreadable.
std::uint64_t parse_size_bytes(const std::string& s) {
  if (s.empty()) return 0;
  std::uint64_t v = 0;
  std::size_t i = 0;
  for (; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i)
    v = v * 10 + static_cast<std::uint64_t>(s[i] - '0');
  if (i == 0) return 0;
  if (i < s.size()) {
    if (s[i] == 'K' || s[i] == 'k') v <<= 10;
    if (s[i] == 'M' || s[i] == 'm') v <<= 20;
    if (s[i] == 'G' || s[i] == 'g') v <<= 30;
  }
  return v;
}

int fallback_cpu_count(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

/// Map each distinct key to a dense id in first-appearance order.
template <class K>
int dense_id(std::map<K, int>& table, const K& key) {
  auto [it, inserted] =
      table.emplace(key, static_cast<int>(table.size()));
  (void)inserted;
  return it->second;
}

}  // namespace

CpuTopology flat_topology(int n) {
  CpuTopology t;
  n = std::max(1, n);
  t.cpus.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) t.cpus[static_cast<std::size_t>(i)] =
      CpuTopology::Cpu{i, 0, 0, i};
  t.sockets = 1;
  t.l3_domains = 1;
  t.smt_groups = n;
  t.flat_fallback = true;
  return t;
}

CpuTopology discover_topology(const std::string& sysfs_cpu_root,
                              int fallback_cpus) {
  // Enumerate cpu0, cpu1, ... until the first missing directory; a
  // readable package id is the witness that cpuN really exists (a plain
  // directory probe would need <filesystem>, and sysfs always exposes
  // physical_package_id when it exposes the cpu at all).
  struct Raw {
    int package = -1;
    std::string l3_key;   // shared_cpu_list string, "" = unknown
    std::string smt_key;  // thread_siblings_list string, "" = unknown
  };
  std::vector<Raw> raw;
  for (int i = 0;; ++i) {
    const std::string base = sysfs_cpu_root + "/cpu" + std::to_string(i);
    Raw r;
    r.package = parse_int(read_attr(base + "/topology/physical_package_id"));
    if (r.package < 0) break;
    // L3 sharing: prefer the index3 (unified LLC) list; fall back to
    // index2 for parts whose last level is L2. Missing cache info (the
    // container case) leaves the key empty and the cpu degrades to
    // socket-granularity below.
    r.l3_key = read_attr(base + "/cache/index3/shared_cpu_list");
    if (r.l3_key.empty())
      r.l3_key = read_attr(base + "/cache/index2/shared_cpu_list");
    r.smt_key = read_attr(base + "/topology/thread_siblings_list");
    raw.push_back(std::move(r));
  }
  if (raw.empty()) return flat_topology(fallback_cpu_count(fallback_cpus));

  CpuTopology t;
  t.flat_fallback = false;
  std::map<int, int> socket_ids;
  std::map<std::string, int> l3_ids, smt_ids;
  t.cpus.resize(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    CpuTopology::Cpu& c = t.cpus[i];
    c.id = static_cast<int>(i);
    c.socket = dense_id(socket_ids, raw[i].package);
    // Unknown L3 sharing degrades to the socket domain: cores of one
    // package are assumed to share their LLC (exact for every platform
    // the paper targets, conservative for chiplet parts).
    c.l3 = raw[i].l3_key.empty()
               ? dense_id(l3_ids, std::string("socket:") +
                                      std::to_string(raw[i].package))
               : dense_id(l3_ids, raw[i].l3_key);
    c.smt_group = raw[i].smt_key.empty()
                      ? dense_id(smt_ids, std::string("cpu:") +
                                              std::to_string(i))
                      : dense_id(smt_ids, raw[i].smt_key);
  }
  t.sockets = static_cast<int>(socket_ids.size());
  t.l3_domains = static_cast<int>(l3_ids.size());
  t.smt_groups = static_cast<int>(smt_ids.size());
  t.l3_bytes =
      parse_size_bytes(read_attr(sysfs_cpu_root + "/cpu0/cache/index3/size"));
  return t;
}

const CpuTopology& topology() {
  static const CpuTopology host = [] {
#ifdef __linux__
    return discover_topology("/sys/devices/system/cpu");
#else
    return flat_topology(fallback_cpu_count(0));
#endif
  }();
  return host;
}

}  // namespace octgb::perf
