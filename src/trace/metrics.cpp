#include "octgb/trace/metrics.hpp"

#include <cstdio>
#include <fstream>

namespace octgb::trace {

namespace {

/// name → name.suffix under the OBSERVABILITY.md schema; an empty
/// suffix (whole-run totals) keeps the bare counter name.
std::string scoped(const std::string& counter_name,
                   const std::string& prefix) {
  if (prefix.empty()) return counter_name;
  return counter_name + "." + prefix;
}

}  // namespace

void MetricsRegistry::add(const std::string& name, std::uint64_t v) {
  Value& m = metrics_[name];
  if (m.is_integer) {
    m.i += v;
  } else {
    m.d += static_cast<double>(v);
  }
}

void MetricsRegistry::add(const std::string& name, double v) {
  Value& m = metrics_[name];
  if (m.is_integer) {
    m.d = static_cast<double>(m.i) + v;
    m.is_integer = false;
    m.i = 0;
  } else {
    m.d += v;
  }
}

void MetricsRegistry::set(const std::string& name, std::uint64_t v) {
  metrics_[name] = Value{true, v, 0.0};
}

void MetricsRegistry::set(const std::string& name, double v) {
  metrics_[name] = Value{false, 0, v};
}

bool MetricsRegistry::contains(const std::string& name) const {
  return metrics_.count(name) != 0;
}

std::uint64_t MetricsRegistry::get_int(const std::string& name) const {
  auto it = metrics_.find(name);
  if (it == metrics_.end()) return 0;
  return it->second.is_integer ? it->second.i
                               : static_cast<std::uint64_t>(it->second.d);
}

double MetricsRegistry::get_real(const std::string& name) const {
  auto it = metrics_.find(name);
  if (it == metrics_.end()) return 0.0;
  return it->second.is_integer ? static_cast<double>(it->second.i)
                               : it->second.d;
}

void MetricsRegistry::add_work(const std::string& prefix,
                               const perf::WorkCounters& w) {
  add(scoped("born.exact", prefix), w.born_exact);
  add(scoped("born.approx", prefix), w.born_approx);
  add(scoped("born.visits", prefix), w.born_visits);
  add(scoped("push.visits", prefix), w.push_visits);
  add(scoped("push.atoms", prefix), w.push_atoms);
  add(scoped("epol.exact", prefix), w.epol_exact);
  add(scoped("epol.bins", prefix), w.epol_bins);
  add(scoped("epol.visits", prefix), w.epol_visits);
  add(scoped("pairlist.pairs", prefix), w.pairlist_pairs);
  add(scoped("grid.cells", prefix), w.grid_cells);
  add(scoped("sched.spawns", prefix), w.spawns);
  add(scoped("sched.steals", prefix), w.steals);
}

void MetricsRegistry::add_comm(const std::string& prefix,
                               const perf::CommCounters& c) {
  add(scoped("mpp.msgs.internode", prefix), c.messages_internode);
  add(scoped("mpp.msgs.intranode", prefix), c.messages_intranode);
  add(scoped("mpp.bytes.internode", prefix), c.bytes_internode);
  add(scoped("mpp.bytes.intranode", prefix), c.bytes_intranode);
  add(scoped("mpp.collectives", prefix), c.collectives);
}

void MetricsRegistry::add_plan(const std::string& prefix,
                               const perf::PlanCounters& p) {
  add(scoped("plan.builds", prefix), p.builds);
  add(scoped("plan.replays", prefix), p.replays);
  add(scoped("plan.born_reuses", prefix), p.born_reuses);
  add(scoped("plan.key_hits", prefix), p.key_hits);
  add(scoped("plan.key_misses", prefix), p.key_misses);
  add(scoped("plan.invalidated.topology", prefix), p.invalidated_topology);
  add(scoped("plan.invalidated.params", prefix), p.invalidated_params);
  add(scoped("plan.invalidated.drift", prefix), p.invalidated_drift);
  add(scoped("plan.validations", prefix), p.validations);
}

void MetricsRegistry::add_svc(const std::string& prefix,
                              const perf::ServiceCounters& s) {
  add(scoped("svc.submitted", prefix), s.submitted);
  add(scoped("svc.completed", prefix), s.completed);
  add(scoped("svc.rejected.tenant_queue_full", prefix),
      s.rejected_tenant_queue_full);
  add(scoped("svc.rejected.queue_full", prefix), s.rejected_queue_full);
  add(scoped("svc.rejected.too_large", prefix), s.rejected_too_large);
  add(scoped("svc.rejected.shutting_down", prefix), s.rejected_shutting_down);
  add(scoped("svc.preprocessed", prefix), s.preprocessed);
  add(scoped("svc.evaluations", prefix), s.evaluations);
  add(scoped("svc.poses_scored", prefix), s.poses_scored);
  add(scoped("svc.cache.hits", prefix), s.cache_hits);
  add(scoped("svc.cache.misses", prefix), s.cache_misses);
  add(scoped("svc.cache.evictions", prefix), s.cache_evictions);
}

void MetricsRegistry::add_tree_build(const std::string& prefix,
                                     const perf::TreeBuildCounters& t) {
  add(scoped("tree.build.morton", prefix), t.morton_builds);
  add(scoped("tree.build.legacy", prefix), t.legacy_builds);
  add(scoped("tree.build.points_sorted", prefix), t.points_sorted);
  add(scoped("tree.build.sort_passes", prefix), t.sort_passes);
  add(scoped("tree.build.nodes", prefix), t.nodes_emitted);
  add(scoped("tree.build.leaves", prefix), t.leaves_emitted);
  add(scoped("tree.build.resorts", prefix), t.resorts);
  add(scoped("tree.build.resort_moved", prefix), t.resort_moved);
}

void MetricsRegistry::add_simd(const std::string& prefix,
                               const char* isa_name, int lanes) {
  set(scoped("kernel.simd.lanes", prefix),
      static_cast<std::uint64_t>(lanes));
  add(scoped(std::string("kernel.simd.evals.") + isa_name, prefix),
      std::uint64_t{1});
}

void MetricsRegistry::add_scheduler(const std::string& prefix,
                                    std::uint64_t spawns,
                                    std::uint64_t steals,
                                    std::uint64_t steal_attempts,
                                    std::uint64_t executed) {
  add(scoped("sched.spawns", prefix), spawns);
  add(scoped("sched.steals", prefix), steals);
  add(scoped("sched.steal_attempts", prefix), steal_attempts);
  add(scoped("sched.executed", prefix), executed);
}

void MetricsRegistry::add_steal_tiers(const std::string& prefix,
                                      std::uint64_t local,
                                      std::uint64_t socket,
                                      std::uint64_t remote,
                                      std::uint64_t offblock) {
  add(scoped("ws.steal.local", prefix), local);
  add(scoped("ws.steal.socket", prefix), socket);
  add(scoped("ws.steal.remote", prefix), remote);
  add(scoped("ws.steal.offblock", prefix), offblock);
}

void MetricsRegistry::add_locality(const std::string& prefix,
                                   const perf::LocalityCounters& l) {
  add(scoped("plan.locality.runs", prefix), l.runs);
  add(scoped("plan.locality.run_owners", prefix), l.run_owners);
  add(scoped("plan.locality.chunks", prefix), l.chunks);
  add(scoped("plan.locality.baseline_chunks", prefix), l.baseline_chunks);
  add(scoped("plan.locality.prefetch_batches", prefix), l.prefetch_batches);
  add(scoped("plan.locality.numa_touch_passes", prefix),
      l.numa_touch_passes);
  set(scoped("plan.locality.mean_run_length", prefix), l.mean_run_length());
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, v] : other.metrics_) {
    if (v.is_integer) {
      add(name, v.i);
    } else {
      add(name, v.d);
    }
  }
}

namespace {

std::string value_repr(const MetricsRegistry::Value& v) {
  if (v.is_integer) return std::to_string(v.i);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v.d);
  return buf;
}

}  // namespace

std::string MetricsRegistry::json() const {
  std::string out = "{\n";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    if (!first) out += ",\n";
    first = false;
    out += "  \"" + name + "\": " + value_repr(v);
  }
  out += "\n}\n";
  return out;
}

std::string MetricsRegistry::csv() const {
  std::string out = "metric,value\n";
  for (const auto& [name, v] : metrics_) {
    // Names are dotted identifiers (no commas/quotes); values numeric —
    // quoting is never required, but keep the check for safety.
    out += name + "," + value_repr(v) + "\n";
  }
  return out;
}

bool MetricsRegistry::save_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << json();
  return f.good();
}

bool MetricsRegistry::save_csv(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << csv();
  return f.good();
}

}  // namespace octgb::trace
