#pragma once
/// \file metrics.hpp
/// MetricsRegistry — one named-metric interface over the repo's three
/// counter families: perf::WorkCounters (kernel operation counts),
/// scheduler spawn/steal statistics, and mpp per-rank traffic
/// (perf::CommCounters). Benches fill a registry per run and dump it as
/// flat JSON or CSV next to their figure CSVs (`--metrics-out`), so a
/// regression harness can diff counter totals without scraping tables.
///
/// Metric names follow the dotted hierarchy documented in
/// OBSERVABILITY.md: `<subsystem>.<counter>[.rank<r>[.worker<w>]]`, e.g.
/// `born.exact.rank3`. Integer metrics (all operation counts) are stored
/// and printed as exact 64-bit integers — totals are bit-identical to the
/// WorkCounters they came from, traced or not.

#include <cstdint>
#include <map>
#include <string>

#include "octgb/perf/counters.hpp"
#include "octgb/perf/machine_model.hpp"

namespace octgb::trace {

/// Flat map of named metrics with exact-integer and real flavours.
class MetricsRegistry {
 public:
  /// One metric value: either an exact 64-bit count or a real number.
  struct Value {
    bool is_integer = true;  ///< discriminator for i / d
    std::uint64_t i = 0;     ///< exact count (is_integer)
    double d = 0.0;          ///< real value (!is_integer)
  };

  /// Accumulate an integer count (creates the metric at 0 first).
  void add(const std::string& name, std::uint64_t v);
  /// Accumulate a real value; promotes an existing integer metric.
  void add(const std::string& name, double v);
  /// Overwrite with an integer count.
  void set(const std::string& name, std::uint64_t v);
  /// Overwrite with a real value.
  void set(const std::string& name, double v);

  /// True when `name` exists.
  bool contains(const std::string& name) const;
  /// Exact integer value (0 when missing; truncates a real metric).
  std::uint64_t get_int(const std::string& name) const;
  /// Value as double (0.0 when missing).
  double get_real(const std::string& name) const;

  /// Accumulate every WorkCounters field under `prefix` (e.g.
  /// prefix "rank0" → "born.exact.rank0" … per the OBSERVABILITY.md
  /// schema; empty prefix drops the suffix).
  void add_work(const std::string& prefix, const perf::WorkCounters& w);
  /// Accumulate comm traffic counters under `prefix`.
  void add_comm(const std::string& prefix, const perf::CommCounters& c);
  /// Accumulate interaction-plan cache counters under `prefix`
  /// ("plan.builds" … per the OBSERVABILITY.md schema).
  void add_plan(const std::string& prefix, const perf::PlanCounters& p);
  /// Record the resolved explicit-SIMD kernel configuration under
  /// `prefix`: sets "kernel.simd.lanes" to the resolved width, and bumps
  /// the per-width "kernel.simd.evals.<isa>" counter once per call (one
  /// call per evaluation by convention; see OBSERVABILITY.md).
  void add_simd(const std::string& prefix, const char* isa_name, int lanes);
  /// Accumulate scoring-service counters under `prefix` ("svc.submitted"
  /// … per the OBSERVABILITY.md `svc.*` schema).
  void add_svc(const std::string& prefix, const perf::ServiceCounters& s);
  /// Accumulate octree-construction counters under `prefix`
  /// ("tree.build.morton" … per the OBSERVABILITY.md `tree.build.*`
  /// schema).
  void add_tree_build(const std::string& prefix,
                      const perf::TreeBuildCounters& t);
  /// Accumulate scheduler statistics under `prefix`. Raw integers rather
  /// than ws::SchedulerStats so trace/ does not depend on ws/ (which
  /// depends back on trace/ for steal events).
  void add_scheduler(const std::string& prefix, std::uint64_t spawns,
                     std::uint64_t steals, std::uint64_t steal_attempts,
                     std::uint64_t executed);
  /// Accumulate the tiered steal classification under `prefix`
  /// ("ws.steal.local" … per the OBSERVABILITY.md `ws.steal.*` schema).
  /// Raw integers for the same trace/ws layering reason as add_scheduler.
  void add_steal_tiers(const std::string& prefix, std::uint64_t local,
                       std::uint64_t socket, std::uint64_t remote,
                       std::uint64_t offblock);
  /// Accumulate locality-aware plan-execution counters under `prefix`
  /// ("plan.locality.runs" … per the OBSERVABILITY.md `plan.locality.*`
  /// schema), plus the derived real metric "plan.locality.mean_run_length".
  void add_locality(const std::string& prefix,
                    const perf::LocalityCounters& l);

  /// Accumulate every metric of `other` into this registry.
  void merge(const MetricsRegistry& other);

  /// Number of metrics.
  std::size_t size() const { return metrics_.size(); }
  /// True when no metric has been recorded.
  bool empty() const { return metrics_.empty(); }
  /// Name-sorted view of all metrics.
  const std::map<std::string, Value>& items() const { return metrics_; }

  /// Render as one flat JSON object, keys sorted, integers exact.
  std::string json() const;
  /// Render as a `metric,value` CSV (RFC-4180 quoting), keys sorted.
  std::string csv() const;
  /// Write json() to a file; false on I/O failure.
  bool save_json(const std::string& path) const;
  /// Write csv() to a file; false on I/O failure.
  bool save_csv(const std::string& path) const;

 private:
  std::map<std::string, Value> metrics_;
};

}  // namespace octgb::trace
