#pragma once
// Shared pieces of the octgb benchmark (see README.md): options, the
// operation ledger that records checks, percentile helpers, and the
// per-layer accumulator of the traced run.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "octgb/perf/counters.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs and fixed operation counts: the benchmark's self-tests.
  bool reduced = false;
};

/// Nearest-rank median (the ⌈n/2⌉-th smallest value).
double p50(std::vector<double> v);
/// Arithmetic mean (0 for no samples).
double mean(const std::vector<double>& v);

/// The highest whole percentile with at least ten samples beyond it
/// (nearest rank), with the sample count; the maximum when n ≤ 10.
struct Tail {
  double value = 0.0;
  int percentile = 100;
  std::size_t samples = 0;
};
Tail tail(std::vector<double> v);

/// Every attempted operation of a run and the ones that failed a check.
class Ledger {
 public:
  std::size_t attempt();
  void fail(std::size_t op, const std::string& why);
  /// Fails `op` when |got − ref| / |ref| exceeds `tol`; returns the error.
  double check_rel(std::size_t op, double got, double ref, double tol,
                   const char* what);
  std::uint64_t attempted() const { return failed_.size(); }
  std::uint64_t failed() const;

 private:
  std::vector<char> failed_;
  std::size_t reported_ = 0;
};

/// Per-layer totals of the traced run, keyed by metric name: layer times in
/// milliseconds (`*_ms`, summed per operation through time()) and counts.
class Layers {
 public:
  template <class F>
  void time(const char* name, F&& f) {
    const auto t0 = Clock::now();
    f();
    add_ms(name, ms_since(t0));
  }
  void add_ms(const char* name, double ms) {
    v_[name] += ms;
    op_ms_ += ms;
  }
  void add(const char* name, double x) { v_[name] += x; }
  void add_work(const octgb::perf::WorkCounters& w);
  /// Layer time accumulated since the previous call (one operation's sum).
  double take_op_ms() {
    const double ms = op_ms_;
    op_ms_ = 0.0;
    return ms;
  }
  double get(const std::string& name) const {
    const auto it = v_.find(name);
    return it == v_.end() ? 0.0 : it->second;
  }
  const std::map<std::string, double>& values() const { return v_; }

 private:
  std::map<std::string, double> v_;
  double op_ms_ = 0.0;
};

/// What one workload run reports: ledger, metrics by name, and run facts
/// printed as a JSON object before the result line.
struct Outcome {
  Ledger ledger;
  std::map<std::string, double> metrics;
  std::map<std::string, double> detail;
};

Outcome run_zdock_cold(const Options& opt);
Outcome run_md_refit(const Options& opt);
Outcome run_dock_screen(const Options& opt);
Outcome run_hybrid_cmv(const Options& opt);

}  // namespace perfbench
