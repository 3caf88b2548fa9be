#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double p50(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[(v.size() + 1) / 2 - 1];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  t.value = v.back();
  const std::size_t n = v.size();
  for (int q = 99; q >= 1; --q) {
    // Nearest rank of the q-th percentile, 1-based; integer arithmetic.
    const std::size_t rank = (static_cast<std::size_t>(q) * n + 99) / 100;
    if (rank >= 1 && n - rank >= 10) {
      t.value = v[rank - 1];
      t.percentile = q;
      break;
    }
  }
  return t;
}

std::size_t Ledger::attempt() {
  failed_.push_back(0);
  return failed_.size() - 1;
}

void Ledger::fail(std::size_t op, const std::string& why) {
  if (op < failed_.size()) failed_[op] = 1;
  if (reported_++ < 20)
    std::fprintf(stderr, "check failed (operation %zu): %s\n", op, why.c_str());
}

double Ledger::check_rel(std::size_t op, double got, double ref, double tol,
                         const char* what) {
  const double err = std::abs(got - ref) / std::abs(ref);
  if (!(err <= tol)) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s: %.17g vs %.17g (rel %.3g > %.3g)",
                  what, got, ref, err, tol);
    fail(op, buf);
  }
  return err;
}

void Layers::add_work(const octgb::perf::WorkCounters& w) {
  add("born.exact", static_cast<double>(w.born_exact));
  add("born.approx", static_cast<double>(w.born_approx));
  add("born.visits", static_cast<double>(w.born_visits));
  add("epol.exact", static_cast<double>(w.epol_exact));
  add("epol.bins", static_cast<double>(w.epol_bins));
  add("epol.visits", static_cast<double>(w.epol_visits));
}

std::uint64_t Ledger::failed() const {
  return static_cast<std::uint64_t>(
      std::count(failed_.begin(), failed_.end(), 1));
}

}  // namespace perfbench
