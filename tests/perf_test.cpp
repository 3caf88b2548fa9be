// Tests for the perf module: run statistics, work counters, and the
// machine/network model.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "octgb/perf/counters.hpp"
#include "octgb/perf/machine_model.hpp"
#include "octgb/perf/stats.hpp"
#include "octgb/perf/topology.hpp"

using namespace octgb::perf;

// ---- RunStats --------------------------------------------------------------

TEST(RunStats, EmptyIsZeroed) {
  RunStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunStats, SingleSample) {
  RunStats s;
  s.add(4.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_DOUBLE_EQ(s.min(), 4.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunStats, MatchesClosedFormMoments) {
  RunStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  // Sample variance with n−1 = 7: Σ(x−5)² = 32 → 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(RunStats, WelfordIsNumericallyStableForLargeOffsets) {
  RunStats s;
  const double base = 1e12;
  for (int i = 0; i < 1000; ++i) s.add(base + (i % 5));
  EXPECT_NEAR(s.mean(), base + 2.0, 1e-3);
  EXPECT_NEAR(s.variance(), 2.0, 0.05);  // variance of {0..4} uniform-ish
}

TEST(PercentError, SignsAndZeroReference) {
  EXPECT_DOUBLE_EQ(percent_error(110.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(percent_error(-110.0, -100.0), -10.0);
  EXPECT_DOUBLE_EQ(percent_error(90.0, 100.0), -10.0);
  EXPECT_DOUBLE_EQ(percent_error(0.0, 0.0), 0.0);
  EXPECT_TRUE(std::isinf(percent_error(1.0, 0.0)));
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink = sink + i;
  const double first = t.seconds();
  EXPECT_GT(first, 0.0);
  t.reset();
  EXPECT_LT(t.seconds(), first + 1.0);
}

// ---- WorkCounters ------------------------------------------------------------

TEST(WorkCounters, AccumulateFieldwise) {
  WorkCounters a, b;
  a.born_exact = 10;
  a.epol_bins = 3;
  a.steals = 1;
  b.born_exact = 5;
  b.epol_exact = 7;
  a += b;
  EXPECT_EQ(a.born_exact, 15u);
  EXPECT_EQ(a.epol_exact, 7u);
  EXPECT_EQ(a.epol_bins, 3u);
  EXPECT_EQ(a.steals, 1u);
}

// operator+= must cover every field. Assign a distinct value to each of
// the kFieldCount counters, sum, and check each field doubled; the
// static count makes this fail (alongside the static_assert in
// counters.hpp) if a field is added without extending the list here.
TEST(WorkCounters, SumCoversEveryField) {
  static_assert(WorkCounters::kFieldCount == 12,
                "new WorkCounters field: extend this test's field list");
  WorkCounters a;
  std::uint64_t* const fields[WorkCounters::kFieldCount] = {
      &a.born_exact, &a.born_approx, &a.born_visits, &a.push_visits,
      &a.push_atoms, &a.epol_exact,  &a.epol_bins,   &a.epol_visits,
      &a.pairlist_pairs, &a.grid_cells, &a.spawns, &a.steals};
  for (std::size_t i = 0; i < WorkCounters::kFieldCount; ++i)
    *fields[i] = (i + 1) * 1000 + i;  // all distinct, all nonzero
  WorkCounters b = a;
  a += b;
  for (std::size_t i = 0; i < WorkCounters::kFieldCount; ++i)
    EXPECT_EQ(*fields[i], 2 * ((i + 1) * 1000 + i)) << "field index " << i;
}

// Same guard for the octree-construction counters.
TEST(TreeBuildCounters, SumCoversEveryField) {
  static_assert(TreeBuildCounters::kFieldCount == 5,
                "new TreeBuildCounters field: extend this test's field list");
  TreeBuildCounters a;
  std::uint64_t* const fields[TreeBuildCounters::kFieldCount] = {
      &a.morton_builds, &a.points_sorted, &a.sort_passes, &a.nodes_emitted,
      &a.leaves_emitted};
  for (std::size_t i = 0; i < TreeBuildCounters::kFieldCount; ++i)
    *fields[i] = (i + 1) * 1000 + i;  // all distinct, all nonzero
  TreeBuildCounters b = a;
  a += b;
  for (std::size_t i = 0; i < TreeBuildCounters::kFieldCount; ++i)
    EXPECT_EQ(*fields[i], 2 * ((i + 1) * 1000 + i)) << "field index " << i;
}

TEST(WorkCounters, TotalInteractionsExcludesTraversalAndScheduler) {
  // Interaction counters are included...
  WorkCounters w;
  w.born_exact = 1;
  w.born_approx = 2;
  w.epol_exact = 3;
  w.epol_bins = 4;
  w.pairlist_pairs = 5;
  w.grid_cells = 6;
  EXPECT_EQ(w.total_interactions(), 21u);
  // ...and the six traversal/bookkeeping counters are deliberately not
  // (see the doc comment on total_interactions()).
  w.born_visits = 1000;
  w.push_visits = 1000;
  w.push_atoms = 1000;
  w.epol_visits = 1000;
  w.spawns = 1000;
  w.steals = 1000;
  EXPECT_EQ(w.total_interactions(), 21u);
}

TEST(WorkCounters, TotalInteractionsSumsKernelWork) {
  WorkCounters w;
  w.born_exact = 1;
  w.born_approx = 2;
  w.epol_exact = 3;
  w.epol_bins = 4;
  w.pairlist_pairs = 5;
  w.grid_cells = 6;
  w.born_visits = 100;  // traversal, not interaction
  EXPECT_EQ(w.total_interactions(), 21u);
}

// ---- MachineModel ---------------------------------------------------------------

TEST(MachineModel, TableIConstants) {
  MachineModel m;
  EXPECT_DOUBLE_EQ(m.clock_hz, 3.33e9);
  EXPECT_EQ(m.cores_per_node, 12);
  EXPECT_EQ(m.sockets_per_node, 2);
  EXPECT_DOUBLE_EQ(m.l3_bytes, 12.0 * 1024 * 1024);
}

TEST(MachineModel, ComputeSecondsLinearInWork) {
  MachineModel m;
  WorkCounters w1, w2;
  w1.epol_exact = 1000000;
  w2.epol_exact = 2000000;
  const double t1 = m.compute_seconds(w1, 0.0, 1, false);
  const double t2 = m.compute_seconds(w2, 0.0, 1, false);
  EXPECT_NEAR(t2, 2.0 * t1, 1e-15);
  EXPECT_NEAR(t1, 1e6 * m.cyc_epol_exact / m.clock_hz, 1e-12);
}

TEST(MachineModel, ApproxMathSpeedsUpInteractionsOnly) {
  MachineModel m;
  WorkCounters w;
  w.born_exact = 1000000;
  w.born_visits = 1000000;  // traversal is not accelerated
  const double exact = m.compute_seconds(w, 0.0, 1, false);
  const double fast = m.compute_seconds(w, 0.0, 1, true);
  EXPECT_LT(fast, exact);
  // Lower bound: only the interaction share shrinks.
  const double interact = 1e6 * m.cyc_born_exact / m.clock_hz;
  const double traverse = 1e6 * m.cyc_born_visit / m.clock_hz;
  EXPECT_NEAR(fast, interact / m.approx_math_speedup + traverse, 1e-12);
}

TEST(MachineModel, CacheFactorMonotoneAndBounded) {
  MachineModel m;
  double prev = 0.0;
  for (double ws : {1e5, 1e6, 1e7, 1e8, 1e9, 1e12}) {
    const double f = m.cache_factor(ws, 6);
    EXPECT_GE(f, prev);
    EXPECT_GE(f, 1.0);
    EXPECT_LE(f, m.cache_miss_penalty);
    prev = f;
  }
  EXPECT_DOUBLE_EQ(m.cache_factor(0.0, 6), 1.0);
}

TEST(MachineModel, CommCountersAccumulate) {
  CommCounters a, b;
  a.bytes_internode = 100;
  a.collectives = 1;
  b.bytes_internode = 50;
  b.messages_intranode = 2;
  a += b;
  EXPECT_EQ(a.bytes_internode, 150u);
  EXPECT_EQ(a.messages_intranode, 2u);
  EXPECT_EQ(a.collectives, 1u);
}

// ---- LocalityCounters ------------------------------------------------------

// Same operator+= coverage guard as WorkCounters / TreeBuildCounters.
TEST(LocalityCounters, SumCoversEveryField) {
  static_assert(LocalityCounters::kFieldCount == 4,
                "new LocalityCounters field: extend this test's field list");
  LocalityCounters a;
  std::uint64_t* const fields[LocalityCounters::kFieldCount] = {
      &a.runs, &a.run_owners, &a.chunks, &a.prefetch_batches};
  for (std::size_t i = 0; i < LocalityCounters::kFieldCount; ++i)
    *fields[i] = (i + 1) * 1000 + i;  // all distinct, all nonzero
  LocalityCounters b = a;
  a += b;
  for (std::size_t i = 0; i < LocalityCounters::kFieldCount; ++i)
    EXPECT_EQ(*fields[i], 2 * ((i + 1) * 1000 + i)) << "field index " << i;
}

TEST(LocalityCounters, MeanRunLengthIsOwnersPerRun) {
  LocalityCounters l;
  EXPECT_DOUBLE_EQ(l.mean_run_length(), 0.0);
  l.runs = 4;
  l.run_owners = 10;
  EXPECT_DOUBLE_EQ(l.mean_run_length(), 2.5);
}

// ---- CpuTopology (sysfs parsing with golden fixture trees) -----------------

namespace {

namespace fs = std::filesystem;

/// Write one sysfs attribute file, creating parents.
void write_attr(const fs::path& path, const std::string& value) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path);
  out << value << "\n";
}

/// A throwaway fixture root under the system temp dir, removed on scope
/// exit.
struct FixtureRoot {
  fs::path root;
  explicit FixtureRoot(const char* name)
      : root(fs::temp_directory_path() /
             (std::string("octgb_topo_") + name + "_" +
              std::to_string(::getpid()))) {
    fs::remove_all(root);
    fs::create_directories(root);
  }
  ~FixtureRoot() { fs::remove_all(root); }
  fs::path cpu(int i) const { return root / ("cpu" + std::to_string(i)); }
};

}  // namespace

TEST(CpuTopology, SingleSocketSmtFixtureParses) {
  FixtureRoot fx("smt");
  // 4 logical cpus: one socket, one shared L3, SMT pairs (0,2) and (1,3).
  for (int i = 0; i < 4; ++i) {
    write_attr(fx.cpu(i) / "topology" / "physical_package_id", "0");
    write_attr(fx.cpu(i) / "cache" / "index3" / "shared_cpu_list", "0-3");
    write_attr(fx.cpu(i) / "topology" / "thread_siblings_list",
               i % 2 == 0 ? "0,2" : "1,3");
  }
  write_attr(fx.cpu(0) / "cache" / "index3" / "size", "8192K");
  const CpuTopology t = discover_topology(fx.root.string());
  EXPECT_FALSE(t.flat_fallback);
  EXPECT_EQ(t.num_cpus(), 4);
  EXPECT_EQ(t.sockets, 1);
  EXPECT_EQ(t.l3_domains, 1);
  EXPECT_EQ(t.smt_groups, 2);
  EXPECT_EQ(t.l3_bytes, 8192u * 1024u);
  EXPECT_TRUE(t.same_l3(0, 3));
  EXPECT_TRUE(t.same_socket(1, 2));
}

TEST(CpuTopology, TwoSocketFixtureSplitsDomains) {
  FixtureRoot fx("2s");
  // 2 sockets × 2 cores, one L3 per socket, no SMT.
  for (int i = 0; i < 4; ++i) {
    const bool second = i >= 2;
    write_attr(fx.cpu(i) / "topology" / "physical_package_id",
               second ? "1" : "0");
    write_attr(fx.cpu(i) / "cache" / "index3" / "shared_cpu_list",
               second ? "2-3" : "0-1");
    write_attr(fx.cpu(i) / "topology" / "thread_siblings_list",
               std::to_string(i));
  }
  write_attr(fx.cpu(0) / "cache" / "index3" / "size", "12288K");
  const CpuTopology t = discover_topology(fx.root.string());
  EXPECT_FALSE(t.flat_fallback);
  EXPECT_EQ(t.num_cpus(), 4);
  EXPECT_EQ(t.sockets, 2);
  EXPECT_EQ(t.l3_domains, 2);
  EXPECT_EQ(t.smt_groups, 4);
  EXPECT_EQ(t.l3_bytes, 12288u * 1024u);
  EXPECT_TRUE(t.same_l3(0, 1));
  EXPECT_FALSE(t.same_l3(1, 2));
  EXPECT_FALSE(t.same_socket(0, 3));
}

TEST(CpuTopology, MissingCacheInfoDegradesToSocketGranularity) {
  FixtureRoot fx("nocache");
  // Container case: package ids exposed, cache directories absent. Must
  // not throw; L3 domains degrade to one per socket.
  for (int i = 0; i < 4; ++i)
    write_attr(fx.cpu(i) / "topology" / "physical_package_id",
               i < 2 ? "0" : "1");
  const CpuTopology t = discover_topology(fx.root.string());
  EXPECT_FALSE(t.flat_fallback);
  EXPECT_EQ(t.num_cpus(), 4);
  EXPECT_EQ(t.sockets, 2);
  EXPECT_EQ(t.l3_domains, 2);  // socket-granularity fallback
  EXPECT_EQ(t.smt_groups, 4);  // per-cpu fallback
  EXPECT_EQ(t.l3_bytes, 0u);
  EXPECT_TRUE(t.same_l3(0, 1));
  EXPECT_FALSE(t.same_l3(0, 2));
}

TEST(CpuTopology, EmptyRootFallsBackFlat) {
  FixtureRoot fx("empty");
  const CpuTopology t = discover_topology(fx.root.string(), /*fallback=*/3);
  EXPECT_TRUE(t.flat_fallback);
  EXPECT_EQ(t.num_cpus(), 3);
  EXPECT_EQ(t.sockets, 1);
  EXPECT_EQ(t.l3_domains, 1);
  EXPECT_TRUE(t.same_l3(0, 2));
  // Out-of-range cpu ids clamp instead of crashing.
  EXPECT_TRUE(t.same_socket(0, 99));
}

TEST(CpuTopology, HostDiscoveryYieldsSaneSingleton) {
  const CpuTopology& t = topology();
  EXPECT_GE(t.num_cpus(), 1);
  EXPECT_GE(t.sockets, 1);
  EXPECT_GE(t.l3_domains, t.sockets > 0 ? 1 : 0);
  EXPECT_EQ(&topology(), &t);  // one singleton
}

