// Octree construction bench: cold build time vs atom count, legacy
// recursive partitioner vs the Morton linear-octree pipeline (serial radix
// sort under a 1-worker scheduler, and the default build, which sorts in
// parallel on a private pool above 8,192 points).
//
// The scaling table sweeps the ZDock size range; the gate section times
// the largest benchmark complex (1BGX_l_b, 16,301 atoms — the paper's
// upper end) and enforces, with a nonzero exit on violation:
//   - the parallel Morton build is >= 4.0x faster than the serial legacy
//     builder (>= 1.8x under --smoke, the CI gate — relaxed for noisy
//     runners). The 4x is a *parallelism* claim — keygen, sort, scatter
//     and per-node geometry all fan out over the scheduler — so the gate
//     binds in full only when the host offers at least the paper's
//     12-core node (Table I). Below that it scales down linearly with
//     the worker count and bottoms out as a serial no-regression floor:
//     a lone core cannot beat the legacy recursion by 4x, because that
//     recursion is itself an MSD radix-8 sort that stops sorting at the
//     leaves, while the linear-octree pipeline pays for a full
//     deterministic key sort (what it buys: resort refits, memcpy-grade
//     persistence, and worker-count-independent trees).
//   - the two builders agree on the tree (node/leaf counts and the root
//     range — the full differential lives in octree_equiv_test);
//   - the tree.build.* work counters are flat: exactly one build, every
//     point sorted once, node/leaf emission counts matching the tree, and
//     no resorts on a cold build.
//
// `--metrics-out` dumps the per-builder timings, the speedup, and the
// tree.build.* counter block per the OBSERVABILITY.md schema.

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

using namespace octgb;
using octree::BuildParams;
using octree::Octree;

namespace {

std::vector<geom::Vec3> positions_of(const mol::Molecule& m) {
  std::vector<geom::Vec3> pts(m.size());
  for (std::size_t i = 0; i < m.size(); ++i) pts[i] = m.atom(i).pos;
  return pts;
}

/// Best-of-3 groups of `reps` cold builds; the minimum group mean is the
/// measurement least disturbed by the host (the workload is deterministic).
template <class BuildFn>
double time_builds(int reps, const BuildFn& build) {
  (void)build();  // one untimed warmup (page-in, allocator steady state)
  double best = 1e300;
  for (int group = 0; group < 3; ++group) {
    perf::Timer t;
    for (int r = 0; r < reps; ++r) (void)build();
    best = std::min(best, t.seconds() / reps);
  }
  return best;
}

int reps_for(std::size_t atoms, bool smoke) {
  const int base = static_cast<int>(std::max<std::size_t>(1, 60000 / atoms));
  return smoke ? std::max(1, base / 3) : base;
}

}  // namespace

int main(int argc, char** argv) {
  std::string molecule_name = "1BGX_l_b";  // largest ZDock complex
  bool smoke = false;
  util::Args args;
  args.add("molecule", &molecule_name, "ZDock entry for the gate section");
  args.flag("smoke", &smoke, "CI-size reps and the 1.8x gate");
  bench::TraceSession ts;
  ts.register_args(args);
  args.parse(argc, argv);
  ts.begin();
  // Gate scaled to the parallelism the host can actually express: full
  // strength at the paper's 12-core node, linear below, floored at a
  // serial no-regression check (see the header comment).
  const unsigned workers = std::max(1u, std::thread::hardware_concurrency());
  const double scale = std::min(1.0, static_cast<double>(workers) / 12.0);
  const double gate =
      smoke ? std::max(0.70, 1.8 * scale) : std::max(0.75, 4.0 * scale);
  std::printf("speedup gate %.2fx (%u workers, %s)\n", gate, workers,
              smoke ? "smoke" : "full");

  // --- scaling table: cold build time vs atom count -------------------------
  util::Table scaling("cold octree build: legacy partitioner vs Morton "
                      "pipeline (atoms tree, default params)");
  scaling.header({"molecule", "atoms", "legacy", "morton serial",
                  "morton parallel", "speedup"});
  std::vector<mol::BenchmarkEntry> sweep;
  for (const auto& e : bench::zdock_selection()) {
    if (sweep.empty() || e.atoms > 2 * sweep.back().atoms ||
        std::string_view(e.name) == molecule_name)
      sweep.push_back(e);  // size-doubling subset + the gate molecule
  }
  double gate_legacy = 0.0, gate_parallel = 0.0;
  for (const auto& e : sweep) {
    const auto pts =
        positions_of(mol::make_benchmark_molecule(e.name, e.atoms));
    const int reps = reps_for(pts.size(), smoke);
    const BuildParams params;
    const double legacy_s = time_builds(
        reps, [&] { return Octree::build_legacy(pts, params); });
    ws::Scheduler one_worker(1);
    const double serial_s = time_builds(reps, [&] {
      Octree t;
      one_worker.run([&] { t = Octree::build(pts, params); });
      return t;
    });
    const double parallel_s = time_builds(
        reps, [&] { return Octree::build(pts, params); });
    const double speedup = legacy_s / parallel_s;
    scaling.row({e.name, util::format("%zu", e.atoms),
                 bench::fmt_time(legacy_s), bench::fmt_time(serial_s),
                 bench::fmt_time(parallel_s),
                 util::format("%.2fx", speedup)});
    if (std::string_view(e.name) == molecule_name) {
      gate_legacy = legacy_s;
      gate_parallel = parallel_s;
    }
    if (ts.active()) {
      const std::string scope = e.name;
      auto& m = ts.metrics();
      m.set("tree.build.seconds.legacy." + scope, legacy_s);
      m.set("tree.build.seconds.morton_serial." + scope, serial_s);
      m.set("tree.build.seconds.morton." + scope, parallel_s);
      m.set("tree.build.speedup." + scope, speedup);
    }
  }
  scaling.print();
  bench::save_csv(scaling, "bench_octree_build");

  // --- gate section: the largest complex ------------------------------------
  OCTGB_CHECK_MSG(gate_legacy > 0.0,
                  "gate molecule " << molecule_name
                                   << " missing from the sweep");
  const double speedup = gate_legacy / gate_parallel;
  std::printf("\n%s cold-build speedup, Morton vs legacy: %.2fx "
              "(gate >= %.2fx)\n",
              molecule_name.c_str(), speedup, gate);

  // One counted build per builder: the equivalence witness and the flat
  // work-counter contract (the full differential is octree_equiv_test).
  const auto pts = positions_of(mol::make_benchmark_molecule(molecule_name));
  BuildParams params;
  const Octree morton = Octree::build(pts, params);
  const Octree legacy = Octree::build_legacy(pts, params);
  OCTGB_CHECK_MSG(morton.nodes().size() == legacy.nodes().size() &&
                      morton.leaf_ids().size() == legacy.leaf_ids().size() &&
                      morton.max_depth() == legacy.max_depth(),
                  "Morton and legacy builders disagree on the tree shape");

  const perf::TreeBuildCounters& stats = morton.build_stats();
  OCTGB_CHECK_MSG(stats.morton_builds == 1 && stats.legacy_builds == 0,
                  "cold Morton build counted " << stats.morton_builds
                                               << " builds");
  OCTGB_CHECK_MSG(stats.points_sorted == pts.size(),
                  "sorted " << stats.points_sorted << " of " << pts.size()
                            << " points");
  OCTGB_CHECK_MSG(stats.nodes_emitted == morton.nodes().size() &&
                      stats.leaves_emitted == morton.leaf_ids().size(),
                  "emission counters disagree with the built tree");
  OCTGB_CHECK_MSG(stats.resorts == 0 && stats.resort_moved == 0,
                  "cold build performed resorts");
  std::printf("work counters flat: %llu points sorted (%llu radix passes), "
              "%llu nodes, %llu leaves\n",
              static_cast<unsigned long long>(stats.points_sorted),
              static_cast<unsigned long long>(stats.sort_passes),
              static_cast<unsigned long long>(stats.nodes_emitted),
              static_cast<unsigned long long>(stats.leaves_emitted));

  if (ts.active()) {
    auto& m = ts.metrics();
    m.add_tree_build("", stats);
    m.set("tree.build.gate", gate);
    m.set("tree.build.gate_speedup", speedup);
  }
  ts.finish();
  OCTGB_CHECK_MSG(speedup >= gate,
                  "Morton build fell below the speedup gate");
  return 0;
}
