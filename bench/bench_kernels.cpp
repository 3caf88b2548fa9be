// Kernel microbenchmarks (google-benchmark): octree construction, surface
// sampling, the Born and Epol kernels, fast math, the work-stealing
// scheduler, and mpp collectives. These measure *real wall time on this
// host* (unlike the figure benches, which model the paper's cluster).
//
// `--trace` (consumed before google-benchmark sees argv) records every
// phase/worker span into bench_out/kernels_trace.json — the sample trace
// CI uploads (OBSERVABILITY.md). Leave it off when measuring: the
// overhead numbers in OBSERVABILITY.md are for tracing disabled.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "octgb/octgb.hpp"
#include "octgb/simd/dispatch.hpp"

using namespace octgb;

namespace {

const mol::Molecule& test_molecule(std::size_t atoms) {
  static std::map<std::size_t, mol::Molecule> cache;
  auto it = cache.find(atoms);
  if (it == cache.end()) {
    it = cache.emplace(atoms, mol::generate_protein(
                                  {.target_atoms = atoms, .seed = 99}))
             .first;
  }
  return it->second;
}

const surface::Surface& test_surface(std::size_t atoms) {
  static std::map<std::size_t, surface::Surface> cache;
  auto it = cache.find(atoms);
  if (it == cache.end()) {
    it = cache.emplace(atoms, surface::build_surface(test_molecule(atoms),
                                                     {.subdivision = 1}))
             .first;
  }
  return it->second;
}

}  // namespace

static void BM_OctreeBuild(benchmark::State& state) {
  const auto& m = test_molecule(static_cast<std::size_t>(state.range(0)));
  std::vector<geom::Vec3> pts(m.size());
  for (std::size_t i = 0; i < m.size(); ++i) pts[i] = m.atom(i).pos;
  for (auto _ : state) {
    auto t = octree::Octree::build(pts);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OctreeBuild)->Arg(1000)->Arg(4000)->Arg(16000);

static void BM_NbListBuild(benchmark::State& state) {
  const auto& m = test_molecule(4000);
  std::vector<geom::Vec3> pts(m.size());
  for (std::size_t i = 0; i < m.size(); ++i) pts[i] = m.atom(i).pos;
  const double cutoff = static_cast<double>(state.range(0));
  for (auto _ : state) {
    auto nb = octree::NbList::build(pts, {.cutoff = cutoff, .max_bytes = 0});
    benchmark::DoNotOptimize(nb);
  }
}
BENCHMARK(BM_NbListBuild)->Arg(6)->Arg(12)->Arg(20);

static void BM_SurfaceBuild(benchmark::State& state) {
  const auto& m = test_molecule(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto s = surface::build_surface(m, {.subdivision = 1});
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_SurfaceBuild)->Arg(1000)->Arg(4000);

// --- near-field kernels on real leaf distributions, per variant ---------
//
// One benchmark series per vector width, so the CSV never lumps distinct
// code paths under one label. Variants:
//   batched/scalar  — the SoA kernels at width 1 (the Scalar ISA)
//   batched/<isa>   — the SoA kernels at a vector width
// Width variants are registered at startup for every compiled-and-
// runnable ISA (see register_kernel_variants in main), so a narrower
// host simply produces fewer series instead of error rows.

namespace {

struct KernelVariant {
  simd::VectorParams vec;
  std::string label;  ///< benchmark-name suffix, "batched/width"
};

std::vector<KernelVariant> kernel_variants() {
  std::vector<KernelVariant> out;
  out.push_back({{simd::VectorIsa::Scalar}, "batched/scalar"});
  for (simd::VectorIsa isa : {simd::VectorIsa::V128, simd::VectorIsa::V256}) {
    if (!simd::isa_available(isa)) continue;
    out.push_back({{isa}, std::string("batched/") + simd::isa_name(isa)});
  }
  return out;
}

void BM_BornPhaseKernel(benchmark::State& state, KernelVariant variant) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::EngineConfig cfg;
  cfg.approx.vector = variant.vec;
  core::GBEngine engine(test_molecule(n), test_surface(n), cfg);
  std::vector<double> node_s(engine.num_ta_nodes());
  std::vector<double> atom_s(engine.num_atoms());
  std::uint64_t interactions = 0;
  for (auto _ : state) {
    std::fill(node_s.begin(), node_s.end(), 0.0);
    std::fill(atom_s.begin(), atom_s.end(), 0.0);
    perf::WorkCounters wc;
    engine.phase_integrals(
        {0, static_cast<std::uint32_t>(engine.q_leaves().size())}, node_s,
        atom_s, wc);
    interactions += wc.born_exact;
    benchmark::DoNotOptimize(atom_s.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(interactions));
  state.SetLabel(variant.label);
}

void BM_EpolPhaseKernel(benchmark::State& state, KernelVariant variant) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::EngineConfig cfg;
  cfg.approx.vector = variant.vec;
  core::GBEngine engine(test_molecule(n), test_surface(n), cfg);
  const auto result = engine.compute();
  std::vector<double> born_tree(engine.num_atoms());
  const auto idx = engine.atoms_tree().tree.point_index();
  for (std::size_t pos = 0; pos < idx.size(); ++pos)
    born_tree[pos] = result.born[idx[pos]];
  const auto ctx = engine.build_epol_context(born_tree);
  std::uint64_t interactions = 0;
  for (auto _ : state) {
    perf::WorkCounters wc;
    const double e = engine.phase_epol(
        ctx, born_tree,
        {0, static_cast<std::uint32_t>(engine.a_leaves().size())}, wc);
    interactions += wc.epol_exact;
    benchmark::DoNotOptimize(e);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(interactions));
  state.SetLabel(variant.label);
}

void BM_LeafBornKernel(benchmark::State& state, KernelVariant variant) {
  const std::size_t n = 4000;
  core::GBEngine engine(test_molecule(n), test_surface(n));
  const auto& ta = engine.atoms_tree();
  const auto& tq = engine.qpoints_tree();
  const simd::KernelSet* ks = simd::kernels(variant.vec.isa);
  std::uint64_t pairs = 0;
  for (auto _ : state) {
    double acc = 0.0;
    // Every T_A leaf against a striding sample of real T_Q leaves.
    const auto& a_leaves = ta.tree.leaf_ids();
    const auto& q_leaves = tq.tree.leaf_ids();
    for (std::size_t i = 0; i < a_leaves.size(); ++i) {
      const auto& a = ta.tree.node(a_leaves[i]);
      const auto& q = tq.tree.node(q_leaves[i % q_leaves.size()]);
      const core::QPointBatch qb = tq.batch(q.begin, q.end);
      for (std::uint32_t ai = a.begin; ai < a.end; ++ai)
        acc += ks->born_integral(ta.soa_x()[ai], ta.soa_y()[ai],
                                 ta.soa_z()[ai], qb);
      pairs += static_cast<std::uint64_t>(a.size()) * q.size();
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(pairs));
  state.SetLabel(variant.label);
}

void BM_LeafEpolKernel(benchmark::State& state, KernelVariant variant) {
  const std::size_t n = 4000;
  core::GBEngine engine(test_molecule(n), test_surface(n));
  const auto result = engine.compute();
  const auto& ta = engine.atoms_tree();
  std::vector<double> born_tree(engine.num_atoms());
  const auto idx = ta.tree.point_index();
  for (std::size_t pos = 0; pos < idx.size(); ++pos)
    born_tree[pos] = result.born[idx[pos]];
  const simd::KernelSet* ks = simd::kernels(variant.vec.isa);
  std::uint64_t pairs = 0;
  for (auto _ : state) {
    double acc = 0.0;
    const auto& leaves = ta.tree.leaf_ids();
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      const auto& v = ta.tree.node(leaves[i]);
      const auto& u = ta.tree.node(leaves[(i + 1) % leaves.size()]);
      const core::AtomBatch ub = ta.batch(u.begin, u.end, born_tree);
      for (std::uint32_t vi = v.begin; vi < v.end; ++vi)
        acc += ks->epol_sum(ta.soa_x()[vi], ta.soa_y()[vi], ta.soa_z()[vi],
                            ta.charge[vi], born_tree[vi], ub);
      pairs += static_cast<std::uint64_t>(u.size()) * v.size();
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(pairs));
  state.SetLabel(variant.label);
}

/// Register one series per variant for the four kernel benches. Done at
/// runtime (not BENCHMARK macros) because the variant list depends on
/// which vector TUs this binary carries and what the CPU can run.
void register_kernel_variants() {
  for (const KernelVariant& variant : kernel_variants()) {
    const std::string tag = "/" + variant.label;
    benchmark::RegisterBenchmark(
        ("BM_BornPhaseKernel" + tag).c_str(),
        [variant](benchmark::State& s) { BM_BornPhaseKernel(s, variant); })
        ->Arg(1000)
        ->Arg(4000);
    benchmark::RegisterBenchmark(
        ("BM_EpolPhaseKernel" + tag).c_str(),
        [variant](benchmark::State& s) { BM_EpolPhaseKernel(s, variant); })
        ->Arg(1000)
        ->Arg(4000);
    benchmark::RegisterBenchmark(
        ("BM_LeafBornKernel" + tag).c_str(),
        [variant](benchmark::State& s) { BM_LeafBornKernel(s, variant); });
    benchmark::RegisterBenchmark(
        ("BM_LeafEpolKernel" + tag).c_str(),
        [variant](benchmark::State& s) { BM_LeafEpolKernel(s, variant); });
  }
}

}  // namespace

static void BM_BornPhase(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::GBEngine engine(test_molecule(n), test_surface(n));
  std::vector<double> node_s(engine.num_ta_nodes());
  std::vector<double> atom_s(engine.num_atoms());
  for (auto _ : state) {
    std::fill(node_s.begin(), node_s.end(), 0.0);
    std::fill(atom_s.begin(), atom_s.end(), 0.0);
    perf::WorkCounters wc;
    engine.phase_integrals(
        {0, static_cast<std::uint32_t>(engine.q_leaves().size())}, node_s,
        atom_s, wc);
    benchmark::DoNotOptimize(atom_s.data());
  }
}
BENCHMARK(BM_BornPhase)->Arg(1000)->Arg(4000);

static void BM_EpolPhase(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::GBEngine engine(test_molecule(n), test_surface(n));
  const auto result = engine.compute();
  std::vector<double> born_tree(engine.num_atoms());
  const auto idx = engine.atoms_tree().tree.point_index();
  for (std::size_t pos = 0; pos < idx.size(); ++pos)
    born_tree[pos] = result.born[idx[pos]];
  const auto ctx = engine.build_epol_context(born_tree);
  for (auto _ : state) {
    perf::WorkCounters wc;
    const double e = engine.phase_epol(
        ctx, born_tree,
        {0, static_cast<std::uint32_t>(engine.a_leaves().size())}, wc);
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_EpolPhase)->Arg(1000)->Arg(4000);

static void BM_FastRsqrt(benchmark::State& state) {
  double x = 1.0;
  for (auto _ : state) {
    x += 1.0;
    benchmark::DoNotOptimize(core::fast_rsqrt(x));
  }
}
BENCHMARK(BM_FastRsqrt);

static void BM_ExactRsqrt(benchmark::State& state) {
  double x = 1.0;
  for (auto _ : state) {
    x += 1.0;
    benchmark::DoNotOptimize(1.0 / std::sqrt(x));
  }
}
BENCHMARK(BM_ExactRsqrt);

static void BM_FastExp(benchmark::State& state) {
  double x = 0.0;
  for (auto _ : state) {
    x = x > 20 ? 0.0 : x + 1e-3;
    benchmark::DoNotOptimize(core::fast_exp(-x));
  }
}
BENCHMARK(BM_FastExp);

static void BM_ExactExp(benchmark::State& state) {
  double x = 0.0;
  for (auto _ : state) {
    x = x > 20 ? 0.0 : x + 1e-3;
    benchmark::DoNotOptimize(std::exp(-x));
  }
}
BENCHMARK(BM_ExactExp);

static void BM_SchedulerForkJoin(benchmark::State& state) {
  ws::Scheduler sched(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::atomic<long> sum{0};
    sched.run([&] {
      ws::Scheduler::parallel_for(0, 100000, 512,
                                  [&](std::int64_t lo, std::int64_t hi) {
                                    long s = 0;
                                    for (auto i = lo; i < hi; ++i) s += i;
                                    sum += s;
                                  });
    });
    benchmark::DoNotOptimize(sum.load());
  }
}
BENCHMARK(BM_SchedulerForkJoin)->Arg(1)->Arg(2)->Arg(4);

static void BM_MppAllreduce(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mpp::Runtime::Options opts;
    opts.ranks = ranks;
    mpp::Runtime::run(opts, [](mpp::Comm& c) {
      std::vector<double> v(1024, static_cast<double>(c.rank()));
      c.allreduce_sum(std::span<double>(v));
      benchmark::DoNotOptimize(v[0]);
    });
  }
}
BENCHMARK(BM_MppAllreduce)->Arg(2)->Arg(4)->Arg(8);

// Custom main instead of BENCHMARK_MAIN(): pre-scan argv for --trace and
// --smoke, which google-benchmark's own parser would reject as unknown
// flags. --smoke shrinks per-series measuring time so the CI simd-matrix
// job can emit one CSV per width without budget; --smoke numbers are for
// shape inspection, not for regression comparison.
int main(int argc, char** argv) {
  bool want_trace = false;
  bool smoke = false;
  std::vector<char*> pass_argv;
  pass_argv.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      want_trace = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      pass_argv.push_back(argv[i]);
    }
  }
  static char min_time_flag[] = "--benchmark_min_time=0.02";
  if (smoke) pass_argv.push_back(min_time_flag);
  argc = static_cast<int>(pass_argv.size());
  argv = pass_argv.data();

  if (want_trace) {
    // Benchmarks iterate kernels thousands of times; cap each thread's
    // buffer well below the default so the JSON stays loadable.
    trace::Tracer::instance().set_max_events_per_thread(1 << 18);
    trace::Tracer::instance().set_enabled(true);
  }

  register_kernel_variants();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (want_trace) {
    std::error_code ec;
    std::filesystem::create_directories("bench_out", ec);
    const char* path = "bench_out/kernels_trace.json";
    auto& tracer = trace::Tracer::instance();
    if (tracer.save_chrome_trace(path)) {
      std::printf("[trace] wrote %s (%zu events", path,
                  tracer.event_count());
      if (tracer.dropped_count() > 0)
        std::printf(", %llu dropped",
                    static_cast<unsigned long long>(tracer.dropped_count()));
      std::printf(") — open in https://ui.perfetto.dev\n");
    } else {
      std::printf("[trace] FAILED to write %s\n", path);
    }
  }
  return 0;
}
