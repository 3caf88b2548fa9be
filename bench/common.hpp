#pragma once
/// \file common.hpp
/// Shared infrastructure for the figure/table benchmark binaries.
///
/// Every bench prints (a) the simulation-environment header (Table I),
/// (b) the figure's rows as an aligned table, and (c) writes a CSV next to
/// the binary (bench_out/<name>.csv) for replotting. Timing semantics are
/// described in DESIGN.md §2: operation counts and communication volumes
/// are measured, times are modeled on the Table I machine.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "octgb/octgb.hpp"

namespace octgb::bench {

/// Print the Table I machine description once per bench.
void print_environment();

/// Print Table II (packages, GB models, parallelism).
void print_package_table();

/// Write a table's CSV under bench_out/ (created on demand); logs the path.
void save_csv(const util::Table& table, const std::string& name);

/// True when the environment asks for reduced workloads
/// (OCTGB_BENCH_QUICK=1): benches subsample molecules and shrink the
/// virus shells so a full `for b in build/bench/*` sweep stays short.
bool quick_mode();

/// The ZDock subset to run: every molecule normally, every 4th in quick
/// mode (always keeping the smallest and largest).
std::vector<mol::BenchmarkEntry> zdock_selection();

/// One fully prepared problem: molecule + sampled surface + engine.
struct Prepared {
  mol::Molecule molecule;
  surface::Surface surf;
  std::unique_ptr<core::GBEngine> engine;

  std::size_t atoms() const { return molecule.size(); }
};

/// Build a problem with bench-standard surface parameters (icosphere
/// subdivision 1 for proteins ≤ 20k atoms, 0 for larger shells — the
/// paper's CMV has ≈ 3.8 q-points per atom, matching subdivision 0 on
/// shells).
Prepared prepare(mol::Molecule molecule, core::EngineConfig config = {});

/// The paper's cluster configurations on the Table I machine.
/// OCT_CILK: 1 process × `cores` threads.
sim::ClusterConfig oct_cilk_config(int cores = 12);
/// OCT_MPI: `cores` single-thread ranks, 12 per node.
sim::ClusterConfig oct_mpi_config(int cores = 12);
/// OCT_MPI+CILK: 2 ranks of 6 threads per node (one rank per socket, the
/// paper's affinity setup of §V-A).
sim::ClusterConfig oct_hybrid_config(int cores = 12);

/// Convenience: run one simulated configuration.
sim::SimResult run_config(const core::GBEngine& engine,
                          const sim::ClusterConfig& config);

/// Format seconds for tables (ms below 1 s, like the paper's plots).
std::string fmt_time(double seconds);

// --- observability plumbing (OBSERVABILITY.md) -----------------------------

/// `--trace-out` / `--metrics-out` support shared by the figure benches:
///
///   bench::TraceSession ts;
///   ts.register_args(args);
///   args.parse(argc, argv);
///   ts.begin();                                  // enables span recording
///   ... run configurations, ts.metrics().add_work(scope, result.work) ...
///   ts.finish();                                 // writes the files
///
/// `--trace-out f.json` records phase/worker spans during the run and
/// writes a chrome://tracing file loadable in Perfetto; `--metrics-out
/// f.json` (or .csv) dumps the bench-filled MetricsRegistry. Either flag
/// works alone; tracing never changes results or counters.
class TraceSession {
 public:
  /// Add --trace-out and --metrics-out to the bench's argument set.
  void register_args(util::Args& args);

  /// Start recording when --trace-out was given. Call directly after
  /// Args::parse, before engines are built (tree-build spans).
  void begin() const;

  /// True when either output file was requested.
  bool active() const { return !trace_out_.empty() || !metrics_out_.empty(); }

  /// The metrics the bench accumulates (counter totals per configuration).
  trace::MetricsRegistry& metrics() { return metrics_; }

  /// Write the requested trace/metrics files and log their paths.
  void finish() const;

 private:
  std::string trace_out_;
  std::string metrics_out_;
  trace::MetricsRegistry metrics_;
};

/// Record one simulated configuration's measurements under `scope`
/// (e.g. "oct_mpi.nodes4"): exact work-counter totals plus the modeled
/// compute/comm/total seconds and the per-rank footprint.
void add_sim_metrics(trace::MetricsRegistry& m, const std::string& scope,
                     const sim::SimResult& r);

}  // namespace octgb::bench
