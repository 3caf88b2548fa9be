#include "common.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

namespace octgb::bench {

void print_environment() {
  namespace m = perf::machine;
  util::Table t("Simulation environment (Table I; modeled — see DESIGN.md)");
  t.header({"attribute", "property"});
  t.row({"Processors", util::format("%.2f GHz hexa-core Intel Westmere "
                                    "(modeled)",
                                    m::clock_hz / 1e9)});
  t.row({"Cores/node", util::format("%d", m::cores_per_node)});
  t.row({"RAM", util::human_bytes(m::ram_bytes)});
  t.row({"Interconnect", util::format(
                             "InfiniBand fat-tree (t_s=%.1f us, %.1f GB/s)",
                             m::net_ts * 1e6, 1e-9 / m::net_tw)});
  t.row({"Cache", util::format("%s shared L3 per socket",
                               util::human_bytes(m::l3_bytes).c_str())});
  t.row({"Parallelism", "octgb::ws (cilk-style) + octgb::mpp (MPI-style)"});
  t.print();
  std::puts("");
}

void print_package_table() {
  util::Table t("Packages, GB models and parallelism (Table II)");
  t.header({"package", "GB model", "parallelism"});
  for (const auto& p : baselines::package_registry()) {
    const char* par = p.parallelism == baselines::Parallelism::Serial
                          ? "Serial"
                          : (p.parallelism ==
                                     baselines::Parallelism::SharedMemory
                                 ? "Shared (OpenMP-like)"
                                 : "Distributed (MPI-like)");
    t.row({p.name, p.gb_model, par});
  }
  t.row({"OCT_CILK", "STILL", "Shared (octgb::ws)"});
  t.row({"OCT_MPI", "STILL", "Distributed (octgb::mpp)"});
  t.row({"OCT_MPI+CILK", "STILL", "Distributed + shared (hybrid)"});
  t.row({"Naive", "STILL", "Serial"});
  t.print();
  std::puts("");
}

void save_csv(const util::Table& table, const std::string& name) {
  std::error_code ec;
  std::filesystem::create_directories("bench_out", ec);
  const std::string path = "bench_out/" + name + ".csv";
  if (table.write_csv(path)) {
    std::printf("[csv] wrote %s\n", path.c_str());
  } else {
    std::printf("[csv] FAILED to write %s\n", path.c_str());
  }
}

bool quick_mode() {
  const char* env = std::getenv("OCTGB_BENCH_QUICK");
  return env != nullptr && env[0] == '1';
}

std::vector<mol::BenchmarkEntry> zdock_selection() {
  const auto all = mol::zdock_set();
  std::vector<mol::BenchmarkEntry> out;
  if (!quick_mode()) {
    out.assign(all.begin(), all.end());
    return out;
  }
  for (std::size_t i = 0; i < all.size(); i += 4) out.push_back(all[i]);
  if (out.back().name != all.back().name) out.push_back(all.back());
  return out;
}

Prepared prepare(mol::Molecule molecule, core::EngineConfig config) {
  Prepared p;
  p.molecule = std::move(molecule);
  surface::SurfaceParams sp;
  sp.subdivision = p.molecule.size() > 20000 ? 0 : 1;
  p.surf = surface::build_surface(p.molecule, sp);
  p.engine = std::make_unique<core::GBEngine>(p.molecule, p.surf, config);
  return p;
}

sim::ClusterConfig oct_cilk_config(int cores) {
  sim::ClusterConfig c;
  c.ranks = 1;
  c.threads_per_rank = cores;
  return c;
}

sim::ClusterConfig oct_mpi_config(int cores) {
  sim::ClusterConfig c;
  c.ranks = cores;
  c.threads_per_rank = 1;
  c.topology.ranks_per_node = 12;
  return c;
}

sim::ClusterConfig oct_hybrid_config(int cores) {
  sim::ClusterConfig c;
  // One rank per socket with 6 workers (ibrun-style affinity, §V-A).
  c.threads_per_rank = 6;
  c.ranks = std::max(1, cores / 6);
  c.topology.ranks_per_node = 2;
  return c;
}

sim::SimResult run_config(const core::GBEngine& engine,
                          const sim::ClusterConfig& config) {
  return sim::simulate_cluster(engine, config);
}

void TraceSession::register_args(util::Args& args) {
  args.add("trace-out", &trace_out_,
           "write a chrome://tracing JSON (Perfetto) of this run");
  args.add("metrics-out", &metrics_out_,
           "write the run's counter metrics as JSON (or .csv)");
}

void TraceSession::begin() const {
  if (!trace_out_.empty()) trace::Tracer::instance().set_enabled(true);
}

void TraceSession::finish() const {
  if (!trace_out_.empty()) {
    auto& tracer = trace::Tracer::instance();
    if (tracer.save_chrome_trace(trace_out_)) {
      std::printf("[trace] wrote %s (%zu events", trace_out_.c_str(),
                  tracer.event_count());
      if (tracer.dropped_count() > 0)
        std::printf(", %llu dropped",
                    static_cast<unsigned long long>(tracer.dropped_count()));
      std::printf(") — open in https://ui.perfetto.dev\n");
    } else {
      std::printf("[trace] FAILED to write %s\n", trace_out_.c_str());
    }
  }
  if (!metrics_out_.empty()) {
    const bool as_csv = metrics_out_.size() >= 4 &&
                        metrics_out_.compare(metrics_out_.size() - 4, 4,
                                             ".csv") == 0;
    const bool ok = as_csv ? metrics_.save_csv(metrics_out_)
                           : metrics_.save_json(metrics_out_);
    std::printf("[metrics] %s %s (%zu metrics)\n",
                ok ? "wrote" : "FAILED to write", metrics_out_.c_str(),
                metrics_.size());
  }
}

void add_sim_metrics(trace::MetricsRegistry& m, const std::string& scope,
                     const sim::SimResult& r) {
  m.add_work(scope, r.work_total);
  m.set("time.compute_s." + scope, r.compute_seconds);
  m.set("time.comm_s." + scope, r.comm_seconds);
  m.set("time.total_s." + scope, r.total_seconds);
  m.set("mem.bytes_per_rank." + scope,
        static_cast<std::uint64_t>(r.bytes_per_rank));
  m.set("cores." + scope, static_cast<std::uint64_t>(r.total_cores));
}

std::string fmt_time(double seconds) {
  if (seconds < 1.0) return util::format("%.2f ms", seconds * 1e3);
  if (seconds < 120.0) return util::format("%.2f s", seconds);
  return util::format("%.1f min", seconds / 60.0);
}

}  // namespace octgb::bench
