// Large-molecule workflow (the paper's §V-F): generate a virus-capsid
// shell, run the hybrid distributed-shared algorithm on the real mpp
// runtime (ranks are threads here), and show how the same problem maps
// onto simulated cluster shapes of the Table I machine.

#include <cstdio>
#include <exception>

#include "octgb/octgb.hpp"

using namespace octgb;

int main(int argc, char** argv) try {
  int atoms = 20000;
  int ranks = 4;
  int threads = 2;
  util::Args args;
  args.add("atoms", &atoms, "shell atom count");
  args.add("ranks", &ranks, "mpp ranks (P)");
  args.add("threads", &threads, "worker threads per rank (p)");
  args.parse(argc, argv);

  const mol::Molecule shell = mol::generate_virus_shell(
      {.target_atoms = static_cast<std::size_t>(atoms), .seed = 7});
  const surface::Surface surf = surface::build_surface(
      shell, {.subdivision = 0});
  std::printf("shell: %zu atoms, %zu quadrature points, area %.0f A^2\n",
              shell.size(), surf.size(), surf.total_area());

  core::GBEngine engine(shell, surf);

  // --- real hybrid run on the in-process message-passing runtime --------
  core::HybridConfig hybrid;
  hybrid.ranks = ranks;
  hybrid.threads_per_rank = threads;
  perf::Timer timer;
  const auto result = core::run_hybrid(engine, hybrid);
  std::printf(
      "\nhybrid run (P=%d x p=%d, real message passing): Epol = %.1f "
      "kcal/mol in %s wall\n",
      ranks, threads, result.epol,
      util::human_seconds(result.wall_seconds).c_str());
  std::uint64_t bytes = 0, msgs = 0;
  for (const auto& c : result.comm_per_rank) {
    bytes += c.bytes_internode + c.bytes_intranode;
    msgs += c.messages_internode + c.messages_intranode;
  }
  std::printf("communication: %llu messages, %s total\n",
              static_cast<unsigned long long>(msgs),
              util::human_bytes(static_cast<double>(bytes)).c_str());
  std::printf("replicated data per rank: %s\n",
              util::human_bytes(static_cast<double>(result.bytes_per_rank))
                  .c_str());

  // --- the same problem on simulated Lonestar4 shapes -------------------
  util::Table t("modeled time on the paper's cluster (Table I machine)");
  t.header({"configuration", "cores", "modeled time", "Epol"});
  struct Shape {
    const char* name;
    sim::ClusterConfig cfg;
  };
  sim::ClusterConfig cilk, mpi, hyb;
  cilk.ranks = 1;
  cilk.threads_per_rank = 12;
  mpi.ranks = 12;
  hyb.ranks = 2;
  hyb.threads_per_rank = 6;
  hyb.topology.ranks_per_node = 2;
  const Shape shapes[] = {{"OCT_CILK (1x12)", cilk},
                          {"OCT_MPI (12x1)", mpi},
                          {"OCT_MPI+CILK (2x6)", hyb}};
  for (const auto& s : shapes) {
    const auto r = sim::simulate_cluster(engine, s.cfg);
    t.row({s.name, util::format("%d", r.total_cores),
           util::human_seconds(r.total_seconds),
           util::format("%.1f", r.epol)});
  }
  t.print();
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
