// One rank process of the out-of-process mpp transport (DESIGN.md §2.10).
//
// Launched by tools/octgb_launch (never by hand): rendezvous arrives via
// OCTGB_MPP_RANK / OCTGB_MPP_SIZE / OCTGB_MPP_DIR. Every rank builds the
// identical molecule + engine from (--atoms, --seed) — the paper's
// replicated-data processes — then runs one rank body over the shm/TCP
// transport:
//
//   --mode pingpong   transport smoke test (tagged p2p + allreduce)
//   --mode hybrid     run_hybrid_rank (the plain Fig. 4 pipeline)
//   --mode elastic    run_elastic_rank over the job's file-backed
//                     checkpoint store (survives SIGKILLed peers)
//
// On success the rank writes two artifacts into the job directory:
//   epol.<rank>          the energy, as exact hex double bits + decimal
//   metrics.<rank>.json  mpp.transport.* / comm / recovery counters
// The launcher compares the hex bits across ranks, runs, and transports —
// the bit-identical-recovery gate.

#include <cstdio>
#include <cstring>
#include <exception>

#include "octgb/octgb.hpp"

using namespace octgb;

namespace {

double run_pingpong(mpp::Comm& comm) {
  // Every ordered pair exchanges one tagged value, then an allreduce
  // checks the global sum — exercises both media (shm ring for same-node
  // peers, TCP for cross-node) plus the collective tree over the wire.
  const int me = comm.rank();
  const int P = comm.size();
  for (int dst = 0; dst < P; ++dst)
    if (dst != me) comm.send_value(dst, /*tag=*/7, me);
  std::uint64_t sum = static_cast<std::uint64_t>(me);
  for (int src = 0; src < P; ++src)
    if (src != me) sum += static_cast<std::uint64_t>(comm.recv_value<int>(src, 7));
  const std::uint64_t expect =
      static_cast<std::uint64_t>(P) * static_cast<std::uint64_t>(P - 1) / 2;
  OCTGB_CHECK_MSG(sum == expect, "pingpong sum " << sum << " != " << expect);
  const std::uint64_t total = comm.allreduce_sum(sum);
  OCTGB_CHECK(total == expect * static_cast<std::uint64_t>(P));
  return static_cast<double>(total);
}

void write_epol(const std::string& dir, int rank, double epol) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &epol, sizeof(bits));
  const std::string text = util::format(
      "%016llx %.17g\n", static_cast<unsigned long long>(bits), epol);
  OCTGB_CHECK_MSG(util::io::write_file_atomic(
                      dir + "/epol." + std::to_string(rank), text),
                  "cannot write epol file");
}

}  // namespace

int main(int argc, char** argv) try {
  std::string mode = "elastic";
  int atoms = 400;
  long long seed = 31;
  int threads = 1;
  util::Args args;
  args.add("mode", &mode, "pingpong|hybrid|elastic");
  args.add("atoms", &atoms, "synthetic protein size (replicated data)");
  args.add("seed", &seed, "molecule generator seed");
  args.add("threads", &threads, "work-stealing workers per rank");
  args.parse(argc, argv);

  auto env = mpp::proc::ProcessRuntime::from_env();
  if (!env) {
    std::fprintf(stderr,
                 "octgb_worker: no rendezvous environment — launch via "
                 "octgb_launch\n");
    return 2;
  }

  double epol = 0.0;
  core::RankOutcome outcome;

  // Replicated data: built identically in every rank process, before the
  // transport attaches (tree builds dwarf rendezvous; no peer waits on us
  // until the first receive).
  std::unique_ptr<core::GBEngine> engine;
  mol::Molecule molecule;
  surface::Surface surf;
  if (mode != "pingpong") {
    molecule = mol::generate_protein(
        {.target_atoms = static_cast<std::size_t>(atoms),
         .seed = static_cast<std::uint64_t>(seed)});
    surface::SurfaceParams sp;
    sp.subdivision = molecule.size() > 20000 ? 0 : 1;
    surf = surface::build_surface(molecule, sp);
    engine = std::make_unique<core::GBEngine>(molecule, surf,
                                              core::EngineConfig{});
  }

  const auto rr = mpp::proc::ProcessRuntime::run(*env, [&](mpp::Comm& comm) {
    if (mode == "pingpong") {
      epol = run_pingpong(comm);
      return;
    }
    core::HybridConfig hc;
    hc.ranks = env->size;
    hc.threads_per_rank = threads;
    hc.topology = comm.topology();
    if (mode == "hybrid") {
      outcome = core::run_hybrid_rank(*engine, hc, comm);
    } else {
      OCTGB_CHECK_MSG(mode == "elastic", "unknown --mode " << mode);
      core::ElasticConfig cfg;
      cfg.hybrid = hc;
      // Real stable storage shared by all rank processes; a rank
      // SIGKILLed mid-write leaves no torn checkpoint (atomic rename).
      core::CheckpointStore store(env->dir + "/ckpt");
      outcome = core::run_elastic_rank(*engine, cfg, comm, store);
    }
    epol = outcome.epol;
  });

  write_epol(env->dir, env->rank, epol);

  trace::MetricsRegistry m;
  const auto& t = rr.transport;
  m.set("mpp.transport.frames_sent", t.frames_sent);
  m.set("mpp.transport.frames_received", t.frames_received);
  m.set("mpp.transport.shm_frames", t.shm_frames);
  m.set("mpp.transport.tcp_frames", t.tcp_frames);
  m.set("mpp.transport.bytes_sent", t.bytes_sent);
  m.set("mpp.transport.reconnects", t.reconnects);
  m.set("mpp.transport.connection_losses", t.connection_losses);
  m.set("mpp.transport.crc_failures", t.crc_failures);
  m.set("mpp.transport.heartbeats_sent", t.heartbeats_sent);
  m.set("mpp.transport.sends_dropped_dead", t.sends_dropped_dead);
  m.add_comm("rank", rr.counters);
  if (mode == "elastic") {
    m.set("recovery.tasks_computed", outcome.tasks_computed);
    m.set("recovery.tasks_recomputed", outcome.tasks_recomputed);
    m.set("recovery.control_retries", outcome.control_retries);
  }
  m.save_json(env->dir + "/metrics." + std::to_string(env->rank) + ".json");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
