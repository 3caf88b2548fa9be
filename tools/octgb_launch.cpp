// mpirun-style launcher + chaos driver for the out-of-process transport
// (DESIGN.md §2.10). Wraps mpp::launch::run_job around tools/octgb_worker.
//
// Modes:
//
//   (default)   one job: fork/exec --ranks workers, wire rendezvous, reap.
//               `--kill R@MS` (comma list) SIGKILLs rank R at job time MS.
//   --gate      the CI chaos gate: (1) compute the in-thread reference
//               Epol, (2) run a fault-free process job, (3) run kill
//               schedules taking out 1 .. P-1 rank processes mid-run.
//               Every surviving rank of every job must report the exact
//               reference bits; any mismatch exits 1. Also compares the
//               measured recovery overhead against the sim::cluster
//               Young/Daly model and writes a metrics JSON.
//   --fig5      multi-process scaling sweep (1..--max-ranks, doubling):
//               wall time + speedup per P, written as a CSV.
//
// Workers write `epol.<rank>` (hex double bits) and `metrics.<rank>.json`
// into the job directory; this binary never parses floating-point text —
// bit-identity is checked on the raw bits.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <optional>

#include "octgb/octgb.hpp"

using namespace octgb;
using mpp::launch::JobResult;
using mpp::launch::JobSpec;
using mpp::launch::KillSpec;

namespace {

struct CliOptions {
  int ranks = 4;
  int ranks_per_node = 2;
  std::string worker;  // defaults to octgb_worker next to this binary
  std::string mode = "elastic";
  int atoms = 400;
  long long seed = 31;
  int threads = 1;
  std::string kill;  // "R@MS,R@MS"
  bool bind = false;
  bool gate = false;
  bool fig5 = false;
  int max_ranks = 8;
  double timeout_ms = 120000.0;
  std::string metrics_out;
  std::string csv_out = "bench_out/launch_fig5.csv";
  bool keep = false;
};

std::vector<KillSpec> parse_kills(const std::string& text) {
  std::vector<KillSpec> kills;
  for (const auto& part : util::split(text, ',')) {
    if (part.empty()) continue;
    const auto at = part.find('@');
    OCTGB_CHECK_MSG(at != std::string::npos && at > 0,
                    "--kill wants R@MS, got '" << part << "'");
    KillSpec k;
    k.rank = std::atoi(part.substr(0, at).c_str());
    k.after_ms = std::atof(part.substr(at + 1).c_str());
    kills.push_back(k);
  }
  return kills;
}

std::string worker_next_to(const char* argv0) {
  std::filesystem::path p(argv0);
  return (p.parent_path() / "octgb_worker").string();
}

JobSpec make_spec(const CliOptions& opt) {
  JobSpec spec;
  spec.ranks = opt.ranks;
  spec.topology.ranks_per_node = opt.ranks_per_node;
  spec.bind_cores = opt.bind;
  spec.timeout_ms = opt.timeout_ms;
  spec.command = {opt.worker,
                  "--mode",    opt.mode,
                  "--atoms",   std::to_string(opt.atoms),
                  "--seed",    std::to_string(opt.seed),
                  "--threads", std::to_string(opt.threads)};
  return spec;
}

/// The exact bits a rank reported, read back from its epol file.
std::optional<std::uint64_t> read_epol_bits(const std::string& dir,
                                            int rank) {
  std::string text;
  if (!util::io::read_file(dir + "/epol." + std::to_string(rank), text))
    return std::nullopt;
  return std::strtoull(text.c_str(), nullptr, 16);
}

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void cleanup(const CliOptions& opt, const JobResult& result) {
  if (opt.keep) {
    std::printf("[job] kept %s\n", result.job_dir.c_str());
    return;
  }
  std::error_code ec;
  std::filesystem::remove_all(result.job_dir, ec);
}

void print_job(const JobResult& r) {
  std::printf("[job] %s: %.0f ms, %d kill(s) delivered%s\n",
              r.job_dir.c_str(), r.wall_ms, r.kills_delivered,
              r.timed_out ? ", TIMED OUT" : "");
  for (std::size_t i = 0; i < r.ranks.size(); ++i) {
    const auto& rr = r.ranks[i];
    if (rr.killed_by_chaos)
      std::printf("  rank %zu: SIGKILLed by chaos schedule\n", i);
    else if (rr.term_signal != 0)
      std::printf("  rank %zu: died from signal %d\n", i, rr.term_signal);
    else
      std::printf("  rank %zu: exit %d\n", i, rr.exit_code);
  }
}

/// Run one job and verify every surviving rank reported `ref_bits`.
/// Returns false (and prints why) on any divergence.
bool run_and_check(const CliOptions& opt, const std::vector<KillSpec>& kills,
                   std::uint64_t ref_bits, JobResult* out = nullptr) {
  JobSpec spec = make_spec(opt);
  spec.kills = kills;
  const JobResult r = mpp::launch::run_job(spec);
  print_job(r);
  bool ok = !r.timed_out && r.survivors_clean();
  if (!ok) std::printf("  FAIL: job did not finish cleanly\n");
  int survivors = 0;
  for (int rank = 0; rank < opt.ranks; ++rank) {
    if (r.ranks[rank].killed_by_chaos) continue;
    const auto bits = read_epol_bits(r.job_dir, rank);
    if (!bits) {
      std::printf("  FAIL: rank %d wrote no epol file\n", rank);
      ok = false;
      continue;
    }
    ++survivors;
    if (*bits != ref_bits) {
      std::printf("  FAIL: rank %d bits %016" PRIx64 " != reference %016"
                  PRIx64 "\n",
                  rank, *bits, ref_bits);
      ok = false;
    }
  }
  if (survivors == 0) {
    std::printf("  FAIL: no survivor reported a result\n");
    ok = false;
  }
  if (out != nullptr) *out = r;
  if (ok)
    std::printf("  ok: %d survivor(s) bit-identical to reference\n",
                survivors);
  cleanup(opt, r);
  return ok;
}

/// The in-thread reference result: the same elastic pipeline over the
/// PR-1..8 transport. The gate's contract is that a *different transport*
/// (real processes, shm + TCP, real SIGKILLs) reproduces these exact bits.
double reference_epol(const CliOptions& opt, core::GBEngine& engine) {
  core::ElasticConfig cfg;
  cfg.hybrid.ranks = opt.ranks;
  cfg.hybrid.threads_per_rank = opt.threads;
  cfg.hybrid.topology.ranks_per_node = opt.ranks_per_node;
  return core::run_hybrid_elastic(engine, cfg).epol;
}

int run_gate(const CliOptions& opt) {
  std::printf("=== proc-chaos gate: %d ranks (%d/node), %d atoms ===\n\n",
              opt.ranks, opt.ranks_per_node, opt.atoms);
  OCTGB_CHECK_MSG(opt.mode == "elastic",
                  "--gate requires --mode elastic (recovery contract)");

  // Reference over the in-thread transport.
  auto molecule = mol::generate_protein(
      {.target_atoms = static_cast<std::size_t>(opt.atoms),
       .seed = static_cast<std::uint64_t>(opt.seed)});
  surface::SurfaceParams sp;
  sp.subdivision = molecule.size() > 20000 ? 0 : 1;
  const auto surf = surface::build_surface(molecule, sp);
  core::GBEngine engine(molecule, surf, core::EngineConfig{});
  const double ref = reference_epol(opt, engine);
  const std::uint64_t ref_bits = bits_of(ref);
  std::printf("in-thread reference Epol = %.12f (bits %016" PRIx64 ")\n\n",
              ref, ref_bits);

  trace::MetricsRegistry m;
  int failures = 0;

  // Warmup job (page cache, lazy binding) so the baseline wall time the
  // kill schedule and the Young/Daly check key off is a warm measurement.
  {
    JobSpec warm = make_spec(opt);
    const JobResult w = mpp::launch::run_job(warm);
    std::error_code ec;
    std::filesystem::remove_all(w.job_dir, ec);
  }

  // Fault-free process job: same bits across the process boundary.
  std::printf("--- baseline (no kills) ---\n");
  JobResult base;
  if (!run_and_check(opt, {}, ref_bits, &base)) ++failures;
  m.set("gate.baseline.wall_ms", base.wall_ms);
  std::printf("\n");

  // Kill sweeps: take out the top k ranks mid-run, k = 1 .. P-1 (rank 0
  // always survives to report). Kills trigger on checkpoint-store
  // progress, not wall time: the i-th kill fires once i+1 task
  // checkpoints exist, which provably lands mid-pipeline (the store
  // only fills while ranks are computing) regardless of machine speed.
  double worst_killed_wall = base.wall_ms;
  for (int k = 1; k < opt.ranks; ++k) {
    std::printf("--- kill %d of %d rank processes ---\n", k, opt.ranks);
    std::vector<KillSpec> kills;
    for (int i = 0; i < k; ++i) {
      KillSpec kill;
      kill.rank = opt.ranks - 1 - i;
      kill.after_store_files = i + 1;
      kills.push_back(kill);
    }
    JobResult r;
    const bool ok = run_and_check(opt, kills, ref_bits, &r);
    if (!ok) ++failures;
    const std::string scope = util::format("gate.kill%d", k);
    m.set(scope + ".wall_ms", r.wall_ms);
    m.set(scope + ".kills_delivered",
          static_cast<std::uint64_t>(r.kills_delivered));
    m.set(scope + ".bit_identical", std::uint64_t{ok ? 1u : 0u});
    worst_killed_wall = std::max(worst_killed_wall, r.wall_ms);
    std::printf("\n");
  }

  // Young/Daly cross-check: the measured worst-case recovery overhead
  // (the launcher's chaos schedule is far more brutal than a Poisson
  // failure process — every job loses ranks) against the modeled
  // overhead at the equivalent MTBF on the simulated cluster. Advisory:
  // the gate is the bit-identity above, the model tells us whether the
  // measured cost is in a sane regime.
  const double measured_overhead =
      base.wall_ms > 0.0
          ? std::max(0.0, (worst_killed_wall - base.wall_ms) / base.wall_ms)
          : 0.0;
  sim::ClusterConfig cluster;
  cluster.ranks = opt.ranks;
  cluster.threads_per_rank = opt.threads;
  cluster.topology.ranks_per_node = opt.ranks_per_node;
  const sim::SimResult simr = sim::simulate_cluster(engine, cluster);
  sim::RecoveryConfig rc;
  // One failure per job of baseline length — the chaos schedule's rate.
  rc.mtbf_seconds = std::max(1e-3, base.wall_ms / 1e3);
  rc.checkpoint_seconds = 0.05;
  const auto est = sim::estimate_recovery(simr, rc);
  std::printf("Young/Daly check: measured worst overhead %.1f%%, modeled "
              "%.1f%% at MTBF %.2fs (interval %.2fs)\n",
              100.0 * measured_overhead, 100.0 * est.overhead_fraction,
              rc.mtbf_seconds, est.interval_seconds);
  m.set("gate.measured_overhead_fraction", measured_overhead);
  m.set("gate.modeled_overhead_fraction", est.overhead_fraction);
  m.set("gate.modeled_interval_seconds", est.interval_seconds);
  m.set("gate.failures", static_cast<std::uint64_t>(failures));

  if (!opt.metrics_out.empty()) {
    if (m.save_json(opt.metrics_out))
      std::printf("[metrics] wrote %s\n", opt.metrics_out.c_str());
    else
      std::printf("[metrics] FAILED to write %s\n", opt.metrics_out.c_str());
  }

  if (failures > 0) {
    std::printf("\nGATE FAILED: %d job(s) broke bit-identical recovery\n",
                failures);
    return 1;
  }
  std::printf("\nGATE PASSED: recovery is bit-identical across the process "
              "boundary\n");
  return 0;
}

int run_fig5(CliOptions opt) {
  std::printf("=== multi-process scaling sweep (fig5-style) ===\n\n");
  util::Table t("out-of-process scaling: wall time vs rank processes");
  t.header({"ranks", "wall_ms", "speedup", "clean"});
  double wall1 = 0.0;
  for (int P = 1; P <= opt.max_ranks; P *= 2) {
    opt.ranks = P;
    JobSpec spec = make_spec(opt);
    const JobResult r = mpp::launch::run_job(spec);
    const bool clean = !r.timed_out && r.survivors_clean();
    if (P == 1) wall1 = r.wall_ms;
    t.row({std::to_string(P), util::format("%.1f", r.wall_ms),
           clean && r.wall_ms > 0.0 ? util::format("%.3f", wall1 / r.wall_ms)
                                    : "0",
           clean ? "1" : "0"});
    cleanup(opt, r);
  }
  t.print();
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(opt.csv_out).parent_path(), ec);
  if (t.write_csv(opt.csv_out))
    std::printf("[csv] wrote %s\n", opt.csv_out.c_str());
  else
    std::printf("[csv] FAILED to write %s\n", opt.csv_out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  CliOptions opt;
  util::Args args;
  args.add("ranks", &opt.ranks, "rank processes to launch");
  args.add("ranks-per-node", &opt.ranks_per_node,
           "topology: ranks sharing a shm node");
  args.add("worker", &opt.worker,
           "rank executable (default: octgb_worker next to this binary)");
  args.add("mode", &opt.mode, "worker mode: pingpong|hybrid|elastic");
  args.add("atoms", &opt.atoms, "synthetic protein size");
  args.add("seed", &opt.seed, "molecule generator seed");
  args.add("threads", &opt.threads, "work-stealing workers per rank");
  args.add("kill", &opt.kill, "chaos schedule, e.g. 3@150,2@200 (R@MS)");
  args.flag("bind", &opt.bind, "pin each rank to a core of its node block");
  args.flag("gate", &opt.gate,
            "run the bit-identity chaos gate (exit 1 on any break)");
  args.flag("fig5", &opt.fig5, "multi-process scaling sweep, CSV output");
  args.add("max-ranks", &opt.max_ranks, "largest P of the --fig5 sweep");
  args.add("timeout-ms", &opt.timeout_ms, "whole-job watchdog");
  args.add("metrics-out", &opt.metrics_out, "gate metrics JSON path");
  args.add("csv-out", &opt.csv_out, "fig5 CSV path");
  args.flag("keep", &opt.keep, "keep job directories (debugging)");
  args.parse(argc, argv);

  if (opt.worker.empty()) opt.worker = worker_next_to(argv[0]);
  OCTGB_CHECK_MSG(std::filesystem::exists(opt.worker),
                  "worker binary not found: " << opt.worker);

  if (opt.gate) return run_gate(opt);
  if (opt.fig5) return run_fig5(opt);

  // Plain single job.
  JobSpec spec = make_spec(opt);
  spec.kills = parse_kills(opt.kill);
  const JobResult r = mpp::launch::run_job(spec);
  print_job(r);
  for (int rank = 0; rank < opt.ranks; ++rank) {
    const auto bits = read_epol_bits(r.job_dir, rank);
    if (bits)
      std::printf("  rank %d epol bits %016" PRIx64 "\n", rank, *bits);
  }
  const bool ok = !r.timed_out && r.survivors_clean();
  cleanup(opt, r);
  return ok ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
