// Chaos harness for the elastic hybrid driver: runs the Fig. 4 pipeline
// under seeded fault plans (message loss, rank kill, stall, corruption,
// combined chaos) and verifies the bit-identical-recovery contract — every
// faulty run must reproduce the fault-free Epol exactly, not approximately.
//
// Prints one row per plan (faults fired, ranks lost, recovery work,
// checkpoint traffic, wall time, verdict) plus a Young/Daly
// recovery-overhead sweep showing how checkpoint cadence trades overhead
// against rework on the modeled Table I cluster. Exits non-zero when any
// plan breaks bit-identity, so CI can run it as a gate (`--plan` selects a
// single plan; `--smoke` shrinks the molecule for CI).

#include <cstdio>
#include <cstring>
#include <exception>

#include "common.hpp"

using namespace octgb;
using mpp::faults::FaultPlan;

namespace {

struct PlanEntry {
  const char* name;
  FaultPlan plan;
};

std::vector<PlanEntry> make_plans(std::uint64_t seed) {
  using namespace mpp::faults;
  std::vector<PlanEntry> plans;
  plans.push_back({"message-loss", message_loss_plan(seed, 0.25)});
  plans.push_back({"rank-kill", rank_kill_plan(seed, /*victim=*/2,
                                               /*after_op=*/4)});
  plans.push_back({"stall", stall_plan(seed, 0.05, 2.0)});
  plans.push_back({"corruption", corruption_plan(seed, 0.5)});
  FaultPlan chaos = message_loss_plan(seed, 0.1);
  chaos.rules.push_back(
      {.kind = FaultKind::Delay, .probability = 0.1, .millis = 3.0});
  chaos.rules.push_back({.kind = FaultKind::Duplicate, .probability = 0.1});
  chaos.rules.push_back({.kind = FaultKind::Corrupt, .probability = 0.1});
  chaos.rules.push_back({.kind = FaultKind::Kill,
                         .rank = 1,
                         .probability = 1.0,
                         .after_op = 5,
                         .max_fires = 1});
  plans.push_back({"chaos", std::move(chaos)});
  return plans;
}

std::string join_ranks(const std::vector<int>& ranks) {
  if (ranks.empty()) return "-";
  std::string out;
  for (int r : ranks) {
    if (!out.empty()) out += ",";
    out += std::to_string(r);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  int atoms = 800;
  int ranks = 4;
  std::string plan_filter = "all";
  std::string seed_str = "20260806";
  bool smoke = false;
  util::Args args;
  args.add("atoms", &atoms, "synthetic protein size");
  args.add("ranks", &ranks, "elastic driver ranks (= task-grid size)");
  args.add("plan", &plan_filter,
           "fault plan: all|message-loss|rank-kill|stall|corruption|chaos");
  args.add("seed", &seed_str, "fault-schedule seed");
  args.flag("smoke", &smoke, "CI-size workload");
  bench::TraceSession ts;
  ts.register_args(args);
  args.parse(argc, argv);
  ts.begin();
  if (smoke) atoms = std::min(atoms, 400);
  const std::uint64_t seed = std::strtoull(seed_str.c_str(), nullptr, 10);

  auto prepared = bench::prepare(mol::generate_protein(
      {.target_atoms = static_cast<std::size_t>(atoms), .seed = 31}));
  const core::GBEngine& engine = *prepared.engine;
  std::printf("molecule: %zu atoms, %zu q-points; %d ranks, seed %llu\n\n",
              prepared.atoms(), prepared.surf.size(), ranks,
              static_cast<unsigned long long>(seed));

  core::ElasticConfig base_cfg;
  base_cfg.hybrid.ranks = ranks;
  base_cfg.hybrid.topology.ranks_per_node = 2;

  // The contract's left-hand side: the fault-free elastic run.
  const core::ElasticResult base = core::run_hybrid_elastic(engine, base_cfg);
  std::printf("fault-free Epol = %.12f kcal/mol (%.0f ms, %llu tasks)\n\n",
              base.epol, 1e3 * base.wall_seconds,
              static_cast<unsigned long long>(base.tasks_computed));

  util::Table t("elastic driver under seeded fault plans (bit-identity gate)");
  t.header({"plan", "faults", "dead", "recomputed", "ckpt puts", "retries",
            "time", "Epol"});
  int failures = 0;
  for (auto& [name, plan] : make_plans(seed)) {
    if (plan_filter != "all" && plan_filter != name) continue;
    core::ElasticConfig cfg = base_cfg;
    cfg.fault_plan = plan;
    const core::ElasticResult r = core::run_hybrid_elastic(engine, cfg);
    const bool identical = r.epol == base.epol && r.born == base.born;
    if (!identical) ++failures;
    t.row({name, std::to_string(r.faults.total()),
           join_ranks(r.dead_ranks),
           std::to_string(r.tasks_recomputed),
           std::to_string(r.checkpoint_puts),
           std::to_string(r.control_retries), bench::fmt_time(r.wall_seconds),
           identical ? "bit-identical" : "MISMATCH"});
    if (ts.active()) {
      auto& m = ts.metrics();
      const std::string scope = "faults." + std::string(name);
      m.set(scope + ".fired", r.faults.total());
      m.set(scope + ".drops", r.faults.drops);
      m.set(scope + ".kills", r.faults.kills);
      m.set(scope + ".corruptions", r.faults.corruptions);
      m.set(scope + ".dead_ranks",
            static_cast<std::uint64_t>(r.dead_ranks.size()));
      m.set(scope + ".tasks_recomputed", r.tasks_recomputed);
      m.set(scope + ".checkpoint_puts", r.checkpoint_puts);
      m.set(scope + ".control_retries", r.control_retries);
      m.set(scope + ".wall_seconds", r.wall_seconds);
      m.set(scope + ".bit_identical", std::uint64_t{identical ? 1u : 0u});
    }
  }
  t.print();
  bench::save_csv(t, "bench_faults");

  // --- modeled recovery overhead vs checkpoint cadence ---------------------
  // Young/Daly on the Table I cluster: how much a real deployment would pay
  // for the checkpoints the elastic driver writes, as a function of cadence.
  const sim::SimResult sim = bench::run_config(
      engine, bench::oct_hybrid_config(smoke ? 24 : 48));
  sim::RecoveryConfig rc;
  rc.mtbf_seconds = 6.0 * 3600.0;  // one node loss per six hours
  rc.checkpoint_seconds = 0.05;
  const double opt = sim::optimal_checkpoint_interval(rc.checkpoint_seconds,
                                                      rc.mtbf_seconds);
  util::Table rt(
      "modeled recovery overhead vs checkpoint cadence (Young/Daly)");
  rt.header({"interval", "ckpt cost", "E[failures]", "rework",
             "E[total]", "overhead"});
  for (const double mult : {0.1, 0.5, 1.0, 2.0, 10.0}) {
    rc.checkpoint_interval_seconds = mult * opt;
    const auto est = sim::estimate_recovery(sim, rc);
    rt.row({util::format("%.1fs%s", est.interval_seconds,
                         mult == 1.0 ? " (opt)" : ""),
            bench::fmt_time(est.checkpoint_overhead_seconds),
            util::format("%.4f", est.expected_failures),
            bench::fmt_time(est.rework_seconds),
            bench::fmt_time(est.expected_total_seconds),
            util::format("%.2f%%", 100.0 * est.overhead_fraction)});
    if (ts.active())
      ts.metrics().set(util::format("recovery.overhead_pct.x%.1f", mult),
                       100.0 * est.overhead_fraction);
  }
  rt.print();
  bench::save_csv(rt, "bench_faults_recovery");
  ts.finish();

  if (failures > 0) {
    std::printf("\n%d fault plan(s) broke bit-identical recovery\n", failures);
    return 1;
  }
  std::printf("\nall fault plans recovered bit-identically\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
