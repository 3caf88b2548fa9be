// Interaction-plan bench: a pose × ε-dial screen through one warm
// EvalScratch, with the plan cache on (PlanMode::Auto) vs off.
//
// The workload models GB re-scoring practice: P small rigid perturbations
// of the molecule (refits — the plan survives via structural validation
// and replays as flat lists), each evaluated at D Epol dials (ε_epol
// re-dials — the Born phase is untouched, so the cached Born radii are
// exact and tier 1 skips integrals + push entirely).
//
// Gates (nonzero exit on violation):
//   - every (pose, dial) energy is bit-identical with the plan on and off
//     (the plan is numerically inert, DESIGN.md §2.6) — both sides run at
//     the widest resolved vector width, so this is also the replay-vs-
//     traversal bitwise witness for the explicit SIMD kernels;
//   - warm speedup of the screen with the plan on is >= 2.0x
//     (>= 1.5x under --smoke, the CI gate);
//   - the explicit vector layer's warm-replay speedup: replaying the
//     plan's flat Born lists through the widest resolved width is
//     >= 2.0x faster than the pre-SIMD scalar replay when 8 double lanes
//     are available (scaled down for narrower units, informational on the
//     portable fallback; smoke relaxes the gate — see simd_gate).
//
// `--metrics-out` dumps the timings, the speedups, the resolved width
// (kernel.simd.*) and the full perf::PlanCounters block per the
// OBSERVABILITY.md schema.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "octgb/perf/topology.hpp"
#include "octgb/simd/dispatch.hpp"
#include "octgb/ws/scheduler.hpp"

using namespace octgb;

namespace {

std::vector<geom::Vec3> jittered_positions(const mol::Molecule& mol,
                                           double scale, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<geom::Vec3> out;
  out.reserve(mol.size());
  for (const auto& a : mol.atoms()) {
    out.push_back(a.pos + geom::Vec3(rng.uniform(-scale, scale),
                                     rng.uniform(-scale, scale),
                                     rng.uniform(-scale, scale)));
  }
  return out;
}

/// Run the full screen: for each pose refit to its coordinates, then
/// evaluate every dial. Returns the epol matrix row-major (pose, dial).
std::vector<double> run_screen(core::GBEngine& engine,
                               core::EvalScratch& scratch,
                               const std::vector<std::vector<geom::Vec3>>& poses,
                               const std::vector<double>& dials) {
  std::vector<double> epol;
  epol.reserve(poses.size() * dials.size());
  for (const auto& pose : poses) {
    engine.refit_atoms(pose);
    for (const double eps_epol : dials) {
      engine.approx().eps_epol = eps_epol;
      epol.push_back(engine.compute(scratch).epol);
    }
  }
  return epol;
}

/// Power-of-two bucket histogram: bucket k counts values in
/// [2^k, 2^(k+1)); exported as `<prefix>.p2_<k>` metrics.
void histogram_p2(trace::MetricsRegistry& m, const std::string& prefix,
                  const std::vector<std::uint64_t>& values) {
  for (std::uint64_t v : values) {
    int k = 0;
    while ((std::uint64_t{2} << k) <= v) ++k;
    m.add(prefix + ".p2_" + std::to_string(k), std::uint64_t{1});
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string molecule_name = "1PPE_r_b";
  int poses = 6;
  int dials = 8;
  bool smoke = false;
  bool locality = false;
  util::Args args;
  args.add("molecule", &molecule_name, "ZDock receptor entry");
  args.add("poses", &poses, "rigid perturbations (refit → plan replay)");
  args.add("dials", &dials, "eps_epol dials per pose (Born-result reuse)");
  args.flag("smoke", &smoke, "CI-size workload and the 1.5x gate");
  args.flag("locality", &locality,
            "run the locality section: coalesced carving vs the "
            "cost-sorted baseline, plus steal-tier fractions");
  bench::TraceSession ts;
  ts.register_args(args);
  args.parse(argc, argv);
  ts.begin();

  if (smoke) {
    poses = std::min(poses, 3);
    dials = std::min(dials, 4);
  }
  const double gate = smoke ? 1.5 : 2.0;

  const mol::Molecule molecule = mol::make_benchmark_molecule(
      molecule_name, smoke ? 900 : mol::find_benchmark(molecule_name)->atoms);
  const auto surf = surface::build_surface(molecule, {.subdivision = 1});
  std::printf("%s: %zu atoms, %zu q-points — %d poses x %d dials (%d evals "
              "per mode)\n\n",
              molecule_name.c_str(), molecule.size(), surf.size(), poses,
              dials, poses * dials);

  std::vector<std::vector<geom::Vec3>> pose_list;
  for (int p = 0; p < poses; ++p)
    pose_list.push_back(
        jittered_positions(molecule, 1e-6, 100 + std::uint64_t(p)));
  std::vector<double> dial_list;
  for (int d = 0; d < dials; ++d) dial_list.push_back(0.5 + 0.2 * d);

  // --- plan off: every evaluation re-runs the recursive traversal ----------
  // Both sides of this section pin VectorIsa::Scalar so the speedup keeps
  // measuring the plan machinery itself (capture/replay/Born reuse) at
  // the same kernels as before the explicit vector layer existed; the
  // SIMD section below owns the width comparison.
  core::EngineConfig off_config;
  off_config.approx.plan = core::PlanMode::Off;
  off_config.approx.vector.isa = simd::VectorIsa::Scalar;
  core::GBEngine off_engine(molecule, surf, off_config);
  core::EvalScratch off_scratch;
  (void)off_engine.compute(off_scratch);  // prime buffers out of the timing
  perf::Timer off_timer;
  const auto off_epol =
      run_screen(off_engine, off_scratch, pose_list, dial_list);
  const double off_seconds = off_timer.seconds();

  // --- plan on: capture once, replay per pose, Born reuse per dial ---------
  core::EngineConfig on_config;
  on_config.approx.vector.isa = simd::VectorIsa::Scalar;
  core::GBEngine on_engine(molecule, surf, on_config);
  core::EvalScratch on_scratch;
  (void)on_engine.compute(on_scratch);  // prime buffers + capture the plan
  perf::Timer on_timer;
  const auto on_epol = run_screen(on_engine, on_scratch, pose_list, dial_list);
  const double on_seconds = on_timer.seconds();
  const perf::PlanCounters& stats = on_scratch.plan_cache.stats;

  // --- gates ----------------------------------------------------------------
  OCTGB_CHECK_MSG(on_epol.size() == off_epol.size(), "screen size mismatch");
  for (std::size_t i = 0; i < on_epol.size(); ++i) {
    OCTGB_CHECK_MSG(on_epol[i] == off_epol[i],
                    "plan-driven energy deviated from the traversal");
  }
  const int evals = poses * dials;
  const double speedup = off_seconds / on_seconds;

  util::Table t("pose x dial screen: plan capture/replay/Born-reuse vs "
                "re-traversal");
  t.header({"mode", "per eval", "screen", "speedup"});
  t.row({"plan off (re-traverse)", bench::fmt_time(off_seconds / evals),
         bench::fmt_time(off_seconds), "1.0x"});
  t.row({"plan on (replay + reuse)", bench::fmt_time(on_seconds / evals),
         bench::fmt_time(on_seconds), util::format("%.2fx", speedup)});
  t.print();
  bench::save_csv(t, "bench_plan");

  std::printf("\nplan counters: builds %llu, replays %llu, born_reuses %llu, "
              "validations %llu, drift %llu\n",
              static_cast<unsigned long long>(stats.builds),
              static_cast<unsigned long long>(stats.replays),
              static_cast<unsigned long long>(stats.born_reuses),
              static_cast<unsigned long long>(stats.validations),
              static_cast<unsigned long long>(stats.invalidated_drift));
  std::printf("warm screen speedup: %.2fx (gate >= %.1fx)\n", speedup, gate);
  OCTGB_CHECK_MSG(speedup >= gate,
                  "plan-cached screen fell below the speedup gate");

  // --- explicit SIMD: warm Born replay, widest width vs scalar replay ------
  // Times the replay itself — the warm path every pose re-runs — on two
  // captured plans: one from a KernelKind::Scalar engine (the pre-SIMD
  // scalar replay, scalar_born_pair per pair) and one from the default
  // engine, whose near loop dispatches through the widest resolved
  // vector width. The section dials ε_born down to ~0 so the plan is the flat
  // *near* lists the vector layer targets: the far list must replay as
  // scalar born_far_term in capture order at every width (the bitwise
  // contract), so its share would only dilute the kernel comparison.
  const simd::VectorParams rvec = simd::resolve({});
  const int lanes = simd::lanes(rvec.isa);
  // Hosts with a ≥4-lane unit (AVX2 and up — what Auto resolves on any
  // modern x86-64) must clear the 2x acceptance target; a bare 2-lane
  // unit gets a scaled gate; the portable fallback reports without
  // gating. Smoke sizes are too small for stable ratios, so the gate
  // relaxes there.
  const double simd_gate = lanes >= 4   ? (smoke ? 1.5 : 2.0)
                           : lanes >= 2 ? (smoke ? 1.2 : 1.4)
                                        : 0.0;
  const int replay_reps = smoke ? 20 : 60;

  // Best of three timed groups: the workload is deterministic, so the
  // minimum is the measurement least disturbed by whatever else the host
  // was doing.
  const auto time_replay = [&](core::GBEngine& eng, core::EvalScratch& scr,
                               simd::VectorParams vec) {
    const core::InteractionPlan& plan = scr.plan_cache.plan;
    std::vector<double> node_s(eng.num_ta_nodes());
    std::vector<double> atom_s(eng.num_atoms());
    perf::WorkCounters warm;  // one untimed warmup replay
    plan.replay(eng.atoms_tree(), eng.qpoints_tree(), false, vec, node_s,
                atom_s, warm);
    double best = 1e300;
    for (int group = 0; group < 3; ++group) {
      perf::Timer t;
      for (int r = 0; r < replay_reps; ++r) {
        std::fill(node_s.begin(), node_s.end(), 0.0);
        std::fill(atom_s.begin(), atom_s.end(), 0.0);
        perf::WorkCounters wc;
        plan.replay(eng.atoms_tree(), eng.qpoints_tree(), false, vec, node_s,
                    atom_s, wc);
      }
      best = std::min(best, t.seconds() / replay_reps);
    }
    return best;
  };

  core::EngineConfig scalar_config;
  scalar_config.approx.eps_born = 1e-3;
  scalar_config.approx.kernel = core::KernelKind::Scalar;
  scalar_config.approx.vector.isa = simd::VectorIsa::Scalar;
  core::GBEngine scalar_engine(molecule, surf, scalar_config);
  core::EvalScratch scalar_scratch;
  (void)scalar_engine.compute(scalar_scratch);  // capture the scalar plan
  const double scalar_replay = time_replay(
      scalar_engine, scalar_scratch, {simd::VectorIsa::Scalar});

  core::EngineConfig vec_config;  // Batched + Auto → widest
  vec_config.approx.eps_born = 1e-3;
  core::GBEngine vec_engine(molecule, surf, vec_config);
  core::EvalScratch vec_scratch;
  (void)vec_engine.compute(vec_scratch);
  const double vec_replay = time_replay(vec_engine, vec_scratch, rvec);
  const double simd_speedup = scalar_replay / vec_replay;

  // Vector replay is numerically inert too: a warm vector-width replay
  // reproduces the vector-width traversal bit for bit.
  vec_engine.refit_atoms(pose_list[0]);
  const double vec_replay_epol = vec_engine.compute(vec_scratch).epol;
  core::EngineConfig vec_off_config = vec_config;
  vec_off_config.approx.plan = core::PlanMode::Off;
  core::GBEngine vec_off_engine(molecule, surf, vec_off_config);
  vec_off_engine.refit_atoms(pose_list[0]);
  core::EvalScratch vec_off_scratch;
  const double vec_off_epol = vec_off_engine.compute(vec_off_scratch).epol;
  OCTGB_CHECK_MSG(vec_replay_epol == vec_off_epol,
                  "vector-width replay deviated from the traversal");

  util::Table st("warm Born replay: scalar kernels vs widest vector width");
  st.header({"replay kernels", "per replay", "speedup"});
  st.row({"scalar", bench::fmt_time(scalar_replay), "1.0x"});
  st.row({std::string("simd ") + simd::isa_name(rvec.isa),
          bench::fmt_time(vec_replay), util::format("%.2fx", simd_speedup)});
  st.print();
  bench::save_csv(st, "bench_plan_simd");

  std::printf("\nsimd replay speedup (%s, %d lanes): %.2fx",
              simd::isa_name(rvec.isa), lanes, simd_speedup);
  if (simd_gate > 0.0) {
    std::printf(" (gate >= %.1fx)\n", simd_gate);
    OCTGB_CHECK_MSG(simd_speedup >= simd_gate,
                    "vector replay fell below the SIMD speedup gate");
  } else {
    std::printf(" (no vector unit — informational)\n");
  }

  // --- locality: run-coalesced carving vs the PR-9 cost-sorted carving -----
  // Gates (only with --locality):
  //   - the coalesced carving cuts the chunk count at least 2x vs the
  //     cost-sorted baseline on the same capture;
  //   - the warm replay with locality on is never slower than with it
  //     off (5% noise allowance, 10% under --smoke; interleaved
  //     best-of-4 groups);
  //   - a warm serial replay is bit-identical between the two carvings
  //     (Epol included — serial execution fixes the completion-order
  //     fold in the energy phase);
  //   - on hosts with >1 L3 domain, >= 60% of successful steals stay
  //     inside the thief's L3 tier (skipped with a log line elsewhere).
  if (locality) {
    core::EngineConfig lon_cfg, loff_cfg;
    lon_cfg.approx.locality = true;
    loff_cfg.approx.locality = false;
    core::GBEngine lon(molecule, surf, lon_cfg);
    core::GBEngine loff(molecule, surf, loff_cfg);
    core::EvalScratch lon_s, loff_s;
    (void)lon.compute(lon_s);  // capture both plans (serial)
    (void)loff.compute(loff_s);
    const perf::LocalityCounters lc = lon_s.plan_cache.locality;

    std::printf("\nlocality carving: %llu runs over %llu owner groups "
                "(mean run %.1f), %llu chunks vs %llu cost-sorted\n",
                static_cast<unsigned long long>(lc.runs),
                static_cast<unsigned long long>(lc.run_owners),
                lc.mean_run_length(),
                static_cast<unsigned long long>(lc.chunks),
                static_cast<unsigned long long>(lc.baseline_chunks));
    OCTGB_CHECK_MSG(lc.baseline_chunks >= 2 * lc.chunks,
                    "coalesced carving fell below the 2x chunk reduction");

    // Interleaved best-of-N: alternating on/off groups so slow drift in
    // the host's background load hits both carvings alike.
    const auto time_group = [&](core::GBEngine& eng, core::EvalScratch& scr) {
      perf::Timer t;
      for (const auto& pose : pose_list) {
        eng.refit_atoms(pose);
        (void)eng.compute(scr);
      }
      return t.seconds() / pose_list.size();
    };
    double warm_on = 1e300, warm_off = 1e300;
    for (int group = 0; group < 4; ++group) {
      warm_off = std::min(warm_off, time_group(loff, loff_s));
      warm_on = std::min(warm_on, time_group(lon, lon_s));
    }

    // Bitwise witness at the first pose, serial on both sides.
    lon.refit_atoms(pose_list[0]);
    loff.refit_atoms(pose_list[0]);
    const auto r_on = lon.compute(lon_s);
    const auto r_off = loff.compute(loff_s);
    OCTGB_CHECK_MSG(r_on.epol == r_off.epol,
                    "coalesced replay deviated from the baseline carving");
    for (std::size_t i = 0; i < r_on.born.size(); ++i)
      OCTGB_CHECK_MSG(r_on.born[i] == r_off.born[i],
                      "coalesced replay changed a Born radius");

    // Steal-tier fractions on the host topology: a warm multi-worker
    // screen, stats sampled over every replay.
    const perf::CpuTopology& topo = perf::topology();
    const int workers =
        std::max(2, std::min(4, static_cast<int>(topo.cpus.size())));
    ws::Scheduler sched(workers);
    std::uint64_t steals = 0, local = 0;
    for (const auto& pose : pose_list) {
      lon.refit_atoms(pose);
      (void)lon.compute(lon_s, &sched);
      const auto ss = sched.stats();  // engine resets stats per compute
      steals += ss.steals;
      local += ss.local_steals;
    }
    const double local_frac =
        steals == 0 ? 1.0 : static_cast<double>(local) / steals;

    util::Table lt("warm replay: coalesced carving vs cost-sorted baseline");
    lt.header({"carving", "per pose", "chunks", "speedup"});
    lt.row({"cost-sorted (locality off)", bench::fmt_time(warm_off),
            std::to_string(lc.baseline_chunks), "1.0x"});
    lt.row({"coalesced (locality on)", bench::fmt_time(warm_on),
            std::to_string(lc.chunks),
            util::format("%.2fx", warm_off / warm_on)});
    lt.print();
    bench::save_csv(lt, "bench_plan_locality");

    std::printf("steal locality: %llu/%llu local (%.2f) over %d workers, "
                "%d L3 domain(s)\n",
                static_cast<unsigned long long>(local),
                static_cast<unsigned long long>(steals), local_frac, workers,
                topo.l3_domains);
    // Smoke workloads are too small for a tight ratio on a noisy host;
    // the full run keeps the 5% allowance.
    const double warm_allowance = smoke ? 1.10 : 1.05;
    OCTGB_CHECK_MSG(warm_on <= warm_off * warm_allowance,
                    "locality-on warm replay regressed past the gate");
    if (topo.l3_domains > 1) {
      OCTGB_CHECK_MSG(local_frac >= 0.6,
                      "local-steal fraction fell below 0.6 on a multi-L3 "
                      "host");
    } else {
      std::printf("local-steal gate skipped: single L3 domain — every "
                  "steal is local by construction\n");
    }

    if (ts.active()) {
      auto& m = ts.metrics();
      m.add_locality("", lc);
      const auto ss = sched.stats();
      m.add_steal_tiers("", ss.local_steals, ss.socket_steals,
                        ss.remote_steals, ss.offblock_steals);
      m.set("plan.locality.warm_on_seconds", warm_on);
      m.set("plan.locality.warm_off_seconds", warm_off);
      m.set("plan.locality.local_steal_fraction", local_frac);
      // Chunk-cost and run-length histograms (power-of-two buckets).
      const core::InteractionPlan& plan = lon_s.plan_cache.plan;
      const auto order = plan.owner_order();
      const auto chunks = plan.chunk_offsets();
      const auto runs = plan.run_offsets();
      std::vector<std::uint64_t> chunk_costs, run_lengths;
      for (std::size_t c = 0; c + 1 < chunks.size(); ++c) {
        std::uint64_t cost = 0;
        for (std::uint32_t i = chunks[c]; i < chunks[c + 1]; ++i)
          cost += plan.group_cost(order[i]);
        chunk_costs.push_back(cost);
      }
      for (std::size_t r = 0; r + 1 < runs.size(); ++r)
        run_lengths.push_back(runs[r + 1] - runs[r]);
      histogram_p2(m, "plan.locality.chunk_cost", chunk_costs);
      histogram_p2(m, "plan.locality.run_length", run_lengths);
    }
  }

  if (ts.active()) {
    auto& m = ts.metrics();
    m.set("plan.screen.evals", static_cast<std::uint64_t>(evals));
    m.set("plan.screen.off_seconds", off_seconds);
    m.set("plan.screen.on_seconds", on_seconds);
    m.set("plan.screen.speedup", speedup);
    m.set("plan.screen.gate", gate);
    m.add_plan("", stats);
    m.set("simd.replay.scalar_seconds", scalar_replay);
    m.set("simd.replay.vector_seconds", vec_replay);
    m.set("simd.replay.speedup", simd_speedup);
    m.set("simd.replay.gate", simd_gate);
    m.add_simd("", simd::isa_name(rvec.isa), lanes);
  }
  ts.finish();
  return 0;
}
