// Interaction-plan lifecycle tests (core/plan.hpp): capture / replay /
// Born-reuse equivalence against the evaluating walk, the owner-major
// walk (evaluate, parallel capture, serial PlanRecorder capture, validate)
// against the literal serial Fig. 2 descent kept here as test code,
// the run rule of the exact near field and the mirrored-Epol owner rule,
// key-based invalidation (params, topology), refit validation and drift
// recapture, and the allocation-free steady state of the warm path and of
// recapture.
//
// The load-bearing invariant everywhere: any plan-driven Born result is
// bit-identical to the serial Q-major traversal at the same geometry and
// parameters (DESIGN.md §2.6). The cold compute() wrapper runs the
// evaluating walk with the plan off.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <ostream>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "octgb/core/born.hpp"
#include "octgb/core/engine.hpp"
#include "octgb/core/session.hpp"
#include "octgb/mol/generate.hpp"
#include "octgb/mol/zdock.hpp"
#include "octgb/simd/dispatch.hpp"
#include "octgb/surface/surface.hpp"
#include "octgb/trace/metrics.hpp"
#include "octgb/util/rng.hpp"

// The oracle descent shares the leaf and far-term arithmetic and the
// far-gradient pass (not the traversal) with the library, so it can be
// compared bit for bit.
#include "../src/core/born_walk.hpp"
#include "../src/core/epol_walk.hpp"
#include "../src/core/near_field.hpp"

using namespace octgb;
using core::EvalScratch;
using core::GBEngine;
using core::PlanFlavor;

namespace {

struct Problem {
  mol::Molecule molecule;
  surface::Surface surf;
  explicit Problem(std::size_t atoms, std::uint64_t seed = 91)
      : molecule(mol::generate_protein({.target_atoms = atoms, .seed = seed})),
        surf(surface::build_surface(molecule, {.subdivision = 1})) {}
};

/// Input-order atom positions displaced by a uniform jitter in
/// [-scale, scale]³ — small scales keep every admissibility decision,
/// large ones flip some.
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

void expect_bitwise_equal(const core::EvalResult& got,
                          const core::EnergyResult& want) {
  EXPECT_EQ(got.epol, want.epol);
  ASSERT_EQ(got.born.size(), want.born.size());
  for (std::size_t i = 0; i < got.born.size(); ++i)
    ASSERT_EQ(got.born[i], want.born[i]) << "atom " << i;
  EXPECT_EQ(got.work.born_exact, want.work.born_exact);
  EXPECT_EQ(got.work.born_approx, want.work.born_approx);
  EXPECT_EQ(got.work.born_visits, want.work.born_visits);
  EXPECT_EQ(got.work.push_atoms, want.work.push_atoms);
  EXPECT_EQ(got.work.push_visits, want.work.push_visits);
  EXPECT_EQ(got.work.epol_exact, want.work.epol_exact);
  EXPECT_EQ(got.work.epol_bins, want.work.epol_bins);
  EXPECT_EQ(got.work.epol_visits, want.work.epol_visits);
}

/// `surf` with every quadrature point of the T_Q leaves [leaf_lo, leaf_hi)
/// (positions in leaf_ids() order) translated by `shift`: a refit to it
/// moves exactly those leaves and keeps the topology.
surface::Surface shift_leaves(const surface::Surface& surf,
                              const core::QPointsTree& tq, std::size_t leaf_lo,
                              std::size_t leaf_hi, const geom::Vec3& shift) {
  surface::Surface out = surf;
  const auto idx = tq.tree.point_index();
  for (std::size_t li = leaf_lo; li < leaf_hi; ++li) {
    const auto& leaf = tq.tree.node(tq.tree.leaf_ids()[li]);
    for (std::uint32_t pos = leaf.begin; pos < leaf.end; ++pos)
      out.positions[idx[pos]] += shift;
  }
  return out;
}

/// Test oracle: the paper's serial Born descent, literally. fig2()
/// descends T_A once per T_Q leaf, Q-major (APPROX-INTEGRALS, Fig. 2).
/// Every far term goes straight into its slot, in visiting order, and its
/// A-side gradient into its node's `grad` slot. Every exact pair goes on
/// its A leaf's near list in visiting order; run() then hands each list
/// to the library's run helper (one kernel sweep per run of abutting Q
/// leaves, the association every Born path shares) and, once every near
/// pair is in, the gradients to the library's gradient pass.
struct SerialDescent {
  const core::AtomsTree& ta;
  const core::QPointsTree& tq;
  double k;  ///< born_threshold
  core::detail::NearField nf;
  std::vector<double> node_s, atom_s;
  std::vector<core::FarExpansion> far;
  std::vector<std::vector<std::uint32_t>> near_q;  ///< per T_A node
  perf::WorkCounters work;

  SerialDescent(const GBEngine& engine, double eps_born, bool strict,
                const simd::VectorParams& vector, bool approx_math)
      : ta(engine.atoms_tree()),
        tq(engine.qpoints_tree()),
        k(core::born_threshold(eps_born, strict)),
        nf(core::detail::select_near_field(vector, approx_math)),
        node_s(engine.num_ta_nodes(), 0.0),
        atom_s(engine.num_atoms(), 0.0),
        far(engine.num_ta_nodes()),
        near_q(engine.num_ta_nodes()) {}

  /// Far or exact at (A, Q); false: refine.
  bool settle(std::uint32_t a_id, std::uint32_t q_id) {
    ++work.born_visits;
    const auto& a = ta.tree.node(a_id);
    const auto& q = tq.tree.node(q_id);
    if (core::born_far_enough(std::sqrt(geom::dist2(a.centroid, q.centroid)),
                              a.radius, q.radius, k)) {
      ++work.born_approx;
      node_s[a_id] += core::born_far_term(
          a.centroid, q.centroid, tq.node_wnormal[q_id], tq.node_wmoment[q_id],
          tq.node_wmoment2[q_id], nf.fast, far[a_id]);
      return true;
    }
    if (!a.is_leaf() || !q.is_leaf()) return false;
    work.born_exact += std::uint64_t{a.size()} * q.size();
    near_q[a_id].push_back(q_id);
    return true;
  }

  void fig2(std::uint32_t a_id, std::uint32_t q_leaf) {
    if (settle(a_id, q_leaf)) return;
    const auto& a = ta.tree.node(a_id);
    for (std::uint8_t c = 0; c < a.child_count; ++c)
      fig2(a.first_child + c, q_leaf);
  }

  void run() {
    for (const std::uint32_t q_leaf : tq.tree.leaf_ids()) fig2(0, q_leaf);
    for (std::uint32_t a_id = 0; a_id < near_q.size(); ++a_id) {
      core::detail::BornNearRuns runs(nf, ta, ta.tree.node(a_id), tq,
                                      atom_s.data());
      for (const std::uint32_t q_id : near_q[a_id])
        runs.add(tq.tree.node(q_id));
      runs.flush();
    }
    core::detail::add_far_gradients(ta, far, atom_s);
  }
};

/// A plan's decisions per owner A-node: (near Q ids, far Q ids), each in
/// accumulation order — independent of how the plan numbers its groups.
using OwnerLists =
    std::map<std::uint32_t,
             std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>>;

OwnerLists owner_lists(const core::InteractionPlan& plan) {
  OwnerLists out;
  for (std::uint32_t g = 0; g < plan.groups(); ++g) {
    const auto near = plan.near_list(g);
    const auto far = plan.far_list(g);
    out[plan.owner(g)] = {{near.begin(), near.end()}, {far.begin(), far.end()}};
  }
  return out;
}

/// `lists` without any entry whose Q id is in `drop`.
OwnerLists without(OwnerLists lists, const std::vector<std::uint32_t>& drop) {
  const auto gone = [&](std::uint32_t q) {
    return std::ranges::find(drop, q) != drop.end();
  };
  for (auto it = lists.begin(); it != lists.end();) {
    std::erase_if(it->second.first, gone);
    std::erase_if(it->second.second, gone);
    if (it->second.first.empty() && it->second.second.empty())
      it = lists.erase(it);
    else
      ++it;
  }
  return lists;
}

/// `key`'s plan recorded by the recorder-instrumented (serial) walk of
/// `engine`'s trees (over `leaves`), with the phase buffers and
/// Born-phase counters that walk produced.
struct Recorded {
  core::InteractionPlan plan;
  std::vector<double> node_s, atom_s;
  perf::WorkCounters work;
};

Recorded record_plan(const GBEngine& engine, const core::PlanKey& key,
                       std::span<const std::uint32_t> leaves,
                       const simd::VectorParams& vector = {},
                       bool approx_math = false) {
  const core::AtomsTree& ta = engine.atoms_tree();
  const core::QPointsTree& tq = engine.qpoints_tree();
  Recorded r;
  r.node_s.assign(engine.num_ta_nodes(), 0.0);
  r.atom_s.assign(engine.num_atoms(), 0.0);
  core::PlanRecorder rec = r.plan.begin_capture(key);
  core::approx_integrals(ta, tq, leaves, key.eps_born, approx_math, r.node_s,
                         r.atom_s, r.work, key.strict_criterion,
                         core::KernelKind::Batched, vector, &rec);
  (void)r.plan.finalize(ta, tq, 0, r.work);
  return r;
}

}  // namespace

// ---- equivalence sweep ------------------------------------------------------

struct SweepParams {
  std::size_t atoms;
  double eps_born;
  bool strict;
};

class PlanEquivalence : public ::testing::TestWithParam<SweepParams> {};

TEST_P(PlanEquivalence, CaptureReplayAndReuseMatchTraversalBitForBit) {
  const auto [atoms, eps_born, strict] = GetParam();
  const Problem p(atoms);
  core::EngineConfig config;
  config.approx.eps_born = eps_born;
  config.approx.strict_born_criterion = strict;

  GBEngine warm(p.molecule, p.surf, config);
  GBEngine cold(p.molecule, p.surf, config);  // traversal reference
  EvalScratch scratch;

  // First warm compute captures the plan; reference runs the traversal.
  expect_bitwise_equal(warm.compute(scratch), cold.compute());
  EXPECT_EQ(scratch.plan_cache.stats.builds, 1u);

  // Same geometry again: full Born-result reuse, still bit-identical.
  expect_bitwise_equal(warm.compute(scratch), cold.compute());
  EXPECT_EQ(scratch.plan_cache.stats.born_reuses, 1u);

  // Small refit: the pair structure survives, validation passes, the
  // flat-list replay must equal re-traversing at the moved geometry.
  // (Jitter is kept tiny: even 1e-4 Å can flip a borderline admissibility
  // decision on larger problems, which validation would rightly treat as
  // drift — that path has its own test below.)
  const auto moved = jittered_positions(p.molecule, 1e-7, 17);
  warm.refit_atoms(moved);
  cold.refit_atoms(moved);
  expect_bitwise_equal(warm.compute(scratch), cold.compute());
  EXPECT_EQ(scratch.plan_cache.stats.validations, 1u);
  EXPECT_EQ(scratch.plan_cache.stats.invalidated_drift, 0u);
  EXPECT_EQ(scratch.plan_cache.stats.replays, 1u);
}

/// "A500_Eps0p3", "A500_Eps0p9_Strict": the case name, and what gtest
/// prints for the parameter. Its default prints the struct's raw bytes,
/// padding included, which differ from build to build.
std::string sweep_label(const SweepParams& p) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "A%zu_Eps%g%s", p.atoms, p.eps_born,
                p.strict ? "_Strict" : "");
  std::string name = buf;
  std::replace(name.begin(), name.end(), '.', 'p');
  return name;
}

void PrintTo(const SweepParams& p, std::ostream* os) { *os << sweep_label(p); }

std::string sweep_name(const ::testing::TestParamInfo<SweepParams>& p) {
  return sweep_label(p.param);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlanEquivalence,
    ::testing::Values(SweepParams{200, 0.9, false},
                      SweepParams{500, 0.9, false},
                      SweepParams{500, 0.3, false},
                      SweepParams{500, 2.0, false},
                      SweepParams{500, 0.9, true},
                      SweepParams{1200, 0.9, false}),
    sweep_name);

// ---- invalidation -----------------------------------------------------------

TEST(Plan, EpsBornChangeInvalidatesAndRecaptures) {
  const Problem p(500);
  GBEngine warm(p.molecule, p.surf);
  GBEngine cold(p.molecule, p.surf);
  EvalScratch scratch;

  (void)warm.compute(scratch);
  warm.approx().eps_born = 0.4;
  cold.approx().eps_born = 0.4;
  expect_bitwise_equal(warm.compute(scratch), cold.compute());
  EXPECT_EQ(scratch.plan_cache.stats.invalidated_params, 1u);
  EXPECT_EQ(scratch.plan_cache.stats.builds, 2u);
  EXPECT_EQ(scratch.plan_cache.stats.replays, 0u);
}

TEST(Plan, RebuildInvalidatesTopology) {
  const Problem p(500);
  GBEngine warm(p.molecule, p.surf);
  GBEngine cold(p.molecule, p.surf);
  EvalScratch scratch;

  (void)warm.compute(scratch);
  const auto epoch_before = warm.topology_epoch();
  warm.rebuild_atoms(p.molecule);
  cold.rebuild_atoms(p.molecule);
  EXPECT_EQ(warm.topology_epoch(), epoch_before + 1);
  expect_bitwise_equal(warm.compute(scratch), cold.compute());
  EXPECT_EQ(scratch.plan_cache.stats.invalidated_topology, 1u);
  EXPECT_EQ(scratch.plan_cache.stats.builds, 2u);
}

TEST(Plan, SwitchingEnginesInvalidates) {
  // One scratch serving two engines alternately: each switch is a key
  // miss (engine identity differs), results stay traversal-exact.
  const Problem p1(400, 5);
  const Problem p2(300, 6);
  GBEngine e1(p1.molecule, p1.surf);
  GBEngine e2(p2.molecule, p2.surf);
  GBEngine cold1(p1.molecule, p1.surf);
  GBEngine cold2(p2.molecule, p2.surf);
  EvalScratch scratch;

  (void)e1.compute(scratch);
  expect_bitwise_equal(e2.compute(scratch), cold2.compute());
  expect_bitwise_equal(e1.compute(scratch), cold1.compute());
  EXPECT_EQ(scratch.plan_cache.stats.builds, 3u);
  EXPECT_EQ(scratch.plan_cache.stats.invalidated_topology, 2u);
}

TEST(Plan, LargeMoveDriftRecaptures) {
  // A big coordinate change flips admissibility decisions: validation
  // must catch it (drift), recapture, and still match the traversal.
  const Problem p(600);
  GBEngine warm(p.molecule, p.surf);
  GBEngine cold(p.molecule, p.surf);
  EvalScratch scratch;

  (void)warm.compute(scratch);
  const auto moved = jittered_positions(p.molecule, 8.0, 23);
  warm.refit_atoms(moved);
  cold.refit_atoms(moved);
  expect_bitwise_equal(warm.compute(scratch), cold.compute());
  EXPECT_EQ(scratch.plan_cache.stats.validations, 1u);
  EXPECT_EQ(scratch.plan_cache.stats.invalidated_drift, 1u);
  EXPECT_EQ(scratch.plan_cache.stats.builds, 2u);
}

TEST(Plan, ApproxMathTogglesBornCacheButNotPlan) {
  // approx_math changes arithmetic, not the partition: the plan key
  // still hits and the lists replay; only the Born-result cache misses.
  const Problem p(400);
  GBEngine warm(p.molecule, p.surf);
  GBEngine cold(p.molecule, p.surf);
  EvalScratch scratch;

  (void)warm.compute(scratch);
  warm.approx().approx_math = true;
  cold.approx().approx_math = true;
  expect_bitwise_equal(warm.compute(scratch), cold.compute());
  EXPECT_EQ(scratch.plan_cache.stats.key_hits, 1u);
  EXPECT_EQ(scratch.plan_cache.stats.replays, 1u);
  EXPECT_EQ(scratch.plan_cache.stats.builds, 1u);
}

// ---- the owner-major walk vs the serial descent ---------------------------

/// `flavor` is the PlanKey field the case captures under (always Single:
/// the one Born walk); it keeps the 4-byte parameter the suite prints.
struct CaptureParams {
  PlanFlavor flavor;
  bool strict;
  simd::VectorIsa isa;
  bool approx_math;
};

void expect_same_born_counters(const perf::WorkCounters& got,
                               const perf::WorkCounters& want,
                               const std::string& what) {
  EXPECT_EQ(got.born_exact, want.born_exact) << what;
  EXPECT_EQ(got.born_approx, want.born_approx) << what;
  EXPECT_EQ(got.born_visits, want.born_visits) << what;
}

/// Every face of the owner-major walk against the literal serial descent
/// (SerialDescent), bit for bit, at 1, 2 and 4 workers: the evaluating
/// walk, the serial recorder capture, the parallel capture + replay
/// through the engine, and the parallel validate of the recorded plan.
void expect_capture_matches_recorder(const CaptureParams& c) {
  const auto [flavor, strict, isa, approx_math] = c;
  if (!simd::isa_available(isa)) GTEST_SKIP() << "width not runnable here";
  const Problem p(700);
  core::EngineConfig config;
  config.approx.strict_born_criterion = strict;
  config.approx.vector = {isa};
  config.approx.approx_math = approx_math;
  const simd::VectorParams rvec = simd::resolve(config.approx.vector);
  const auto& approx = config.approx;

  for (int workers : {1, 2, 4}) {
    const std::string at = std::to_string(workers) + " workers";
    GBEngine engine(p.molecule, p.surf, config);
    const core::AtomsTree& ta = engine.atoms_tree();
    const core::QPointsTree& tq = engine.qpoints_tree();
    const std::size_t n_atoms = engine.num_atoms();
    ws::Scheduler sched(workers);

    SerialDescent ref(engine, approx.eps_born, strict, rvec, approx_math);
    ref.run();
    perf::WorkCounters want = ref.work;
    std::vector<double> born_ref(n_atoms, 0.0);
    core::push_integrals_to_atoms(ta, ref.node_s, ref.atom_s, 0,
                                  static_cast<std::uint32_t>(n_atoms),
                                  approx.approx_math, born_ref, want);

    // The evaluating walk under the scheduler.
    std::vector<double> node_s(engine.num_ta_nodes(), 0.0);
    std::vector<double> atom_s(n_atoms, 0.0);
    perf::WorkCounters walked;
    sched.run([&] {
      core::approx_integrals(ta, tq, engine.q_leaves(), approx.eps_born,
                             approx_math, node_s, atom_s, walked, strict,
                             core::KernelKind::Batched, rvec);
    });
    EXPECT_EQ(node_s, ref.node_s) << "evaluate, " << at;
    EXPECT_EQ(atom_s, ref.atom_s) << "evaluate, " << at;
    expect_same_born_counters(walked, ref.work, "evaluate, " + at);

    // The serial recorder capture evaluates too.
    const core::PlanKey key{1, 0, approx.eps_born, strict,
                            core::KernelKind::Batched, flavor,
                            approx.locality};
    auto [recorded, rec_node_s, rec_atom_s, rec_work] =
        record_plan(engine, key, engine.q_leaves(), rvec, approx_math);
    EXPECT_EQ(rec_node_s, ref.node_s) << "record";
    EXPECT_EQ(rec_atom_s, ref.atom_s) << "record";
    expect_same_born_counters(rec_work, ref.work, "record");

    // Parallel capture + replay through the engine.
    EvalScratch scratch;
    const auto got = engine.compute(scratch, &sched);
    const core::InteractionPlan& plan = scratch.plan_cache.plan;
    const perf::PlanCounters& stats = scratch.plan_cache.stats;
    EXPECT_EQ(stats.builds, 1u) << at;
    EXPECT_EQ(stats.key_misses, 1u) << at;
    EXPECT_EQ(stats.replays, 0u) << at;
    EXPECT_EQ(stats.validations, 0u) << at;

    EXPECT_EQ(owner_lists(plan), owner_lists(recorded)) << at;
    EXPECT_EQ(plan.near_pairs(), recorded.near_pairs()) << at;
    EXPECT_EQ(plan.far_pairs(), recorded.far_pairs()) << at;
    EXPECT_EQ(scratch.node_s, ref.node_s) << "replay, " << at;
    EXPECT_EQ(scratch.atom_s, ref.atom_s) << "replay, " << at;
    EXPECT_EQ(scratch.born_tree, born_ref) << "replay, " << at;
    expect_same_born_counters(got.work, want, "replay, " + at);
    EXPECT_EQ(got.work.push_atoms, want.push_atoms);
    EXPECT_EQ(got.work.push_visits, want.push_visits);
    // Element-wise list identity: the parallel compare walk accepts the
    // recorder's lists.
    bool same = false;
    sched.run([&] { same = recorded.validate(ta, tq, 1); });
    EXPECT_TRUE(same) << at;
  }
}

class ParallelCapture : public ::testing::TestWithParam<CaptureParams> {};

TEST_P(ParallelCapture, MatchesSerialRecorderBitForBit) {
  expect_capture_matches_recorder(GetParam());
}

std::vector<CaptureParams> capture_matrix() {
  std::vector<CaptureParams> out;
  for (bool strict : {false, true})
    for (simd::VectorIsa isa : {simd::VectorIsa::Scalar,
                                simd::VectorIsa::V128,
                                simd::VectorIsa::V256})
      out.push_back({PlanFlavor::Single, strict, isa, false});
  return out;
}

/// The "Single" prefix (the Fig. 2 walk) and the "Double" suffix (the
/// double arithmetic every row runs) keep the case names the suite has
/// always printed.
std::string capture_label(const CaptureParams& c) {
  static constexpr const char* kIsa[] = {"Auto", "Scalar", "V128", "V256"};
  return std::string("Single") + (c.strict ? "Strict" : "Loose") +
         kIsa[static_cast<int>(c.isa)] + "Double";
}

std::string capture_name(const ::testing::TestParamInfo<CaptureParams>& p) {
  return capture_label(p.param);
}

INSTANTIATE_TEST_SUITE_P(Matrix, ParallelCapture,
                         ::testing::ValuesIn(capture_matrix()), capture_name);

// The approx_math rows of the near-field selector, beyond
// ParallelCapture's exact math.
class ParallelCaptureSelector
    : public ::testing::TestWithParam<CaptureParams> {};

TEST_P(ParallelCaptureSelector, MatchesSerialRecorderBitForBit) {
  expect_capture_matches_recorder(GetParam());
}

/// Loose criterion only, to bound the runtime: approx_math at every
/// width.
std::vector<CaptureParams> selector_matrix() {
  using simd::VectorIsa;
  std::vector<CaptureParams> out;
  for (VectorIsa isa : {VectorIsa::Scalar, VectorIsa::V128,
                        VectorIsa::V256})
    out.push_back({PlanFlavor::Single, false, isa, true});
  return out;
}

std::string selector_name(const ::testing::TestParamInfo<CaptureParams>& p) {
  return capture_label(p.param) + "Fast";
}

INSTANTIATE_TEST_SUITE_P(Matrix, ParallelCaptureSelector,
                         ::testing::ValuesIn(selector_matrix()),
                         selector_name);

TEST(Plan, CaptureForksUnderScheduler) {
  // The capture is a parallel walk: under a 4-worker scheduler it spawns
  // tasks, and the owner lists it emits are still the serial recorder's.
  const Problem p(800);
  GBEngine engine(p.molecule, p.surf);
  const core::AtomsTree& ta = engine.atoms_tree();
  const core::QPointsTree& tq = engine.qpoints_tree();
  const core::PlanKey key{1, 0, 0.9, false, core::KernelKind::Batched,
                          PlanFlavor::Single, true};
  core::InteractionPlan plan;
  ws::Scheduler sched(4);
  sched.reset_stats();
  sched.run([&] { (void)plan.capture(ta, tq, key, 0); });
  EXPECT_GT(sched.stats().spawns, 0u);
  ASSERT_GT(plan.groups(), 1u);

  core::InteractionPlan recorded =
      record_plan(engine, key, engine.q_leaves()).plan;
  EXPECT_EQ(owner_lists(plan), owner_lists(recorded));
  EXPECT_EQ(plan.near_pairs(), recorded.near_pairs());
  EXPECT_EQ(plan.far_pairs(), recorded.far_pairs());
  EXPECT_TRUE(recorded.validate(ta, tq, 1));
}

// ---- the run rule (DESIGN.md §2.3) -----------------------------------------

TEST(NearRuns, HelperMergesAbuttingRangesAndSplitsOnGapWeightAndFlush) {
  using Sweep = std::tuple<std::uint32_t, std::uint32_t, double>;
  std::vector<Sweep> got;
  const auto sweep = [&](std::uint32_t b, std::uint32_t e, double w) {
    got.emplace_back(b, e, w);
  };
  core::detail::NearRun run;
  run.flush(sweep);  // nothing pending
  run.add(0, 4, 1.0, sweep);
  run.add(4, 9, 1.0, sweep);  // abuts: merged
  run.add(9, 12, 1.0, sweep);
  EXPECT_TRUE(got.empty());
  run.add(13, 15, 1.0, sweep);  // gap
  run.add(15, 20, 2.0, sweep);  // weight change
  run.add(20, 22, 2.0, sweep);
  run.flush(sweep);
  run.add(22, 30, 2.0, sweep);  // abuts the flushed run: a new one
  run.flush(sweep);
  run.flush(sweep);  // nothing pending
  const std::vector<Sweep> want{
      {0, 12, 1.0}, {13, 15, 1.0}, {15, 22, 2.0}, {22, 30, 2.0}};
  EXPECT_EQ(got, want);
}

namespace {

/// Runs of abutting Q leaves over the near lists of `plan`.
std::size_t near_runs(const core::InteractionPlan& plan,
                      const core::QPointsTree& tq) {
  std::size_t runs = 0;
  for (std::uint32_t g = 0; g < plan.groups(); ++g) {
    const auto near = plan.near_list(g);
    for (std::size_t k = 0; k < near.size(); ++k)
      if (k == 0 ||
          tq.tree.node(near[k]).begin != tq.tree.node(near[k - 1]).end)
        ++runs;
  }
  return runs;
}

}  // namespace

TEST(NearRuns, WalkCaptureAndReplayAreBitwiseAtEveryWorkerCount) {
  // Every Born path coalesces the same runs: the evaluating walk, the
  // serial recorder capture and the parallel capture + replay give the
  // same node_s and atom_s bits at 1, 2 and 4 workers, on a fixture where
  // runs really merge leaves.
  const Problem p(700);
  std::vector<double> want_node_s, want_atom_s;
  for (int workers : {1, 2, 4}) {
    const std::string at = std::to_string(workers) + " workers";
    GBEngine engine(p.molecule, p.surf);
    const core::AtomsTree& ta = engine.atoms_tree();
    const core::QPointsTree& tq = engine.qpoints_tree();
    const auto& approx = engine.config().approx;
    const simd::VectorParams rvec = simd::resolve(approx.vector);
    ws::Scheduler sched(workers);

    std::vector<double> node_s(engine.num_ta_nodes(), 0.0);
    std::vector<double> atom_s(engine.num_atoms(), 0.0);
    perf::WorkCounters walked;
    sched.run([&] {
      core::approx_integrals(ta, tq, engine.q_leaves(), approx.eps_born,
                             approx.approx_math, node_s, atom_s, walked,
                             approx.strict_born_criterion,
                             core::KernelKind::Batched, rvec);
    });
    if (workers == 1) {
      want_node_s = node_s;
      want_atom_s = atom_s;
    }
    EXPECT_EQ(node_s, want_node_s) << "walk, " << at;
    EXPECT_EQ(atom_s, want_atom_s) << "walk, " << at;

    const core::PlanKey key{1,
                            0,
                            approx.eps_born,
                            approx.strict_born_criterion,
                            core::KernelKind::Batched,
                            PlanFlavor::Single,
                            approx.locality};
    const Recorded rec = record_plan(engine, key, engine.q_leaves(), rvec,
                                     approx.approx_math);
    EXPECT_EQ(rec.node_s, want_node_s) << "record, " << at;
    EXPECT_EQ(rec.atom_s, want_atom_s) << "record, " << at;
    const std::size_t runs = near_runs(rec.plan, tq);
    EXPECT_GT(runs, 0u);
    EXPECT_LT(runs, rec.plan.near_pairs()) << "no two near leaves merged";

    EvalScratch scratch;
    (void)engine.compute(scratch, &sched);
    EXPECT_EQ(scratch.plan_cache.stats.builds, 1u) << at;
    EXPECT_EQ(scratch.node_s, want_node_s) << "capture + replay, " << at;
    EXPECT_EQ(scratch.atom_s, want_atom_s) << "capture + replay, " << at;
  }
}

namespace {

/// Collect sink of the Epol walk: every near leaf U with the parent the
/// walk passes for it.
struct NearLeaves {
  std::map<std::uint32_t, std::uint32_t> parent_of;
  double near(std::uint32_t u_id, std::uint32_t parent,
              const octree::Octree::Node&, core::detail::EpolCounts&) {
    parent_of[u_id] = parent;
    return 0.0;
  }
  double far(std::uint32_t, const geom::Vec3&, double,
             core::detail::EpolCounts&) {
    return 0.0;
  }
};

}  // namespace

TEST(NearRuns, ParentParityOwnerSplitsMutualPairsOnceAndKeepsSiblingsTogether) {
  // Mirrored Epol: a mutual pair (U, V) — each leaf's descent reaches the
  // other — is evaluated by exactly one side. The owner rule reads the
  // parents' parity, so for a parent other than V's, all of its children
  // are owned from one side, and the lower-id leaf owns about half of all
  // mutual pairs (the balance of contiguous leaf segments).
  struct Input {
    const char* name;
    mol::Molecule molecule;
    std::uint32_t max_leaf_size;
  };
  const Input inputs[] = {
      {"zdock 1PPE_l_b", mol::make_benchmark_molecule("1PPE_l_b"), 16},
      {"cmv shell", mol::make_cmv(0.003), 32},
  };
  for (const auto& in : inputs) {
    const auto ta = core::AtomsTree::build(
        in.molecule, {.max_leaf_size = in.max_leaf_size});
    const auto& tree = ta.tree;
    std::vector<std::uint32_t> parent(tree.nodes().size(), 0);
    for (std::uint32_t id = 0; id < tree.nodes().size(); ++id)
      for (std::uint8_t c = 0; c < tree.node(id).child_count; ++c)
        parent[tree.node(id).first_child + c] = id;
    for (double eps : {0.5, 0.9}) {
      SCOPED_TRACE(std::string(in.name) + " eps=" + std::to_string(eps));
      const double k = core::epol_threshold(eps);
      std::map<std::uint32_t, NearLeaves> reached;
      for (const std::uint32_t v_id : tree.leaf_ids()) {
        const auto& v = tree.node(v_id);
        core::detail::EpolCounts counts;
        core::detail::epol_walk(tree, v.centroid, v.radius, k, reached[v_id],
                                counts);
        for (const auto& [u_id, p] : reached[v_id].parent_of)
          ASSERT_EQ(p, parent[u_id]) << "the walk's parent of " << u_id;
      }
      std::size_t mutual = 0, lower_owns = 0;
      // (V, parent of U) → the side that owns V's pairs with its children.
      std::map<std::pair<std::uint32_t, std::uint32_t>, bool> side;
      for (const auto& [v_id, near] : reached) {
        for (const auto& [u_id, pu] : near.parent_of) {
          if (u_id == v_id || !reached[u_id].parent_of.contains(v_id))
            continue;
          const std::uint32_t pv = parent[v_id];
          const bool from_v =
              core::detail::owns_mutual_pair(v_id, pv, u_id, pu);
          const bool from_u =
              core::detail::owns_mutual_pair(u_id, pu, v_id, pv);
          EXPECT_NE(from_v, from_u) << "pair " << v_id << ", " << u_id;
          if (pu != pv) {
            const auto [it, fresh] = side.try_emplace({v_id, pu}, from_v);
            EXPECT_EQ(it->second, from_v)
                << "children of " << pu << " split, seen from " << v_id;
          }
          if (v_id < u_id) {
            ++mutual;
            lower_owns += from_v;
          }
        }
      }
      ASSERT_GT(mutual, 100u);
      const double share = static_cast<double>(lower_owns) / mutual;
      EXPECT_GE(share, 0.35) << lower_owns << " of " << mutual;
      EXPECT_LE(share, 0.65) << lower_owns << " of " << mutual;
    }
  }
}

// ---- parallel validate: drift -----------------------------------------------

/// Every entry of T_Q node `q_id` in `lists`, as (owner, is_far) pairs.
std::vector<std::pair<std::uint32_t, bool>> entries_of(const OwnerLists& lists,
                                                       std::uint32_t q_id) {
  std::vector<std::pair<std::uint32_t, bool>> out;
  for (const auto& [owner, nf] : lists) {
    for (const std::uint32_t q : nf.first)
      if (q == q_id) out.emplace_back(owner, false);
    for (const std::uint32_t q : nf.second)
      if (q == q_id) out.emplace_back(owner, true);
  }
  return out;
}

TEST(Plan, ValidateCatchesDriftInOneSegment) {
  // Move one contiguous run of T_Q leaves far away: only their decisions
  // change (the walk of a Q leaf reads only that leaf), and
  // the parallel validate must still report drift.
  const Problem p(700);
  GBEngine warm(p.molecule, p.surf);
  GBEngine cold(p.molecule, p.surf);
  EvalScratch scratch;
  ws::Scheduler sched(4);
  (void)warm.compute(scratch, &sched);
  const core::InteractionPlan& plan = scratch.plan_cache.plan;
  const OwnerLists before = owner_lists(plan);
  const core::QPointsTree& tq = warm.qpoints_tree();
  const auto& leaves = tq.tree.leaf_ids();
  ASSERT_GE(leaves.size(), 8u);
  const std::size_t lo = leaves.size() / 2;
  const std::size_t hi = lo + leaves.size() / 8;
  const std::vector<std::uint32_t> run(leaves.begin() + lo,
                                       leaves.begin() + hi);
  const auto moved =
      shift_leaves(p.surf, tq, lo, hi, geom::Vec3(500.0, 0.0, 0.0));
  warm.refit_qpoints(moved);
  cold.refit_qpoints(moved);

  const std::size_t near_before = plan.near_pairs();
  expect_bitwise_equal(warm.compute(scratch, &sched), cold.compute());
  EXPECT_EQ(scratch.plan_cache.stats.validations, 1u);
  EXPECT_EQ(scratch.plan_cache.stats.invalidated_drift, 1u);
  EXPECT_EQ(scratch.plan_cache.stats.builds, 2u);
  // The recapture differs from the old plan in the moved leaves alone:
  // every owner keeps the other leaves' decisions, in order.
  const OwnerLists after = owner_lists(plan);
  EXPECT_EQ(without(after, run), without(before, run));
  EXPECT_LT(plan.near_pairs(), near_before);
}

TEST(Plan, ValidateComparesDecisionsNotJustCounts) {
  // Record the plan with two adjacent T_Q leaves visited in swapped
  // order: every owner keeps its list lengths, but the owners both leaves
  // reach see them in the wrong order. The parallel validate must compare
  // element-wise and report drift; the unswapped recording validates.
  const Problem p(700);
  GBEngine engine(p.molecule, p.surf);
  const core::AtomsTree& ta = engine.atoms_tree();
  const core::QPointsTree& tq = engine.qpoints_tree();
  const core::PlanKey key{1, 0, 0.9, false, core::KernelKind::Batched,
                          PlanFlavor::Single, true};
  core::InteractionPlan in_order =
      record_plan(engine, key, engine.q_leaves()).plan;
  std::vector<std::uint32_t> leaves = engine.q_leaves();
  ASSERT_GE(leaves.size(), 4u);
  const std::size_t lo = leaves.size() / 2;
  std::swap(leaves[lo], leaves[lo + 1]);
  core::InteractionPlan swapped = record_plan(engine, key, leaves).plan;

  const OwnerLists a = owner_lists(in_order);
  const OwnerLists b = owner_lists(swapped);
  ASSERT_EQ(a.size(), b.size());
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
    EXPECT_EQ(ia->first, ib->first);
    EXPECT_EQ(ia->second.first.size(), ib->second.first.size());
    EXPECT_EQ(ia->second.second.size(), ib->second.second.size());
  }
  EXPECT_NE(a, b);
  EXPECT_TRUE(in_order.validate(ta, tq, 1));
  EXPECT_FALSE(swapped.validate(ta, tq, 1));
}

TEST(Plan, ValidateCatchesShiftedSegmentBoundary) {
  const Problem p(700);
  GBEngine warm(p.molecule, p.surf);
  GBEngine cold(p.molecule, p.surf);
  EvalScratch scratch;
  ws::Scheduler sched(4);
  (void)warm.compute(scratch, &sched);
  const core::InteractionPlan& plan = scratch.plan_cache.plan;
  const OwnerLists before = owner_lists(plan);

  // Move one Q-leaf out of the molecule's reach: its decisions collapse
  // to one far term of the T_A root; every other leaf's stay as they were.
  const core::QPointsTree& tq = warm.qpoints_tree();
  const std::size_t li = tq.tree.leaf_ids().size() / 3;
  const std::uint32_t q = tq.tree.leaf_ids()[li];
  ASSERT_GT(entries_of(before, q).size(), 1u);
  const auto moved =
      shift_leaves(p.surf, tq, li, li + 1, geom::Vec3(0.0, 0.0, 800.0));
  warm.refit_qpoints(moved);
  cold.refit_qpoints(moved);
  expect_bitwise_equal(warm.compute(scratch, &sched), cold.compute());
  EXPECT_EQ(scratch.plan_cache.stats.invalidated_drift, 1u);
  const OwnerLists after = owner_lists(plan);
  EXPECT_EQ(without(after, {q}), without(before, {q}));
  const auto now = entries_of(after, q);
  ASSERT_EQ(now.size(), 1u);
  EXPECT_EQ(now[0], std::make_pair(std::uint32_t{0}, true));

  // A T_Q with another leaf count makes other decisions: validate
  // reports drift (without reading past the stored lists).
  core::EngineConfig fine;
  fine.qpoints_tree_params.max_leaf_size = 16;
  const GBEngine other(p.molecule, p.surf, fine);
  ASSERT_NE(other.q_leaves().size(), warm.q_leaves().size());
  core::InteractionPlan copy = plan;
  EXPECT_FALSE(copy.validate(warm.atoms_tree(), other.qpoints_tree(), 99));
  EXPECT_FALSE(copy.valid());
}

// ---- parallel replay --------------------------------------------------------

TEST(Plan, ReplayUnderSchedulerIsExactOnBornRadii) {
  // Replay writes every node_s slot / atom_s range from exactly one task,
  // so the Born radii are schedule-independent down to the bit (unlike
  // the traversal's atomic accumulation, which only promises near-equal).
  // This is also the TSan race check for the chunked parallel replay.
  const Problem p(800);
  GBEngine warm(p.molecule, p.surf);
  GBEngine cold(p.molecule, p.surf);
  EvalScratch scratch;

  (void)warm.compute(scratch);  // serial capture
  const auto moved = jittered_positions(p.molecule, 1e-7, 53);
  warm.refit_atoms(moved);
  cold.refit_atoms(moved);
  const auto serial_ref = cold.compute();

  ws::Scheduler sched(4);
  const auto par = warm.compute(scratch, &sched);  // replay under workers
  EXPECT_EQ(scratch.plan_cache.stats.replays, 1u);
  ASSERT_EQ(par.born.size(), serial_ref.born.size());
  for (std::size_t i = 0; i < par.born.size(); ++i)
    ASSERT_EQ(par.born[i], serial_ref.born[i]) << "atom " << i;
  // The Epol phase folds fixed leaf blocks in block order: exact too.
  EXPECT_EQ(par.epol, serial_ref.epol);

  // Born reuse under the scheduler: radii come straight from the cache.
  const auto reuse = warm.compute(scratch, &sched);
  EXPECT_EQ(scratch.plan_cache.stats.born_reuses, 1u);
  for (std::size_t i = 0; i < reuse.born.size(); ++i)
    ASSERT_EQ(reuse.born[i], serial_ref.born[i]) << "atom " << i;
}

// ---- steady-state allocations ----------------------------------------------

TEST(Plan, ReplayAndReuseAreAllocationFree) {
  const Problem p(600);
  GBEngine engine(p.molecule, p.surf);
  EvalScratch scratch;
  // Jitter of 1e-5 Å keeps every admissibility decision of this problem
  // (1e-4 moves a pair across the opening factor and recaptures).

  (void)engine.compute(scratch);          // capture
  (void)engine.compute(scratch);          // born reuse
  engine.refit_atoms(jittered_positions(p.molecule, 1e-5, 41));
  (void)engine.compute(scratch);          // validate + replay + store
  const auto settled = scratch.allocation_events;

  for (int cycle = 0; cycle < 3; ++cycle) {
    engine.refit_atoms(
        jittered_positions(p.molecule, 1e-5, 42 + std::uint64_t(cycle)));
    (void)engine.compute(scratch);  // replay
    (void)engine.compute(scratch);  // born reuse
  }
  EXPECT_EQ(scratch.allocation_events, settled);
  EXPECT_EQ(scratch.plan_cache.stats.builds, 1u);
  EXPECT_EQ(scratch.plan_cache.stats.replays, 4u);
  EXPECT_EQ(scratch.plan_cache.stats.born_reuses, 4u);
}

TEST(Plan, RecaptureSteadyStateIsAllocationFree) {
  // Topology-invalidating rebuilds at unchanged sizes recapture every
  // time; after the first recapture every plan buffer (lists, segment
  // offsets, owner CSR, carve scratch) is warm and reused.
  const Problem p(600);
  GBEngine engine(p.molecule, p.surf);
  EvalScratch scratch;
  ws::Scheduler sched(4);

  (void)engine.compute(scratch, &sched);  // capture
  engine.rebuild_atoms(p.molecule);
  (void)engine.compute(scratch, &sched);  // recapture
  const auto settled = scratch.allocation_events;

  for (int cycle = 0; cycle < 3; ++cycle) {
    engine.rebuild_atoms(p.molecule);
    (void)engine.compute(scratch, &sched);
  }
  EXPECT_EQ(scratch.allocation_events, settled);
  EXPECT_EQ(scratch.plan_cache.stats.builds, 5u);
  EXPECT_EQ(scratch.plan_cache.stats.invalidated_topology, 4u);
}

// ---- session surface --------------------------------------------------------

TEST(Plan, SessionExposesPlanStats) {
  const Problem p(400);
  core::ScoringSession session(p.molecule, p.surf);

  (void)session.evaluate();
  (void)session.evaluate();  // born reuse
  auto approx = session.engine().config().approx;
  approx.eps_born = 0.4;
  (void)session.evaluate_at(approx);  // params invalidation → recapture

  const perf::PlanCounters& stats = session.plan_stats();
  EXPECT_EQ(stats.builds, 2u);
  EXPECT_EQ(stats.born_reuses, 1u);
  EXPECT_EQ(stats.invalidated_params, 1u);
}

TEST(Plan, MetricsRegistryExportsPlanCounters) {
  perf::PlanCounters stats;
  stats.builds = 2;
  stats.replays = 5;
  stats.invalidated_drift = 1;
  trace::MetricsRegistry reg;
  reg.add_plan("", stats);
  EXPECT_EQ(reg.get_int("plan.builds"), 2u);
  EXPECT_EQ(reg.get_int("plan.replays"), 5u);
  EXPECT_EQ(reg.get_int("plan.invalidated.drift"), 1u);
  EXPECT_EQ(reg.get_int("plan.born_reuses"), 0u);
}

// ---- locality-aware execution (DESIGN.md §2.11) -----------------------------

TEST(Plan, LocalityReplayBitwiseMatchesBaselineAtEveryWorkerCount) {
  // Run-coalesced carving only regroups owners across tasks: a warm
  // replay's Born radii and energy are bitwise those of the one-shot
  // compute() walk (the no-plan baseline) at every worker count. Epol is
  // bitwise too: approx_epol folds fixed leaf-block partials in block
  // order, whatever the schedule.
  const Problem p(800);
  const auto moved = jittered_positions(p.molecule, 1e-7, 29);
  for (int workers : {1, 2, 4}) {
    GBEngine warm(p.molecule, p.surf);
    EvalScratch scratch;
    ws::Scheduler sched(workers);

    (void)warm.compute(scratch, &sched);  // capture
    warm.refit_atoms(moved);              // force a true replay
    const auto replay = warm.compute(scratch, &sched);
    EXPECT_EQ(scratch.plan_cache.stats.replays, 1u) << workers << " workers";
    EXPECT_EQ(scratch.plan_cache.stats.builds, 1u) << workers << " workers";

    GBEngine cold(p.molecule, p.surf);
    cold.refit_atoms(moved);
    const auto want = cold.compute(&sched);
    EXPECT_EQ(replay.epol, want.epol) << workers << " workers";
    // The phase buffers too: the one-shot path's Born walk.
    std::vector<double> node_s(cold.num_ta_nodes(), 0.0);
    std::vector<double> atom_s(cold.num_atoms(), 0.0);
    perf::WorkCounters walked;
    sched.run([&] {
      cold.phase_integrals(
          {0, static_cast<std::uint32_t>(cold.q_leaves().size())}, node_s,
          atom_s, walked);
    });
    EXPECT_EQ(scratch.node_s, node_s) << workers << " workers";
    EXPECT_EQ(scratch.atom_s, atom_s) << workers << " workers";
    ASSERT_EQ(replay.born.size(), want.born.size());
    for (std::size_t i = 0; i < want.born.size(); ++i)
      ASSERT_EQ(replay.born[i], want.born[i])
          << workers << " workers, atom " << i;
  }
}

TEST(Plan, LocalityCarvingCoalescesRunsAndChunks) {
  // The carve's invariants, checked directly against the captured plan.
  const Problem p(1500);
  GBEngine warm(p.molecule, p.surf);
  EvalScratch scratch;
  (void)warm.compute(scratch);

  const core::InteractionPlan& plan = scratch.plan_cache.plan;
  const octree::Octree& tree = warm.atoms_tree().tree;
  const auto order = plan.owner_order();
  const auto node_of = [&](std::uint32_t i) -> const octree::Octree::Node& {
    return tree.node(plan.owner(order[i]));
  };
  ASSERT_EQ(order.size(), plan.groups());
  ASSERT_GT(order.size(), 1u);

  // Owners run in atom-range order (ties: node id), each group once.
  std::vector<bool> seen(plan.groups(), false);
  for (std::size_t i = 0; i < order.size(); ++i) {
    ASSERT_FALSE(seen[order[i]]) << "group " << order[i] << " twice";
    seen[order[i]] = true;
    if (i == 0) continue;
    const auto& prev = node_of(i - 1);
    const auto& cur = node_of(i);
    ASSERT_TRUE(prev.begin < cur.begin ||
                (prev.begin == cur.begin &&
                 plan.owner(order[i - 1]) < plan.owner(order[i])))
        << "owner " << i << " out of atom-range order";
  }

  // Runs tile owner_order(): inside a run the atom ranges abut, and every
  // run boundary is a place where they do not.
  const auto runs = plan.run_offsets();
  ASSERT_GE(runs.size(), 2u);
  EXPECT_EQ(runs.front(), 0u);
  EXPECT_EQ(runs.back(), order.size());
  std::vector<bool> run_boundary(order.size() + 1, false);
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_LT(runs[r - 1], runs[r]) << "empty run " << r;
    run_boundary[runs[r]] = true;
  }
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_EQ(run_boundary[i], node_of(i).begin != node_of(i - 1).end)
        << "owner " << i;

  // Chunks tile owner_order(). A chunk closes at a run boundary once its
  // cost reaches the target, mid-run only once it reaches kMaxOvershoot ×
  // the target, and at no earlier owner where either rule held.
  using core::InteractionPlan;
  std::uint64_t total = 0;
  for (std::uint32_t g = 0; g < plan.groups(); ++g) total += plan.group_cost(g);
  const std::uint64_t target =
      std::max<std::uint64_t>(1, total / InteractionPlan::kTargetChunks);
  const std::uint64_t cap = InteractionPlan::kMaxOvershoot * target;
  const auto chunks = plan.chunk_offsets();
  ASSERT_EQ(chunks.size(), plan.chunks() + 1);
  EXPECT_EQ(chunks.front(), 0u);
  EXPECT_EQ(chunks.back(), order.size());
  EXPECT_GT(plan.chunks(), 1u);
  for (std::size_t c = 0; c + 1 < chunks.size(); ++c) {
    ASSERT_LT(chunks[c], chunks[c + 1]) << "empty chunk " << c;
    std::uint64_t acc = 0;
    for (std::uint32_t i = chunks[c]; i < chunks[c + 1]; ++i) {
      acc += plan.group_cost(order[i]);
      const bool closes = (acc >= target && run_boundary[i + 1]) || acc >= cap;
      if (i + 1 < chunks[c + 1]) {
        EXPECT_FALSE(closes) << "chunk " << c << " should close at " << i + 1;
      } else if (i + 1 < order.size()) {
        EXPECT_TRUE(closes) << "chunk " << c << " closed early at " << i + 1;
      }
    }
  }

  // The counters describe the same carve, and Morton leaves abut, so runs
  // really coalesce owners.
  const perf::LocalityCounters& l = plan.locality_stats();
  EXPECT_EQ(l.runs, runs.size() - 1);
  EXPECT_EQ(l.run_owners, order.size());
  EXPECT_EQ(l.chunks, plan.chunks());
  EXPECT_LT(l.runs, l.run_owners);
  EXPECT_GT(l.mean_run_length(), 1.0);
  EXPECT_EQ(plan.prefetches_per_replay(), order.size() - plan.chunks());
}

TEST(Plan, MetricsRegistryExportsLocalityCounters) {
  perf::LocalityCounters l;
  l.runs = 4;
  l.run_owners = 12;
  l.chunks = 10;
  l.prefetch_batches = 7;
  trace::MetricsRegistry reg;
  reg.add_locality("", l);
  EXPECT_EQ(reg.get_int("plan.locality.runs"), 4u);
  EXPECT_EQ(reg.get_int("plan.locality.run_owners"), 12u);
  EXPECT_EQ(reg.get_int("plan.locality.chunks"), 10u);
  EXPECT_EQ(reg.get_int("plan.locality.prefetch_batches"), 7u);
  EXPECT_DOUBLE_EQ(reg.get_real("plan.locality.mean_run_length"), 3.0);
  trace::MetricsRegistry tiers;
  tiers.add_steal_tiers("", 5, 3, 2, 0);
  EXPECT_EQ(tiers.get_int("ws.steal.local"), 5u);
  EXPECT_EQ(tiers.get_int("ws.steal.socket"), 3u);
  EXPECT_EQ(tiers.get_int("ws.steal.remote"), 2u);
  EXPECT_EQ(tiers.get_int("ws.steal.offblock"), 0u);
}
