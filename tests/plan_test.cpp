// Interaction-plan lifecycle tests (core/plan.hpp): capture / replay /
// Born-reuse equivalence against the recursive traversal, the parallel
// decision-walk capture against the serial PlanRecorder oracle, key-based
// invalidation (params, topology), refit validation and drift recapture,
// and the allocation-free steady state of the warm path and of recapture.
//
// The load-bearing invariant everywhere: any plan-driven Born result is
// bit-identical to the serial recursive traversal at the same geometry
// and parameters (DESIGN.md §2.6). The cold compute() wrapper always runs
// with the plan off, so it is the traversal reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "octgb/core/born.hpp"
#include "octgb/core/dual_traversal.hpp"
#include "octgb/core/engine.hpp"
#include "octgb/core/session.hpp"
#include "octgb/mol/generate.hpp"
#include "octgb/simd/dispatch.hpp"
#include "octgb/surface/surface.hpp"
#include "octgb/trace/metrics.hpp"
#include "octgb/util/rng.hpp"

using namespace octgb;
using core::EvalScratch;
using core::GBEngine;
using core::PlanFlavor;
using core::PlanMode;

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

/// First T_Q leaf index of walk segment `s` (the documented segmentation:
/// segment s of S covers leaves [s·n/S, (s+1)·n/S)).
std::size_t segment_first_leaf(const core::InteractionPlan& plan,
                               const core::QPointsTree& tq, std::size_t s) {
  const std::size_t n_seg = plan.segment_near_offsets().size() - 1;
  return s * tq.tree.leaf_ids().size() / n_seg;
}

/// The serial oracle: `key`'s plan recorded by the instrumented traversal
/// of `engine`'s trees (over `leaves`, single flavor), with the phase
/// buffers and Born-phase counters that traversal produced.
struct Recorded {
  core::InteractionPlan plan;
  std::vector<double> node_s, atom_s;
  perf::WorkCounters work;
};

Recorded record_oracle(const GBEngine& engine, const core::PlanKey& key,
                       std::span<const std::uint32_t> leaves,
                       const simd::VectorParams& vector = {}) {
  const core::AtomsTree& ta = engine.atoms_tree();
  const core::QPointsTree& tq = engine.qpoints_tree();
  Recorded r;
  r.node_s.assign(engine.num_ta_nodes(), 0.0);
  r.atom_s.assign(engine.num_atoms(), 0.0);
  core::PlanRecorder rec = r.plan.begin_capture(key);
  if (key.flavor == PlanFlavor::Single) {
    core::approx_integrals(ta, tq, leaves, key.eps_born, false, r.node_s,
                           r.atom_s, r.work, key.strict_criterion, key.kernel,
                           vector, &rec);
  } else {
    core::approx_integrals_dual(ta, tq, key.eps_born, false, r.node_s,
                                r.atom_s, r.work, key.strict_criterion,
                                key.kernel, vector, &rec);
  }
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

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlanEquivalence,
    ::testing::Values(SweepParams{200, 0.9, false},
                      SweepParams{500, 0.9, false},
                      SweepParams{500, 0.3, false},
                      SweepParams{500, 2.0, false},
                      SweepParams{500, 0.9, true},
                      SweepParams{1200, 0.9, false}));

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

TEST(Plan, PlanModeOffNeverCaches) {
  const Problem p(300);
  core::EngineConfig config;
  config.approx.plan = PlanMode::Off;
  GBEngine warm(p.molecule, p.surf, config);
  GBEngine cold(p.molecule, p.surf, config);
  EvalScratch scratch;

  expect_bitwise_equal(warm.compute(scratch), cold.compute());
  expect_bitwise_equal(warm.compute(scratch), cold.compute());
  EXPECT_EQ(scratch.plan_cache.stats.builds, 0u);
  EXPECT_EQ(scratch.plan_cache.stats.key_hits, 0u);
  EXPECT_EQ(scratch.plan_cache.stats.key_misses, 0u);
  EXPECT_EQ(scratch.plan_cache.plan.near_pairs(), 0u);
}

// ---- dual flavor ------------------------------------------------------------

TEST(Plan, DualFlavorCapturesAndReusesIndependently) {
  const Problem p(500);
  GBEngine warm(p.molecule, p.surf);
  GBEngine cold(p.molecule, p.surf);
  EvalScratch scratch;

  const auto warm1 = warm.compute_dual(scratch);
  const auto ref = cold.compute_dual();
  expect_bitwise_equal(warm1, ref);
  // Same flavor again: Born reuse.
  expect_bitwise_equal(warm.compute_dual(scratch), ref);
  EXPECT_EQ(scratch.plan_cache.stats.born_reuses, 1u);
  // Flavor switch is a key miss (params-level invalidation).
  (void)warm.compute(scratch);
  EXPECT_EQ(scratch.plan_cache.stats.invalidated_params, 1u);
  EXPECT_EQ(scratch.plan_cache.stats.builds, 2u);
}

TEST(Plan, DualFlavorReplayMatchesTraversalAfterRefit) {
  const Problem p(500);
  GBEngine warm(p.molecule, p.surf);
  GBEngine cold(p.molecule, p.surf);
  EvalScratch scratch;

  (void)warm.compute_dual(scratch);
  const auto moved = jittered_positions(p.molecule, 1e-4, 31);
  warm.refit_atoms(moved);
  cold.refit_atoms(moved);
  expect_bitwise_equal(warm.compute_dual(scratch), cold.compute_dual());
  EXPECT_EQ(scratch.plan_cache.stats.replays, 1u);
  EXPECT_EQ(scratch.plan_cache.stats.invalidated_drift, 0u);
}

// ---- parallel capture vs the serial recorder oracle ------------------------

struct CaptureParams {
  PlanFlavor flavor;
  bool strict;
  simd::VectorIsa isa;
  simd::Precision precision;
};

class ParallelCapture : public ::testing::TestWithParam<CaptureParams> {};

TEST_P(ParallelCapture, MatchesSerialRecorderBitForBit) {
  const auto [flavor, strict, isa, precision] = GetParam();
  if (!simd::isa_available(isa)) GTEST_SKIP() << "width not runnable here";
  const Problem p(700);
  core::EngineConfig config;
  config.approx.strict_born_criterion = strict;
  config.approx.vector = {isa, precision};
  const simd::VectorParams rvec = simd::resolve(config.approx.vector);
  const auto& approx = config.approx;

  for (int workers : {1, 2, 4}) {
    GBEngine engine(p.molecule, p.surf, config);
    const core::AtomsTree& ta = engine.atoms_tree();
    const core::QPointsTree& tq = engine.qpoints_tree();
    const std::size_t n_atoms = engine.num_atoms();

    // Oracle: the recorder-instrumented serial traversal, then the push.
    const core::PlanKey key{1, 0, approx.eps_born, strict,
                            approx.kernel, flavor, approx.locality};
    auto [oracle, node_s, atom_s, want] =
        record_oracle(engine, key, engine.q_leaves(), rvec);
    std::vector<double> born_ref(n_atoms, 0.0);
    core::push_integrals_to_atoms(ta, node_s, atom_s, 0,
                                  static_cast<std::uint32_t>(n_atoms),
                                  approx.approx_math, born_ref, want);

    // Parallel capture + replay through the engine.
    EvalScratch scratch;
    ws::Scheduler sched(workers);
    const auto got = flavor == PlanFlavor::Single
                         ? engine.compute(scratch, &sched)
                         : engine.compute_dual(scratch, &sched);
    const core::InteractionPlan& plan = scratch.plan_cache.plan;
    const perf::PlanCounters& stats = scratch.plan_cache.stats;
    EXPECT_EQ(stats.builds, 1u) << workers;
    EXPECT_EQ(stats.key_misses, 1u) << workers;
    EXPECT_EQ(stats.replays, 0u) << workers;
    EXPECT_EQ(stats.validations, 0u) << workers;

    EXPECT_EQ(plan.near_pairs(), oracle.near_pairs()) << workers;
    EXPECT_EQ(plan.far_pairs(), oracle.far_pairs()) << workers;
    EXPECT_TRUE(std::ranges::equal(plan.segment_near_offsets(),
                                   oracle.segment_near_offsets()));
    EXPECT_TRUE(std::ranges::equal(plan.segment_far_offsets(),
                                   oracle.segment_far_offsets()));
    EXPECT_EQ(scratch.node_s, node_s) << workers << " workers";
    EXPECT_EQ(scratch.atom_s, atom_s) << workers << " workers";
    EXPECT_EQ(scratch.born_tree, born_ref) << workers << " workers";
    EXPECT_EQ(got.work.born_exact, want.born_exact);
    EXPECT_EQ(got.work.born_approx, want.born_approx);
    EXPECT_EQ(got.work.born_visits, want.born_visits);
    EXPECT_EQ(got.work.push_atoms, want.push_atoms);
    EXPECT_EQ(got.work.push_visits, want.push_visits);
    // Element-wise list identity: the parallel walk's compare sink accepts
    // the recorder's lists at the parallel capture's offsets.
    EXPECT_TRUE(oracle.validate(ta, tq, 1)) << workers << " workers";
  }
}

std::vector<CaptureParams> capture_matrix() {
  std::vector<CaptureParams> out;
  for (PlanFlavor flavor : {PlanFlavor::Single, PlanFlavor::Dual})
    for (bool strict : {false, true})
      for (simd::VectorIsa isa :
           {simd::VectorIsa::Scalar, simd::VectorIsa::V128,
            simd::VectorIsa::V256, simd::VectorIsa::V512})
        for (simd::Precision precision :
             {simd::Precision::Double, simd::Precision::Mixed})
          out.push_back({flavor, strict, isa, precision});
  return out;
}

std::string capture_name(const ::testing::TestParamInfo<CaptureParams>& p) {
  static constexpr const char* kIsa[] = {"Auto", "Scalar", "V128", "V256",
                                         "V512"};
  const CaptureParams& c = p.param;
  return std::string(c.flavor == PlanFlavor::Single ? "Single" : "Dual") +
         (c.strict ? "Strict" : "Loose") + kIsa[static_cast<int>(c.isa)] +
         (c.precision == simd::Precision::Double ? "Double" : "Mixed");
}

INSTANTIATE_TEST_SUITE_P(Matrix, ParallelCapture,
                         ::testing::ValuesIn(capture_matrix()), capture_name);

TEST(Plan, CaptureForksUnderScheduler) {
  // The capture is a parallel walk: under a 4-worker scheduler it spawns
  // tasks, and the lists it emits are still the serial oracle's.
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
  ASSERT_GT(plan.segment_near_offsets().size(), 2u);  // >1 segment

  core::InteractionPlan oracle =
      record_oracle(engine, key, engine.q_leaves()).plan;
  EXPECT_EQ(plan.near_pairs(), oracle.near_pairs());
  EXPECT_EQ(plan.far_pairs(), oracle.far_pairs());
  EXPECT_TRUE(oracle.validate(ta, tq, 1));
}

// ---- parallel validate: drift -----------------------------------------------

TEST(Plan, ValidateCatchesDriftInOneSegment) {
  // Move every T_Q leaf of one middle walk segment far away: only that
  // segment's decisions change (the single-flavor walk of a Q-leaf reads
  // only that leaf), and the parallel validate must still report drift.
  const Problem p(700);
  GBEngine warm(p.molecule, p.surf);
  GBEngine cold(p.molecule, p.surf);
  EvalScratch scratch;
  ws::Scheduler sched(4);
  (void)warm.compute(scratch, &sched);
  const core::InteractionPlan& plan = scratch.plan_cache.plan;
  const std::vector<std::size_t> near_before(
      plan.segment_near_offsets().begin(), plan.segment_near_offsets().end());
  const std::size_t n_seg = near_before.size() - 1;
  ASSERT_GE(n_seg, 4u);
  const std::size_t s = n_seg / 2;
  const core::QPointsTree& tq = warm.qpoints_tree();
  const auto moved =
      shift_leaves(p.surf, tq, segment_first_leaf(plan, tq, s),
                   segment_first_leaf(plan, tq, s + 1),
                   geom::Vec3(500.0, 0.0, 0.0));
  warm.refit_qpoints(moved);
  cold.refit_qpoints(moved);

  expect_bitwise_equal(warm.compute(scratch, &sched), cold.compute());
  EXPECT_EQ(scratch.plan_cache.stats.validations, 1u);
  EXPECT_EQ(scratch.plan_cache.stats.invalidated_drift, 1u);
  EXPECT_EQ(scratch.plan_cache.stats.builds, 2u);
  // The recapture differs from the old plan in segment s alone: offsets
  // up to s are unchanged, every later one shifts by the same amount.
  const auto near_after = plan.segment_near_offsets();
  ASSERT_EQ(near_after.size(), near_before.size());
  for (std::size_t k = 0; k <= s; ++k) EXPECT_EQ(near_after[k], near_before[k]);
  const auto delta = static_cast<std::int64_t>(near_after[s + 1]) -
                     static_cast<std::int64_t>(near_before[s + 1]);
  EXPECT_NE(delta, 0);
  for (std::size_t k = s + 1; k <= n_seg; ++k)
    EXPECT_EQ(static_cast<std::int64_t>(near_after[k]) -
                  static_cast<std::int64_t>(near_before[k]),
              delta);
}

TEST(Plan, ValidateComparesDecisionsNotJustCounts) {
  // Record the serial oracle with two T_Q leaves of one segment visited
  // in swapped order: every segment keeps its list lengths, but the
  // segment's decisions no longer come in walk order. The parallel
  // validate must compare element-wise and report drift; the unswapped
  // recording validates.
  const Problem p(700);
  GBEngine engine(p.molecule, p.surf);
  const core::AtomsTree& ta = engine.atoms_tree();
  const core::QPointsTree& tq = engine.qpoints_tree();
  const core::PlanKey key{1, 0, 0.9, false, core::KernelKind::Batched,
                          PlanFlavor::Single, true};
  core::InteractionPlan in_order =
      record_oracle(engine, key, engine.q_leaves()).plan;
  const std::size_t n_seg = in_order.segment_near_offsets().size() - 1;
  ASSERT_GE(n_seg, 4u);
  // A middle segment with at least two leaves (their entries carry
  // different Q ids, so the swap changes elements, not lengths).
  std::vector<std::uint32_t> leaves = engine.q_leaves();
  const std::size_t s = n_seg / 2;
  const std::size_t lo = segment_first_leaf(in_order, tq, s);
  const std::size_t hi = segment_first_leaf(in_order, tq, s + 1);
  ASSERT_GE(hi - lo, 2u);
  std::swap(leaves[lo], leaves[lo + 1]);
  core::InteractionPlan swapped = record_oracle(engine, key, leaves).plan;

  EXPECT_TRUE(std::ranges::equal(swapped.segment_near_offsets(),
                                 in_order.segment_near_offsets()));
  EXPECT_TRUE(std::ranges::equal(swapped.segment_far_offsets(),
                                 in_order.segment_far_offsets()));
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
  const std::vector<std::size_t> near_before(
      plan.segment_near_offsets().begin(), plan.segment_near_offsets().end());
  const std::vector<std::size_t> far_before(
      plan.segment_far_offsets().begin(), plan.segment_far_offsets().end());
  const std::size_t n_seg = near_before.size() - 1;
  ASSERT_GE(n_seg, 4u);

  // Move only the *last* Q-leaf of segment s, out of the molecule's reach:
  // its decisions collapse to one far term, so segment s's list slices
  // end earlier and the boundary with segment s+1 moves in both lists.
  const std::size_t s = n_seg / 3;
  const core::QPointsTree& tq = warm.qpoints_tree();
  const std::size_t last = segment_first_leaf(plan, tq, s + 1) - 1;
  const auto moved = shift_leaves(p.surf, tq, last, last + 1,
                                  geom::Vec3(0.0, 0.0, 800.0));
  warm.refit_qpoints(moved);
  cold.refit_qpoints(moved);
  expect_bitwise_equal(warm.compute(scratch, &sched), cold.compute());
  EXPECT_EQ(scratch.plan_cache.stats.invalidated_drift, 1u);
  const auto near_after = plan.segment_near_offsets();
  const auto far_after = plan.segment_far_offsets();
  EXPECT_EQ(near_after[s], near_before[s]);
  EXPECT_LT(near_after[s + 1], near_before[s + 1]);
  EXPECT_NE(far_after[s + 1], far_before[s + 1]);

  // A T_Q with another leaf count cuts the segments elsewhere: the stored
  // offsets no longer describe it, which validate reports as drift
  // (without reading past the stored lists).
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

  (void)engine.compute(scratch);          // capture
  (void)engine.compute(scratch);          // born reuse
  engine.refit_atoms(jittered_positions(p.molecule, 1e-4, 41));
  (void)engine.compute(scratch);          // validate + replay + store
  const auto settled = scratch.allocation_events;

  for (int cycle = 0; cycle < 3; ++cycle) {
    engine.refit_atoms(
        jittered_positions(p.molecule, 1e-4, 42 + std::uint64_t(cycle)));
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
  // The acceptance gate of the locality work: warm replay with
  // run-coalesced carving must produce bitwise-identical phase buffers
  // (node_s, atom_s, Born radii) to the locality-off carving — the PR-9
  // baseline — at every worker count. Epol is bitwise too: approx_epol
  // folds fixed leaf-block partials in block order, whatever the
  // schedule, so it matches the serial traversal reference as well.
  const Problem p(800);
  core::EngineConfig on_cfg, off_cfg;
  on_cfg.approx.locality = true;
  off_cfg.approx.locality = false;

  const auto moved = jittered_positions(p.molecule, 1e-7, 29);
  for (int workers : {1, 2, 4}) {
    GBEngine on(p.molecule, p.surf, on_cfg);
    GBEngine off(p.molecule, p.surf, off_cfg);
    EvalScratch s_on, s_off;
    ws::Scheduler sched(workers);

    (void)on.compute(s_on, &sched);    // capture
    (void)off.compute(s_off, &sched);  // capture
    on.refit_atoms(moved);             // force a true replay
    off.refit_atoms(moved);
    const auto r_on = on.compute(s_on, &sched);
    const double epol_on = r_on.epol;
    const std::vector<double> born_on(r_on.born.begin(), r_on.born.end());
    const auto r_off = off.compute(s_off, &sched);
    EXPECT_EQ(s_on.plan_cache.stats.replays, 1u);
    EXPECT_EQ(s_off.plan_cache.stats.replays, 1u);
    ASSERT_EQ(born_on.size(), r_off.born.size());
    for (std::size_t i = 0; i < born_on.size(); ++i)
      ASSERT_EQ(born_on[i], r_off.born[i]) << "atom " << i;
    EXPECT_EQ(s_on.node_s, s_off.node_s) << workers << " workers";
    EXPECT_EQ(s_on.atom_s, s_off.atom_s) << workers << " workers";
    EXPECT_EQ(s_on.born_tree, s_off.born_tree) << workers << " workers";
    EXPECT_EQ(epol_on, r_off.epol) << workers << " workers";

    GBEngine cold(p.molecule, p.surf, on_cfg);  // traversal reference
    cold.refit_atoms(moved);
    const auto c = cold.compute();
    EXPECT_EQ(epol_on, c.epol) << workers << " workers";
    for (std::size_t i = 0; i < born_on.size(); ++i)
      ASSERT_EQ(born_on[i], c.born[i]) << "atom " << i;
  }
}

TEST(Plan, LocalityCarvingCoalescesRunsAndChunks) {
  const Problem p(1500);
  core::EngineConfig config;
  config.approx.locality = true;
  GBEngine warm(p.molecule, p.surf, config);
  EvalScratch scratch;
  (void)warm.compute(scratch);

  const core::InteractionPlan& plan = scratch.plan_cache.plan;
  const perf::LocalityCounters& l = plan.locality_stats();
  // Morton leaves abut, so streaming runs must actually coalesce owners…
  EXPECT_GT(l.run_owners, 0u);
  EXPECT_LT(l.runs, l.run_owners);
  EXPECT_GT(l.mean_run_length(), 1.0);
  // …and the carving must produce at most half the cost-only chunk count
  // (the bench gate, asserted here on a protein input).
  EXPECT_GT(l.baseline_chunks, 0u);
  EXPECT_LE(2 * l.chunks, l.baseline_chunks);
  EXPECT_EQ(l.chunks, plan.chunks());
  // Introspection shape: chunk bounds tile owner_order, runs tile it too,
  // and the atom partition is monotone from 0 to the atom count.
  ASSERT_FALSE(plan.chunk_offsets().empty());
  EXPECT_EQ(plan.chunk_offsets().front(), 0u);
  EXPECT_EQ(plan.chunk_offsets().back(), plan.owner_order().size());
  ASSERT_FALSE(plan.run_offsets().empty());
  EXPECT_EQ(plan.run_offsets().back(), plan.owner_order().size());
  const auto ab = plan.chunk_atom_begin();
  ASSERT_EQ(ab.size(), plan.chunks() + 1);
  EXPECT_EQ(ab.front(), 0u);
  EXPECT_EQ(ab.back(), p.molecule.size());
  for (std::size_t c = 1; c < ab.size(); ++c) EXPECT_LE(ab[c - 1], ab[c]);
}

TEST(Plan, LocalityOffKeepsCostSortedCarving) {
  const Problem p(1000);
  core::EngineConfig config;
  config.approx.locality = false;
  GBEngine warm(p.molecule, p.surf, config);
  EvalScratch scratch;
  (void)warm.compute(scratch);
  const core::InteractionPlan& plan = scratch.plan_cache.plan;
  const perf::LocalityCounters& l = plan.locality_stats();
  EXPECT_EQ(l.runs, 0u);             // no run detection off-path
  EXPECT_TRUE(plan.run_offsets().empty());
  EXPECT_TRUE(plan.chunk_atom_begin().empty());
  EXPECT_EQ(l.chunks, l.baseline_chunks);  // its own carving IS the baseline
  EXPECT_EQ(plan.prefetches_per_replay(), 0u);
}

TEST(Plan, LocalityKnobFlipRecapturesAsParamsInvalidation) {
  const Problem p(400);
  GBEngine warm(p.molecule, p.surf);  // locality defaults to on
  EvalScratch scratch;
  (void)warm.compute(scratch);
  EXPECT_EQ(scratch.plan_cache.stats.builds, 1u);

  warm.approx().locality = false;
  (void)warm.compute(scratch);
  EXPECT_EQ(scratch.plan_cache.stats.builds, 2u);
  EXPECT_EQ(scratch.plan_cache.stats.invalidated_params, 1u);

  warm.approx().locality = true;
  (void)warm.compute(scratch);
  EXPECT_EQ(scratch.plan_cache.stats.builds, 3u);
  EXPECT_EQ(scratch.plan_cache.stats.invalidated_params, 2u);
}

TEST(Plan, MetricsRegistryExportsLocalityCounters) {
  perf::LocalityCounters l;
  l.runs = 4;
  l.run_owners = 12;
  l.chunks = 10;
  l.baseline_chunks = 25;
  l.prefetch_batches = 7;
  l.numa_touch_passes = 1;
  trace::MetricsRegistry reg;
  reg.add_locality("", l);
  EXPECT_EQ(reg.get_int("plan.locality.runs"), 4u);
  EXPECT_EQ(reg.get_int("plan.locality.run_owners"), 12u);
  EXPECT_EQ(reg.get_int("plan.locality.chunks"), 10u);
  EXPECT_EQ(reg.get_int("plan.locality.baseline_chunks"), 25u);
  EXPECT_EQ(reg.get_int("plan.locality.prefetch_batches"), 7u);
  EXPECT_EQ(reg.get_int("plan.locality.numa_touch_passes"), 1u);
  EXPECT_DOUBLE_EQ(reg.get_real("plan.locality.mean_run_length"), 3.0);
  trace::MetricsRegistry tiers;
  tiers.add_steal_tiers("", 5, 3, 2, 0);
  EXPECT_EQ(tiers.get_int("ws.steal.local"), 5u);
  EXPECT_EQ(tiers.get_int("ws.steal.socket"), 3u);
  EXPECT_EQ(tiers.get_int("ws.steal.remote"), 2u);
  EXPECT_EQ(tiers.get_int("ws.steal.offblock"), 0u);
}
