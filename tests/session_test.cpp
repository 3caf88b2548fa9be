// Tests for the three-stage evaluation pipeline: Preprocessed artifacts
// (+ persistence), EvalScratch reuse, and the ScoringSession drivers
// (parameter re-evaluation, moved-atom updates, rigid pose streams in
// both Full and CrossScreen modes).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "octgb/core/engine.hpp"
#include "octgb/core/naive.hpp"
#include "octgb/core/persist.hpp"
#include "octgb/core/session.hpp"
#include "octgb/mol/generate.hpp"
#include "octgb/octree/serialize.hpp"
#include "octgb/surface/surface.hpp"
#include "octgb/util/check.hpp"
#include "octgb/util/rng.hpp"

using namespace octgb;
using core::EvalScratch;
using core::GBEngine;
using core::ScoringSession;

namespace {

struct Problem {
  mol::Molecule molecule;
  surface::Surface surf;
  explicit Problem(std::size_t atoms, std::uint64_t seed = 61)
      : molecule(mol::generate_protein({.target_atoms = atoms, .seed = seed})),
        surf(surface::build_surface(molecule, {.subdivision = 1})) {}
};

/// Receptor + ligand complex with the ligand offset along +x; returns the
/// combined molecule and the ligand_begin split index.
struct Complex {
  mol::Molecule combined;
  std::size_t ligand_begin;
  Complex(std::size_t rec_atoms, std::size_t lig_atoms, double offset) {
    mol::Molecule rec =
        mol::generate_protein({.target_atoms = rec_atoms, .seed = 7});
    mol::Molecule lig =
        mol::generate_protein({.target_atoms = lig_atoms, .seed = 8});
    lig.transform(geom::RigidTransform::translate({offset, 0, 0}));
    for (const auto& a : rec.atoms()) combined.add_atom(a);
    ligand_begin = combined.size();
    for (const auto& a : lig.atoms()) combined.add_atom(a);
  }
};

bool same_counters(const perf::WorkCounters& a, const perf::WorkCounters& b) {
  return a.born_exact == b.born_exact && a.born_approx == b.born_approx &&
         a.epol_exact == b.epol_exact && a.epol_bins == b.epol_bins &&
         a.epol_visits == b.epol_visits && a.push_atoms == b.push_atoms;
}

}  // namespace

// ---- EvalScratch ------------------------------------------------------------

TEST(EvalScratch, WarmComputeMatchesColdWrapperBitForBit) {
  const Problem p(500);
  GBEngine engine(p.molecule, p.surf);
  const auto cold = engine.compute();

  EvalScratch scratch;
  const auto warm1 = engine.compute(scratch);
  const auto warm2 = engine.compute(scratch);

  EXPECT_EQ(cold.epol, warm1.epol);
  EXPECT_EQ(warm1.epol, warm2.epol);
  EXPECT_TRUE(same_counters(cold.work, warm1.work));
  ASSERT_EQ(cold.born.size(), warm2.born.size());
  for (std::size_t i = 0; i < cold.born.size(); ++i)
    EXPECT_EQ(cold.born[i], warm2.born[i]) << "atom " << i;
}

TEST(EvalScratch, NoAllocationsAfterFirstWarmCompute) {
  const Problem p(600);
  GBEngine engine(p.molecule, p.surf);
  EvalScratch scratch;
  engine.compute(scratch);
  const std::size_t warm_events = scratch.allocation_events;
  EXPECT_GE(warm_events, 1u);  // the cold call had to size the buffers
  for (int i = 0; i < 3; ++i) engine.compute(scratch);
  EXPECT_EQ(scratch.allocation_events, warm_events);
}

TEST(EvalScratch, SmallerProblemReusesCapacity) {
  const Problem big(800), small(300);
  GBEngine big_engine(big.molecule, big.surf);
  GBEngine small_engine(small.molecule, small.surf);
  EvalScratch scratch;
  big_engine.compute(scratch);
  small_engine.compute(scratch);  // fits in the big run's capacity
  const std::size_t events = scratch.allocation_events;
  small_engine.compute(scratch);
  big_engine.compute(scratch);  // capacity never shrank
  EXPECT_EQ(scratch.allocation_events, events);
}

TEST(EvalScratch, NonAllocatingRemapMatchesAllocatingOverload) {
  const Problem p(300);
  GBEngine engine(p.molecule, p.surf);
  EvalScratch scratch;
  engine.compute(scratch);
  const auto owned = engine.born_to_input_order(scratch.born_tree);
  std::vector<double> out(scratch.born_tree.size());
  engine.born_to_input_order(scratch.born_tree, out);
  EXPECT_EQ(owned, out);
}

// ---- config mutability ------------------------------------------------------

TEST(EngineConfig, EvaluationKnobsMutableAfterConstruction) {
  const Problem p(300);
  GBEngine engine(p.molecule, p.surf);
  engine.approx().eps_epol = 2.0;
  engine.gb().eps_solv = 40.0;
  EXPECT_EQ(engine.config().approx.eps_epol, 2.0);
  EXPECT_EQ(engine.config().gb.eps_solv, 40.0);
}

// ---- persistence ------------------------------------------------------------

TEST(Persist, PreprocessedRoundTripsBitForBit) {
  const Problem p(400);
  const auto pre = core::Preprocessed::build(p.molecule, p.surf);

  std::stringstream ss;
  core::write_preprocessed(pre, ss);
  auto loaded = core::read_preprocessed(ss);

  EXPECT_EQ(loaded.atoms.num_atoms(), pre.atoms.num_atoms());
  EXPECT_EQ(loaded.atoms.tree.nodes().size(), pre.atoms.tree.nodes().size());
  EXPECT_EQ(loaded.qpoints.num_points(), pre.qpoints.num_points());
  EXPECT_EQ(loaded.atoms.charge, pre.atoms.charge);
  // The planes go out as AoS sections and come back as planes.
  EXPECT_TRUE(std::ranges::equal(loaded.atoms.soa_x(), pre.atoms.soa_x()));
  EXPECT_EQ(loaded.qpoints.soa_wnx, pre.qpoints.soa_wnx);
  EXPECT_EQ(loaded.qpoints.soa_wny, pre.qpoints.soa_wny);
  EXPECT_EQ(loaded.qpoints.soa_wnz, pre.qpoints.soa_wnz);

  // An engine adopting the loaded artifact evaluates identically.
  GBEngine fresh(p.molecule, p.surf);
  GBEngine adopted(std::move(loaded));
  EXPECT_EQ(fresh.compute().epol, adopted.compute().epol);
}

TEST(Persist, ReloadedNormalMomentsAndBornRadiiAreBitwise) {
  // The T_Q normal moments are derived (rebuild_derived on load), not
  // serialized: a reloaded tree must reproduce them, and the Born radii
  // their far terms feed, bit for bit.
  const Problem p(400);
  const auto pre = core::Preprocessed::build(p.molecule, p.surf);
  std::stringstream ss;
  core::write_qpoints_tree(pre.qpoints, ss);
  const core::QPointsTree loaded = core::read_qpoints_tree(ss);
  const auto& want = pre.qpoints.node_wmoment;
  ASSERT_EQ(loaded.node_wmoment.size(), want.size());
  EXPECT_EQ(std::memcmp(loaded.node_wmoment.data(), want.data(),
                        want.size() * sizeof(core::NormalMoment)),
            0);
  EXPECT_EQ(loaded.node_wnormal, pre.qpoints.node_wnormal);

  std::stringstream whole;
  core::write_preprocessed(pre, whole);
  GBEngine fresh(p.molecule, p.surf);
  GBEngine adopted(core::read_preprocessed(whole));
  const auto a = fresh.compute();
  const auto b = adopted.compute();
  EXPECT_EQ(a.born, b.born);
  EXPECT_EQ(a.epol, b.epol);
}

TEST(Persist, RejectsMismatchedSectionTag) {
  const Problem p(200);
  const auto pre = core::Preprocessed::build(p.molecule, p.surf);
  std::stringstream ss;
  core::write_qpoints_tree(pre.qpoints, ss);  // wrong artifact on purpose
  EXPECT_THROW(core::read_atoms_tree(ss), util::CheckError);
}

TEST(Persist, RejectsNonFinitePayloadSections) {
  // A NaN or infinite charge, radius or weighted normal fails the load
  // with an error naming the section and the element.
  const Problem p(200);
  const auto pre = core::Preprocessed::build(p.molecule, p.surf);
  std::stringstream ss;
  core::write_preprocessed(pre, ss);
  const std::string bytes = ss.str();
  struct Poison {
    const char* tag;
    std::uint32_t elem_size;
    std::size_t offset;  // of the poisoned double within the element
  };
  constexpr std::size_t kElem = 5;
  for (const Poison& site : {Poison{"chg", 8, 0}, Poison{"vdw", 8, 0},
                             Poison{"wnrm", 24, 0}, Poison{"wnrm", 24, 8},
                             Poison{"wnrm", 24, 16}}) {
    // A section header is an 8-byte tag, the u32 element size, a reserved
    // u32 and the u64 count; the elements follow it.
    std::string head(16, '\0');
    std::memcpy(head.data(), site.tag, std::strlen(site.tag));
    std::memcpy(head.data() + 8, &site.elem_size, sizeof site.elem_size);
    const std::size_t at = bytes.find(head);
    ASSERT_NE(at, std::string::npos) << site.tag;
    ASSERT_EQ(bytes.find(head, at + 1), std::string::npos) << site.tag;
    const std::size_t data = at + 24;
    for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
      SCOPED_TRACE(std::string(site.tag) + " " + std::to_string(v));
      std::string bad = bytes;
      std::memcpy(&bad[data + kElem * site.elem_size + site.offset], &v,
                  sizeof v);
      std::stringstream in(bad);
      try {
        (void)core::read_preprocessed(in);
        ADD_FAILURE() << "accepted a non-finite payload";
      } catch (const util::CheckError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(std::string("'") + site.tag + "'"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("element " + std::to_string(kElem) + " "),
                  std::string::npos)
            << what;
      }
    }
  }
}

TEST(Persist, TrailingWeightSectionOfOlderStreamsIsLeftUnread) {
  // Streams written while T_Q still stored its quadrature weights end
  // with a "wgt" section after "wnrm". They load unchanged: the reader
  // stops after "wnrm" and leaves the weights unread in the stream.
  const Problem p(200);
  const auto pre = core::Preprocessed::build(p.molecule, p.surf);
  std::stringstream ss;
  core::write_preprocessed(pre, ss);
  const std::vector<double> weights(pre.qpoints.num_points(), 0.25);
  octree::write_f64_section(ss, "wgt", weights);
  GBEngine fresh(p.molecule, p.surf);
  GBEngine adopted(core::read_preprocessed(ss));
  EXPECT_EQ(fresh.compute().epol, adopted.compute().epol);
  EXPECT_EQ(octree::read_f64_section(ss, "wgt"), weights);
}

TEST(Persist, TruncationSweepAlwaysErrorsCleanly) {
  // Loading a stream cut at any point must throw a CheckError (short
  // read / bad magic / implausible length), never crash or return a
  // partially-filled artifact.
  const Problem p(120);
  const auto pre = core::Preprocessed::build(p.molecule, p.surf);
  std::stringstream ss;
  core::write_preprocessed(pre, ss);
  const std::string bytes = ss.str();
  // Every prefix in the header region, then strided through the payload
  // (the payload is large; every section boundary is still crossed).
  std::vector<std::size_t> cuts;
  for (std::size_t i = 0; i < std::min<std::size_t>(bytes.size(), 256); ++i)
    cuts.push_back(i);
  for (std::size_t i = 256; i < bytes.size(); i += 97) cuts.push_back(i);
  for (const std::size_t cut : cuts) {
    std::stringstream truncated(bytes.substr(0, cut));
    EXPECT_THROW(core::read_preprocessed(truncated), util::CheckError)
        << "cut at " << cut << " of " << bytes.size();
  }
}

TEST(Preprocessed, FootprintIsTheTreesPlusTheirPayloadPlanes) {
  // Exact accounting, built or reloaded: each octree plus its tree-order
  // payload planes and nothing else. T_A carries charge and vdW radius;
  // T_Q carries the three w·n SoA planes, and per node one w·n aggregate,
  // one six-entry normal moment and one ten-entry second moment.
  const Problem p(400);
  const auto expect_exact = [](const core::Preprocessed& pre) {
    const core::AtomsTree& ta = pre.atoms;
    const core::QPointsTree& tq = pre.qpoints;
    EXPECT_EQ(ta.footprint_bytes(),
              ta.tree.footprint_bytes() + ta.num_atoms() * 2 * sizeof(double));
    EXPECT_EQ(tq.footprint_bytes(),
              tq.tree.footprint_bytes() +
                  tq.num_points() * 3 * sizeof(double) +
                  tq.tree.nodes().size() *
                      (sizeof(geom::Vec3) + 16 * sizeof(double)));
    EXPECT_EQ(pre.footprint_bytes(),
              ta.footprint_bytes() + tq.footprint_bytes());
  };
  const auto pre = core::Preprocessed::build(p.molecule, p.surf);
  expect_exact(pre);
  std::stringstream ss;
  core::write_preprocessed(pre, ss);
  expect_exact(core::read_preprocessed(ss));
}

// ---- ScoringSession: parameter re-evaluation --------------------------------

TEST(Session, SecondEpsilonMatchesColdEngineBitForBit) {
  const Problem p(500);
  ScoringSession session(p.molecule, p.surf);
  session.evaluate();  // warm the scratch at the default parameters

  core::ApproxParams second;
  second.eps_born = 0.4;
  second.eps_epol = 1.5;
  const auto warm = session.evaluate_at(second);

  core::EngineConfig cold_cfg;
  cold_cfg.approx = second;
  GBEngine cold(p.molecule, p.surf, cold_cfg);
  const auto cold_r = cold.compute();

  EXPECT_EQ(warm.epol, cold_r.epol);
  EXPECT_TRUE(same_counters(warm.work, cold_r.work));
}

TEST(Session, RepeatedEvaluationIsDeterministicAndAllocationFree) {
  const Problem p(400);
  ScoringSession session(p.molecule, p.surf);
  const auto first = session.evaluate();
  const double e = first.epol;
  const std::size_t events = session.scratch().allocation_events;
  for (int i = 0; i < 3; ++i) EXPECT_EQ(session.evaluate().epol, e);
  // Re-evaluating at a *coarser* ε needs fewer bins — still no growth.
  core::ApproxParams coarse = session.engine().config().approx;
  coarse.eps_epol = 2.0;
  session.evaluate_at(coarse);
  EXPECT_EQ(session.scratch().allocation_events, events);
}

// ---- ScoringSession: moved-atom updates -------------------------------------

TEST(Session, UpdateRefitMatchesRebuiltEngineWithinTolerance) {
  const Problem base(500);
  util::Xoshiro256 rng(74);
  std::vector<geom::Vec3> moved(base.molecule.size());
  for (std::size_t i = 0; i < moved.size(); ++i)
    moved[i] = base.molecule.atom(i).pos +
               geom::Vec3{rng.normal(), rng.normal(), rng.normal()} * 0.02;
  mol::Molecule moved_mol = base.molecule;
  for (std::size_t i = 0; i < moved.size(); ++i)
    moved_mol.atoms()[i].pos = moved[i];
  const auto moved_surf =
      surface::build_surface(moved_mol, {.subdivision = 1});

  ScoringSession session(base.molecule, base.surf);
  session.evaluate();
  session.update(moved, moved_surf);
  const double e_refit = session.evaluate().epol;

  GBEngine rebuilt(moved_mol, moved_surf);
  const double e_rebuilt = rebuilt.compute().epol;
  // DESIGN.md refit tolerance contract: ≤ 1 % relative.
  EXPECT_NEAR(e_refit, e_rebuilt, 0.01 * std::abs(e_rebuilt));
  EXPECT_GE(session.move_stats().refits, 1u);
}

TEST(Session, LargeMoveTriggersRebuild) {
  const Problem base(400);
  util::Xoshiro256 rng(12);
  std::vector<geom::Vec3> scattered(base.molecule.size());
  for (std::size_t i = 0; i < scattered.size(); ++i)
    scattered[i] = base.molecule.atom(i).pos +
                   geom::Vec3{rng.normal(), rng.normal(), rng.normal()} * 6.0;
  mol::Molecule scattered_mol = base.molecule;
  for (std::size_t i = 0; i < scattered.size(); ++i)
    scattered_mol.atoms()[i].pos = scattered[i];
  const auto scattered_surf =
      surface::build_surface(scattered_mol, {.subdivision = 1});

  ScoringSession session(base.molecule, base.surf);
  const bool rebuilt = session.update(scattered, scattered_surf);
  EXPECT_TRUE(rebuilt);
  EXPECT_GE(session.move_stats().rebuilds, 1u);
}

TEST(Session, NonFiniteCoordinatesAreRejectedBeforeTheTreesMove) {
  // The octree rejects NaN and ±inf, so every core path that feeds it
  // throws instead of building a tree with a NaN centroid or an infinite
  // radius — and a rejected refit leaves the engine's trees untouched.
  const Problem base(300);
  std::vector<geom::Vec3> moved(base.molecule.size());
  for (std::size_t i = 0; i < moved.size(); ++i)
    moved[i] = base.molecule.atom(i).pos;
  moved[42].y = std::numeric_limits<double>::quiet_NaN();

  GBEngine engine(base.molecule, base.surf);
  const double e0 = engine.compute().epol;
  const std::uint64_t epoch = engine.geometry_epoch();
  EXPECT_THROW(engine.refit_atoms(moved), util::CheckError);
  EXPECT_EQ(engine.geometry_epoch(), epoch);
  EXPECT_EQ(engine.compute().epol, e0);

  surface::Surface bad_surf = base.surf;
  bad_surf.positions[7].z = std::numeric_limits<double>::infinity();
  EXPECT_THROW(engine.refit_qpoints(bad_surf), util::CheckError);
  EXPECT_THROW(core::QPointsTree::build(bad_surf), util::CheckError);
  EXPECT_EQ(engine.compute().epol, e0);

  ScoringSession session(base.molecule, base.surf);
  EXPECT_THROW(session.update(moved, base.surf), util::CheckError);
  ScoringSession posed(base.molecule, base.surf);
  const auto nan_shift = geom::RigidTransform::translate(
      {-std::numeric_limits<double>::infinity(), 0.0, 0.0});
  EXPECT_THROW(posed.apply_pose(nan_shift, base.molecule.size() / 2),
               util::CheckError);
}

// ---- ScoringSession: pose streams -------------------------------------------

TEST(Session, IdentityPoseReproducesBaseEnergyInFullMode) {
  const Complex c(600, 150, 18.0);
  const auto surf = surface::build_surface(c.combined, {.subdivision = 1});
  ScoringSession session(c.combined, surf, {}, {.subdivision = 1});
  const double e_base = session.evaluate().epol;

  const geom::RigidTransform identity = geom::RigidTransform::identity();
  const auto scores = session.score_poses({&identity, 1}, c.ligand_begin,
                                          core::PoseMode::Full);
  ASSERT_EQ(scores.size(), 1u);
  // Identity refit reproduces the tree geometry up to summation order.
  EXPECT_NEAR(scores[0].epol, e_base, 1e-6 * std::abs(e_base));
  EXPECT_FALSE(scores[0].rebuilt);
}

TEST(Session, CrossScreenAgreesWithFullModeAtContact) {
  const Complex c(600, 150, 16.0);
  const auto surf = surface::build_surface(c.combined, {.subdivision = 1});
  ScoringSession session(c.combined, surf, {}, {.subdivision = 1});

  const geom::RigidTransform identity = geom::RigidTransform::identity();
  const auto full = session.score_poses({&identity, 1}, c.ligand_begin,
                                        core::PoseMode::Full);
  session.reset_to_base();
  const auto screen = session.score_poses({&identity, 1}, c.ligand_begin,
                                          core::PoseMode::CrossScreen);
  // Frozen-monomer screening neglects inter-body descreening; the complex
  // energy still has to agree to a few percent (DESIGN.md's documented
  // accuracy envelope for the mode).
  EXPECT_NEAR(screen[0].epol, full[0].epol, 0.05 * std::abs(full[0].epol));
}

TEST(Session, CrossTermDecaysWithSeparation) {
  const Complex c(500, 120, 14.0);
  const auto surf = surface::build_surface(c.combined, {.subdivision = 1});
  ScoringSession session(c.combined, surf, {}, {.subdivision = 1});

  std::vector<geom::RigidTransform> poses;
  for (double shift : {0.0, 15.0, 60.0})
    poses.push_back(geom::RigidTransform::translate({shift, 0, 0}));
  const auto scores = session.score_poses(poses, c.ligand_begin,
                                          core::PoseMode::CrossScreen);
  ASSERT_EQ(scores.size(), 3u);
  EXPECT_GT(std::abs(scores[0].delta), std::abs(scores[1].delta));
  EXPECT_GT(std::abs(scores[1].delta), std::abs(scores[2].delta));
  // The screening pose path must not rebuild: rigid motion preserves
  // intra-body distances, so leaf radii cannot inflate.
  EXPECT_EQ(session.move_stats().rebuilds, 0u);
}

TEST(Session, CrossScreenPosesAreDeterministic) {
  const Complex c(400, 100, 14.0);
  const auto surf = surface::build_surface(c.combined, {.subdivision = 1});
  ScoringSession session(c.combined, surf, {}, {.subdivision = 1});
  const auto pose =
      geom::RigidTransform::translate({3.0, -1.0, 2.0}) *
      geom::RigidTransform::rotate(geom::Mat3::axis_angle({0, 0, 1}, 0.7));
  const auto a = session.score_poses({&pose, 1}, c.ligand_begin,
                                     core::PoseMode::CrossScreen);
  const auto b = session.score_poses({&pose, 1}, c.ligand_begin,
                                     core::PoseMode::CrossScreen);
  EXPECT_EQ(a[0].epol, b[0].epol);
  EXPECT_EQ(a[0].delta, b[0].delta);
}

TEST(Session, CrossScreenRotatedPoseMatchesABinTableBuiltInThePose) {
  // The ligand's charge dipoles turn with it, while the session keeps the
  // ligand bin table it built at the base coordinates. Reference: the same
  // frozen bodies, the ligand tree refit to the pose, and a bin table
  // built from scratch on the refit tree.
  const Complex c(400, 100, 14.0);
  const surface::SurfaceParams sp{.subdivision = 1};
  const auto surf = surface::build_surface(c.combined, sp);
  ScoringSession session(c.combined, surf, {}, sp);
  const geom::Vec3 axis = geom::Vec3{1.0, -2.0, 0.5} / std::sqrt(5.25);
  const auto pose =
      geom::RigidTransform::translate({2.0, 1.5, -1.0}) *
      geom::RigidTransform::rotate(geom::Mat3::axis_angle(axis, 1.5));
  const auto screen = session.score_poses({&pose, 1}, c.ligand_begin,
                                          core::PoseMode::CrossScreen);
  ASSERT_EQ(session.move_stats().rebuilds, 0u);

  mol::Molecule rec("receptor"), lig("ligand");
  for (std::size_t i = 0; i < c.combined.size(); ++i)
    (i < c.ligand_begin ? rec : lig).add_atom(c.combined.atom(i));
  const GBEngine rec_engine(rec, surface::build_surface(rec, sp), {});
  GBEngine lig_engine(lig, surface::build_surface(lig, sp), {});
  EvalScratch scratch;
  rec_engine.compute(scratch);
  const std::vector<double> rec_born(scratch.born_tree.begin(),
                                     scratch.born_tree.end());
  const core::EpolContext rec_ctx = scratch.epol_ctx;
  lig_engine.compute(scratch);
  const std::vector<double> lig_born(scratch.born_tree.begin(),
                                     scratch.born_tree.end());
  std::vector<geom::Vec3> posed(lig.size());
  for (std::size_t i = 0; i < lig.size(); ++i)
    posed[i] = pose.apply(lig.atom(i).pos);
  lig_engine.refit_atoms(posed);

  const core::ApproxParams& ap = lig_engine.config().approx;
  const auto lig_ctx =
      core::EpolContext::build(lig_engine.atoms_tree(), lig_born, ap.eps_epol);
  perf::WorkCounters wc;
  const double cross = core::approx_epol_cross(
      rec_engine.atoms_tree(), rec_ctx, rec_born, lig_engine.atoms_tree(),
      lig_ctx, lig_born, ap.eps_epol, ap.approx_math, lig_engine.config().gb,
      wc, core::KernelKind::Batched, ap.vector);
  // Both sides run the same kernel on the same leaf moments: bitwise.
  EXPECT_EQ(screen[0].delta, cross);
}

TEST(Session, WarmPoseStreamIsAllocationFreeAndRepeatable) {
  // A docking-style stream: small rigid wiggles of the ligand about its
  // own centre (rotation about z plus a radial breathing step), scored in
  // Full mode, then in CrossScreen mode, then in Full mode again. Once the
  // first pass has sized the scratch, neither later pass may grow it, and
  // the second Full pass must reproduce the first bit for bit.
  const Complex c(600, 150, 18.0);
  const surface::SurfaceParams sp{.subdivision = 1};
  const auto surf = surface::build_surface(c.combined, sp);
  ScoringSession session(c.combined, surf, {}, sp);
  (void)session.evaluate();

  geom::Vec3 lig_center;
  for (std::size_t i = c.ligand_begin; i < c.combined.size(); ++i)
    lig_center += c.combined.atom(i).pos;
  lig_center = lig_center /
               static_cast<double>(c.combined.size() - c.ligand_begin);
  std::vector<geom::RigidTransform> poses;
  for (int p = 0; p < 8; ++p) {
    const geom::RigidTransform about_center =
        geom::RigidTransform::translate(lig_center) *
        geom::RigidTransform::rotate(
            geom::Mat3::axis_angle({0, 0, 1}, 0.05 * p)) *
        geom::RigidTransform::translate(-lig_center);
    poses.push_back(geom::RigidTransform::translate({0.4 * (p % 5), 0, 0}) *
                    about_center);
  }

  const auto full = session.score_poses(poses, c.ligand_begin,
                                        core::PoseMode::Full);
  const std::size_t events = session.scratch().allocation_events;
  session.reset_to_base();
  const auto screen = session.score_poses(poses, c.ligand_begin,
                                          core::PoseMode::CrossScreen);
  EXPECT_EQ(session.scratch().allocation_events, events);
  const auto again = session.score_poses(poses, c.ligand_begin,
                                         core::PoseMode::Full);
  EXPECT_EQ(session.scratch().allocation_events, events);

  ASSERT_EQ(full.size(), poses.size());
  ASSERT_EQ(screen.size(), poses.size());
  ASSERT_EQ(again.size(), poses.size());
  for (std::size_t p = 0; p < poses.size(); ++p) {
    EXPECT_EQ(again[p].epol, full[p].epol) << "pose " << p;
    EXPECT_EQ(again[p].delta, full[p].delta) << "pose " << p;
    EXPECT_EQ(again[p].rebuilt, full[p].rebuilt) << "pose " << p;
  }
}

// ---- cross-tree Epol kernel -------------------------------------------------

TEST(CrossEpol, MatchesDirectDoubleLoopAtTinyEps) {
  mol::Molecule a = mol::generate_protein({.target_atoms = 250, .seed = 3});
  mol::Molecule b = mol::generate_protein({.target_atoms = 180, .seed = 4});
  b.transform(geom::RigidTransform::translate({22.0, 0, 0}));

  const auto ta = core::AtomsTree::build(a, {});
  const auto tb = core::AtomsTree::build(b, {});

  // Synthetic but realistic Born radii: vdW radius plus a deterministic
  // per-atom bump (the kernel only consumes radii, not how they arose).
  auto radii = [](const core::AtomsTree& t) {
    std::vector<double> r(t.num_atoms());
    for (std::size_t i = 0; i < r.size(); ++i)
      r[i] = t.vdw_radius[i] + 0.4 + 0.1 * static_cast<double>(i % 7);
    return r;
  };
  const auto born_a = radii(ta);
  const auto born_b = radii(tb);

  const double eps = 0.05;
  const auto ctx_a = core::EpolContext::build(ta, born_a, eps);
  const auto ctx_b = core::EpolContext::build(tb, born_b, eps);
  const core::GBParams gb;
  perf::WorkCounters wc;
  const double cross = core::approx_epol_cross(
      ta, ctx_a, born_a, tb, ctx_b, born_b, eps, false, gb, wc);

  double ref = 0.0;
  for (std::uint32_t i = 0; i < ta.num_atoms(); ++i)
    for (std::uint32_t j = 0; j < tb.num_atoms(); ++j)
      ref += ta.charge[i] * tb.charge[j] /
             core::f_gb(geom::dist2(ta.tree.point(i), tb.tree.point(j)),
                        born_a[i] * born_b[j]);
  ref *= -gb.tau();

  EXPECT_NEAR(cross, ref, 0.01 * std::abs(ref));
  EXPECT_GT(wc.epol_exact + wc.epol_bins, 0u);
}

TEST(CrossEpol, EmptyTreesGiveZero) {
  mol::Molecule a = mol::generate_protein({.target_atoms = 100, .seed = 5});
  const auto ta = core::AtomsTree::build(a, {});
  std::vector<double> born(ta.num_atoms(), 1.5);
  const auto ctx = core::EpolContext::build(ta, born, 0.9);
  core::AtomsTree empty;
  core::EpolContext empty_ctx;
  perf::WorkCounters wc;
  EXPECT_EQ(core::approx_epol_cross(ta, ctx, born, empty, empty_ctx, {}, 0.9,
                                    false, {}, wc),
            0.0);
}

TEST(CrossEpol, RejectsABinTableOfAnotherTreeShape) {
  mol::Molecule a = mol::generate_protein({.target_atoms = 200, .seed = 5});
  mol::Molecule b = mol::generate_protein({.target_atoms = 120, .seed = 6});
  b.transform(geom::RigidTransform::translate({30.0, 0, 0}));
  const auto ta = core::AtomsTree::build(a, {});
  const auto tb = core::AtomsTree::build(b, {});
  const std::vector<double> born_a(ta.num_atoms(), 1.5);
  const std::vector<double> born_b(tb.num_atoms(), 1.5);
  const auto ctx_a = core::EpolContext::build(ta, born_a, 0.9);
  perf::WorkCounters wc;
  EXPECT_THROW(core::approx_epol_cross(ta, ctx_a, born_a, tb, ctx_a, born_b,
                                       0.9, false, {}, wc),
               util::CheckError);
}

// ---- EpolContext in-place rebuild -------------------------------------------

TEST(EpolContext, RebuildMatchesBuildAndReportsGrowth) {
  mol::Molecule m = mol::generate_protein({.target_atoms = 300, .seed = 9});
  const auto ta = core::AtomsTree::build(m, {});
  std::vector<double> born(ta.num_atoms());
  for (std::size_t i = 0; i < born.size(); ++i)
    born[i] = 1.0 + 0.05 * static_cast<double>(i % 40);

  const auto built = core::EpolContext::build(ta, born, 0.9);
  core::EpolContext ctx;
  const auto expect_same = [&] {
    EXPECT_EQ(ctx.bins, built.bins);  // every moment plane
    EXPECT_EQ(ctx.bin_lo, built.bin_lo);
    EXPECT_EQ(ctx.bin_hi, built.bin_hi);
    EXPECT_EQ(ctx.bin_off, built.bin_off);
    EXPECT_EQ(ctx.rep, built.rep);
    EXPECT_EQ(ctx.nbins, built.nbins);
  };
  EXPECT_TRUE(ctx.rebuild(ta, born, 0.9));  // cold: must grow
  expect_same();
  EXPECT_FALSE(ctx.rebuild(ta, born, 0.9));  // warm: capacity reused
  expect_same();
  // Coarser ε → fewer bins → still no growth.
  EXPECT_FALSE(ctx.rebuild(ta, born, 2.5));
}
