#include "octgb/core/engine.hpp"

#include <atomic>

#include "octgb/core/dual_traversal.hpp"
#include "octgb/perf/stats.hpp"
#include "octgb/simd/dispatch.hpp"
#include "octgb/trace/trace.hpp"
#include "octgb/util/check.hpp"

namespace octgb::core {

GBEngine::GBEngine(const mol::Molecule& mol, const surface::Surface& surf,
                   EngineConfig config)
    : config_(config),
      ta_(AtomsTree::build(mol, config.atoms_tree_params)),
      tq_(QPointsTree::build(surf, config.qpoints_tree_params)) {
  OCTGB_CHECK_MSG(!mol.empty(), "molecule is empty");
  OCTGB_CHECK_MSG(surf.size() > 0, "surface has no quadrature points");
}

GBEngine::GBEngine(Preprocessed pre, EngineConfig config)
    : config_(config),
      ta_(std::move(pre.atoms)),
      tq_(std::move(pre.qpoints)) {
  OCTGB_CHECK_MSG(ta_.num_atoms() > 0, "preprocessed atoms tree is empty");
  OCTGB_CHECK_MSG(tq_.num_points() > 0, "preprocessed qpoints tree is empty");
}

void EvalScratch::prepare(std::size_t n_nodes, std::size_t n_atoms) {
  bool grew = false;
  const auto size_to = [&grew](std::vector<double>& v, std::size_t n,
                               bool zero) {
    const std::size_t cap = v.capacity();
    if (zero)
      v.assign(n, 0.0);
    else
      v.resize(n);
    grew |= v.capacity() > cap;
  };
  size_to(node_s, n_nodes, /*zero=*/true);
  size_to(atom_s, n_atoms, /*zero=*/true);
  size_to(born_tree, n_atoms, /*zero=*/true);
  // born_input is fully overwritten by the remap permutation; no zeroing.
  size_to(born_input, n_atoms, /*zero=*/false);
  const std::size_t far_cap = far.capacity();
  far.resize(n_nodes);
  grew |= far.capacity() > far_cap;
  if (grew) ++allocation_events;
}

std::size_t EvalScratch::footprint_bytes() const {
  return (node_s.capacity() + atom_s.capacity() + born_tree.capacity() +
          born_input.capacity()) *
             sizeof(double) +
         far.capacity() * sizeof(FarExpansion) + epol_ctx.footprint_bytes() +
         plan_cache.footprint_bytes();
}

void GBEngine::phase_integrals(Segment q_leaf_segment,
                               std::span<double> node_s,
                               std::span<double> atom_s,
                               perf::WorkCounters& counters,
                               std::span<FarExpansion> far) const {
  OCTGB_SPAN("born.traversal");
  const auto& leaves = q_leaves();
  OCTGB_CHECK(q_leaf_segment.end <= leaves.size());
  approx_integrals(
      ta_, tq_,
      std::span<const std::uint32_t>(leaves).subspan(
          q_leaf_segment.begin, q_leaf_segment.size()),
      config_.approx.eps_born, config_.approx.approx_math, node_s, atom_s,
      counters, config_.approx.strict_born_criterion, KernelKind::Batched,
      config_.approx.vector, nullptr, far);
}

void GBEngine::phase_push(Segment atom_segment,
                          std::span<const double> node_s,
                          std::span<const double> atom_s,
                          std::span<double> born_tree,
                          perf::WorkCounters& counters) const {
  OCTGB_SPAN("born.push");
  push_integrals_to_atoms(ta_, node_s, atom_s, atom_segment.begin,
                          atom_segment.end, config_.approx.approx_math,
                          born_tree, counters);
}

EpolContext GBEngine::build_epol_context(
    std::span<const double> born_tree) const {
  OCTGB_SPAN("epol.context");
  return EpolContext::build(ta_, born_tree, config_.approx.eps_epol);
}

double GBEngine::phase_epol(const EpolContext& ctx,
                            std::span<const double> born_tree,
                            Segment a_leaf_segment,
                            perf::WorkCounters& counters) const {
  OCTGB_SPAN("epol.traversal");
  const auto& leaves = a_leaves();
  OCTGB_CHECK(a_leaf_segment.end <= leaves.size());
  return approx_epol(ta_, ctx, born_tree,
                     std::span<const std::uint32_t>(leaves).subspan(
                         a_leaf_segment.begin, a_leaf_segment.size()),
                     config_.approx.eps_epol, config_.approx.approx_math,
                     config_.gb, counters, KernelKind::Batched,
                     config_.approx.vector);
}

double GBEngine::phase_epol_atom_based(const EpolContext& ctx,
                                       std::span<const double> born_tree,
                                       Segment atom_segment,
                                       perf::WorkCounters& counters) const {
  OCTGB_SPAN("epol.traversal.atom_based");
  return approx_epol_atom_based(
      ta_, ctx, born_tree, atom_segment.begin, atom_segment.end,
      config_.approx.eps_epol, config_.approx.approx_math, config_.gb,
      counters, config_.approx.vector);
}

std::vector<double> GBEngine::born_to_input_order(
    std::span<const double> born_tree) const {
  std::vector<double> out(born_tree.size());
  born_to_input_order(born_tree, out);
  return out;
}

void GBEngine::born_to_input_order(std::span<const double> born_tree,
                                   std::span<double> out) const {
  const auto idx = ta_.tree.point_index();
  OCTGB_CHECK(born_tree.size() == idx.size() && out.size() == idx.size());
  for (std::size_t pos = 0; pos < idx.size(); ++pos)
    out[idx[pos]] = born_tree[pos];
}

namespace {

/// Compat shim: materialize an EvalResult (spans into `scratch`) as an
/// owning EnergyResult.
EnergyResult to_energy_result(const EvalResult& r) {
  EnergyResult out;
  out.epol = r.epol;
  out.born.assign(r.born.begin(), r.born.end());
  out.work = r.work;
  out.wall_seconds = r.wall_seconds;
  return out;
}

}  // namespace

std::uint64_t GBEngine::next_engine_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Shared driver for compute()/compute_dual() on the EvalScratch path.
///
/// The Born phase runs through the scratch's plan cache unless the caller
/// disallows it:
///   capture    — key miss: math-free owner-major walk (count + emit,
///                parallel over T_A subtrees) + finalize, then the
///                flat-list replay;
///   replay     — key hit at changed geometry: parallel structural
///                re-validation, then flat-list execution (recapture on
///                drift);
///   born reuse — key hit at unchanged geometry + arithmetic: the cached
///                Born radii are exact, integrals + push are skipped.
/// Validation, capture and replay all run inside the scheduler's run().
/// Without a plan (the one-shot calls) the evaluating walk runs directly.
/// Every path reports the same operation counters and the same bits at
/// every worker count — see DESIGN.md §2.6.
EvalResult GBEngine::compute_eval(EvalScratch& scratch, ws::Scheduler* sched,
                                  PlanFlavor flavor, bool allow_plan) const {
  OCTGB_SPAN("engine.compute");
  EvalResult result;
  perf::Timer timer;

  const auto n_atoms = num_atoms();
  scratch.prepare(num_ta_nodes(), n_atoms);
  double epol = 0.0;

  const ApproxParams& approx = config_.approx;
  // Resolve the vector request once: the Born cache is stamped with the
  // *resolved* params, so Auto and an explicit widest-ISA request hit the
  // same cache entry.
  const simd::VectorParams rvec = simd::resolve(approx.vector);
  trace::counter("kernel.simd.lanes",
                 static_cast<double>(simd::lanes(rvec.isa)));
  // Only the Fig. 2 walk goes through the plan (compute_dual is one-shot).
  const PlanKey key{engine_id_,
                    topology_epoch_,
                    approx.eps_born,
                    approx.strict_born_criterion,
                    KernelKind::Batched,
                    PlanFlavor::Single,
                    ApproxParams::locality};
  enum class Action { Traverse, Capture, Replay, BornReuse };
  Action act = Action::Traverse;
  PlanCache& pc = scratch.plan_cache;
  if (allow_plan) {
    if (pc.plan.valid() && pc.plan.key() == key) {
      ++pc.stats.key_hits;
      act = pc.plan.born_valid(geometry_epoch_, approx.approx_math, rvec)
                ? Action::BornReuse
                : Action::Replay;
    } else {
      ++pc.stats.key_misses;
      if (pc.plan.valid()) {
        const PlanKey& old = pc.plan.key();
        if (old.engine_id != key.engine_id ||
            old.topology_epoch != key.topology_epoch)
          ++pc.stats.invalidated_topology;
        else
          ++pc.stats.invalidated_params;
      }
      act = Action::Capture;
    }
  }

  auto body = [&] {
    if (act == Action::Replay && geometry_epoch_ != pc.plan.geometry_epoch()) {
      // An in-place refit moved centroids/radii; the pair structure
      // usually survives. Prove it (math-free parallel re-walk) or
      // recapture.
      OCTGB_SPAN("plan.validate");
      ++pc.stats.validations;
      if (!pc.plan.validate(ta_, tq_, geometry_epoch_)) {
        ++pc.stats.invalidated_drift;
        act = Action::Capture;
      }
    }
    if (act == Action::Capture) ++pc.stats.builds;
    if (act == Action::Replay) {
      ++pc.stats.replays;
      pc.locality.prefetch_batches += pc.plan.prefetches_per_replay();
    }
    if (act == Action::BornReuse) ++pc.stats.born_reuses;

    switch (act) {
      case Action::BornReuse: {
        OCTGB_SPAN("plan.born_reuse");
        pc.plan.load_born(scratch.born_tree, result.work);
        break;
      }
      case Action::Replay: {
        OCTGB_SPAN("plan.replay");
        pc.plan.replay(ta_, tq_, approx.approx_math, rvec, scratch.node_s,
                       scratch.atom_s, result.work, scratch.far);
        break;
      }
      case Action::Capture: {
        {
          OCTGB_SPAN("plan.build");
          if (pc.plan.capture(ta_, tq_, key, geometry_epoch_))
            ++scratch.allocation_events;
        }
        pc.locality += pc.plan.locality_stats();
        OCTGB_SPAN("plan.replay");
        pc.plan.replay(ta_, tq_, approx.approx_math, rvec, scratch.node_s,
                       scratch.atom_s, result.work, scratch.far);
        break;
      }
      case Action::Traverse: {
        if (flavor == PlanFlavor::Single) {
          phase_integrals({0, static_cast<std::uint32_t>(q_leaves().size())},
                          scratch.node_s, scratch.atom_s, result.work,
                          scratch.far);
        } else {
          approx_integrals_dual(ta_, tq_, approx.eps_born, approx.approx_math,
                                scratch.node_s, scratch.atom_s, result.work,
                                approx.strict_born_criterion, rvec,
                                scratch.far);
        }
        break;
      }
    }
    if (act != Action::BornReuse) {
      phase_push({0, static_cast<std::uint32_t>(n_atoms)}, scratch.node_s,
                 scratch.atom_s, scratch.born_tree, result.work);
      if (act != Action::Traverse) {
        // result.work holds exactly the phase A + push counters here;
        // cache them with the radii so a future Born reuse reports the
        // same counts a fresh traversal would.
        if (pc.plan.store_born(geometry_epoch_, approx.approx_math, rvec,
                               scratch.born_tree, result.work))
          ++scratch.allocation_events;
      }
    }
    {
      OCTGB_SPAN("epol.context");
      if (scratch.epol_ctx.rebuild(ta_, scratch.born_tree,
                                   approx.eps_epol))
        ++scratch.allocation_events;
    }
    epol = phase_epol(scratch.epol_ctx, scratch.born_tree,
                      {0, static_cast<std::uint32_t>(a_leaves().size())},
                      result.work);
  };

  if (sched) {
    sched->reset_stats();
    sched->run(body);
    const auto st = sched->stats();
    result.work.spawns += st.spawns;
    result.work.steals += st.steals;
  } else {
    body();
  }

  result.epol = epol;
  {
    OCTGB_SPAN("born.remap");
    born_to_input_order(scratch.born_tree, scratch.born_input);
  }
  result.born = scratch.born_input;
  result.wall_seconds = timer.seconds();
  return result;
}

EvalResult GBEngine::compute(EvalScratch& scratch, ws::Scheduler* sched) const {
  return compute_eval(scratch, sched, PlanFlavor::Single, /*allow_plan=*/true);
}

EnergyResult GBEngine::compute(ws::Scheduler* sched) const {
  // One-shot scratch: a plan could never be reused, so don't build one.
  EvalScratch scratch;
  return to_energy_result(
      compute_eval(scratch, sched, PlanFlavor::Single, /*allow_plan=*/false));
}

EnergyResult GBEngine::compute_dual(ws::Scheduler* sched) const {
  EvalScratch scratch;
  return to_energy_result(
      compute_eval(scratch, sched, PlanFlavor::Dual, /*allow_plan=*/false));
}

double GBEngine::epol_with_radii(std::span<const double> born_input_order,
                                 perf::WorkCounters& counters) const {
  OCTGB_CHECK(born_input_order.size() == num_atoms());
  const auto idx = ta_.tree.point_index();
  std::vector<double> born_tree(born_input_order.size());
  for (std::size_t pos = 0; pos < idx.size(); ++pos)
    born_tree[pos] = born_input_order[idx[pos]];
  const EpolContext ctx = build_epol_context(born_tree);
  return phase_epol(ctx, born_tree,
                    {0, static_cast<std::uint32_t>(a_leaves().size())},
                    counters);
}

}  // namespace octgb::core
