#include "traced.hpp"

#include <algorithm>
#include <optional>

#include "octgb/core/born.hpp"
#include "octgb/core/epol.hpp"
#include "octgb/core/workdiv.hpp"
#include "octgb/mpp/mpp.hpp"
#include "octgb/simd/dispatch.hpp"
#include "octgb/util/check.hpp"

namespace perfbench {

using namespace octgb;

namespace {

void add_sched_stats(Layers& layers, const ws::SchedulerStats& st) {
  layers.add("ws.spawns", static_cast<double>(st.spawns));
  layers.add("ws.steals", static_cast<double>(st.steals));
  layers.add("ws.steal_attempts", static_cast<double>(st.steal_attempts));
}

std::size_t tree_nodes(const core::GBEngine& engine) {
  return engine.num_ta_nodes() + engine.qpoints_tree().tree.nodes().size();
}

core::GBEngine build_engine(const mol::Molecule& mol,
                            const surface::Surface& surf, Layers& layers) {
  std::optional<core::GBEngine> engine;
  layers.time("octree.build_ms", [&] {
    engine.emplace(core::Preprocessed::build(mol, surf));
  });
  return std::move(*engine);
}

/// ScoringSession's body_molecule: atoms [begin, end) at base positions.
mol::Molecule body_molecule(const mol::Molecule& mol,
                            std::span<const geom::Vec3> base_pos,
                            std::size_t begin, std::size_t end,
                            const char* name) {
  mol::Molecule body(name);
  body.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    mol::Atom a = mol.atom(i);
    a.pos = base_pos[i];
    body.add_atom(a);
  }
  return body;
}

// Bytes of the arrays one Born phase / one Epol phase streams, computed
// from array sizes (one pass over each), not measured.
double born_bytes(const core::GBEngine& engine) {
  // T_Q: x, y, z and w·n planes; T_A: x, y, z, vdw radius, atom_s and the
  // Born plane; node_s.
  return 48.0 * static_cast<double>(engine.qpoints_tree().num_points()) +
         48.0 * static_cast<double>(engine.num_atoms()) +
         8.0 * static_cast<double>(engine.num_ta_nodes());
}

double epol_bytes(const core::AtomsTree& ta, const core::EpolContext& ctx) {
  // x, y, z, charge and Born planes plus the bin table and its ranges.
  return 40.0 * static_cast<double>(ta.num_atoms()) +
         8.0 * static_cast<double>(ctx.bins.size()) +
         2.0 * static_cast<double>(ctx.bin_lo.size() + ctx.bin_hi.size());
}

}  // namespace

// --- cold evaluation ------------------------------------------------------

ColdResult cold_eval(const mol::Molecule& mol, const surface::SurfaceParams& sp,
                     ws::Scheduler& sched) {
  ColdResult out;
  out.surf = surface::build_surface(mol, sp);
  const core::GBEngine engine(core::Preprocessed::build(mol, out.surf));
  core::EnergyResult r = engine.compute(&sched);
  out.epol = r.epol;
  out.born = std::move(r.born);
  return out;
}

ColdResult cold_eval_traced(const mol::Molecule& mol,
                            const surface::SurfaceParams& sp,
                            ws::Scheduler& sched, Layers& layers) {
  ColdResult out;
  layers.time("surface.ms", [&] { out.surf = surface::build_surface(mol, sp); });
  const core::GBEngine engine = build_engine(mol, out.surf, layers);
  const auto n_atoms = static_cast<std::uint32_t>(engine.num_atoms());
  core::EvalScratch scratch;
  scratch.prepare(engine.num_ta_nodes(), n_atoms);
  perf::WorkCounters work;
  const double eps_epol = engine.config().approx.eps_epol;
  sched.reset_stats();
  sched.run([&] {
    layers.time("born.integrals_ms", [&] {
      engine.phase_integrals(
          {0, static_cast<std::uint32_t>(engine.q_leaves().size())},
          scratch.node_s, scratch.atom_s, work);
    });
    layers.time("born.push_ms", [&] {
      engine.phase_push({0, n_atoms}, scratch.node_s, scratch.atom_s,
                        scratch.born_tree, work);
    });
    layers.time("epol.context_ms", [&] {
      scratch.epol_ctx.rebuild(engine.atoms_tree(), scratch.born_tree, eps_epol);
    });
    layers.time("epol.ms", [&] {
      out.epol = engine.phase_epol(
          scratch.epol_ctx, scratch.born_tree,
          {0, static_cast<std::uint32_t>(engine.a_leaves().size())}, work);
    });
  });
  add_sched_stats(layers, sched.stats());
  layers.time("engine.remap_ms", [&] {
    out.born = engine.born_to_input_order(scratch.born_tree);
  });
  layers.add_work(work);
  layers.add("born.bytes_computed", born_bytes(engine));
  layers.add("epol.bytes_computed",
             epol_bytes(engine.atoms_tree(), scratch.epol_ctx));
  layers.add("surface.points", static_cast<double>(out.surf.size()));
  layers.add("octree.nodes", static_cast<double>(tree_nodes(engine)));
  return out;
}

// --- session mirror -------------------------------------------------------

struct TracedSession::Screen {
  std::size_t ligand_begin = 0;
  mol::Molecule lig_mol;
  std::optional<core::GBEngine> rec, lig;
  double e_rec = 0.0, e_lig = 0.0;
  std::vector<double> rec_born_tree, lig_born_tree, lig_born_input;
  core::EpolContext rec_ctx, lig_ctx;
  std::vector<geom::Vec3> lig_base_pos, pose_pos;
  octree::RefitMonitor lig_monitor;
};

TracedSession::TracedSession(const mol::Molecule& mol,
                             const surface::Surface& surf,
                             const surface::SurfaceParams& sp, Layers& layers)
    : layers_(&layers),
      mol_(mol),
      surf_(surf),
      engine_(build_engine(mol, surf, layers)),
      sp_(sp),
      atoms_monitor_(engine_.atoms_tree().tree),
      qpoints_monitor_(engine_.qpoints_tree().tree) {
  snapshot_base();
}

TracedSession::~TracedSession() = default;

void TracedSession::snapshot_base() {
  base_atom_pos_.resize(mol_.size());
  for (std::size_t i = 0; i < mol_.size(); ++i)
    base_atom_pos_[i] = mol_.atom(i).pos;
  base_q_pos_ = surf_.positions;
  base_q_normal_ = surf_.normals;
  screen_.reset();
}

core::EvalResult TracedSession::evaluate(ws::Scheduler* sched) {
  Layers& L = *layers_;
  core::EvalResult result;
  const auto n_atoms = static_cast<std::uint32_t>(engine_.num_atoms());
  scratch_.prepare(engine_.num_ta_nodes(), n_atoms);
  const core::ApproxParams& approx = engine_.config().approx;
  OCTGB_CHECK(approx.plan == core::PlanMode::Auto);
  const simd::VectorParams rvec = simd::resolve(approx.vector);
  const core::PlanKey key{engine_.engine_id(),
                          engine_.topology_epoch(),
                          approx.eps_born,
                          approx.strict_born_criterion,
                          approx.kernel,
                          core::PlanFlavor::Single,
                          approx.locality};
  const std::uint64_t geometry = engine_.geometry_epoch();

  // The plan decision of GBEngine::compute_eval, counters included.
  enum class Action { Capture, Replay, BornReuse };
  Action act = Action::Capture;
  core::PlanCache& pc = scratch_.plan_cache;
  if (pc.plan.valid() && pc.plan.key() == key) {
    ++pc.stats.key_hits;
    act = pc.plan.born_valid(geometry, approx.approx_math, rvec)
              ? Action::BornReuse
              : Action::Replay;
  } else {
    ++pc.stats.key_misses;
    if (pc.plan.valid()) {
      const core::PlanKey& old = pc.plan.key();
      if (old.engine_id != key.engine_id ||
          old.topology_epoch != key.topology_epoch)
        ++pc.stats.invalidated_topology;
      else
        ++pc.stats.invalidated_params;
    }
  }
  if (act == Action::Replay && geometry != pc.plan.geometry_epoch()) {
    ++pc.stats.validations;
    bool same = false;
    L.time("plan.validate_ms", [&] {
      same = pc.plan.validate(engine_.atoms_tree(), engine_.qpoints_tree(),
                              geometry);
    });
    if (!same) {
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
  // The library's multi-socket first-touch pass only places pages; it is
  // skipped here (and is inert on single-socket hosts).

  const core::AtomsTree& ta = engine_.atoms_tree();
  const core::QPointsTree& tq = engine_.qpoints_tree();
  double epol = 0.0;
  auto body = [&] {
    switch (act) {
      case Action::BornReuse:
        L.time("plan.born_reuse_ms",
               [&] { pc.plan.load_born(scratch_.born_tree, result.work); });
        break;
      case Action::Replay:
        L.time("plan.replay_ms", [&] {
          pc.plan.replay(ta, tq, approx.approx_math, rvec, scratch_.node_s,
                         scratch_.atom_s, result.work);
        });
        break;
      case Action::Capture: {
        core::PlanRecorder rec = pc.plan.begin_capture(key);
        perf::WorkCounters captured;
        L.time("plan.capture_ms", [&] {
          core::approx_integrals(ta, tq, engine_.q_leaves(), approx.eps_born,
                                 approx.approx_math, scratch_.node_s,
                                 scratch_.atom_s, captured,
                                 approx.strict_born_criterion, approx.kernel,
                                 rvec, &rec);
        });
        L.time("plan.finalize_ms", [&] {
          if (pc.plan.finalize(ta, tq, geometry, captured))
            ++scratch_.allocation_events;
        });
        pc.locality += pc.plan.locality_stats();
        result.work += captured;
        break;
      }
    }
    if (act != Action::BornReuse) {
      L.time("born.push_ms", [&] {
        core::push_integrals_to_atoms(ta, scratch_.node_s, scratch_.atom_s, 0,
                                      n_atoms, approx.approx_math,
                                      scratch_.born_tree, result.work);
      });
      if (pc.plan.store_born(geometry, approx.approx_math, rvec,
                             scratch_.born_tree, result.work))
        ++scratch_.allocation_events;
    }
    L.time("epol.context_ms", [&] {
      if (scratch_.epol_ctx.rebuild(ta, scratch_.born_tree, approx.eps_epol))
        ++scratch_.allocation_events;
    });
    L.time("epol.ms", [&] {
      epol = core::approx_epol(ta, scratch_.epol_ctx, scratch_.born_tree,
                               engine_.a_leaves(), approx.eps_epol,
                               approx.approx_math, engine_.config().gb,
                               result.work, approx.kernel, approx.vector);
    });
  };
  if (sched != nullptr) {
    sched->reset_stats();
    sched->run(body);
    const auto st = sched->stats();
    result.work.spawns += st.spawns;
    result.work.steals += st.steals;
    add_sched_stats(L, st);
  } else {
    body();
  }
  result.epol = epol;
  L.time("engine.remap_ms", [&] {
    engine_.born_to_input_order(scratch_.born_tree, scratch_.born_input);
  });
  result.born = scratch_.born_input;

  // Count only work performed: a Born reuse reports cached counters.
  perf::WorkCounters done = result.work;
  if (act == Action::BornReuse) {
    done.born_exact = done.born_approx = done.born_visits = 0;
  } else {
    L.add("born.bytes_computed", born_bytes(engine_));
  }
  L.add_work(done);
  L.add("epol.bytes_computed", epol_bytes(ta, scratch_.epol_ctx));
  L.add("octree.nodes", static_cast<double>(tree_nodes(engine_)));
  return result;
}

void TracedSession::maintain_atoms(std::span<const geom::Vec3> positions) {
  Layers& L = *layers_;
  bool rebuild = false;
  L.time("octree.refit_ms", [&] {
    engine_.refit_atoms(positions);
    rebuild = atoms_monitor_.should_rebuild(engine_.atoms_tree().tree);
  });
  ++stats_.refits;
  if (rebuild) {
    L.time("octree.build_ms", [&] {
      engine_.rebuild_atoms(mol_);
      atoms_monitor_.rebase(engine_.atoms_tree().tree);
    });
    ++stats_.rebuilds;
    L.add("octree.rebuilds", 1.0);
  }
}

void TracedSession::maintain_qpoints(bool allow_refit) {
  Layers& L = *layers_;
  bool rebuild = true;
  if (allow_refit) {
    L.time("octree.refit_ms", [&] {
      engine_.refit_qpoints(surf_);
      rebuild = qpoints_monitor_.should_rebuild(engine_.qpoints_tree().tree);
    });
    ++stats_.refits;
  }
  if (rebuild) {
    L.time("octree.build_ms", [&] {
      engine_.rebuild_qpoints(surf_);
      qpoints_monitor_.rebase(engine_.qpoints_tree().tree);
    });
    ++stats_.rebuilds;
    L.add("octree.rebuilds", 1.0);
  }
}

void TracedSession::update(std::span<const geom::Vec3> positions,
                           const surface::Surface& surf) {
  OCTGB_CHECK(positions.size() == mol_.size());
  for (std::size_t i = 0; i < mol_.size(); ++i)
    mol_.atoms()[i].pos = positions[i];
  maintain_atoms(positions);
  surf_ = surf;
  maintain_qpoints(surf_.size() == engine_.qpoints_tree().num_points());
  snapshot_base();
}

void TracedSession::apply_pose(const geom::RigidTransform& pose,
                               std::size_t ligand_begin) {
  OCTGB_CHECK(ligand_begin < mol_.size());
  pose_pos_.resize(mol_.size());
  for (std::size_t i = 0; i < ligand_begin; ++i)
    pose_pos_[i] = base_atom_pos_[i];
  for (std::size_t i = ligand_begin; i < mol_.size(); ++i)
    pose_pos_[i] = pose.apply(base_atom_pos_[i]);
  for (std::size_t i = 0; i < mol_.size(); ++i)
    mol_.atoms()[i].pos = pose_pos_[i];
  maintain_atoms(pose_pos_);
  for (std::size_t k = 0; k < surf_.size(); ++k) {
    if (surf_.owner_atom[k] >= ligand_begin) {
      surf_.positions[k] = pose.apply(base_q_pos_[k]);
      surf_.normals[k] = pose.apply_dir(base_q_normal_[k]);
    } else {
      surf_.positions[k] = base_q_pos_[k];
      surf_.normals[k] = base_q_normal_[k];
    }
  }
  maintain_qpoints(/*allow_refit=*/true);
}

void TracedSession::prime_screen(std::size_t ligand_begin) {
  OCTGB_CHECK(ligand_begin > 0 && ligand_begin < mol_.size());
  auto st = std::make_unique<Screen>();
  st->ligand_begin = ligand_begin;
  const mol::Molecule rec_mol =
      body_molecule(mol_, base_atom_pos_, 0, ligand_begin, "receptor");
  mol::Molecule lig_mol = body_molecule(mol_, base_atom_pos_, ligand_begin,
                                        mol_.size(), "ligand");
  st->rec.emplace(rec_mol, surface::build_surface(rec_mol, sp_),
                  engine_.config());
  st->lig.emplace(lig_mol, surface::build_surface(lig_mol, sp_),
                  engine_.config());

  const core::EvalResult rec = st->rec->compute(scratch_);
  st->e_rec = rec.epol;
  st->rec_born_tree.assign(scratch_.born_tree.begin(), scratch_.born_tree.end());
  st->rec_ctx = scratch_.epol_ctx;
  const core::EvalResult lig = st->lig->compute(scratch_);
  st->e_lig = lig.epol;
  st->lig_born_tree.assign(scratch_.born_tree.begin(), scratch_.born_tree.end());
  st->lig_born_input.assign(lig.born.begin(), lig.born.end());
  st->lig_ctx = scratch_.epol_ctx;

  st->lig_mol = std::move(lig_mol);
  st->lig_base_pos.resize(st->lig_mol.size());
  for (std::size_t i = 0; i < st->lig_mol.size(); ++i)
    st->lig_base_pos[i] = st->lig_mol.atom(i).pos;
  st->lig_monitor.rebase(st->lig->atoms_tree().tree);
  screen_ = std::move(st);
}

double TracedSession::score_screen(const geom::RigidTransform& pose) {
  OCTGB_CHECK_MSG(screen_ != nullptr, "prime_screen() first");
  Layers& L = *layers_;
  Screen& st = *screen_;
  st.pose_pos.resize(st.lig_base_pos.size());
  for (std::size_t i = 0; i < st.lig_base_pos.size(); ++i)
    st.pose_pos[i] = pose.apply(st.lig_base_pos[i]);
  bool rebuild = false;
  L.time("octree.refit_ms", [&] {
    st.lig->refit_atoms(st.pose_pos);
    rebuild = st.lig_monitor.should_rebuild(st.lig->atoms_tree().tree);
  });
  ++stats_.refits;
  const core::ApproxParams& approx = engine_.config().approx;
  if (rebuild) {
    L.time("octree.build_ms", [&] {
      for (std::size_t i = 0; i < st.lig_mol.size(); ++i)
        st.lig_mol.atoms()[i].pos = st.pose_pos[i];
      st.lig->rebuild_atoms(st.lig_mol);
      st.lig_monitor.rebase(st.lig->atoms_tree().tree);
    });
    ++stats_.rebuilds;
    L.add("octree.rebuilds", 1.0);
    const auto idx = st.lig->atoms_tree().tree.point_index();
    for (std::size_t p = 0; p < idx.size(); ++p)
      st.lig_born_tree[p] = st.lig_born_input[idx[p]];
    L.time("epol.context_ms", [&] {
      st.lig_ctx.rebuild(st.lig->atoms_tree(), st.lig_born_tree,
                         approx.eps_epol);
    });
  }
  perf::WorkCounters work;
  double cross = 0.0;
  L.time("epol.cross_ms", [&] {
    cross = core::approx_epol_cross(
        st.rec->atoms_tree(), st.rec_ctx, st.rec_born_tree,
        st.lig->atoms_tree(), st.lig_ctx, st.lig_born_tree, approx.eps_epol,
        approx.approx_math, engine_.config().gb, work, approx.kernel,
        approx.vector);
  });
  L.add_work(work);
  L.add("epol.bytes_computed",
        epol_bytes(st.rec->atoms_tree(), st.rec_ctx) +
            epol_bytes(st.lig->atoms_tree(), st.lig_ctx));
  return st.e_rec + st.e_lig + cross;
}

// --- hybrid rank body -----------------------------------------------------

HybridTraced run_hybrid_traced(const core::GBEngine& engine,
                               const core::HybridConfig& config,
                               Layers& layers) {
  OCTGB_CHECK(!config.weighted_division && !config.atom_based_epol);
  const int P = config.ranks;
  const std::size_t n_nodes = engine.num_ta_nodes();
  const std::size_t n_atoms = engine.num_atoms();

  // Steps of the Fig. 4 rank body, in order.
  enum Step { Integrals, Allreduce, Push, Allgather, Context, Epol, Reduce, kSteps };
  struct RankLog {
    double ms[kSteps] = {};
    perf::WorkCounters work;
    ws::SchedulerStats sched;
  };
  std::vector<RankLog> logs(P);
  std::vector<double> epol(P, 0.0);
  std::vector<double> born_tree0;
  double epol_bytes_rank0 = 0.0;

  mpp::Runtime::Options opts;
  opts.ranks = P;
  opts.topology = config.topology;
  const std::vector<perf::CommCounters> comm_counters =
      mpp::Runtime::run(opts, [&](mpp::Comm& comm) {
        const int r = comm.rank();
        RankLog& log = logs[static_cast<std::size_t>(r)];
        const core::Segment q_seg =
            core::even_segment(engine.q_leaves().size(), P, r);
        const core::Segment a_seg =
            core::even_segment(engine.a_leaves().size(), P, r);
        const core::Segment atom_seg = core::even_segment(n_atoms, P, r);
        std::unique_ptr<ws::Scheduler> sched;
        if (config.threads_per_rank > 1)
          sched = std::make_unique<ws::Scheduler>(config.threads_per_rank);
        auto in_sched = [&](const std::function<void()>& f) {
          if (sched)
            sched->run(f);
          else
            f();
        };
        auto step = [&](Step s, auto&& f) {
          const auto t0 = Clock::now();
          f();
          log.ms[s] += ms_since(t0);
        };

        std::vector<double> node_s(n_nodes, 0.0), atom_s(n_atoms, 0.0),
            born_tree(n_atoms, 0.0);
        step(Integrals, [&] {
          in_sched([&] {
            engine.phase_integrals(q_seg, node_s, atom_s, log.work);
          });
        });
        step(Allreduce, [&] {
          comm.allreduce_sum(std::span<double>(node_s));
          comm.allreduce_sum(std::span<double>(atom_s));
        });
        step(Push, [&] {
          in_sched([&] {
            engine.phase_push(atom_seg, node_s, atom_s, born_tree, log.work);
          });
        });
        step(Allgather, [&] {
          std::vector<double> all = comm.allgatherv(std::span<const double>(
              born_tree.data() + atom_seg.begin, atom_seg.size()));
          OCTGB_CHECK(all.size() == n_atoms);
          born_tree = std::move(all);
        });
        core::EpolContext ctx;
        step(Context, [&] { ctx = engine.build_epol_context(born_tree); });
        if (r == 0) epol_bytes_rank0 = epol_bytes(engine.atoms_tree(), ctx);
        double part = 0.0;
        step(Epol, [&] {
          in_sched([&] {
            part = engine.phase_epol(ctx, born_tree, a_seg, log.work);
          });
        });
        step(Reduce, [&] {
          epol[static_cast<std::size_t>(r)] = comm.allreduce_sum(part);
        });
        if (sched) log.sched = sched->stats();
        if (r == 0) born_tree0 = std::move(born_tree);
      });

  HybridTraced out;
  out.epol = epol[0];
  for (int r = 1; r < P; ++r)
    OCTGB_CHECK_MSG(epol[static_cast<std::size_t>(r)] == epol[0],
                    "ranks disagree on the reduced energy");

  // Layer times: each step's mean over ranks (collectives synchronize the
  // ranks, so every rank's steps cover the same wall interval).
  static constexpr const char* kLayer[kSteps] = {
      "born.integrals_ms", "mpp.allreduce_ms", "born.push_ms",
      "mpp.allgather_ms",  "epol.context_ms",  "epol.ms",
      "mpp.reduce_ms"};
  for (int s = 0; s < kSteps; ++s) {
    double sum = 0.0;
    for (const RankLog& log : logs) sum += log.ms[s];
    layers.add_ms(kLayer[s], sum / P);
  }
  // Supersteps end in a collective: a rank waits there for the slowest
  // rank's compute. Imbalance is max/mean compute per superstep.
  const auto superstep = [&](const RankLog& log, int k) {
    return k == 0 ? log.ms[Integrals]
                  : k == 1 ? log.ms[Push] : log.ms[Context] + log.ms[Epol];
  };
  for (int k = 0; k < 3; ++k) {
    double mx = 0.0, sum = 0.0;
    for (const RankLog& log : logs) {
      mx = std::max(mx, superstep(log, k));
      sum += superstep(log, k);
    }
    const double mean = sum / P;
    layers.add("mpp.wait_ms", mx - mean);
    layers.add("mpp.imbalance", mean > 0.0 ? mx / mean : 1.0);
  }
  for (const RankLog& log : logs) {
    layers.add_work(log.work);
    add_sched_stats(layers, log.sched);
  }
  for (const perf::CommCounters& c : comm_counters) {
    layers.add("mpp.bytes",
               static_cast<double>(c.bytes_intranode + c.bytes_internode));
    layers.add("mpp.messages", static_cast<double>(c.messages_intranode +
                                                   c.messages_internode));
  }
  layers.time("engine.remap_ms",
              [&] { out.born = engine.born_to_input_order(born_tree0); });
  layers.add("born.bytes_computed", born_bytes(engine));
  layers.add("epol.bytes_computed", epol_bytes_rank0);
  layers.add("octree.nodes", static_cast<double>(tree_nodes(engine)));
  return out;
}

}  // namespace perfbench
