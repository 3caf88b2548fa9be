#include "octgb/core/hybrid.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>

#include "octgb/core/checkpoint.hpp"
#include "octgb/perf/stats.hpp"
#include "octgb/trace/trace.hpp"
#include "octgb/util/check.hpp"

namespace octgb::core {

namespace {

/// Ranks agree on an energy when its bits match: each holds the root's
/// broadcast value or folds the same stored tasks in the same order, and
/// a NaN energy (from overflowing charge products) must not read as a
/// disagreement.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The in-thread harness of run_hybrid and run_hybrid_elastic: runs
/// `rank_body` on every rank of an mpp::Runtime and fills what both
/// results report — per-rank work and traffic, the wall time, and the
/// energy and input-order radii of the first rank to finish, which every
/// other finished rank must match. Returns each rank's outcome, empty for
/// a rank a fault-plan kill ended.
template <class Result, class RankBody>
std::vector<std::optional<RankOutcome>> run_in_threads(
    const GBEngine& engine, const mpp::Runtime::Options& opts,
    Result& result, RankBody&& rank_body) {
  std::vector<std::optional<RankOutcome>> outcomes(opts.ranks);
  perf::Timer timer;
  // Each rank writes only its own slot; Runtime::run joins them all.
  result.comm_per_rank = mpp::Runtime::run(
      opts, [&](mpp::Comm& comm) { outcomes[comm.rank()] = rank_body(comm); });
  result.wall_seconds = timer.seconds();

  result.work_per_rank.resize(opts.ranks);
  const RankOutcome* first = nullptr;
  for (int r = 0; r < opts.ranks; ++r) {
    if (!outcomes[r]) continue;
    result.work_per_rank[r] = outcomes[r]->work;
    if (first == nullptr) first = &*outcomes[r];
    OCTGB_CHECK_MSG(same_bits(outcomes[r]->epol, first->epol),
                    "ranks disagree on the reduced energy");
  }
  OCTGB_CHECK_MSG(first != nullptr, "every rank died; nothing to recover");
  result.epol = first->epol;
  result.born = engine.born_to_input_order(first->born_tree);
  return outcomes;
}

}  // namespace

RankOutcome run_hybrid_rank(const GBEngine& engine,
                            const HybridConfig& config, mpp::Comm& comm) {
  OCTGB_CHECK_MSG(comm.size() == config.ranks,
                  "comm has " << comm.size() << " ranks, config wants "
                              << config.ranks);
  const int r = comm.rank();
  const auto n_nodes = engine.num_ta_nodes();
  const auto n_atoms = engine.num_atoms();
  const Division div = make_division(engine, config.ranks,
                                     HybridConfig::weighted_division);

  RankOutcome out;
  perf::WorkCounters& work = out.work;

  // Per-rank scheduler: OCT_MPI+CILK when p > 1.
  std::unique_ptr<ws::Scheduler> sched;
  if (config.threads_per_rank > 1)
    sched = std::make_unique<ws::Scheduler>(config.threads_per_rank);

  std::vector<double> node_s(n_nodes, 0.0);
  std::vector<double> atom_s(n_atoms, 0.0);
  std::vector<double> born_tree(n_atoms, 0.0);
  double epol_part = 0.0;

  auto step2 = [&] {
    engine.phase_integrals(div.q_segments[r], node_s, atom_s, work);
  };
  auto step4 = [&] {
    engine.phase_push(div.atom_segments[r], node_s, atom_s, born_tree,
                      work);
  };

  // Step 2 (node-based division of T_Q leaves).
  {
    OCTGB_SPAN("hybrid.integrals");
    if (sched)
      sched->run(step2);
    else
      step2();
  }

  // Step 3: gather everyone's partial integrals.
  {
    OCTGB_SPAN("hybrid.allreduce.integrals");
    comm.allreduce_sum(std::span<double>(node_s));
    comm.allreduce_sum(std::span<double>(atom_s));
  }

  // Step 4: Born radii for my atom segment.
  {
    OCTGB_SPAN("hybrid.push");
    if (sched)
      sched->run(step4);
    else
      step4();
  }

  // Step 5: exchange Born radii. Atom segments are contiguous in tree
  // order and rank-ordered, so the concatenation is the full array.
  {
    OCTGB_SPAN("hybrid.allgather.born");
    const auto seg = div.atom_segments[r];
    std::vector<double> all = comm.allgatherv(std::span<const double>(
        born_tree.data() + seg.begin, seg.size()));
    OCTGB_CHECK(all.size() == n_atoms);
    born_tree = std::move(all);
  }

  // Step 6: partial energy over my T_A leaf segment.
  {
    OCTGB_SPAN("hybrid.epol");
    const EpolContext ctx = engine.build_epol_context(born_tree);
    auto step6 = [&] {
      epol_part =
          engine.phase_epol(ctx, born_tree, div.a_leaf_segments[r], work);
    };
    if (sched)
      sched->run(step6);
    else
      step6();
  }

  // Step 7: total energy on every rank (Allreduce, as in Fig. 4 the
  // master accumulates; allreduce also covers the bcast the examples
  // want).
  {
    OCTGB_SPAN("hybrid.reduce.epol");
    out.epol = comm.allreduce_sum(epol_part);
  }

  if (sched) {
    const auto st = sched->stats();
    work.spawns += st.spawns;
    work.steals += st.steals;
  }
  out.born_tree = std::move(born_tree);
  return out;
}

HybridResult run_hybrid(const GBEngine& engine, const HybridConfig& config) {
  OCTGB_CHECK_MSG(config.ranks >= 1, "need at least one rank");
  OCTGB_CHECK_MSG(config.threads_per_rank >= 1, "need at least one thread");

  mpp::Runtime::Options opts;
  opts.ranks = config.ranks;
  opts.topology = config.topology;
  HybridResult result;
  run_in_threads(engine, opts, result, [&](mpp::Comm& comm) {
    return run_hybrid_rank(engine, config, comm);
  });
  for (const auto& w : result.work_per_rank) result.work_total += w;
  result.bytes_per_rank =
      replicated_rank_bytes(engine, config.threads_per_rank);
  return result;
}

namespace {

/// Phase names double as checkpoint-key prefixes.
constexpr const char* kPhaseNames[3] = {"integrals", "born", "epol"};

/// Tags for the done/release control exchange. Unique per (phase, attempt,
/// kind), so a message from an abandoned attempt can never be consumed by
/// a later one — it just sits in the mailbox, harmless. Stays below the
/// collective tag base for any sane attempt count.
int control_tag(int phase, int attempt, int kind) {
  return phase * 65536 + attempt * 2 + kind + 1;
}
static_assert(ElasticConfig::max_attempts <= 32768,
              "max_attempts would overflow the control-tag space");

}  // namespace

RankOutcome run_elastic_rank(const GBEngine& engine,
                             const ElasticConfig& config, mpp::Comm& comm,
                             CheckpointStore& store) {
  const HybridConfig& hc = config.hybrid;
  OCTGB_CHECK_MSG(comm.size() == hc.ranks,
                  "comm has " << comm.size() << " ranks, config wants "
                              << hc.ranks);
  const int P = hc.ranks;
  const int me = comm.rank();
  const auto n_nodes = engine.num_ta_nodes();
  const auto n_atoms = engine.num_atoms();
  // The FIXED task grid: the original P segments, identical to
  // run_hybrid's static division. Deaths never change task boundaries —
  // only who computes which task — which is what makes recovery
  // bit-identical.
  const Division div =
      make_division(engine, P, HybridConfig::weighted_division);

  RankOutcome out;
  perf::WorkCounters& work = out.work;

  std::unique_ptr<ws::Scheduler> sched;
  if (hc.threads_per_rank > 1)
    sched = std::make_unique<ws::Scheduler>(hc.threads_per_rank);
  auto run_sched = [&](const std::function<void()>& fn) {
    if (sched)
      sched->run(fn);
    else
      fn();
  };

  // Phase inputs, rebuilt identically on every rank from the store.
  std::vector<double> node_s, atom_s, born_tree;
  std::optional<EpolContext> epol_ctx;

  auto compute_task = [&](int phase, int t) {
    std::vector<double> data;
    switch (phase) {
      case 0: {
        std::vector<double> ns(n_nodes, 0.0), as(n_atoms, 0.0);
        run_sched(
            [&] { engine.phase_integrals(div.q_segments[t], ns, as, work); });
        data.reserve(n_nodes + n_atoms);
        data.insert(data.end(), ns.begin(), ns.end());
        data.insert(data.end(), as.begin(), as.end());
        break;
      }
      case 1: {
        std::vector<double> bt(n_atoms, 0.0);
        run_sched([&] {
          engine.phase_push(div.atom_segments[t], node_s, atom_s, bt, work);
        });
        const auto seg = div.atom_segments[t];
        data.assign(bt.begin() + seg.begin,
                    bt.begin() + seg.begin + seg.size());
        break;
      }
      default: {
        double part = 0.0;
        run_sched([&] {
          part = engine.phase_epol(*epol_ctx, born_tree,
                                   div.a_leaf_segments[t], work);
        });
        data.push_back(part);
        break;
      }
    }
    return data;
  };

  // Task t of `phase` as the store holds it: its payload when the entry
  // decodes and has the task's size, nothing otherwise. An absent entry
  // and a corrupt one are both missing, and the task is recomputed.
  auto stored_task = [&](int phase,
                         int t) -> std::optional<std::vector<double>> {
    auto c = store.get_checkpoint(kPhaseNames[phase],
                                  static_cast<std::uint64_t>(t));
    const std::size_t size = phase == 0   ? n_nodes + n_atoms
                             : phase == 1 ? div.atom_segments[t].size()
                                          : 1;
    if (!c || c->data.size() != size) return std::nullopt;
    return std::move(c->data);
  };

  auto missing_tasks = [&](int phase) {
    std::vector<int> missing;
    for (int t = 0; t < P; ++t)
      if (!stored_task(phase, t)) missing.push_back(t);
    return missing;
  };

  auto do_task = [&](int phase, int t) {
    // Fault point before the compute: keeps the heartbeat fresh and
    // gives scheduled stalls/kills a deterministic place to land even
    // when a phase completes without any control traffic.
    comm.poll();
    if (stored_task(phase, t)) return;
    // An entry that is present but unusable is lost work being redone.
    const bool corrupt = store.contains(CheckpointStore::key_of(
        kPhaseNames[phase], static_cast<std::uint64_t>(t)));
    SuperstepCheckpoint c;
    c.phase = kPhaseNames[phase];
    c.task = static_cast<std::uint64_t>(t);
    c.data = compute_task(phase, t);
    // A checkpoint never decodes a non-finite payload, so such a task
    // would read as missing and be recomputed forever: fail it here.
    for (std::size_t i = 0; i < c.data.size(); ++i)
      OCTGB_CHECK_MSG(std::isfinite(c.data[i]),
                      "elastic phase '" << kPhaseNames[phase] << "' task "
                                        << t << " has a non-finite result "
                                        << c.data[i] << " at entry " << i);
    store.put_checkpoint(c);
    ++out.tasks_computed;
    // Task t's original owner is rank t; doing someone else's task is
    // recovery (or duplicated) work.
    if (t != me || corrupt) ++out.tasks_recomputed;
  };

  // Drive one phase to durability. Correctness rests on the store alone:
  // the phase is complete exactly when all P task checkpoints exist.
  // Messages (done → coordinator, release → workers) are only a fast
  // path; any lost/corrupt/dead-peer control exchange degrades to
  // re-checking the store and re-dividing the missing tasks over the
  // ranks still alive.
  auto sync_phase = [&](int phase) {
    int attempt = 0;
    int last_epoch = comm.failure_epoch();
    for (;;) {
      OCTGB_CHECK_MSG(attempt < ElasticConfig::max_attempts,
                      "elastic phase '" << kPhaseNames[phase]
                                        << "' made no progress after "
                                        << attempt << " attempts");
      comm.poll();
      const auto alive = comm.alive_ranks();
      const int epoch = comm.failure_epoch();
      if (epoch != last_epoch) {
        trace::instant("recovery.replan");
        last_epoch = epoch;
      }
      int my_idx = 0;
      for (std::size_t i = 0; i < alive.size(); ++i)
        if (alive[i] == me) my_idx = static_cast<int>(i);
      auto missing = missing_tasks(phase);
      // Re-run the work division over the reduced rank set. A missing
      // task stays with its natural owner (rank == task index) while
      // that owner is alive — a slow rank is not a failed rank, and
      // stealing its work would waste compute and inflate the
      // recompute counter. Only orphaned tasks (owner dead) are
      // re-divided: the i-th orphan goes to the i-th (mod |alive|)
      // survivor.
      std::size_t orphan_idx = 0;
      for (int t : missing) {
        const bool owner_alive = comm.is_alive(t);
        if (owner_alive) {
          if (t == me) do_task(phase, t);
        } else {
          if (static_cast<int>(orphan_idx % alive.size()) == my_idx)
            do_task(phase, t);
          ++orphan_idx;
        }
      }
      if (missing_tasks(phase).empty()) break;
      const int coord = alive.front();
      if (me == coord) {
        // Collect done notices so we block-with-deadline instead of
        // spinning; outcome is advisory (the store is authoritative).
        for (int r : alive) {
          if (r == me || !comm.is_alive(r)) continue;
          (void)comm.recv_value_deadline<int>(
              r, control_tag(phase, attempt, 0),
              ElasticConfig::control_deadline_ms);
        }
        if (missing_tasks(phase).empty()) break;
      } else {
        comm.send_value(coord, control_tag(phase, attempt, 0), me);
        int token = 0;
        mpp::RetryPolicy policy;
        policy.attempts = 2;
        policy.deadline_ms = ElasticConfig::control_deadline_ms;
        auto res = comm.recv_bytes_retry(coord,
                                         control_tag(phase, attempt, 1),
                                         &token, sizeof(token), policy);
        if (!res) ++out.control_retries;
      }
      ++attempt;
    }
    // Fast-path wakeup for workers still blocked on this attempt's
    // release tag; purely opportunistic (mismatched attempts time out
    // and find the store complete).
    const auto alive = comm.alive_ranks();
    if (!alive.empty() && alive.front() == me)
      for (int r : alive)
        if (r != me) comm.send_value(r, control_tag(phase, attempt, 1), 0);
  };

  // Phase 1: approximate integrals over the fixed T_Q-leaf segments.
  {
    OCTGB_SPAN("elastic.integrals");
    sync_phase(0);
  }
  // Ordered combine (ascending task index) — every rank derives the
  // exact same node/atom sums regardless of who computed what.
  node_s.assign(n_nodes, 0.0);
  atom_s.assign(n_atoms, 0.0);
  for (int t = 0; t < P; ++t) {
    const auto data = stored_task(0, t);
    OCTGB_CHECK_MSG(data, "integrals checkpoint " << t << " lost or corrupt");
    for (std::size_t i = 0; i < n_nodes; ++i) node_s[i] += (*data)[i];
    for (std::size_t i = 0; i < n_atoms; ++i)
      atom_s[i] += (*data)[n_nodes + i];
  }

  // Phase 2: Born radii over the fixed atom segments.
  {
    OCTGB_SPAN("elastic.born");
    sync_phase(1);
  }
  born_tree.assign(n_atoms, 0.0);
  for (int t = 0; t < P; ++t) {
    const auto data = stored_task(1, t);
    OCTGB_CHECK_MSG(data, "born checkpoint " << t << " lost or corrupt");
    std::copy(data->begin(), data->end(),
              born_tree.begin() + div.atom_segments[t].begin);
  }

  // Phase 3: partial energies over the fixed T_A leaf segments.
  epol_ctx.emplace(engine.build_epol_context(born_tree));
  {
    OCTGB_SPAN("elastic.epol");
    sync_phase(2);
  }
  double epol = 0.0;
  for (int t = 0; t < P; ++t) {
    const auto data = stored_task(2, t);
    OCTGB_CHECK_MSG(data, "epol checkpoint " << t << " lost or corrupt");
    epol += (*data)[0];
  }

  if (sched) {
    const auto st = sched->stats();
    work.spawns += st.spawns;
    work.steals += st.steals;
  }
  out.control_retries += comm.retries();
  out.epol = epol;
  out.born_tree = std::move(born_tree);
  return out;
}

ElasticResult run_hybrid_elastic(const GBEngine& engine,
                                 const ElasticConfig& config) {
  const HybridConfig& hc = config.hybrid;
  OCTGB_CHECK_MSG(hc.ranks >= 1, "need at least one rank");
  OCTGB_CHECK_MSG(hc.threads_per_rank >= 1, "need at least one thread");

  // Simulated stable storage, shared by all ranks and surviving any of
  // them (it lives on the launching thread) — unless the caller supplied
  // real (file-backed) storage.
  CheckpointStore local_store;
  CheckpointStore& store =
      config.store != nullptr ? *config.store : local_store;

  ElasticResult result;
  mpp::Runtime::Options opts;
  opts.ranks = hc.ranks;
  opts.topology = hc.topology;
  opts.checksum = ElasticConfig::checksum;
  opts.fault_plan = config.fault_plan;
  opts.fault_stats_out = &result.faults;
  const auto outcomes =
      run_in_threads(engine, opts, result, [&](mpp::Comm& comm) {
        return run_elastic_rank(engine, config, comm, store);
      });
  for (int r = 0; r < hc.ranks; ++r) {
    if (!outcomes[r]) {
      result.dead_ranks.push_back(r);
      continue;
    }
    ++result.ranks_completed;
    result.tasks_computed += outcomes[r]->tasks_computed;
    result.tasks_recomputed += outcomes[r]->tasks_recomputed;
    result.control_retries += outcomes[r]->control_retries;
  }
  result.checkpoint_puts = store.puts();
  if (trace::enabled()) {
    trace::counter("recovery.tasks_recomputed",
                   static_cast<double>(result.tasks_recomputed));
    trace::counter("recovery.dead_ranks",
                   static_cast<double>(result.dead_ranks.size()));
  }
  return result;
}

}  // namespace octgb::core
