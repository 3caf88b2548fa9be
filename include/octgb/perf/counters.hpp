#pragma once
/// \file counters.hpp
/// Deterministic work counters.
///
/// This reproduction cannot run on the paper's 36-node cluster, so cluster
/// wall-clock is modeled rather than timed. Every kernel counts the
/// operations it performs — exact pair interactions, node-level
/// pseudo-interactions, tree-node visits — per rank and per worker.
/// perf::machine (machine_model.hpp) converts these measured counts into
/// modeled time on the paper's hardware. Counts are exact and reproducible,
/// so "who wins and by what factor" is driven entirely by real algorithmic
/// behaviour. (Host-side per-phase wall time *is* observable: enable the
/// span recorder in octgb/trace/trace.hpp — see OBSERVABILITY.md.)

#include <cstddef>
#include <cstdint>

/// Measurement: deterministic operation counters, run statistics, and
/// the Table I machine model that converts counts into modeled time.
namespace octgb::perf {

/// Operation counts for one run segment (one rank, or one whole run).
///
/// Adding a field? Update operator+=, bump kFieldCount (the static_assert
/// below and PerfTest.CountersSumCoversEveryField enforce both), and give
/// it a name in trace::MetricsRegistry::add_work if it should be exported.
struct WorkCounters {
  // Born-radii phase (APPROX-INTEGRALS)
  std::uint64_t born_exact = 0;      ///< exact atom×q-point interactions
  std::uint64_t born_approx = 0;     ///< node-level pseudo interactions
  std::uint64_t born_visits = 0;     ///< atoms-octree nodes visited
  // PUSH-INTEGRALS-TO-ATOMS
  std::uint64_t push_visits = 0;     ///< nodes visited in the prefix pass
  std::uint64_t push_atoms = 0;      ///< atoms finalized
  // Epol phase (APPROX-EPOL)
  std::uint64_t epol_exact = 0;      ///< exact atom×atom GB pair terms
  std::uint64_t epol_bins = 0;       ///< bin-pair pseudo interactions
  std::uint64_t epol_visits = 0;     ///< octree nodes visited
  // Baseline engines
  std::uint64_t pairlist_pairs = 0;  ///< nblist pair evaluations
  std::uint64_t grid_cells = 0;      ///< GBr6 volume-grid cell evaluations
  // Scheduler
  std::uint64_t spawns = 0;          ///< tasks spawned (ws::Scheduler)
  std::uint64_t steals = 0;          ///< successful steals (ws::Scheduler)

  /// Number of uint64 count fields above. Guards field-coverage: the
  /// static_assert below fails compilation when a field is added without
  /// updating this, and the perf_test sum test fails when operator+= or
  /// the MetricsRegistry export misses one.
  static constexpr std::size_t kFieldCount = 12;

  /// Field-wise accumulation (per-rank counters into run totals).
  WorkCounters& operator+=(const WorkCounters& o) {
    born_exact += o.born_exact;
    born_approx += o.born_approx;
    born_visits += o.born_visits;
    push_visits += o.push_visits;
    push_atoms += o.push_atoms;
    epol_exact += o.epol_exact;
    epol_bins += o.epol_bins;
    epol_visits += o.epol_visits;
    pairlist_pairs += o.pairlist_pairs;
    grid_cells += o.grid_cells;
    spawns += o.spawns;
    steals += o.steals;
    return *this;
  }

  /// Total "interaction-equivalent" operations (for quick logging).
  ///
  /// Deliberately sums only the six *interaction* counters — born_exact,
  /// born_approx, epol_exact, epol_bins, pairlist_pairs, grid_cells —
  /// i.e. the O(pairs) inner-loop evaluations whose per-op cost is
  /// comparable. The other six fields are excluded on purpose:
  ///  - born_visits / push_visits / epol_visits count tree-node
  ///    *traversal* steps (MAC tests, prefix accumulation), orders of
  ///    magnitude cheaper than a pair evaluation and priced separately by
  ///    machine::compute_seconds;
  ///  - push_atoms counts per-atom finalizations (O(N), not O(pairs));
  ///  - spawns / steals are scheduler bookkeeping, not numerical work —
  ///    they feed the model's parallel-overhead term instead.
  /// Folding any of these in would let a traversal-heavy configuration
  /// look as "busy" as a pair-heavy one and skew quick comparisons.
  std::uint64_t total_interactions() const {
    return born_exact + born_approx + epol_exact + epol_bins +
           pairlist_pairs + grid_cells;
  }
};

// Every field is a uint64 count; when this stops holding (someone added a
// non-count member or forgot to bump kFieldCount) the arithmetic in
// operator+= and the field-coverage test stop being trustworthy.
static_assert(sizeof(WorkCounters) ==
                  WorkCounters::kFieldCount * sizeof(std::uint64_t),
              "WorkCounters field added: update kFieldCount, operator+=, "
              "and trace::MetricsRegistry::add_work");

/// Interaction-plan cache statistics (core/plan.hpp). Counts the
/// plan/execute decisions an evaluation stream made: how often the cached
/// plan's key matched, why it was invalidated when it did not, and which
/// execution tier ran (flat-list replay vs Born-result reuse). Exported
/// under the `plan.*` metric names by trace::MetricsRegistry::add_plan
/// (schema in OBSERVABILITY.md).
struct PlanCounters {
  std::uint64_t builds = 0;       ///< plan captures (decision walks)
  std::uint64_t replays = 0;      ///< cached-plan replays (not a build's own)
  std::uint64_t born_reuses = 0;  ///< Born phase skipped (cached radii valid)
  std::uint64_t key_hits = 0;     ///< evaluations whose plan key matched
  std::uint64_t key_misses = 0;   ///< evaluations that needed a new key
  std::uint64_t invalidated_topology = 0;  ///< rebuild/engine-change misses
  std::uint64_t invalidated_params = 0;    ///< eps_born/criterion misses
  std::uint64_t invalidated_drift = 0;     ///< refit drift failed validation
  std::uint64_t validations = 0;  ///< far-list admissibility re-checks run

  /// Field count guard, mirroring WorkCounters.
  static constexpr std::size_t kFieldCount = 9;

  /// Field-wise accumulation (per-session counters into run totals).
  PlanCounters& operator+=(const PlanCounters& o) {
    builds += o.builds;
    replays += o.replays;
    born_reuses += o.born_reuses;
    key_hits += o.key_hits;
    key_misses += o.key_misses;
    invalidated_topology += o.invalidated_topology;
    invalidated_params += o.invalidated_params;
    invalidated_drift += o.invalidated_drift;
    validations += o.validations;
    return *this;
  }
};

static_assert(sizeof(PlanCounters) ==
                  PlanCounters::kFieldCount * sizeof(std::uint64_t),
              "PlanCounters field added: update kFieldCount, operator+=, "
              "and trace::MetricsRegistry::add_plan");

/// Locality-aware plan-execution statistics (core/plan.hpp run coalescing,
/// DESIGN.md §2.11). Counts what the
/// locality-aware finalize carved and what the replay loops did with it;
/// exported under the `plan.locality.*` metric names by
/// trace::MetricsRegistry::add_locality (schema in OBSERVABILITY.md).
struct LocalityCounters {
  std::uint64_t runs = 0;          ///< streaming runs formed by finalize
  std::uint64_t run_owners = 0;    ///< owner groups covered by those runs
  std::uint64_t chunks = 0;        ///< chunks carved along run boundaries
  std::uint64_t prefetch_batches = 0; ///< next-run prefetch batches issued

  /// Field count guard, mirroring WorkCounters.
  static constexpr std::size_t kFieldCount = 4;

  /// Field-wise accumulation (per-plan counters into run totals).
  LocalityCounters& operator+=(const LocalityCounters& o) {
    runs += o.runs;
    run_owners += o.run_owners;
    chunks += o.chunks;
    prefetch_batches += o.prefetch_batches;
    return *this;
  }

  /// Mean owners per run of the carvings counted so far (0 when none).
  double mean_run_length() const {
    return runs ? static_cast<double>(run_owners) / static_cast<double>(runs)
                : 0.0;
  }
};

static_assert(sizeof(LocalityCounters) ==
                  LocalityCounters::kFieldCount * sizeof(std::uint64_t),
              "LocalityCounters field added: update kFieldCount, operator+=, "
              "and trace::MetricsRegistry::add_locality");

/// Multi-tenant scoring-service statistics (octgb/svc/service.hpp). Counts
/// the admission, cache, and execution outcomes of a service's lifetime;
/// exported under the `svc.*` metric names by
/// trace::MetricsRegistry::add_svc (schema in OBSERVABILITY.md, operator
/// handbook in docs/SERVICE.md).
struct ServiceCounters {
  std::uint64_t submitted = 0;       ///< jobs offered to submit()
  std::uint64_t completed = 0;       ///< jobs finished (result delivered)
  std::uint64_t rejected_tenant_queue_full = 0;  ///< per-tenant bound hit
  std::uint64_t rejected_queue_full = 0;         ///< global bound hit
  std::uint64_t rejected_too_large = 0;          ///< molecule over max_atoms
  std::uint64_t rejected_shutting_down = 0;      ///< submitted past stop()
  std::uint64_t preprocessed = 0;    ///< artifact builds (cache misses)
  std::uint64_t evaluations = 0;     ///< single-energy evaluations executed
  std::uint64_t poses_scored = 0;    ///< poses scored by screen jobs
  std::uint64_t cache_hits = 0;      ///< submissions served by a warm artifact
  std::uint64_t cache_misses = 0;    ///< submissions that built their artifact
  std::uint64_t cache_evictions = 0; ///< artifacts evicted by the byte budget

  /// Field count guard, mirroring WorkCounters.
  static constexpr std::size_t kFieldCount = 12;

  /// Total submissions turned away, over every rejection reason.
  std::uint64_t rejected_total() const {
    return rejected_tenant_queue_full + rejected_queue_full +
           rejected_too_large + rejected_shutting_down;
  }

  /// Field-wise accumulation (per-service counters into fleet totals).
  ServiceCounters& operator+=(const ServiceCounters& o) {
    submitted += o.submitted;
    completed += o.completed;
    rejected_tenant_queue_full += o.rejected_tenant_queue_full;
    rejected_queue_full += o.rejected_queue_full;
    rejected_too_large += o.rejected_too_large;
    rejected_shutting_down += o.rejected_shutting_down;
    preprocessed += o.preprocessed;
    evaluations += o.evaluations;
    poses_scored += o.poses_scored;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    cache_evictions += o.cache_evictions;
    return *this;
  }
};

static_assert(sizeof(ServiceCounters) ==
                  ServiceCounters::kFieldCount * sizeof(std::uint64_t),
              "ServiceCounters field added: update kFieldCount, operator+=, "
              "and trace::MetricsRegistry::add_svc");

/// Octree construction statistics (octree/octree.cpp). Each Octree carries
/// its own instance (Octree::build_stats()) so concurrent service builds
/// never share a counter; benches accumulate them into run totals. All
/// counts are deterministic functions of the input and the BuildParams —
/// octree_equiv_test asserts a cold build's counts on either side of the
/// parallel-sort threshold.
/// Exported under the `tree.build.*` metric names by
/// trace::MetricsRegistry::add_tree_build (schema in OBSERVABILITY.md).
struct TreeBuildCounters {
  std::uint64_t morton_builds = 0;  ///< sort-based linear-octree builds
  std::uint64_t points_sorted = 0;  ///< (key, id) pairs sorted
  std::uint64_t sort_passes = 0;    ///< radix permute passes (serial path)
  std::uint64_t nodes_emitted = 0;  ///< nodes written (all builds)
  std::uint64_t leaves_emitted = 0; ///< leaves among nodes_emitted

  /// Field count guard, mirroring WorkCounters.
  static constexpr std::size_t kFieldCount = 5;

  /// Field-wise accumulation (per-tree counters into run totals).
  TreeBuildCounters& operator+=(const TreeBuildCounters& o) {
    morton_builds += o.morton_builds;
    points_sorted += o.points_sorted;
    sort_passes += o.sort_passes;
    nodes_emitted += o.nodes_emitted;
    leaves_emitted += o.leaves_emitted;
    return *this;
  }
};

static_assert(sizeof(TreeBuildCounters) ==
                  TreeBuildCounters::kFieldCount * sizeof(std::uint64_t),
              "TreeBuildCounters field added: update kFieldCount, "
              "operator+=, and trace::MetricsRegistry::add_tree_build");

}  // namespace octgb::perf
