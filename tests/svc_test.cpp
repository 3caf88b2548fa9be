// Multi-tenant scoring service tests (octgb/svc/): digest keying,
// artifact-cache LRU + build coalescing, disjoint core placement,
// start-time fair queuing, and the end-to-end ScoringService — including
// the §2.8 invariant that a cache-hit evaluation is bit-identical to the
// cache-miss evaluation of the same digest.
//
// Suite names all start with "Svc" so the thread-sanitizer CI leg's name
// regex picks them up; SvcConcurrency.* are the tests that matter there.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "octgb/mol/generate.hpp"
#include "octgb/surface/surface.hpp"
#include "octgb/svc/admission.hpp"
#include "octgb/svc/cache.hpp"
#include "octgb/svc/digest.hpp"
#include "octgb/svc/placement.hpp"
#include "octgb/svc/service.hpp"
#include "octgb/trace/metrics.hpp"
#include "octgb/ws/scheduler.hpp"

using namespace octgb;
using svc::Digest;

namespace {

mol::Molecule small_protein(std::uint64_t seed, std::size_t atoms = 220) {
  return mol::generate_protein({.target_atoms = atoms, .seed = seed});
}

svc::JobRequest make_request(std::uint64_t seed, std::size_t atoms = 220) {
  svc::JobRequest req;
  req.molecule = small_protein(seed, atoms);
  req.surface.subdivision = 1;
  return req;
}

}  // namespace

// ---------------------------------------------------------------------------
// Digest keying
// ---------------------------------------------------------------------------

TEST(SvcDigest, DeterministicAcrossCalls) {
  const auto mol = small_protein(7);
  surface::SurfaceParams sp;
  core::EngineConfig cfg;
  const Digest a = svc::digest_job_inputs(mol, sp, cfg);
  const Digest b = svc::digest_job_inputs(mol, sp, cfg);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hex(), b.hex());
  EXPECT_EQ(a.hex().size(), 32u);
}

// A fixed input's key, pinned: a change that moves it would orphan every
// warm artifact, so digest refactors must keep it.
TEST(SvcDigest, GoldenKeyForAFixedGeneratedMolecule) {
  const Digest d = svc::digest_job_inputs(
      small_protein(7), surface::SurfaceParams{}, core::EngineConfig{});
  EXPECT_EQ(d.hex(), "2bd7dbd6a4fcf5ceea3ebf3cc3180469");
}

// Every knob that shapes trees, partition, or arithmetic must move the
// digest; the full variant set must be pairwise collision-free.
TEST(SvcDigest, CollisionFreeAcrossParameterAxes) {
  const auto mol = small_protein(7);
  surface::SurfaceParams sp;
  core::EngineConfig cfg;

  std::vector<Digest> digests;
  digests.push_back(svc::digest_job_inputs(mol, sp, cfg));

  {  // molecule content: a different molecule entirely
    digests.push_back(svc::digest_job_inputs(small_protein(8), sp, cfg));
  }
  {  // molecule content: one coordinate nudged by 1 ulp-scale amount
    auto m2 = mol;
    m2.atoms()[0].pos.x += 1e-9;
    digests.push_back(svc::digest_job_inputs(m2, sp, cfg));
  }
  {  // surface sampling
    auto s2 = sp;
    s2.subdivision += 1;
    digests.push_back(svc::digest_job_inputs(mol, s2, cfg));
    auto s3 = sp;
    s3.quad_degree += 1;
    digests.push_back(svc::digest_job_inputs(mol, s3, cfg));
    auto s4 = sp;
    s4.burial_scale *= 1.25;
    digests.push_back(svc::digest_job_inputs(mol, s4, cfg));
  }
  {  // tree topology
    auto c2 = cfg;
    c2.atoms_tree_params.max_leaf_size = 16;
    digests.push_back(svc::digest_job_inputs(mol, sp, c2));
    auto c3 = cfg;
    c3.qpoints_tree_params.max_leaf_size = 16;
    digests.push_back(svc::digest_job_inputs(mol, sp, c3));
  }
  {  // partition ε and criterion
    auto c2 = cfg;
    c2.approx.eps_born = 0.5;
    digests.push_back(svc::digest_job_inputs(mol, sp, c2));
    auto c3 = cfg;
    c3.approx.strict_born_criterion = true;
    digests.push_back(svc::digest_job_inputs(mol, sp, c3));
  }
  {  // arithmetic: fastmath / vector ISA
    auto c2 = cfg;
    c2.approx.approx_math = true;
    digests.push_back(svc::digest_job_inputs(mol, sp, c2));
    auto c3 = cfg;
    c3.approx.vector.isa = simd::VectorIsa::V128;
    digests.push_back(svc::digest_job_inputs(mol, sp, c3));
    auto c4 = cfg;
    c4.approx.vector.isa = simd::VectorIsa::Scalar;
    digests.push_back(svc::digest_job_inputs(mol, sp, c4));
  }

  std::set<Digest> unique(digests.begin(), digests.end());
  EXPECT_EQ(unique.size(), digests.size())
      << "two distinct parameterizations collided";
}

// eps_epol and GBParams are warm re-dials on a shared artifact — they must
// NOT key the cache, or ε-sweeps would rebuild trees per point.
TEST(SvcDigest, WarmRedialKnobsDoNotChangeTheKey) {
  const auto mol = small_protein(7);
  surface::SurfaceParams sp;
  core::EngineConfig cfg;
  const Digest base = svc::digest_job_inputs(mol, sp, cfg);

  auto c2 = cfg;
  c2.approx.eps_epol = 0.05;
  EXPECT_EQ(svc::digest_job_inputs(mol, sp, c2), base);

  auto c3 = cfg;
  c3.gb.eps_solv = 40.0;
  EXPECT_EQ(svc::digest_job_inputs(mol, sp, c3), base);
}

// ---------------------------------------------------------------------------
// Artifact cache
// ---------------------------------------------------------------------------

namespace {

/// Tiny real artifact for cache tests (build cost matters in the
/// concurrency tests, so keep it small).
svc::ArtifactBuilder session_builder(const mol::Molecule& mol) {
  return [mol]() {
    auto surf = surface::build_surface(mol, {.subdivision = 0});
    return std::make_unique<core::ScoringSession>(
        mol, surf, core::EngineConfig{},
        surface::SurfaceParams{.subdivision = 0});
  };
}

/// The cache key of the artifact session_builder(mol) builds.
Digest session_key(const mol::Molecule& mol) {
  return svc::digest_job_inputs(mol, surface::SurfaceParams{.subdivision = 0},
                                core::EngineConfig{});
}

}  // namespace

TEST(SvcCache, HitSkipsTheBuilder) {
  svc::ArtifactCache cache(std::size_t{1} << 30);
  const auto mol = small_protein(3, 120);
  const Digest d = session_key(mol);

  int builds = 0;
  auto counting = [&]() {
    ++builds;
    return session_builder(mol)();
  };

  bool hit = true;
  auto a = cache.acquire(d, counting, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(builds, 1);
  ASSERT_NE(a, nullptr);
  EXPECT_GT(a->bytes, 0u);

  auto b = cache.acquire(d, counting, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(builds, 1) << "hit must not rebuild";
  EXPECT_EQ(a.get(), b.get()) << "hit must share the same artifact";

  const auto st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_EQ(st.bytes, a->bytes);
}

TEST(SvcCache, LruEvictsUnderByteBudget) {
  // Budget sized for ~2 small artifacts: inserting a third evicts the
  // least recently used.
  const auto m1 = small_protein(11, 120);
  const auto m2 = small_protein(12, 120);
  const auto m3 = small_protein(13, 120);
  const Digest d1 = session_key(m1);
  const Digest d2 = session_key(m2);
  const Digest d3 = session_key(m3);

  // Measure one artifact to size the budget.
  std::size_t one = 0;
  {
    svc::ArtifactCache probe(std::size_t{1} << 30);
    one = probe.acquire(d1, session_builder(m1))->bytes;
  }
  ASSERT_GT(one, 0u);

  svc::ArtifactCache cache(2 * one + one / 2);
  cache.acquire(d1, session_builder(m1));
  cache.acquire(d2, session_builder(m2));
  EXPECT_TRUE(cache.contains(d1));
  EXPECT_TRUE(cache.contains(d2));

  // Touch d1 so d2 becomes the LRU victim.
  cache.acquire(d1, session_builder(m1));
  cache.acquire(d3, session_builder(m3));

  EXPECT_TRUE(cache.contains(d3));
  EXPECT_TRUE(cache.contains(d1)) << "recently used entry must survive";
  EXPECT_FALSE(cache.contains(d2)) << "LRU entry must be evicted";
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().bytes, cache.budget_bytes());
}

TEST(SvcCache, MruSurvivesEvenAZeroBudget) {
  const auto mol = small_protein(5, 120);
  const Digest d = session_key(mol);
  svc::ArtifactCache cache(0);
  cache.acquire(d, session_builder(mol));
  EXPECT_TRUE(cache.contains(d))
      << "budget is a high-water target; the MRU entry is exempt";
  bool hit = false;
  cache.acquire(d, session_builder(mol), &hit);
  EXPECT_TRUE(hit);
}

TEST(SvcCache, InFlightHandleSurvivesEviction) {
  const auto m1 = small_protein(21, 120);
  const auto m2 = small_protein(22, 120);
  svc::ArtifactCache cache(0);  // single-entry: every insert evicts the rest
  auto held = cache.acquire(session_key(m1), session_builder(m1));
  cache.acquire(session_key(m2), session_builder(m2));
  EXPECT_FALSE(cache.contains(session_key(m1)));
  // The evicted artifact stays alive and usable through the shared handle.
  ASSERT_NE(held->session, nullptr);
  EXPECT_GT(held->session->molecule().size(), 0u);
}

TEST(SvcCache, FailedBuildPropagatesAndRetries) {
  svc::ArtifactCache cache(std::size_t{1} << 30);
  const auto mol = small_protein(6, 120);
  const Digest d = session_key(mol);
  EXPECT_THROW(
      cache.acquire(d, []() -> std::unique_ptr<core::ScoringSession> {
        throw std::runtime_error("injected build failure");
      }),
      std::runtime_error);
  // The failure is not cached: a later acquire rebuilds successfully.
  bool hit = true;
  auto a = cache.acquire(d, session_builder(mol), &hit);
  EXPECT_FALSE(hit);
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(cache.contains(d));
}

TEST(SvcCache, ColdBuildRunsUnderOneInlineWorker) {
  // The factory runs before its job leases cores, so self-parallel library
  // calls inside it must see a 1-worker ambient scheduler, never start a
  // private pool of their own.
  svc::ArtifactCache cache(std::size_t{1} << 30);
  const auto mol = small_protein(8, 120);
  int ambient_workers = 0;
  cache.acquire(session_key(mol), [&] {
    const ws::Scheduler* s = ws::Scheduler::current();
    ambient_workers = s ? s->num_workers() : 0;
    return session_builder(mol)();
  });
  EXPECT_EQ(ambient_workers, 1);
  EXPECT_EQ(ws::Scheduler::current(), nullptr);
}

// ---------------------------------------------------------------------------
// Core placement
// ---------------------------------------------------------------------------

TEST(SvcPlacement, LeasesAreDisjointAndContiguous) {
  svc::CoreAllocator alloc(8);
  auto a = alloc.try_alloc(3);
  auto b = alloc.try_alloc(3);
  auto c = alloc.try_alloc(2);
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(alloc.in_use(), 8);
  // Disjointness: no core belongs to two leases.
  std::vector<int> owner(8, -1);
  int id = 0;
  for (const auto& l : {*a, *b, *c}) {
    for (int core = l.first; core < l.first + l.count; ++core) {
      ASSERT_GE(core, 0);
      ASSERT_LT(core, 8);
      EXPECT_EQ(owner[core], -1) << "core " << core << " double-allocated";
      owner[core] = id;
    }
    ++id;
  }
  // Full machine: the next request must fail, and succeed after a release.
  EXPECT_FALSE(alloc.try_alloc(1).has_value());
  alloc.release(*b);
  EXPECT_EQ(alloc.in_use(), 5);
  auto d = alloc.try_alloc(3);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->first, b->first) << "first-fit reuses the freed range";
}

TEST(SvcPlacement, AllocBlocksUntilCapacityFrees) {
  svc::CoreAllocator alloc(4);
  auto hold = alloc.alloc(4);
  std::atomic<bool> got{false};
  std::thread waiter([&] {
    svc::CoreLease l = alloc.alloc(2);  // must wait for the release below
    got.store(true);
    alloc.release(l);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load()) << "alloc must block while the machine is full";
  alloc.release(hold);
  waiter.join();
  EXPECT_TRUE(got.load());
  EXPECT_GE(alloc.waits(), 1u);
  EXPECT_EQ(alloc.in_use(), 0);
}

TEST(SvcPlacement, ProportionalSplitMatchesSetDiscipline) {
  // SET-style: cores proportional to work, every nonzero child ≥ 1, exact
  // total.
  const std::uint64_t ops[] = {600, 300, 100};
  auto split = svc::CoreAllocator::proportional_split(ops, 10);
  ASSERT_EQ(split.size(), 3u);
  EXPECT_EQ(split[0] + split[1] + split[2], 10);
  EXPECT_EQ(split[0], 6);
  EXPECT_EQ(split[1], 3);
  EXPECT_EQ(split[2], 1);

  // A tiny child still gets one core when cores >= children.
  const std::uint64_t skew[] = {10'000, 1, 1};
  auto s2 = svc::CoreAllocator::proportional_split(skew, 4);
  EXPECT_EQ(s2[0] + s2[1] + s2[2], 4);
  EXPECT_GE(s2[1], 1);
  EXPECT_GE(s2[2], 1);
}

// ---------------------------------------------------------------------------
// Fair queues and admission
// ---------------------------------------------------------------------------

TEST(SvcAdmission, BoundsRejectWithReason) {
  svc::AdmissionConfig adm;
  adm.max_total_queued = 4;
  adm.default_tenant.max_queued = 2;
  svc::FairQueues q;

  EXPECT_EQ(q.push("a", 1, adm), svc::RejectReason::None);
  EXPECT_EQ(q.push("a", 2, adm), svc::RejectReason::None);
  EXPECT_EQ(q.push("a", 3, adm), svc::RejectReason::TenantQueueFull);
  EXPECT_EQ(q.push("b", 4, adm), svc::RejectReason::None);
  EXPECT_EQ(q.push("c", 5, adm), svc::RejectReason::None);
  EXPECT_EQ(q.push("d", 6, adm), svc::RejectReason::QueueFull);
  EXPECT_EQ(q.total_queued(), 4u);
  EXPECT_EQ(q.queued("a"), 2u);
}

// The starvation bound: a tenant arriving behind a flood is served after
// at most a couple of the flooder's jobs, not after the whole backlog.
TEST(SvcFairShare, LateTenantIsNotStarvedByAFlood) {
  svc::AdmissionConfig adm;
  adm.max_total_queued = 256;
  adm.default_tenant.max_queued = 128;
  svc::FairQueues q;

  for (std::uint64_t i = 0; i < 64; ++i)
    ASSERT_EQ(q.push("flood", i, adm), svc::RejectReason::None);

  // Serve two flood jobs (unit cost each), then the late tenant arrives.
  std::uint64_t id;
  std::string tenant;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(q.pop(&id, &tenant));
    q.charge(tenant, 1.0);
  }
  ASSERT_EQ(q.push("late", 1000, adm), svc::RejectReason::None);

  int pops_until_late = 0;
  while (q.pop(&id, &tenant)) {
    ++pops_until_late;
    q.charge(tenant, 1.0);
    if (tenant == "late") break;
  }
  EXPECT_LE(pops_until_late, 2)
      << "late tenant waited behind " << pops_until_late - 1
      << " flood jobs; fair queuing bounds this to the inflight window";
}

TEST(SvcFairShare, ServiceProportionalToWeight) {
  svc::AdmissionConfig adm;
  adm.max_total_queued = 1024;
  adm.default_tenant.max_queued = 512;
  svc::FairQueues q;
  q.configure("heavy", {.weight = 3.0, .max_queued = 512});
  q.configure("light", {.weight = 1.0, .max_queued = 512});
  for (std::uint64_t i = 0; i < 200; ++i) {
    ASSERT_EQ(q.push("heavy", i, adm), svc::RejectReason::None);
    ASSERT_EQ(q.push("light", 1000 + i, adm), svc::RejectReason::None);
  }
  int heavy_served = 0, light_served = 0;
  std::uint64_t id;
  std::string tenant;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(q.pop(&id, &tenant));
    q.charge(tenant, 1.0);  // unit cost per job
    (tenant == "heavy" ? heavy_served : light_served)++;
  }
  // Expect ~3:1 (75 vs 25) with slack for startup transients.
  EXPECT_GE(heavy_served, 65);
  EXPECT_LE(light_served, 35);
  EXPECT_GE(light_served, 15) << "light tenant must still make progress";
}

// ---------------------------------------------------------------------------
// ServiceCounters arithmetic (perf schema contract)
// ---------------------------------------------------------------------------

TEST(SvcCounters, SumCoversEveryField) {
  perf::ServiceCounters a, b;
  // Stamp every field with a distinct value via the byte view the
  // static_assert in counters.hpp guarantees is exhaustive.
  auto* pa = reinterpret_cast<std::uint64_t*>(&a);
  auto* pb = reinterpret_cast<std::uint64_t*>(&b);
  for (std::size_t i = 0; i < perf::ServiceCounters::kFieldCount; ++i) {
    pa[i] = i + 1;
    pb[i] = 10 * (i + 1);
  }
  a += b;
  for (std::size_t i = 0; i < perf::ServiceCounters::kFieldCount; ++i)
    EXPECT_EQ(pa[i], 11 * (i + 1)) << "field " << i << " not summed";
  EXPECT_EQ(a.rejected_total(), a.rejected_tenant_queue_full +
                                    a.rejected_queue_full +
                                    a.rejected_too_large +
                                    a.rejected_shutting_down);
}

TEST(SvcCounters, MetricsExportMatchesSchema) {
  perf::ServiceCounters c;
  c.submitted = 5;
  c.completed = 4;
  c.rejected_queue_full = 1;
  c.cache_hits = 3;
  trace::MetricsRegistry m;
  m.add_svc("", c);
  EXPECT_EQ(m.get_int("svc.submitted"), 5u);
  EXPECT_EQ(m.get_int("svc.completed"), 4u);
  EXPECT_EQ(m.get_int("svc.rejected.queue_full"), 1u);
  EXPECT_EQ(m.get_int("svc.cache.hits"), 3u);
}

// ---------------------------------------------------------------------------
// End-to-end service
// ---------------------------------------------------------------------------

namespace {

svc::ServiceConfig small_service_config() {
  svc::ServiceConfig cfg;
  cfg.cores = 4;
  cfg.executors = 2;
  cfg.max_job_cores = 2;
  cfg.atoms_per_core = 200;
  return cfg;
}

}  // namespace

TEST(SvcService, WarmSubmissionSkipsPreprocessingAndIsBitIdentical) {
  svc::ScoringService service(small_service_config());

  auto cold = service.submit(make_request(31));
  ASSERT_TRUE(cold.accepted());
  const svc::JobResult cold_r = cold.result();
  EXPECT_FALSE(cold_r.cache_hit);

  auto warm = service.submit(make_request(31));
  ASSERT_TRUE(warm.accepted());
  const svc::JobResult warm_r = warm.result();
  EXPECT_TRUE(warm_r.cache_hit);
  EXPECT_EQ(warm_r.digest, cold_r.digest);

  // §2.8: bit-identical, not approximately equal.
  EXPECT_EQ(warm_r.epol, cold_r.epol);

  const auto c = service.counters();
  EXPECT_EQ(c.preprocessed, 1u) << "warm submission must not preprocess";
  EXPECT_EQ(c.cache_hits, 1u);
  EXPECT_EQ(c.cache_misses, 1u);
  EXPECT_EQ(c.completed, 2u);
}

// The cache-hit path must also be bit-identical to a *standalone* session
// evaluated at the service's width — the cache changes where the warm
// state lives, never what it computes. Degenerate molecules (one atom,
// two coincident atoms, every charge zero) take the same path.
TEST(SvcService, CacheHitMatchesStandaloneSessionBits) {
  std::vector<std::pair<std::string, svc::JobRequest>> inputs;
  inputs.emplace_back("protein", make_request(37));
  {
    svc::JobRequest one = make_request(37);
    one.molecule = mol::Molecule("one atom");
    one.molecule.add_atom(
        {.pos = {1.0, -2.0, 0.5}, .radius = 1.7, .charge = -0.6});
    inputs.emplace_back("one atom", std::move(one));
  }
  {
    svc::JobRequest twin = make_request(37);
    twin.molecule = mol::Molecule("coincident");
    twin.molecule.add_atom(
        {.pos = {0.3, 0.3, 0.3}, .radius = 1.6, .charge = 0.4});
    twin.molecule.add_atom(
        {.pos = {0.3, 0.3, 0.3}, .radius = 1.6, .charge = -0.9});
    inputs.emplace_back("coincident atoms", std::move(twin));
  }
  {
    svc::JobRequest neutral = make_request(38);
    for (auto& atom : neutral.molecule.atoms()) atom.charge = 0.0;
    inputs.emplace_back("zero-charge protein", std::move(neutral));
  }
  const auto cfg = small_service_config();

  for (const auto& [name, req] : inputs) {
    double standalone = 0.0;
    {
      auto surf = surface::build_surface(req.molecule, req.surface);
      core::ScoringSession session(req.molecule, surf, req.config,
                                   req.surface);
      svc::ScoringService probe(cfg);  // width_for only; no jobs run
      ws::Scheduler sched(probe.width_for(req.molecule.size()));
      standalone = session.evaluate_at(req.config.approx, &sched).epol;
    }
    EXPECT_TRUE(std::isfinite(standalone)) << name;

    // `b` goes in only after `a` has finished: submitted back to back,
    // either job's executor could reach the artifact cache first, so `b`
    // could be the build and `a` the hit.
    svc::ScoringService service(cfg);
    auto a = service.submit(req);
    EXPECT_EQ(a.result().epol, standalone) << name;
    auto b = service.submit(req);
    EXPECT_EQ(b.result().epol, standalone) << name;
    EXPECT_TRUE(b.result().cache_hit) << name;
    EXPECT_EQ(service.counters().preprocessed, 1u) << name;
  }
}

TEST(SvcService, EpsilonRedialSharesOneArtifact) {
  svc::ScoringService service(small_service_config());
  std::vector<svc::JobTicket> tickets;
  for (double eps : {0.9, 0.5, 0.2}) {
    auto req = make_request(41);
    req.config.approx.eps_epol = eps;
    tickets.push_back(service.submit(std::move(req)));
  }
  for (auto& t : tickets) t.wait();
  const auto c = service.counters();
  EXPECT_EQ(c.preprocessed, 1u)
      << "eps_epol re-dials must share one warm artifact";
  EXPECT_EQ(c.completed, 3u);
  // Tighter ε must not *increase* the energy error — sanity, not bits.
  EXPECT_NE(tickets[0].result().epol, 0.0);
}

TEST(SvcService, PoseScreenHitMatchesMissBits) {
  auto base = make_request(43, 300);
  base.kind = svc::JobKind::PoseScreen;
  base.ligand_begin = base.molecule.size() / 2;
  for (int i = 0; i < 4; ++i) {
    base.poses.push_back(geom::RigidTransform::translate(
        geom::Vec3(0.5 * (i + 1), 0.25 * i, 0.0)));
  }

  svc::ScoringService service(small_service_config());
  auto cold = service.submit(base);
  const auto& cold_scores = cold.result().pose_scores;
  auto warm = service.submit(base);
  const auto& warm_scores = warm.result().pose_scores;

  EXPECT_TRUE(warm.result().cache_hit);
  ASSERT_EQ(cold_scores.size(), warm_scores.size());
  for (std::size_t i = 0; i < cold_scores.size(); ++i) {
    EXPECT_EQ(cold_scores[i].epol, warm_scores[i].epol) << "pose " << i;
    EXPECT_EQ(cold_scores[i].delta, warm_scores[i].delta) << "pose " << i;
  }
  EXPECT_EQ(service.counters().poses_scored, 8u);
}

TEST(SvcService, RejectsSurfaceAsTicketsNotExceptions) {
  auto cfg = small_service_config();
  cfg.admission.max_atoms = 50;  // everything below is too large
  svc::ScoringService service(cfg);
  auto t = service.submit(make_request(47));
  EXPECT_FALSE(t.accepted());
  EXPECT_EQ(t.reject(), svc::RejectReason::TooLarge);
  EXPECT_TRUE(t.done());
  EXPECT_EQ(service.counters().rejected_too_large, 1u);
  EXPECT_EQ(service.counters().rejected_total(), 1u);
}

TEST(SvcService, StopRejectsNewWorkAndDrains) {
  svc::ScoringService service(small_service_config());
  auto t = service.submit(make_request(53));
  service.stop();
  EXPECT_TRUE(t.done()) << "stop() drains admitted jobs before returning";
  auto late = service.submit(make_request(53));
  EXPECT_FALSE(late.accepted());
  EXPECT_EQ(late.reject(), svc::RejectReason::ShuttingDown);
}

TEST(SvcService, PinnedJobsReportZeroOffblockSteals) {
  // With pin_cores on (the default), every job's scheduler workers sit on
  // the job's leased core block, and no steal may cross a block boundary:
  // ws.steal.offblock must stay exactly 0 for the service lifetime
  // (DESIGN.md §2.11). Width-2 jobs force real multi-worker scheduling.
  svc::ScoringService service(small_service_config());
  ASSERT_TRUE(service.config().pin_cores);
  std::vector<svc::JobTicket> tickets;
  for (std::uint64_t seed : {71u, 72u, 73u, 74u})
    tickets.push_back(service.submit(make_request(seed, 400)));
  for (auto& t : tickets) {
    ASSERT_TRUE(t.accepted());
    EXPECT_EQ(t.result().cores, 2);
  }
  const auto st = service.steal_tiers();
  EXPECT_EQ(st.offblock, 0u);
  // Pinning is best-effort; on hosts where affinity calls succeed the
  // stats also surface how many workers actually landed on their core.
  trace::MetricsRegistry m;
  service.export_metrics(m);
  EXPECT_TRUE(m.contains("ws.steal.offblock"));
  EXPECT_EQ(m.get_int("ws.steal.offblock"), 0u);
  EXPECT_TRUE(m.contains("ws.pinned_workers"));
}

TEST(SvcService, UnpinnedServiceStillExportsStealTiers) {
  svc::ServiceConfig cfg = small_service_config();
  cfg.pin_cores = false;
  svc::ScoringService service(cfg);
  auto t = service.submit(make_request(75, 400));
  ASSERT_TRUE(t.accepted());
  t.wait();
  const auto st = service.steal_tiers();
  EXPECT_EQ(st.pinned_workers, 0u) << "pin_cores off must not pin";
  trace::MetricsRegistry m;
  service.export_metrics(m);
  EXPECT_EQ(m.get_int("ws.pinned_workers"), 0u);
}

// ---------------------------------------------------------------------------
// Concurrency (the TSan targets)
// ---------------------------------------------------------------------------

TEST(SvcConcurrency, CoalescedMissesBuildOnce) {
  svc::ArtifactCache cache(std::size_t{1} << 30);
  const auto mol = small_protein(61, 150);
  const Digest d = session_key(mol);
  std::atomic<int> builds{0};
  std::atomic<int> arrived{0};
  auto builder = [&]() {
    ++builds;
    // Hold the build open until every thread has reached acquire(), so
    // the misses genuinely overlap even when a loaded host delays some
    // thread spawns past the build (bounded escape: 2 s).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (arrived.load() < 8 && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return session_builder(mol)();
  };
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      ++arrived;
      auto a = cache.acquire(d, builder);
      if (a && a->session) ++ok;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1) << "concurrent misses must coalesce";
  EXPECT_EQ(ok.load(), 8);
  EXPECT_GE(cache.stats().coalesced, 1u);
}

TEST(SvcConcurrency, ConcurrentSubmitAndEvictStaysConsistent) {
  auto cfg = small_service_config();
  // A tiny budget forces continuous eviction under the submissions.
  cfg.cache_budget_bytes = 1;
  svc::ScoringService service(cfg);

  constexpr int kSubmitters = 4;
  constexpr int kJobsEach = 6;
  std::atomic<int> completed{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int j = 0; j < kJobsEach; ++j) {
        // Two hot molecules per submitter + a stream of cold ones, from
        // four tenants.
        const std::uint64_t seed = (j % 3 == 0) ? 100 + s : 200 + s * 10 + j;
        auto req = make_request(seed, 150);
        req.tenant = "tenant-" + std::to_string(s);
        auto t = service.submit(std::move(req));
        if (t.accepted()) {
          t.wait();
          ++completed;
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  service.drain();

  const auto c = service.counters();
  EXPECT_EQ(c.completed, static_cast<std::uint64_t>(completed.load()));
  EXPECT_EQ(c.submitted, c.completed + c.rejected_total());
  EXPECT_GE(c.cache_evictions, 1u) << "the 1-byte budget must evict";
  // Every tenant made progress (fair share under concurrency).
  for (int s = 0; s < kSubmitters; ++s)
    EXPECT_GT(service.completed_for("tenant-" + std::to_string(s)), 0u);
  EXPECT_EQ(service.allocator().in_use(), 0) << "every lease returned";
}

TEST(SvcConcurrency, HotMoleculeUnderContentionKeepsBitIdentity) {
  svc::ScoringService service(small_service_config());
  constexpr int kThreads = 4;
  std::vector<double> epols(kThreads * 2, 0.0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int j = 0; j < 2; ++j) {
        auto t = service.submit(make_request(71, 150));
        epols[static_cast<std::size_t>(i * 2 + j)] = t.result().epol;
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 1; i < epols.size(); ++i)
    EXPECT_EQ(epols[i], epols[0]) << "submission " << i;
  EXPECT_EQ(service.counters().preprocessed, 1u);
}
