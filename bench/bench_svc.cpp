// Scoring-service load generator: mixed multi-tenant traffic against one
// octgb::svc::ScoringService.
//
// Traffic mix (four tenants by default):
//   - hot evaluations   — a small working set of molecules resubmitted
//                         constantly; after the first submission each one
//                         must be a cache hit that skips preprocessing.
//   - cold evaluations  — a stream of unique molecules (every digest new)
//                         exercising build + LRU eviction under the byte
//                         budget.
//   - ε re-dials        — hot molecules re-evaluated at different
//                         eps_epol; same digest, so the warm artifact is
//                         shared and only the energy phase reruns.
//   - pose bursts       — CrossScreen pose streams against a hot
//                         receptor+ligand complex (docking rescoring).
//   - overload burst    — one tenant floods past its bounded queue to
//                         show reject-with-reason admission (optional,
//                         --overload/--no-overload).
//
// Reports p50/p95/p99 submit→done latency, poses/s, cache hit rate, and
// per-reason rejection counts; `--metrics-out` dumps the full `svc.*`
// schema (OBSERVABILITY.md). Gates (nonzero exit on failure, the CI
// svc-gate):
//   - repeat traffic hits the cache (hit rate > 0; preprocess count flat
//     across the repeat phase),
//   - warm submissions are >= 5x faster than cold ones for the same
//     digests, and bit-identical to them,
//   - every tenant makes progress (fair share),
//   - zero unexplained rejections: submitted == completed + rejected and
//     every rejection carries a reason (here: only the overload tenant's
//     TenantQueueFull),
//   - the latency summary is populated (p99 reported).
//
// Capacity-planning worked example from this output: docs/SERVICE.md.

#include <algorithm>
#include <cstdio>
#include <exception>

#include "common.hpp"

using namespace octgb;

namespace {

mol::Molecule traffic_molecule(std::uint64_t seed, std::size_t atoms) {
  return mol::generate_protein({.target_atoms = atoms, .seed = seed});
}

svc::JobRequest evaluate_request(const std::string& tenant,
                                 mol::Molecule molecule) {
  svc::JobRequest req;
  req.tenant = tenant;
  req.molecule = std::move(molecule);
  req.surface.subdivision = 1;
  return req;
}

double mean_exec_seconds(const std::vector<svc::JobTicket>& tickets) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& t : tickets) {
    if (!t.accepted()) continue;
    sum += t.result().exec_seconds;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

}  // namespace

int main(int argc, char** argv) try {
  int cores = 8;
  int executors = 4;
  int tenants = 4;
  int hot_set = 3;
  int rounds = 12;
  int hot_atoms = 500;
  int cold_atoms = 350;
  int poses_per_burst = 8;
  double cache_mb = 256.0;
  bool smoke = false;
  bool overload = true;
  util::Args args;
  args.add("cores", &cores, "machine span the CoreAllocator manages");
  args.add("executors", &executors, "concurrent jobs");
  args.add("tenants", &tenants, "tenant count (>= 2)");
  args.add("hot-set", &hot_set, "hot working-set size (molecules)");
  args.add("rounds", &rounds, "mixed-traffic rounds per tenant");
  args.add("hot-atoms", &hot_atoms, "hot molecule size");
  args.add("cold-atoms", &cold_atoms, "cold-stream molecule size");
  args.add("poses", &poses_per_burst, "poses per CrossScreen burst");
  args.add("cache-mb", &cache_mb, "artifact cache budget (MiB)");
  args.flag("smoke", &smoke, "CI-size workload");
  args.flag("overload", &overload, "run the bounded-queue overload burst");
  bench::TraceSession ts;
  ts.register_args(args);
  args.parse(argc, argv);
  ts.begin();

  if (smoke) {
    rounds = std::min(rounds, 6);
    hot_atoms = std::min(hot_atoms, 300);
    cold_atoms = std::min(cold_atoms, 220);
    poses_per_burst = std::min(poses_per_burst, 4);
  }
  tenants = std::max(tenants, 2);

  svc::ServiceConfig cfg;
  cfg.cores = cores;
  cfg.executors = executors;
  cfg.max_job_cores = std::max(1, cores / 2);
  cfg.atoms_per_core = 400;
  cfg.cache_budget_bytes =
      static_cast<std::size_t>(cache_mb * 1024.0 * 1024.0);
  cfg.admission.max_total_queued = 512;
  cfg.admission.default_tenant.max_queued = 128;
  svc::ScoringService service(cfg);

  std::vector<std::string> tenant_names;
  for (int t = 0; t < tenants; ++t) {
    tenant_names.push_back("tenant-" + std::to_string(t));
    // Tenant 0 carries double weight so the fair-share column is visible.
    service.register_tenant(tenant_names.back(),
                            {.weight = t == 0 ? 2.0 : 1.0,
                             .max_queued = 128});
  }

  std::printf("service: %d cores, %d executors, %d-core max width, "
              "%.0f MiB cache, %d tenants\n\n",
              cores, executors, cfg.max_job_cores, cache_mb, tenants);

  // --- phase 1: cold vs warm on the hot set --------------------------------
  // Submit every hot molecule once (cold: build + evaluate), then repeat
  // each several times (warm: cache hit, evaluate only).
  std::vector<mol::Molecule> hot;
  for (int h = 0; h < hot_set; ++h)
    hot.push_back(traffic_molecule(100 + static_cast<std::uint64_t>(h),
                                   static_cast<std::size_t>(hot_atoms)));

  std::vector<svc::JobTicket> cold_tickets;
  for (int h = 0; h < hot_set; ++h)
    cold_tickets.push_back(service.submit(
        evaluate_request(tenant_names[h % tenants], hot[h])));
  service.drain();
  const std::uint64_t preprocessed_after_cold = service.counters().preprocessed;

  const int repeats = smoke ? 3 : 6;
  std::vector<svc::JobTicket> warm_tickets;
  for (int r = 0; r < repeats; ++r)
    for (int h = 0; h < hot_set; ++h)
      warm_tickets.push_back(service.submit(
          evaluate_request(tenant_names[(h + r) % tenants], hot[h])));
  service.drain();
  const std::uint64_t preprocessed_after_warm = service.counters().preprocessed;

  const double cold_mean = mean_exec_seconds(cold_tickets);
  const double warm_mean = mean_exec_seconds(warm_tickets);
  const double warm_speedup = warm_mean > 0 ? cold_mean / warm_mean : 0.0;

  // Bit-identity: every warm result must equal its cold result exactly.
  for (std::size_t i = 0; i < warm_tickets.size(); ++i) {
    const auto& w = warm_tickets[i].result();
    const auto& c = cold_tickets[i % hot.size()].result();
    OCTGB_CHECK_MSG(w.digest == c.digest, "warm digest mismatch");
    OCTGB_CHECK_MSG(w.epol == c.epol,
                    "cache-hit epol not bit-identical to cache-miss: "
                        << w.epol << " vs " << c.epol);
  }

  std::printf("hot set: cold %.1f ms/job, warm %.1f ms/job (%.1fx), "
              "preprocessed %llu cold / %llu after repeats\n",
              cold_mean * 1e3, warm_mean * 1e3, warm_speedup,
              static_cast<unsigned long long>(preprocessed_after_cold),
              static_cast<unsigned long long>(preprocessed_after_warm));

  // --- phase 2: mixed multi-tenant traffic ---------------------------------
  // A receptor+ligand hot complex for the pose bursts.
  mol::Molecule complex_mol("receptor+ligand");
  {
    const auto receptor = traffic_molecule(500, static_cast<std::size_t>(
                                                    hot_atoms));
    const auto ligand = traffic_molecule(501, 120);
    for (const auto& a : receptor.atoms()) complex_mol.add_atom(a);
    for (const auto& a : ligand.atoms()) complex_mol.add_atom(a);
  }
  const std::size_t ligand_begin =
      complex_mol.size() - traffic_molecule(501, 120).size();

  util::Xoshiro256 rng(2026);
  std::vector<svc::JobTicket> mixed;
  std::uint64_t cold_seed = 10'000;
  perf::Timer mixed_timer;
  for (int r = 0; r < rounds; ++r) {
    for (int t = 0; t < tenants; ++t) {
      const std::string& tenant = tenant_names[static_cast<std::size_t>(t)];
      // Hot evaluation (always).
      mixed.push_back(service.submit(evaluate_request(
          tenant, hot[rng() % hot.size()])));
      // Cold unique molecule (every other round).
      if ((r + t) % 2 == 0)
        mixed.push_back(service.submit(evaluate_request(
            tenant, traffic_molecule(cold_seed++, static_cast<std::size_t>(
                                                      cold_atoms)))));
      // ε re-dial on a hot molecule (every third round).
      if ((r + t) % 3 == 0) {
        auto req = evaluate_request(tenant, hot[0]);
        req.config.approx.eps_epol = 0.2 + 0.1 * (r % 5);
        mixed.push_back(service.submit(std::move(req)));
      }
      // CrossScreen pose burst (one tenant per round).
      if (t == r % tenants) {
        svc::JobRequest req = evaluate_request(tenant, complex_mol);
        req.kind = svc::JobKind::PoseScreen;
        req.ligand_begin = ligand_begin;
        for (int p = 0; p < poses_per_burst; ++p)
          req.poses.push_back(geom::RigidTransform::translate(
              {0.3 * (p + 1), 0.1 * p, 0.0}));
        mixed.push_back(service.submit(std::move(req)));
      }
    }
  }
  service.drain();
  const double mixed_wall = mixed_timer.seconds();

  // --- phase 3: overload burst (bounded-queue admission) -------------------
  std::uint64_t expected_rejections = 0;
  if (overload) {
    // Flood one tenant far past its queue bound with jobs that would be
    // slow to run; the surplus must come back TenantQueueFull immediately.
    std::vector<svc::JobTicket> flood;
    const int burst = 400;
    for (int i = 0; i < burst; ++i)
      flood.push_back(service.submit(
          evaluate_request(tenant_names[1], hot[0])));
    for (const auto& t : flood) {
      if (!t.accepted()) {
        OCTGB_CHECK_MSG(t.reject() == svc::RejectReason::TenantQueueFull,
                        "unexpected overload reject reason: "
                            << svc::to_string(t.reject()));
        ++expected_rejections;
      }
    }
    service.drain();
    OCTGB_CHECK_MSG(expected_rejections > 0,
                    "overload burst was fully absorbed; queue bound not "
                    "exercised");
  }

  // --- report --------------------------------------------------------------
  const perf::ServiceCounters c = service.counters();
  const svc::LatencySummary lat = service.latency();
  const svc::CacheStats cache = service.cache().stats();
  const double hit_rate =
      cache.hits + cache.misses > 0
          ? static_cast<double>(cache.hits) /
                static_cast<double>(cache.hits + cache.misses)
          : 0.0;
  const double poses_per_s =
      mixed_wall > 0 ? static_cast<double>(c.poses_scored) / mixed_wall : 0.0;

  util::Table t("scoring service under mixed multi-tenant traffic");
  t.header({"metric", "value"});
  t.row({"submitted", std::to_string(c.submitted)});
  t.row({"completed", std::to_string(c.completed)});
  t.row({"rejected (tenant queue)", std::to_string(
                                        c.rejected_tenant_queue_full)});
  t.row({"preprocessed (cold builds)", std::to_string(c.preprocessed)});
  t.row({"cache hit rate", util::format("%.3f", hit_rate)});
  t.row({"cache resident", util::format("%zu entries / %.1f MiB",
                                        cache.entries,
                                        cache.bytes / (1024.0 * 1024.0))});
  t.row({"evictions", std::to_string(cache.evictions)});
  t.row({"latency p50", util::format("%.1f ms", lat.p50_ms)});
  t.row({"latency p95", util::format("%.1f ms", lat.p95_ms)});
  t.row({"latency p99", util::format("%.1f ms", lat.p99_ms)});
  t.row({"poses/s (mixed phase)", util::format("%.0f", poses_per_s)});
  t.row({"warm speedup vs cold", util::format("%.1fx", warm_speedup)});
  t.print();
  bench::save_csv(t, "bench_svc");

  std::printf("\nper-tenant completions (fair share):\n");
  for (const auto& name : tenant_names)
    std::printf("  %-10s %llu\n", name.c_str(),
                static_cast<unsigned long long>(service.completed_for(name)));

  // --- gates ---------------------------------------------------------------
  OCTGB_CHECK_MSG(cache.hits > 0, "repeat traffic produced no cache hits");
  OCTGB_CHECK_MSG(preprocessed_after_warm == preprocessed_after_cold,
                  "repeat submissions preprocessed again: "
                      << preprocessed_after_cold << " -> "
                      << preprocessed_after_warm);
  OCTGB_CHECK_MSG(warm_speedup >= 5.0,
                  "warm submissions only " << warm_speedup
                                           << "x faster than cold (gate 5x)");
  OCTGB_CHECK_MSG(c.submitted == c.completed + c.rejected_total(),
                  "job accounting leak: " << c.submitted << " submitted, "
                                          << c.completed << " completed, "
                                          << c.rejected_total()
                                          << " rejected");
  OCTGB_CHECK_MSG(c.rejected_total() == expected_rejections,
                  "unexplained rejections: " << c.rejected_total()
                                             << " counted, "
                                             << expected_rejections
                                             << " expected from overload");
  OCTGB_CHECK_MSG(lat.count > 0 && lat.p99_ms > 0.0,
                  "latency summary not populated");
  for (const auto& name : tenant_names)
    OCTGB_CHECK_MSG(service.completed_for(name) > 0,
                    "tenant " << name << " starved");
  std::printf("\nall gates passed\n");

  service.export_metrics(ts.metrics());
  ts.metrics().set("svc.cache.hit_rate", hit_rate);
  ts.metrics().set("svc.poses_per_second", poses_per_s);
  ts.metrics().set("svc.warm_speedup", warm_speedup);
  ts.finish();
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
