// octgb_perfbench — the repository's benchmark binary (see README.md).
//
//   octgb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--reduced] [--commit <id>]
//
// Prints one JSON line of run metadata, one of run facts, and as the last
// line the result {"correct", "attempted", "failed", "metrics"}: with
// --trace 0 every end-to-end metric, with --trace 1 every per-layer metric.
// Exits 1 when any operation failed a check, 2 on bad arguments.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <span>
#include <string>
#include <thread>

#include "bench.hpp"
#include "octgb/perf/topology.hpp"
#include "octgb/simd/dispatch.hpp"

namespace perfbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// End-to-end metrics (untraced run); every workload reports each one.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},           {"time_to_energy_s", "s"},
    {"eval_p50_ms", "ms"},      {"eval_tail_ms", "ms"},
    {"evals_per_s", "1/s"},     {"redial_p50_ms", "ms"},
    {"xscreen_p50_ms", "ms"},   {"epol_rel_err", "1"},
    {"rss_peak_mb", "MiB"},
};

// Per-layer metrics (traced run). Times are means per traced operation,
// counts are run totals; a layer a workload does not exercise reports 0.
constexpr Metric kPerLayer[] = {
    {"surface.ms", "ms"},
    {"surface.points", "count"},
    {"octree.build_ms", "ms"},
    {"octree.refit_ms", "ms"},
    {"octree.rebuilds", "count"},
    {"octree.nodes", "count"},
    {"plan.capture_ms", "ms"},
    {"plan.finalize_ms", "ms"},
    {"plan.validate_ms", "ms"},
    {"plan.replay_ms", "ms"},
    {"plan.born_reuse_ms", "ms"},
    {"plan.builds", "count"},
    {"plan.replays", "count"},
    {"plan.born_reuses", "count"},
    {"plan.invalidated_drift", "count"},
    {"plan.invalidated_topology", "count"},
    {"plan.reuse_ratio", "1"},
    {"born.integrals_ms", "ms"},
    {"born.push_ms", "ms"},
    {"born.exact", "count"},
    {"born.approx", "count"},
    {"born.visits", "count"},
    {"born.exact_per_s", "1/s"},
    {"born.bytes_computed", "bytes"},
    {"epol.context_ms", "ms"},
    {"epol.ms", "ms"},
    {"epol.cross_ms", "ms"},
    {"epol.exact", "count"},
    {"epol.bins", "count"},
    {"epol.visits", "count"},
    {"epol.exact_per_s", "1/s"},
    {"epol.bytes_computed", "bytes"},
    {"engine.remap_ms", "ms"},
    {"engine.residual_ms", "ms"},
    {"ws.spawns", "count"},
    {"ws.steals", "count"},
    {"ws.steal_attempts", "count"},
    {"ws.steal_success", "1"},
    {"mpp.allreduce_ms", "ms"},
    {"mpp.allgather_ms", "ms"},
    {"mpp.reduce_ms", "ms"},
    {"mpp.wait_ms", "ms"},
    {"mpp.imbalance", "1"},
    {"mpp.bytes", "bytes"},
    {"mpp.messages", "count"},
    {"session.refits", "count"},
    {"session.rebuilds", "count"},
    {"trace.ops", "count"},
    {"trace.op_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "octgb_perfbench: %s\nusage: octgb_perfbench --workload "
               "zdock_cold|md_refit|dock_screen|hybrid_cmv --seed N "
               "--seconds S --trace 0|1 [--reduced] [--commit ID]\n",
               why);
  std::exit(2);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Seed, host shape, SIMD width and build identity: enough to refuse
/// comparing numbers from different hosts or builds.
void print_meta(const Options& o, const std::string& commit) {
  const auto& topo = octgb::perf::topology();
  const auto vec = octgb::simd::resolve({});
  std::printf(
      "{\"meta\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"reduced\": %s, \"nproc\": %ld, "
      "\"hardware_concurrency\": %u, \"topology\": {\"cpus\": %d, "
      "\"sockets\": %d, \"l3_domains\": %d, \"smt_groups\": %d, "
      "\"l3_bytes\": %llu, \"flat_fallback\": %s}, \"simd_isa\": %s, "
      "\"simd_lanes\": %d, \"build_type\": %s, \"compiler\": %s, "
      "\"commit\": %s}}\n",
      quoted(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
      num(o.seconds).c_str(), o.trace ? 1 : 0, o.reduced ? "true" : "false",
      sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
      topo.num_cpus(), topo.sockets, topo.l3_domains, topo.smt_groups,
      static_cast<unsigned long long>(topo.l3_bytes),
      topo.flat_fallback ? "true" : "false",
      quoted(octgb::simd::isa_name(vec.isa)).c_str(),
      octgb::simd::lanes(vec.isa), quoted(PERFBENCH_BUILD_TYPE).c_str(),
      quoted(PERFBENCH_COMPILER).c_str(), quoted(commit).c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  std::string commit = "unknown";
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
        have_seconds = true;
      } else if (a == "--trace") {
        trace = std::stoi(value());
      } else if (a == "--reduced") {
        o.reduced = true;
      } else if (a == "--commit") {
        commit = value();
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || (trace != 0 && trace != 1))
    usage("--seed, --seconds and --trace 0|1 are required");
  if (!(o.seconds > 0.0 && o.seconds <= 600.0))
    usage("--seconds must be in (0, 600]");
  o.trace = trace == 1;

  Outcome (*run)(const Options&) = nullptr;
  if (o.workload == "zdock_cold") run = run_zdock_cold;
  if (o.workload == "md_refit") run = run_md_refit;
  if (o.workload == "dock_screen") run = run_dock_screen;
  if (o.workload == "hybrid_cmv") run = run_hybrid_cmv;
  if (run == nullptr) usage("unknown workload");

  print_meta(o, commit);
  std::fflush(stdout);
  Outcome out;
  try {
    out = run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "octgb_perfbench: %s\n", e.what());
    return 1;
  }

  bool complete = true;
  std::string metrics;
  const auto emit = [&](const Metric& m, bool zero_if_absent) {
    const auto it = out.metrics.find(m.name);
    double v = 0.0;
    if (it != out.metrics.end()) {
      v = it->second;
    } else if (!zero_if_absent) {
      std::fprintf(stderr, "octgb_perfbench: metric %s missing\n", m.name);
      complete = false;
    }
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "octgb_perfbench: metric %s is not finite\n",
                   m.name);
      complete = false;
      v = 0.0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += quoted(m.name) + ": {\"value\": " + num(v) +
               ", \"unit\": " + quoted(m.unit) + "}";
  };
  const std::span<const Metric> table =
      o.trace ? std::span<const Metric>(kPerLayer) : kEndToEnd;
  for (const Metric& m : table) emit(m, /*zero_if_absent=*/o.trace);
  // A name outside the table would be silently dropped: refuse it.
  for (const auto& [name, v] : out.metrics) {
    bool known = false;
    for (const Metric& m : table) known |= name == m.name;
    if (!known) {
      std::fprintf(stderr, "octgb_perfbench: undeclared metric %s\n",
                   name.c_str());
      complete = false;
    }
  }

  std::string detail;
  for (const auto& [k, v] : out.detail)
    detail += (detail.empty() ? "" : ", ") + quoted(k) + ": " + num(v);
  std::printf("{\"detail\": {%s}}\n", detail.c_str());

  const bool correct = complete && out.ledger.failed() == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(out.ledger.attempted()),
      static_cast<unsigned long long>(out.ledger.failed()), metrics.c_str());
  return correct ? 0 : 1;
}
