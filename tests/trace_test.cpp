// Tests for the octgb::trace observability layer: span nesting and
// ordering, thread-safety under the ws scheduler (this binary also runs
// in the TSan CI job), exporter round-trips against golden output, and
// the zero-allocation no-op guarantee when tracing is disabled.
//
// The Tracer is a process-wide singleton, so every test starts from a
// known state via TraceTestBase (disable + clear) and leaves tracing
// disabled behind it.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "octgb/core/engine.hpp"
#include "octgb/mol/generate.hpp"
#include "octgb/simd/dispatch.hpp"
#include "octgb/surface/surface.hpp"
#include "octgb/trace/metrics.hpp"
#include "octgb/trace/trace.hpp"
#include "octgb/ws/scheduler.hpp"

using namespace octgb;

// ---- allocation counter (for the disabled-tracing no-op guarantee) -------

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// Our replacement operator new above is malloc-backed, so free() is the
// matching deallocator; GCC warns because it can't see across the pair.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

// ---- tiny parser for the chrome://tracing JSON the Tracer writes ---------

namespace {

struct ParsedEvent {
  std::string name;
  std::string ph;
  int pid = 0;
  int tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
};

// The writer emits one event object per line between the traceEvents
// brackets, so a line-oriented field scraper is enough (and keeps the
// test independent of a real JSON library).
std::vector<ParsedEvent> parse_events(const std::string& json) {
  std::vector<ParsedEvent> out;
  std::istringstream in(json);
  std::string line;
  auto field = [](const std::string& l, const std::string& key)
      -> std::string {
    const auto at = l.find("\"" + key + "\":");
    if (at == std::string::npos) return "";
    auto start = at + key.size() + 3;
    if (l[start] == '"') {
      ++start;
      return l.substr(start, l.find('"', start) - start);
    }
    auto end = start;
    while (end < l.size() && l[end] != ',' && l[end] != '}') ++end;
    return l.substr(start, end - start);
  };
  while (std::getline(in, line)) {
    if (line.find("\"ph\":") == std::string::npos) continue;
    ParsedEvent e;
    e.name = field(line, "name");
    e.ph = field(line, "ph");
    const std::string pid = field(line, "pid");
    const std::string tid = field(line, "tid");
    const std::string ts = field(line, "ts");
    const std::string dur = field(line, "dur");
    if (!pid.empty()) e.pid = std::atoi(pid.c_str());
    if (!tid.empty()) e.tid = std::atoi(tid.c_str());
    if (!ts.empty()) e.ts_us = std::atof(ts.c_str());
    if (!dur.empty()) e.dur_us = std::atof(dur.c_str());
    out.push_back(std::move(e));
  }
  return out;
}

std::string export_trace() {
  std::ostringstream os;
  trace::Tracer::instance().write_chrome_trace(os);
  return os.str();
}

const ParsedEvent* find_event(const std::vector<ParsedEvent>& ev,
                              const std::string& name) {
  for (const auto& e : ev)
    if (e.name == name) return &e;
  return nullptr;
}

class TraceTestBase : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::Tracer::instance().set_enabled(false);
    trace::Tracer::instance().set_max_events_per_thread(std::size_t{1}
                                                        << 20);
    trace::Tracer::instance().clear();
  }
  void TearDown() override {
    trace::Tracer::instance().set_enabled(false);
    trace::Tracer::instance().clear();
  }
};

}  // namespace

// ---- span recording ------------------------------------------------------

using TraceSpan = TraceTestBase;

TEST_F(TraceSpan, NestedSpansAreContainedAndOrdered) {
  trace::Tracer::instance().set_enabled(true);
  {
    OCTGB_SPAN("test.outer");
    {
      OCTGB_SPAN("test.inner.first");
    }
    {
      OCTGB_SPAN("test.inner.second");
    }
  }
  trace::Tracer::instance().set_enabled(false);

  EXPECT_EQ(trace::Tracer::instance().event_count(), 3u);
  const auto ev = parse_events(export_trace());
  const auto* outer = find_event(ev, "test.outer");
  const auto* first = find_event(ev, "test.inner.first");
  const auto* second = find_event(ev, "test.inner.second");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(outer->ph, "X");

  // Containment: both children start and end inside the parent.
  EXPECT_LE(outer->ts_us, first->ts_us);
  EXPECT_LE(outer->ts_us, second->ts_us);
  EXPECT_GE(outer->ts_us + outer->dur_us, first->ts_us + first->dur_us);
  EXPECT_GE(outer->ts_us + outer->dur_us, second->ts_us + second->dur_us);
  // Ordering: first ends before second begins.
  EXPECT_LE(first->ts_us + first->dur_us, second->ts_us);
  // Same thread → same track.
  EXPECT_EQ(first->pid, second->pid);
  EXPECT_EQ(first->tid, second->tid);
}

TEST_F(TraceSpan, CounterAndInstantEventsRoundTrip) {
  trace::Tracer::instance().set_enabled(true);
  trace::counter("test.bytes", 12345.0);
  trace::instant("test.marker");
  trace::Tracer::instance().set_enabled(false);

  const std::string json = export_trace();
  const auto ev = parse_events(json);
  const auto* c = find_event(ev, "test.bytes");
  const auto* i = find_event(ev, "test.marker");
  ASSERT_NE(c, nullptr);
  ASSERT_NE(i, nullptr);
  EXPECT_EQ(c->ph, "C");
  EXPECT_EQ(i->ph, "i");
  EXPECT_NE(json.find("\"value\":12345"), std::string::npos);
}

TEST_F(TraceSpan, VirtualThreadScopeReattributesPid) {
  trace::Tracer::instance().set_enabled(true);
  {
    OCTGB_SPAN("test.host");
  }
  {
    trace::VirtualThreadScope rank(7, "rank7 (sim)");
    OCTGB_SPAN("test.virtual");
  }
  {
    OCTGB_SPAN("test.host.after");
  }
  trace::Tracer::instance().set_enabled(false);

  const std::string json = export_trace();
  const auto ev = parse_events(json);
  const auto* host = find_event(ev, "test.host");
  const auto* virt = find_event(ev, "test.virtual");
  const auto* after = find_event(ev, "test.host.after");
  ASSERT_NE(host, nullptr);
  ASSERT_NE(virt, nullptr);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(virt->pid, 7);
  EXPECT_NE(host->pid, 7);
  // The override is restored on scope exit.
  EXPECT_EQ(after->pid, host->pid);
  // The scope registered a display name for the virtual rank.
  EXPECT_NE(json.find("rank7 (sim)"), std::string::npos);
}

TEST_F(TraceSpan, PerThreadCapDropsAndCounts) {
  auto& tracer = trace::Tracer::instance();
  tracer.set_max_events_per_thread(4);
  tracer.set_enabled(true);
  for (int i = 0; i < 10; ++i) trace::instant("test.flood");
  tracer.set_enabled(false);
  EXPECT_LE(tracer.event_count(), 4u);
  EXPECT_GE(tracer.dropped_count(), 6u);
}

// ---- disabled tracing: no events, no allocations -------------------------

using TraceDisabled = TraceTestBase;

TEST_F(TraceDisabled, RecordingCallsAreAllocationFreeNoOps) {
  ASSERT_FALSE(trace::enabled());
  const std::size_t events_before = trace::Tracer::instance().event_count();

  const std::uint64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    OCTGB_SPAN("test.disabled");
    trace::counter("test.disabled.counter", static_cast<double>(i));
    trace::instant("test.disabled.instant");
    trace::set_thread_identity(3, "r3");  // short: SSO, no heap either
  }
  const std::uint64_t allocs_after =
      g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(allocs_after - allocs_before, 0u);
  EXPECT_EQ(trace::Tracer::instance().event_count(), events_before);
  EXPECT_EQ(trace::current_pid(), 0);
}

// ---- thread-safety under the work-stealing scheduler ---------------------

using TraceScheduler = TraceTestBase;

TEST_F(TraceScheduler, ConcurrentRecordingUnderWsScheduler) {
  trace::Tracer::instance().set_enabled(true);
  std::atomic<long> sum{0};
  {
    ws::Scheduler sched(4);
    for (int round = 0; round < 3; ++round) {
      sched.run([&] {
        OCTGB_SPAN("test.sched.root");
        ws::Scheduler::parallel_for(
            0, 2000, 16, [&](std::int64_t lo, std::int64_t hi) {
              OCTGB_SPAN("test.sched.leaf");
              long s = 0;
              for (auto i = lo; i < hi; ++i) s += i;
              sum += s;
              trace::instant("test.sched.tick");
            });
      });
    }
  }  // workers joined: export below is quiescent
  trace::Tracer::instance().set_enabled(false);

  EXPECT_EQ(sum.load(), 3L * (2000L * 1999L / 2));
  const auto ev = parse_events(export_trace());
  std::size_t leaves = 0, roots = 0;
  std::vector<int> tids;
  for (const auto& e : ev) {
    if (e.name == "test.sched.leaf") {
      ++leaves;
      tids.push_back(e.tid);
    }
    if (e.name == "test.sched.root") ++roots;
  }
  EXPECT_EQ(roots, 3u);
  EXPECT_GE(leaves, 3u * (2000u / 16u / 2u));  // every subrange recorded
  // All buffered events parsed back — none were torn or lost. (The
  // export also holds "M" track-name metadata lines; skip those.)
  std::size_t recorded = 0;
  for (const auto& e : ev)
    if (e.ph != "M") ++recorded;
  EXPECT_EQ(trace::Tracer::instance().event_count(), recorded);
}

// ---- metrics registry ----------------------------------------------------

using TraceMetrics = TraceTestBase;

TEST_F(TraceMetrics, ExactIntegerAndPromotionSemantics) {
  trace::MetricsRegistry m;
  // A count above 2^53 is not representable in a double: the registry
  // must keep it exact.
  const std::uint64_t big = (std::uint64_t{1} << 53) + 1;
  m.add("test.big", big);
  EXPECT_EQ(m.get_int("test.big"), big);
  EXPECT_NE(m.json().find(std::to_string(big)), std::string::npos);

  m.add("test.mixed", std::uint64_t{10});
  m.add("test.mixed", 0.5);  // promotes to real
  EXPECT_DOUBLE_EQ(m.get_real("test.mixed"), 10.5);

  m.set("test.big", std::uint64_t{1});
  EXPECT_EQ(m.get_int("test.big"), 1u);
  EXPECT_TRUE(m.contains("test.big"));
  EXPECT_FALSE(m.contains("test.absent"));
}

TEST_F(TraceMetrics, AddWorkCoversEveryCounterField) {
  perf::WorkCounters w;
  w.born_exact = 1;
  w.born_approx = 2;
  w.born_visits = 3;
  w.push_visits = 4;
  w.push_atoms = 5;
  w.epol_exact = 6;
  w.epol_bins = 7;
  w.epol_visits = 8;
  w.pairlist_pairs = 9;
  w.grid_cells = 10;
  w.spawns = 11;
  w.steals = 12;
  trace::MetricsRegistry m;
  m.add_work("rank0", w);
  // One metric per WorkCounters field (kFieldCount guards the struct).
  EXPECT_EQ(m.size(), perf::WorkCounters::kFieldCount);
  EXPECT_EQ(m.get_int("born.exact.rank0"), 1u);
  EXPECT_EQ(m.get_int("epol.bins.rank0"), 7u);
  EXPECT_EQ(m.get_int("sched.steals.rank0"), 12u);
  // Empty prefix → bare names; accumulation is field-wise.
  m.add_work("", w);
  m.add_work("", w);
  EXPECT_EQ(m.get_int("grid.cells"), 20u);
}

TEST_F(TraceMetrics, AddTreeBuildCoversEveryCounterField) {
  perf::TreeBuildCounters t;
  t.morton_builds = 1;
  t.points_sorted = 3;
  t.sort_passes = 4;
  t.nodes_emitted = 5;
  t.leaves_emitted = 6;
  trace::MetricsRegistry m;
  m.add_tree_build("atoms", t);
  // One metric per TreeBuildCounters field (kFieldCount guards the struct).
  EXPECT_EQ(m.size(), perf::TreeBuildCounters::kFieldCount);
  EXPECT_EQ(m.get_int("tree.build.morton.atoms"), 1u);
  EXPECT_EQ(m.get_int("tree.build.sort_passes.atoms"), 4u);
  EXPECT_EQ(m.get_int("tree.build.leaves.atoms"), 6u);
  m.add_tree_build("", t);
  m.add_tree_build("", t);
  EXPECT_EQ(m.get_int("tree.build.nodes"), 10u);
}

TEST_F(TraceMetrics, AddSimdFollowsTheKernelSchema) {
  trace::MetricsRegistry m;
  // One call per evaluation: lanes reflect the latest resolution (set,
  // not accumulated), the per-width eval counter accumulates.
  m.add_simd("", "v256", 4);
  EXPECT_EQ(m.get_int("kernel.simd.lanes"), 4u);
  EXPECT_EQ(m.get_int("kernel.simd.evals.v256"), 1u);
  m.add_simd("", "v256", 4);
  EXPECT_EQ(m.get_int("kernel.simd.evals.v256"), 2u);
  m.add_simd("", "v128", 2);  // re-dial within one registry
  EXPECT_EQ(m.get_int("kernel.simd.lanes"), 2u);
  EXPECT_EQ(m.get_int("kernel.simd.evals.v128"), 1u);
  EXPECT_EQ(m.get_int("kernel.simd.evals.v256"), 2u);
  m.add_simd("rank0", "scalar", 0);
  EXPECT_EQ(m.get_int("kernel.simd.lanes.rank0"), 0u);
  EXPECT_EQ(m.get_int("kernel.simd.evals.scalar.rank0"), 1u);
  // Scoped names never bleed into the run totals.
  EXPECT_FALSE(m.contains("kernel.simd.evals.scalar"));
}

TEST_F(TraceMetrics, ExportersMatchGoldenOutputThroughFiles) {
  trace::MetricsRegistry m;
  perf::WorkCounters w;
  w.born_exact = 123456789;
  w.epol_exact = 42;
  m.add_work("rank1", w);
  perf::CommCounters c;
  c.bytes_internode = 4096;
  c.collectives = 3;
  m.add_comm("rank1", c);
  m.add_scheduler("rank1", 7, 2, 5, 9);
  m.set("time.total_s", 1.5);

  const std::string golden_json =
      "{\n"
      "  \"born.approx.rank1\": 0,\n"
      "  \"born.exact.rank1\": 123456789,\n"
      "  \"born.visits.rank1\": 0,\n"
      "  \"epol.bins.rank1\": 0,\n"
      "  \"epol.exact.rank1\": 42,\n"
      "  \"epol.visits.rank1\": 0,\n"
      "  \"grid.cells.rank1\": 0,\n"
      "  \"mpp.bytes.internode.rank1\": 4096,\n"
      "  \"mpp.bytes.intranode.rank1\": 0,\n"
      "  \"mpp.collectives.rank1\": 3,\n"
      "  \"mpp.msgs.internode.rank1\": 0,\n"
      "  \"mpp.msgs.intranode.rank1\": 0,\n"
      "  \"pairlist.pairs.rank1\": 0,\n"
      "  \"push.atoms.rank1\": 0,\n"
      "  \"push.visits.rank1\": 0,\n"
      "  \"sched.executed.rank1\": 9,\n"
      "  \"sched.spawns.rank1\": 7,\n"
      "  \"sched.steal_attempts.rank1\": 5,\n"
      "  \"sched.steals.rank1\": 2,\n"
      "  \"time.total_s\": 1.5\n"
      "}\n";
  EXPECT_EQ(m.json(), golden_json);

  // Round-trip both exporters through actual files.
  const std::string dir = ::testing::TempDir();
  const std::string json_path = dir + "/octgb_metrics_golden.json";
  const std::string csv_path = dir + "/octgb_metrics_golden.csv";
  ASSERT_TRUE(m.save_json(json_path));
  ASSERT_TRUE(m.save_csv(csv_path));
  auto slurp = [](const std::string& path) {
    std::ifstream f(path);
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
  };
  EXPECT_EQ(slurp(json_path), golden_json);
  const std::string csv = slurp(csv_path);
  EXPECT_NE(csv.find("metric,value\n"), std::string::npos);
  EXPECT_NE(csv.find("born.exact.rank1,123456789\n"), std::string::npos);
  EXPECT_NE(csv.find("time.total_s,1.5\n"), std::string::npos);
  std::remove(json_path.c_str());
  std::remove(csv_path.c_str());
}

TEST_F(TraceMetrics, MergeAccumulatesAcrossRegistries) {
  trace::MetricsRegistry a, b;
  a.add("test.n", std::uint64_t{5});
  b.add("test.n", std::uint64_t{7});
  b.set("test.r", 0.25);
  a.merge(b);
  EXPECT_EQ(a.get_int("test.n"), 12u);
  EXPECT_DOUBLE_EQ(a.get_real("test.r"), 0.25);
}

// ---- tracing never perturbs counters -------------------------------------

using TraceCounters = TraceTestBase;

TEST_F(TraceCounters, WorkCountersIdenticalTracedAndUntraced) {
  // The same deterministic workload must count identically with tracing
  // on and off — the acceptance criterion behind `--metrics-out` diffing.
  auto run_once = [] {
    perf::WorkCounters w;
    ws::Scheduler sched(2);
    sched.run([&] {
      std::atomic<std::uint64_t> ops{0};
      ws::Scheduler::parallel_for(0, 512, 8,
                                  [&](std::int64_t lo, std::int64_t hi) {
                                    OCTGB_SPAN("test.counters.body");
                                    ops += static_cast<std::uint64_t>(hi -
                                                                      lo);
                                  });
      w.born_exact = ops.load();
    });
    const auto st = sched.stats();
    w.spawns = st.spawns;
    return w.born_exact;
  };

  trace::Tracer::instance().set_enabled(false);
  const auto untraced = run_once();
  trace::Tracer::instance().set_enabled(true);
  const auto traced = run_once();
  trace::Tracer::instance().set_enabled(false);
  EXPECT_EQ(traced, untraced);
  EXPECT_GT(trace::Tracer::instance().event_count(), 0u);
}

TEST_F(TraceCounters, ComputeRecordsSimdLanesWhenEnabledProgrammatically) {
  // A trace switched on by Tracer::set_enabled (or OCTGB_TRACE=1) carries
  // the resolved kernel width of every default compute().
  const auto molecule = mol::generate_protein({.target_atoms = 120, .seed = 5});
  const core::GBEngine engine(
      molecule, surface::build_surface(molecule, {.subdivision = 1}));
  trace::Tracer::instance().set_enabled(true);
  (void)engine.compute();
  trace::Tracer::instance().set_enabled(false);

  const std::string json = export_trace();
  const auto ev = parse_events(json);
  const auto* lanes = find_event(ev, "kernel.simd.lanes");
  ASSERT_NE(lanes, nullptr);
  EXPECT_EQ(lanes->ph, "C");
  const int want = simd::lanes(simd::resolve(simd::VectorParams{}).isa);
  const auto at = json.find("\"kernel.simd.lanes\"");
  const auto eol = json.find('\n', at);
  EXPECT_NE(json.substr(at, eol - at)
                .find("\"value\":" + std::to_string(want) + "}"),
            std::string::npos);
  EXPECT_NE(find_event(ev, "engine.compute"), nullptr);
}
