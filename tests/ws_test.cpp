// Tests for the work-stealing scheduler substrate.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "octgb/perf/topology.hpp"
#include "octgb/ws/deque.hpp"
#include "octgb/ws/scheduler.hpp"

using octgb::ws::ChaseLevDeque;
using octgb::ws::Scheduler;

// ---- Chase–Lev deque -------------------------------------------------------

TEST(Deque, OwnerLifoOrder) {
  ChaseLevDeque<int> d;
  int a = 1, b = 2, c = 3;
  d.push(&a);
  d.push(&b);
  d.push(&c);
  EXPECT_EQ(d.pop(), &c);
  EXPECT_EQ(d.pop(), &b);
  EXPECT_EQ(d.pop(), &a);
  EXPECT_EQ(d.pop(), nullptr);
}

TEST(Deque, StealFifoOrder) {
  ChaseLevDeque<int> d;
  int a = 1, b = 2, c = 3;
  d.push(&a);
  d.push(&b);
  d.push(&c);
  EXPECT_EQ(d.steal(), &a);
  EXPECT_EQ(d.steal(), &b);
  EXPECT_EQ(d.steal(), &c);
  EXPECT_EQ(d.steal(), nullptr);
}

TEST(Deque, MixedPopAndSteal) {
  ChaseLevDeque<int> d;
  int v[4] = {0, 1, 2, 3};
  for (auto& x : v) d.push(&x);
  EXPECT_EQ(d.steal(), &v[0]);  // oldest
  EXPECT_EQ(d.pop(), &v[3]);    // newest
  EXPECT_EQ(d.steal(), &v[1]);
  EXPECT_EQ(d.pop(), &v[2]);
  EXPECT_EQ(d.pop(), nullptr);
  EXPECT_EQ(d.steal(), nullptr);
}

TEST(Deque, GrowsPastInitialCapacity) {
  ChaseLevDeque<int> d(8);
  std::vector<int> vals(1000);
  std::iota(vals.begin(), vals.end(), 0);
  for (auto& x : vals) d.push(&x);
  for (int i = 999; i >= 0; --i) EXPECT_EQ(d.pop(), &vals[i]);
  EXPECT_EQ(d.pop(), nullptr);
}

TEST(Deque, ConcurrentStealersReceiveEachItemOnce) {
  // Owner pushes; several thieves steal concurrently; every item must be
  // delivered exactly once across all consumers.
  constexpr int kItems = 20000;
  ChaseLevDeque<int> d;
  std::vector<int> vals(kItems);
  std::vector<std::atomic<int>> delivered(kItems);
  for (auto& a : delivered) a.store(0);

  std::atomic<bool> done{false};
  auto thief = [&] {
    for (;;) {
      if (int* p = d.steal()) {
        delivered[static_cast<std::size_t>(p - vals.data())].fetch_add(1);
      } else if (done.load()) {
        break;  // the caller's final drain takes any leftovers
      }
    }
  };
  std::vector<std::thread> thieves;
  for (int t = 0; t < 3; ++t) thieves.emplace_back(thief);

  for (int i = 0; i < kItems; ++i) {
    vals[i] = i;
    d.push(&vals[i]);
    if (i % 7 == 0) {
      if (int* p = d.pop())
        delivered[static_cast<std::size_t>(p - vals.data())].fetch_add(1);
    }
  }
  while (int* p = d.pop())
    delivered[static_cast<std::size_t>(p - vals.data())].fetch_add(1);
  done.store(true);
  for (auto& t : thieves) t.join();
  // Final drain in case thieves exited between the owner's last pop and
  // the done flag.
  while (int* p = d.steal())
    delivered[static_cast<std::size_t>(p - vals.data())].fetch_add(1);

  for (int i = 0; i < kItems; ++i)
    ASSERT_EQ(delivered[i].load(), 1) << "item " << i;
}

// ---- scheduler -------------------------------------------------------------

namespace {

/// Recursive parallel sum of [lo, hi) via fork2 — the canonical fork-join
/// correctness probe.
long long psum(long long lo, long long hi) {
  if (hi - lo <= 64) {
    long long s = 0;
    for (long long i = lo; i < hi; ++i) s += i;
    return s;
  }
  const long long mid = lo + (hi - lo) / 2;
  long long left = 0, right = 0;
  Scheduler::fork2([&] { left = psum(lo, mid); },
                   [&] { right = psum(mid, hi); });
  return left + right;
}

}  // namespace

TEST(Scheduler, SerialFallbackWithoutScheduler) {
  // No scheduler active: fork2 and parallel_for must run inline.
  EXPECT_EQ(Scheduler::current(), nullptr);
  EXPECT_EQ(psum(0, 10000), 10000LL * 9999 / 2);
  std::atomic<long long> total{0};
  Scheduler::parallel_for(0, 1000, 16, [&](std::int64_t lo, std::int64_t hi) {
    long long s = 0;
    for (auto i = lo; i < hi; ++i) s += i;
    total += s;
  });
  EXPECT_EQ(total.load(), 1000LL * 999 / 2);
}

class SchedulerWorkers : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerWorkers, RecursiveSumIsCorrect) {
  Scheduler sched(GetParam());
  long long result = 0;
  sched.run([&] { result = psum(0, 200000); });
  EXPECT_EQ(result, 200000LL * 199999 / 2);
}

TEST_P(SchedulerWorkers, ParallelForCoversEveryIndexOnce) {
  Scheduler sched(GetParam());
  std::vector<std::atomic<int>> hits(5000);
  for (auto& h : hits) h.store(0);
  sched.run([&] {
    Scheduler::parallel_for(0, 5000, 7, [&](std::int64_t lo, std::int64_t hi) {
      for (auto i = lo; i < hi; ++i) hits[i].fetch_add(1);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST_P(SchedulerWorkers, ForkAllRunsEveryClosure) {
  Scheduler sched(GetParam());
  std::vector<std::atomic<int>> hits(8);
  for (auto& h : hits) h.store(0);
  sched.run([&] {
    std::vector<std::function<void()>> fns;
    for (int i = 0; i < 8; ++i)
      fns.emplace_back([&hits, i] { hits[i].fetch_add(1); });
    Scheduler::fork_all(fns);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(SchedulerWorkers, NestedForksComplete) {
  Scheduler sched(GetParam());
  std::atomic<int> count{0};
  std::function<void(int)> tree = [&](int depth) {
    count.fetch_add(1);
    if (depth == 0) return;
    Scheduler::fork2([&, depth] { tree(depth - 1); },
                     [&, depth] { tree(depth - 1); });
  };
  sched.run([&] { tree(10); });
  EXPECT_EQ(count.load(), (1 << 11) - 1);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, SchedulerWorkers,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(Scheduler, StatsCountSpawnsAndExecutions) {
  Scheduler sched(4);
  sched.reset_stats();
  long long result = 0;
  sched.run([&] { result = psum(0, 50000); });
  const auto st = sched.stats();
  EXPECT_GT(st.spawns, 0u);
  EXPECT_EQ(st.executed, st.spawns);  // every spawned task ran exactly once
  EXPECT_EQ(result, 50000LL * 49999 / 2);
}

TEST(Scheduler, ReusableAcrossRuns) {
  Scheduler sched(3);
  for (int iter = 0; iter < 5; ++iter) {
    long long result = 0;
    sched.run([&] { result = psum(0, 10000); });
    EXPECT_EQ(result, 10000LL * 9999 / 2);
  }
}

TEST(Scheduler, CurrentIsSetInsideRunOnly) {
  Scheduler sched(2);
  EXPECT_EQ(Scheduler::current(), nullptr);
  sched.run([&] { EXPECT_EQ(Scheduler::current(), &sched); });
  EXPECT_EQ(Scheduler::current(), nullptr);
}

TEST(Scheduler, RunDeactivatesWhenRootThrows) {
  Scheduler sched(2);
  EXPECT_THROW(sched.run([] { throw std::runtime_error("root failed"); }),
               std::runtime_error);
  EXPECT_EQ(Scheduler::current(), nullptr);
  long long result = 0;
  sched.run([&] { result = psum(0, 1000); });  // reusable afterwards
  EXPECT_EQ(result, 1000LL * 999 / 2);
}

// ---- with_workers: the ambient-or-private policy ------------------------------

TEST(WithWorkers, AmbientOneWorkerRunsInlineAndSerial) {
  Scheduler ambient(1);
  ambient.run([&] {
    bool ran = false;
    octgb::ws::with_workers(std::size_t{1} << 30, 1, [&](bool parallel) {
      ran = true;
      EXPECT_FALSE(parallel);
      EXPECT_EQ(Scheduler::current(), &ambient);
    });
    EXPECT_TRUE(ran);
  });
  EXPECT_EQ(ambient.stats().spawns, 0u);
}

TEST(WithWorkers, AmbientManyWorkersForksOnIt) {
  Scheduler ambient(3);
  ambient.reset_stats();
  ambient.run([&] {
    // Below any threshold: the ambient scheduler is used regardless.
    octgb::ws::with_workers(0, 1, [&](bool parallel) {
      EXPECT_TRUE(parallel);
      EXPECT_EQ(Scheduler::current(), &ambient);
      EXPECT_EQ(psum(0, 10000), 10000LL * 9999 / 2);
    });
  });
  EXPECT_GT(ambient.stats().spawns, 0u);
}

TEST(WithWorkers, NoAmbientBelowThresholdRunsSerial) {
  bool ran = false;
  octgb::ws::with_workers(99, 100, [&](bool parallel) {
    ran = true;
    EXPECT_FALSE(parallel);
    EXPECT_EQ(Scheduler::current(), nullptr);
  });
  EXPECT_TRUE(ran);
}

TEST(WithWorkers, NoAmbientAboveThresholdUsesPrivatePool) {
  const unsigned hw = std::thread::hardware_concurrency();
  bool ran = false;
  octgb::ws::with_workers(100, 100, [&](bool parallel) {
    ran = true;
    Scheduler* pool = Scheduler::current();
    if (hw > 1) {
      EXPECT_TRUE(parallel);
      ASSERT_NE(pool, nullptr);
      EXPECT_EQ(pool->num_workers(), static_cast<int>(hw));
    } else {  // a one-thread host has nothing to fork onto
      EXPECT_FALSE(parallel);
      EXPECT_EQ(pool, nullptr);
    }
  });
  EXPECT_TRUE(ran);
  EXPECT_EQ(Scheduler::current(), nullptr);
}

TEST(Scheduler, ParallelForGrainRespectsEmptyAndTinyRanges) {
  Scheduler sched(2);
  int calls = 0;
  sched.run([&] {
    Scheduler::parallel_for(5, 5, 4, [&](std::int64_t, std::int64_t) {
      ++calls;
    });
  });
  EXPECT_EQ(calls, 0);
  std::atomic<long long> sum{0};
  sched.run([&] {
    Scheduler::parallel_for(3, 4, 100, [&](std::int64_t lo, std::int64_t hi) {
      sum += hi - lo;
    });
  });
  EXPECT_EQ(sum.load(), 1);
}

TEST(Scheduler, ParallelForAutoGrainCoversEveryIndexOnce) {
  // grain <= 0 derives max(1, span / (8 * workers)); coverage must be
  // exact regardless of the derived chunking.
  Scheduler sched(4);
  std::vector<std::atomic<int>> hits(5000);
  sched.run([&] {
    Scheduler::parallel_for(0, 5000, 0, [&](std::int64_t lo, std::int64_t hi) {
      for (auto i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Scheduler, ParallelForAutoGrainSplitsWork) {
  // With 4 workers over 6400 indices the derived grain is 200, so chunks
  // must be capped at that size (and there must be more than one).
  Scheduler sched(4);
  std::atomic<std::int64_t> max_chunk{0};
  std::atomic<int> chunks{0};
  sched.run([&] {
    Scheduler::parallel_for(0, 6400, 0, [&](std::int64_t lo, std::int64_t hi) {
      std::int64_t len = hi - lo;
      std::int64_t cur = max_chunk.load();
      while (len > cur && !max_chunk.compare_exchange_weak(cur, len)) {
      }
      ++chunks;
    });
  });
  EXPECT_LE(max_chunk.load(), 200);
  EXPECT_GT(chunks.load(), 1);
}

TEST(Scheduler, ParallelForAutoGrainSerialFallback) {
  // Without an active scheduler the auto grain resolves against one
  // worker: a single inline call covering the whole range.
  EXPECT_EQ(Scheduler::current(), nullptr);
  int calls = 0;
  std::int64_t covered = 0;
  Scheduler::parallel_for(0, 100, -3, [&](std::int64_t lo, std::int64_t hi) {
    ++calls;
    covered += hi - lo;
  });
  EXPECT_EQ(covered, 100);
  EXPECT_EQ(calls, 1);
}

TEST(Scheduler, ConcurrentIndependentSchedulers) {
  // The hybrid driver runs one scheduler per mpp rank, all in the same
  // process at the same time — their thread-local worker contexts must
  // not interfere.
  constexpr int kRanks = 4;
  std::vector<long long> results(kRanks, 0);
  std::vector<std::thread> ranks;
  for (int r = 0; r < kRanks; ++r) {
    ranks.emplace_back([&, r] {
      Scheduler sched(2);
      sched.run([&] { results[r] = psum(0, 50000 + r); });
    });
  }
  for (auto& t : ranks) t.join();
  for (int r = 0; r < kRanks; ++r) {
    const long long n = 50000 + r;
    EXPECT_EQ(results[r], n * (n - 1) / 2) << "rank " << r;
  }
}

TEST(Scheduler, DeepRecursionDoesNotStarve) {
  // A narrow, deep fork chain (worst case for help-first stacking).
  Scheduler sched(3);
  std::atomic<int> depth_reached{0};
  std::function<void(int)> chain = [&](int d) {
    if (d == 0) return;
    depth_reached.fetch_add(1);
    Scheduler::fork2([&, d] { chain(d - 1); }, [] {});
  };
  sched.run([&] { chain(300); });
  EXPECT_EQ(depth_reached.load(), 300);
}

TEST(Deque, GrowthUnderConcurrentSteals) {
  // Satellite stress for the TSan leg: the owner pushes far past the
  // initial capacity — forcing grow() while thieves hold references to
  // the old array — and four thieves drain concurrently. Every item must
  // still be delivered exactly once.
  constexpr int kItems = 10000;
  ChaseLevDeque<int> d(4);  // tiny initial capacity: many grows
  std::vector<int> vals(kItems);
  std::vector<std::atomic<int>> delivered(kItems);
  for (auto& a : delivered) a.store(0);

  std::atomic<bool> done{false};
  auto thief = [&] {
    for (;;) {
      if (int* p = d.steal()) {
        delivered[static_cast<std::size_t>(p - vals.data())].fetch_add(1);
      } else if (done.load()) {
        break;  // the caller's final drain takes any leftovers
      }
    }
  };
  std::vector<std::thread> thieves;
  for (int t = 0; t < 4; ++t) thieves.emplace_back(thief);

  // Pure pushes: the owner never pops, so the deque stays near its high
  // water mark and every capacity doubling races live steals.
  for (int i = 0; i < kItems; ++i) {
    vals[i] = i;
    d.push(&vals[i]);
  }
  done.store(true);
  for (auto& t : thieves) t.join();
  while (int* p = d.steal())
    delivered[static_cast<std::size_t>(p - vals.data())].fetch_add(1);

  for (int i = 0; i < kItems; ++i)
    ASSERT_EQ(delivered[i].load(), 1) << "item " << i;
}

// ---- locality-aware stealing (DESIGN.md §2.11) -----------------------------

namespace {

/// Synthetic 2-socket topology: cpus [0, half) on socket/L3 0, the rest on
/// socket/L3 1.
octgb::perf::CpuTopology two_socket_topo(int n, int half) {
  octgb::perf::CpuTopology t = octgb::perf::flat_topology(n);
  t.flat_fallback = false;
  t.sockets = 2;
  t.l3_domains = 2;
  for (int i = 0; i < n; ++i)
    t.cpus[static_cast<std::size_t>(i)] =
        octgb::perf::CpuTopology::Cpu{i, i < half ? 0 : 1, i < half ? 0 : 1,
                                      i};
  return t;
}

}  // namespace

TEST(Scheduler, TieredStealsClassifyAgainstTopology) {
  // 4 workers on a synthetic 2-socket host: steals must be classified,
  // the classes must sum to the total, and the fork-join result must be
  // exactly the serial sum regardless of who stole what.
  const auto topo = two_socket_topo(4, 2);
  octgb::ws::SchedulerOptions opts;
  opts.topology = &topo;
  Scheduler sched(4, opts);
  long long total = 0;
  sched.run([&] { total = psum(0, 200000); });
  EXPECT_EQ(total, 200000LL * 199999 / 2);
  const auto st = sched.stats();
  EXPECT_EQ(st.local_steals + st.socket_steals + st.remote_steals,
            st.steals);
  EXPECT_EQ(st.offblock_steals, 0u);  // not pinned: never counted
}

TEST(Scheduler, ResultsBitIdenticalAcrossTopologiesAndWorkerCounts) {
  // The production reduction shape: parallel_for writes one partial per
  // fixed chunk, and the partials fold in ascending chunk order, so the
  // double result is bitwise identical whatever the victim hierarchy or
  // worker count.
  constexpr std::int64_t kN = 50000, kChunk = 64;
  constexpr std::int64_t kChunks = (kN + kChunk - 1) / kChunk;
  const auto sum = [&] {
    std::vector<double> partial(kChunks, 0.0);
    Scheduler::parallel_for(0, kChunks, 1, [&](std::int64_t lo,
                                               std::int64_t hi) {
      for (std::int64_t c = lo; c < hi; ++c) {
        double s = 0.0;
        for (std::int64_t i = c * kChunk; i < std::min(kN, (c + 1) * kChunk);
             ++i)
          s += 1.0 / (1.0 + static_cast<double>(i));
        partial[static_cast<std::size_t>(c)] = s;
      }
    });
    double total = 0.0;
    for (const double s : partial) total += s;
    return total;
  };
  double ref = 0.0;
  {
    Scheduler s1(1);
    s1.run([&] { ref = sum(); });
  }
  for (int workers : {2, 3, 4}) {
    for (int half : {1, 2}) {
      const auto topo = two_socket_topo(4, half);
      octgb::ws::SchedulerOptions opts;
      opts.topology = &topo;
      Scheduler sched(workers, opts);
      double got = 0.0;
      sched.run([&] { got = sum(); });
      EXPECT_EQ(got, ref) << workers << " workers, half=" << half;
    }
  }
}

TEST(Scheduler, VictimTiersReflectCacheDistance) {
  // On a 1-L3 topology every victim is local; on a split topology a
  // worker across the boundary is remote. Exercised through the stats:
  // with a single L3, all successful steals must classify as local.
  const auto topo = two_socket_topo(4, 4);  // half=4: everyone socket 0
  octgb::ws::SchedulerOptions opts;
  opts.topology = &topo;
  Scheduler sched(4, opts);
  long long total = 0;
  sched.run([&] { total = psum(0, 200000); });
  EXPECT_EQ(total, 200000LL * 199999 / 2);
  const auto st = sched.stats();
  EXPECT_EQ(st.socket_steals, 0u);
  EXPECT_EQ(st.remote_steals, 0u);
  EXPECT_EQ(st.local_steals, st.steals);

  // Two workers map onto cpus 0 and 1 of a 1 + 1 split, so every steal
  // crosses the socket boundary.
  const auto split = two_socket_topo(2, 1);
  opts.topology = &split;
  Scheduler pair(2, opts);
  pair.run([&] { total = psum(0, 200000); });
  EXPECT_EQ(total, 200000LL * 199999 / 2);
  const auto ps = pair.stats();
  EXPECT_EQ(ps.local_steals + ps.socket_steals, 0u);
  EXPECT_EQ(ps.remote_steals, ps.steals);
}

TEST(Scheduler, PinnedBlockReportsZeroOffblockSteals) {
  // Pin onto the host topology (best effort — on hosts with fewer cores
  // than workers the pin calls may fail, which must degrade gracefully,
  // never throw). The off-block invariant holds structurally.
  octgb::ws::SchedulerOptions opts;
  opts.pin = true;
  opts.pin_first = 0;
  Scheduler sched(3, opts);
  long long total = 0;
  sched.run([&] { total = psum(0, 100000); });
  EXPECT_EQ(total, 100000LL * 99999 / 2);
  const auto st = sched.stats();
  EXPECT_EQ(st.offblock_steals, 0u);
  EXPECT_LE(st.pinned_workers, 3u);
  // A second run works after the caller's affinity mask was restored.
  sched.run([&] { total = psum(0, 1000); });
  EXPECT_EQ(total, 1000LL * 999 / 2);
}
