// Tests for the fault-injection runtime and the checkpointed, self-healing
// elastic hybrid driver: injector determinism, timeout/retry/checksum
// paths, checkpoint hardening, and the bit-identical-recovery contract.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <thread>

#include "octgb/core/checkpoint.hpp"
#include "octgb/core/hybrid.hpp"
#include "octgb/mol/generate.hpp"
#include "octgb/mpp/faults.hpp"
#include "octgb/mpp/mpp.hpp"
#include "octgb/sim/cluster.hpp"
#include "octgb/surface/surface.hpp"
#include "octgb/util/check.hpp"

using namespace octgb;
using mpp::Comm;
using mpp::Runtime;
using namespace mpp::faults;

// ---- injector ---------------------------------------------------------------

TEST(Faults, InjectorIsDeterministicForEqualPlans) {
  const FaultPlan plan = message_loss_plan(/*seed=*/42, /*p=*/0.3);
  const FaultInjector a(plan, 4), b(plan, 4);
  for (int src = 0; src < 4; ++src)
    for (int dest = 0; dest < 4; ++dest)
      for (std::uint64_t op = 0; op < 200; ++op) {
        const auto fa = a.on_send(src, dest, op);
        const auto fb = b.on_send(src, dest, op);
        ASSERT_EQ(fa.drop, fb.drop) << src << "→" << dest << " op " << op;
      }
  EXPECT_EQ(a.stats().drops, b.stats().drops);
  EXPECT_GT(a.stats().drops, 0u);  // p = 0.3 over 3200 sends must fire
}

TEST(Faults, DifferentSeedsGiveDifferentSchedules) {
  const FaultInjector a(message_loss_plan(1, 0.5), 2);
  const FaultInjector b(message_loss_plan(2, 0.5), 2);
  int differing = 0;
  for (std::uint64_t op = 0; op < 256; ++op)
    if (a.on_send(0, 1, op).drop != b.on_send(0, 1, op).drop) ++differing;
  EXPECT_GT(differing, 0);
}

TEST(Faults, KillRuleFiresOnceAtTheScheduledOp) {
  const FaultInjector inj(rank_kill_plan(/*seed=*/7, /*victim=*/2,
                                         /*after_op=*/5),
                          4);
  for (std::uint64_t op = 0; op < 5; ++op)
    EXPECT_FALSE(inj.should_kill(2, op)) << "op " << op;
  EXPECT_FALSE(inj.should_kill(1, 5));  // wrong rank
  EXPECT_TRUE(inj.should_kill(2, 5));
  EXPECT_FALSE(inj.should_kill(2, 6));  // max_fires = 1
  EXPECT_EQ(inj.stats().kills, 1u);
}

TEST(Faults, StallRuleReturnsConfiguredDuration) {
  const FaultInjector inj(stall_plan(/*seed=*/3, /*p=*/1.0, /*millis=*/4.5),
                          2);
  EXPECT_DOUBLE_EQ(inj.stall_ms(0, 0), 4.5);
  EXPECT_GT(inj.stats().stalls, 0u);
}

TEST(Faults, Crc32KnownAnswer) {
  // The canonical CRC-32 check value (IEEE 802.3, reflected).
  const char* s = "123456789";
  EXPECT_EQ(crc32(s, std::strlen(s)), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

// ---- runtime fault paths ----------------------------------------------------

namespace {

Runtime::Options base_opts(int ranks) {
  Runtime::Options o;
  o.ranks = ranks;
  o.topology.ranks_per_node = 2;
  return o;
}

}  // namespace

TEST(Faults, DroppedMessageSurfacesAsTimeout) {
  auto o = base_opts(2);
  o.fault_plan = message_loss_plan(/*seed=*/5, /*p=*/1.0);  // drop all
  FaultStats stats;
  o.fault_stats_out = &stats;
  Runtime::run(o, [](Comm& c) {
    if (c.rank() == 0) {
      c.send_value(1, 1, 3.5);  // vanishes on the wire
    } else {
      double v = 0.0;
      auto r = c.recv_bytes_deadline(0, 1, &v, sizeof(v), 10.0);
      ASSERT_FALSE(r.has_value());
      EXPECT_EQ(r.error().status, mpp::CommStatus::Timeout);
    }
  });
  EXPECT_GE(stats.drops, 1u);
}

TEST(Faults, CorruptionIsDetectedByChecksumAndRetryFindsCleanCopy) {
  auto o = base_opts(2);
  o.checksum = true;
  FaultPlan plan;
  plan.seed = 11;
  // Corrupt exactly the sender's first message; the re-send is clean.
  plan.rules.push_back({.kind = FaultKind::Corrupt,
                        .rank = 0,
                        .probability = 1.0,
                        .max_fires = 1});
  o.fault_plan = plan;
  Runtime::run(o, [](Comm& c) {
    if (c.rank() == 0) {
      c.send_value(1, 4, 2.75);  // corrupted in flight
      c.send_value(1, 4, 2.75);  // clean
    } else {
      double v = 0.0;
      mpp::RetryPolicy policy;
      policy.attempts = 5;
      policy.deadline_ms = 50.0;
      auto r = c.recv_bytes_retry(0, 4, &v, sizeof(v), policy);
      ASSERT_TRUE(r.has_value());
      EXPECT_DOUBLE_EQ(v, 2.75);
      EXPECT_GE(c.retries(), 1u);  // the corrupt copy cost one attempt
    }
  });
}

TEST(Faults, DelayedMessageArrivesAfterItsDelay) {
  auto o = base_opts(2);
  FaultPlan plan;
  plan.seed = 13;
  plan.rules.push_back(
      {.kind = FaultKind::Delay, .probability = 1.0, .millis = 20.0});
  o.fault_plan = plan;
  Runtime::run(o, [](Comm& c) {
    if (c.rank() == 0) {
      c.send_value(1, 2, 7);
    } else {
      // Shorter than the delay: must time out, message still in flight.
      int v = 0;
      auto r = c.recv_bytes_deadline(0, 2, &v, sizeof(v), 2.0);
      EXPECT_FALSE(r.has_value());
      // Unbounded receive waits out the delay and succeeds.
      EXPECT_EQ(c.recv_value<int>(0, 2), 7);
    }
  });
}

TEST(Faults, KilledRankIsObservedAsPeerDead) {
  auto o = base_opts(2);
  o.fault_plan = rank_kill_plan(/*seed=*/17, /*victim=*/1, /*after_op=*/0);
  Runtime::run(o, [](Comm& c) {
    if (c.rank() == 0) {
      // Rank 1 dies at its first comm op; this receive must fail fast
      // with PeerDead instead of hanging (the deadline is a backstop).
      int v = 0;
      auto r = c.recv_bytes_retry(1, 9, &v, sizeof(v),
                                  {.attempts = 200, .deadline_ms = 10.0,
                                   .backoff = 1.0});
      ASSERT_FALSE(r.has_value());
      EXPECT_EQ(r.error().status, mpp::CommStatus::PeerDead);
      EXPECT_FALSE(c.is_alive(1));
      EXPECT_EQ(c.failure_epoch(), 1);
      EXPECT_EQ(c.alive_ranks(), std::vector<int>{0});
    } else {
      c.send_value(0, 9, 1);  // fault point: dies here
      FAIL() << "rank 1 should have been killed";
    }
  });
}

TEST(Faults, RetryAbortsRemainingBackoffWhenFailureEpochAdvances) {
  // Regression for the fail-fast contract: a death *anywhere* in the job
  // (not just at the awaited source) must abort a retry-with-backoff wait
  // immediately. Rank 0 waits on rank 1 — who never sends — under a
  // schedule worth ~10 s; rank 2 dies at its second comm op. The epoch
  // advance must surface as Timeout long before the schedule drains.
  // The wait snapshots the failure epoch on entry, so the death must come
  // after it: rank 0 signals rank 2 just before waiting, and rank 2 dies
  // a margin after receiving the signal.
  auto o = base_opts(3);
  o.fault_plan = rank_kill_plan(/*seed=*/23, /*victim=*/2, /*after_op=*/1);
  Runtime::run(o, [](Comm& c) {
    if (c.rank() == 0) {
      int v = 0;
      c.send_value(2, 7, 1);  // go: rank 2 may die from here on
      const auto t0 = std::chrono::steady_clock::now();
      auto r = c.recv_bytes_retry(1, 6, &v, sizeof(v),
                                  {.attempts = 50, .deadline_ms = 200.0,
                                   .backoff = 1.0});
      const double elapsed_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count();
      ASSERT_FALSE(r.has_value());
      // Rank 1 is alive, so the abort reports Timeout (not PeerDead).
      EXPECT_EQ(r.error().status, mpp::CommStatus::Timeout);
      EXPECT_EQ(c.failure_epoch(), 1);
      EXPECT_LT(elapsed_ms, 5000.0) << "epoch advance did not abort the "
                                       "remaining backoff schedule";
    } else if (c.rank() == 2) {
      (void)c.recv_value<int>(0, 7);
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      c.send_value(0, 99, 1);  // fault point: dies here
      FAIL() << "rank 2 should have been killed";
    }
    // Rank 1 stays silent and exits cleanly.
  });
}

TEST(Faults, CollectivePayloadCorruptionIsDetectedByChecksum) {
  // Satellite: the per-message CRC covers collective *internals* — every
  // hop of bcast / reduce_sum / gatherv is a checksummed message, so a
  // corrupted hop surfaces as ChecksumMismatch at the receiving rank
  // instead of silently poisoning the reduction.
  const auto expect_mismatch = [](int corrupt_rank, auto&& body) {
    auto o = base_opts(2);
    o.checksum = true;
    FaultPlan plan;
    plan.seed = 31;
    plan.rules.push_back({.kind = FaultKind::Corrupt,
                          .rank = corrupt_rank,
                          .probability = 1.0});
    o.fault_plan = plan;
    Runtime::run(o, [&](Comm& c) {
      const bool receiving_end = c.rank() != corrupt_rank;
      try {
        body(c);
        EXPECT_FALSE(receiving_end)
            << "corrupt collective hop went undetected";
      } catch (const mpp::CommException& e) {
        EXPECT_TRUE(receiving_end);
        EXPECT_EQ(e.error().status, mpp::CommStatus::ChecksumMismatch);
      }
    });
  };
  // Bcast: root 0's hop to rank 1 is corrupted.
  expect_mismatch(0, [](Comm& c) {
    std::vector<double> data = {1.0, 2.0, 3.0};
    c.bcast(std::span<double>(data), /*root=*/0);
  });
  // Reduce: rank 1's contribution to root 0 is corrupted.
  expect_mismatch(1, [](Comm& c) {
    std::vector<double> data = {4.0, 5.0};
    c.reduce_sum(std::span<double>(data), /*root=*/0);
  });
  // Gatherv: rank 1's segment to root 0 is corrupted.
  expect_mismatch(1, [](Comm& c) {
    const std::vector<double> mine(3, 1.0 + c.rank());
    (void)c.gatherv(std::span<const double>(mine), /*root=*/0);
  });
}

// ---- checkpoint wire format -------------------------------------------------

TEST(Checkpoint, EncodeDecodeRoundTrip) {
  core::SuperstepCheckpoint c;
  c.phase = "integrals";
  c.task = 3;
  c.data = {1.5, -2.25, 0.0, 1e300};
  const auto decoded = core::decode_checkpoint(core::encode_checkpoint(c));
  ASSERT_TRUE(decoded.has_value()) << decoded.error();
  EXPECT_EQ(decoded.value(), c);
}

TEST(Checkpoint, EmptyPayloadAndPhaseRoundTrip) {
  core::SuperstepCheckpoint c;  // empty phase, task 0, no data
  const auto decoded = core::decode_checkpoint(core::encode_checkpoint(c));
  ASSERT_TRUE(decoded.has_value()) << decoded.error();
  EXPECT_EQ(decoded.value(), c);
}

TEST(Checkpoint, TruncationAtEveryByteIsACleanError) {
  // The hardening contract: chopping the stream at *any* point yields a
  // descriptive error, never UB or partial state.
  core::SuperstepCheckpoint c;
  c.phase = "born";
  c.task = 7;
  c.data = {3.5, 4.5, 5.5};
  const std::string bytes = core::encode_checkpoint(c);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const auto r =
        core::decode_checkpoint(std::string_view(bytes).substr(0, cut));
    ASSERT_FALSE(r.has_value()) << "cut at " << cut << " parsed";
    ASSERT_FALSE(r.error().empty());
  }
  EXPECT_TRUE(core::decode_checkpoint(bytes).has_value());
}

TEST(Checkpoint, NonFinitePayloadIsANamedErrorAndReadsAsMissing) {
  // A checkpoint holds finite partial integrals, radii and energies; a NaN
  // or infinite value can only come from a corrupted store entry, so the
  // reader names its index and the store treats the entry as missing.
  core::SuperstepCheckpoint c;
  c.phase = "born";
  c.task = 2;
  c.data = {3.5, 4.5, 5.5, 6.5};
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    for (std::size_t i = 0; i < c.data.size(); ++i) {
      SCOPED_TRACE(std::to_string(v) + " at " + std::to_string(i));
      core::SuperstepCheckpoint bad = c;
      bad.data[i] = v;
      const auto r = core::decode_checkpoint(core::encode_checkpoint(bad));
      ASSERT_FALSE(r.has_value());
      EXPECT_NE(r.error().find("payload value " + std::to_string(i) +
                               " is non-finite"),
                std::string::npos)
          << r.error();
      core::CheckpointStore store;
      store.put_checkpoint(bad);
      EXPECT_FALSE(store.get_checkpoint("born", 2).has_value());
    }
  }
  EXPECT_TRUE(core::decode_checkpoint(core::encode_checkpoint(c)).has_value());
}

TEST(Checkpoint, BadMagicAndCorruptLengthAreRejected) {
  core::SuperstepCheckpoint c;
  c.phase = "epol";
  c.data = {1.0};
  std::string bytes = core::encode_checkpoint(c);
  {
    std::string bad = bytes;
    bad[0] ^= 0x40;
    const auto r = core::decode_checkpoint(bad);
    ASSERT_FALSE(r.has_value());
    EXPECT_NE(r.error().find("magic"), std::string::npos);
  }
  {
    // Blow up the phase-length field (offset 12): must be rejected as
    // implausible before any allocation happens.
    std::string bad = bytes;
    bad[12] = '\x7f';
    bad[18] = '\x7f';
    EXPECT_FALSE(core::decode_checkpoint(bad).has_value());
  }
  {
    std::string bad = bytes;
    bad += "x";  // trailing garbage
    EXPECT_FALSE(core::decode_checkpoint(bad).has_value());
  }
}

TEST(Checkpoint, StoreRoundTripAndCorruptEntryReadsAsMissing) {
  core::CheckpointStore store;
  core::SuperstepCheckpoint c;
  c.phase = "integrals";
  c.task = 1;
  c.data = {2.5};
  store.put_checkpoint(c);
  EXPECT_EQ(store.size(), 1u);
  const auto back = store.get_checkpoint("integrals", 1);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, c);
  EXPECT_FALSE(store.get_checkpoint("integrals", 2).has_value());
  // A corrupt entry is treated as missing, so the task is recomputed.
  store.put(core::CheckpointStore::key_of("integrals", 1), "garbage");
  EXPECT_FALSE(store.get_checkpoint("integrals", 1).has_value());
  EXPECT_GE(store.puts(), 2u);
}

TEST(Checkpoint, StoreIsThreadSafe) {
  core::CheckpointStore store;
  std::vector<std::thread> threads;
  static constexpr const char* kPhases[4] = {"p0", "p1", "p2", "p3"};
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&store, t] {
      for (int i = 0; i < 50; ++i) {
        core::SuperstepCheckpoint c;
        c.phase = kPhases[t];
        c.task = static_cast<std::uint64_t>(i);
        c.data = {static_cast<double>(t), static_cast<double>(i)};
        store.put_checkpoint(c);
        (void)store.get_checkpoint(c.phase, c.task);
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(store.size(), 200u);
}

// ---- elastic driver: bit-identical recovery ---------------------------------

namespace {

struct ElasticFixture {
  mol::Molecule molecule;
  surface::Surface surf;
  core::GBEngine engine;
  double reference_epol;

  ElasticFixture()
      : molecule(mol::generate_protein({.target_atoms = 400, .seed = 31})),
        surf(surface::build_surface(molecule, {.subdivision = 1})),
        engine(molecule, surf) {
    reference_epol = engine.compute().epol;
  }
};

ElasticFixture& elastic_fixture() {
  static ElasticFixture f;
  return f;
}

core::ElasticResult run_elastic(FaultPlan plan, int ranks = 4) {
  core::ElasticConfig cfg;
  cfg.hybrid.ranks = ranks;
  cfg.hybrid.topology.ranks_per_node = 2;
  cfg.fault_plan = std::move(plan);
  return core::run_hybrid_elastic(elastic_fixture().engine, cfg);
}

/// The fault-free elastic result all faulty runs must match bit for bit.
const core::ElasticResult& elastic_baseline() {
  static core::ElasticResult base = run_elastic(FaultPlan{});
  return base;
}

void expect_bit_identical(const core::ElasticResult& r) {
  const auto& base = elastic_baseline();
  EXPECT_EQ(r.epol, base.epol);  // exact FP equality, not NEAR
  ASSERT_EQ(r.born.size(), base.born.size());
  for (std::size_t i = 0; i < r.born.size(); ++i)
    ASSERT_EQ(r.born[i], base.born[i]) << "atom " << i;
}

}  // namespace

TEST(Elastic, FaultFreeRunMatchesSerialReferenceAndDoesMinimalWork) {
  const auto& base = elastic_baseline();
  const auto& f = elastic_fixture();
  EXPECT_NEAR(base.epol, f.reference_epol,
              1e-9 * std::abs(f.reference_epol));
  EXPECT_EQ(base.ranks_completed, 4);
  EXPECT_TRUE(base.dead_ranks.empty());
  EXPECT_EQ(base.tasks_computed, 12u);  // 3 phases × 4 tasks, no repeats
  EXPECT_EQ(base.tasks_recomputed, 0u);
  EXPECT_EQ(base.faults.total(), 0u);
}

TEST(Elastic, KillOneRankRecoversBitIdentically) {
  const auto r = run_elastic(rank_kill_plan(/*seed=*/101, /*victim=*/2,
                                            /*after_op=*/4));
  expect_bit_identical(r);
  EXPECT_EQ(r.ranks_completed, 3);
  ASSERT_EQ(r.dead_ranks.size(), 1u);
  EXPECT_EQ(r.dead_ranks[0], 2);
  EXPECT_EQ(r.faults.kills, 1u);
  EXPECT_GT(r.tasks_recomputed, 0u);  // survivors redid the lost segments
}

TEST(Elastic, KillAllButOneRankStillRecovers) {
  FaultPlan plan;
  plan.seed = 202;
  // Each rank polls the fault point at least twice per phase (six ops per
  // run), so ops 1/3/5 are guaranteed to be reached — one death per phase.
  for (int victim = 1; victim < 4; ++victim)
    plan.rules.push_back({.kind = FaultKind::Kill,
                          .rank = victim,
                          .probability = 1.0,
                          .after_op = static_cast<std::uint64_t>(2 * victim - 1),
                          .max_fires = 1});
  const auto r = run_elastic(std::move(plan));
  expect_bit_identical(r);
  EXPECT_EQ(r.ranks_completed, 1);
  EXPECT_EQ(r.dead_ranks.size(), 3u);
  EXPECT_EQ(r.faults.kills, 3u);
}

TEST(Elastic, MessageLossRecoversBitIdentically) {
  const auto r = run_elastic(message_loss_plan(/*seed=*/303, /*p=*/0.25));
  expect_bit_identical(r);
  EXPECT_EQ(r.ranks_completed, 4);
  EXPECT_GE(r.faults.drops, 1u);
}

TEST(Elastic, CorruptionWithChecksumRecoversBitIdentically) {
  const auto r = run_elastic(corruption_plan(/*seed=*/404, /*p=*/0.5));
  expect_bit_identical(r);
  EXPECT_EQ(r.ranks_completed, 4);
  EXPECT_GE(r.faults.corruptions, 1u);
}

TEST(Elastic, StallsOnlySlowTheRunDown) {
  const auto r = run_elastic(stall_plan(/*seed=*/505, /*p=*/0.05,
                                        /*millis=*/2.0));
  expect_bit_identical(r);
  EXPECT_EQ(r.ranks_completed, 4);
  EXPECT_EQ(r.tasks_recomputed, 0u);  // stalled ranks stay alive and keep
                                      // their tasks
}

TEST(Elastic, CombinedChaosPlanRecoversBitIdentically) {
  FaultPlan plan = message_loss_plan(/*seed=*/606, /*p=*/0.1);
  plan.rules.push_back(
      {.kind = FaultKind::Delay, .probability = 0.1, .millis = 3.0});
  plan.rules.push_back({.kind = FaultKind::Duplicate, .probability = 0.1});
  plan.rules.push_back({.kind = FaultKind::Corrupt, .probability = 0.1});
  plan.rules.push_back({.kind = FaultKind::Kill,
                        .rank = 1,
                        .probability = 1.0,
                        .after_op = 5,
                        .max_fires = 1});
  const auto r = run_elastic(std::move(plan));
  expect_bit_identical(r);
  EXPECT_EQ(r.ranks_completed, 3);
  EXPECT_EQ(r.dead_ranks, std::vector<int>{1});
}

TEST(Elastic, SingleRankSurvivesWithoutPeers) {
  const auto r = run_elastic(FaultPlan{}, /*ranks=*/1);
  const auto& f = elastic_fixture();
  EXPECT_NEAR(r.epol, f.reference_epol, 1e-9 * std::abs(f.reference_epol));
  EXPECT_EQ(r.ranks_completed, 1);
}

TEST(Elastic, CorruptStoredCheckpointsAreRecomputed) {
  // A store entry that is present but unusable — a NaN payload that does
  // not decode, or a payload of the wrong size — is a missing task: its
  // owner recomputes it, and the run reproduces the fault-free result
  // bit for bit.
  const auto base = run_elastic(FaultPlan{}, /*ranks=*/2);
  core::CheckpointStore store;
  store.put_checkpoint(
      {"born", 0, {1.5, std::numeric_limits<double>::quiet_NaN(), 2.5}});
  store.put_checkpoint({"epol", 1, {-1.0, -2.0}});
  ASSERT_FALSE(store.get_checkpoint("born", 0).has_value());
  core::ElasticConfig cfg;
  cfg.hybrid.ranks = 2;
  cfg.hybrid.topology.ranks_per_node = 2;
  cfg.store = &store;
  const auto r = core::run_hybrid_elastic(elastic_fixture().engine, cfg);
  EXPECT_EQ(r.epol, base.epol);
  EXPECT_EQ(r.born, base.born);
  EXPECT_EQ(r.ranks_completed, 2);
  EXPECT_EQ(r.tasks_recomputed, 2u);  // born/0 and epol/1
  EXPECT_EQ(r.tasks_computed, 6u);    // 3 phases × 2 tasks, each once
  EXPECT_TRUE(store.get_checkpoint("born", 0).has_value());
  EXPECT_EQ(store.get_checkpoint("epol", 1)->data.size(), 1u);
}

TEST(Elastic, NonFiniteTaskResultIsANamedErrorNotARecomputeLoop) {
  // Charges of ±1e200 pass ingress but overflow every Epol pair term. A
  // checkpoint never decodes a non-finite payload, so storing such a task
  // would leave it missing and the ranks would recompute it without end;
  // run_hybrid_elastic instead fails the task, naming the phase, within
  // seconds.
  mol::Molecule molecule =
      mol::generate_protein({.target_atoms = 200, .seed = 21});
  for (std::size_t i = 0; i < molecule.size(); ++i)
    molecule.atoms()[i].charge = i % 2 == 0 ? 1e200 : -1e200;
  const core::GBEngine engine(
      molecule, surface::build_surface(molecule, {.subdivision = 1}));
  for (int ranks : {1, 2}) {
    SCOPED_TRACE(std::to_string(ranks) + " ranks");
    core::ElasticConfig cfg;
    cfg.hybrid.ranks = ranks;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      (void)core::run_hybrid_elastic(engine, cfg);
      ADD_FAILURE() << "a non-finite task result was accepted";
    } catch (const util::CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("phase 'epol' task "), std::string::npos) << what;
      EXPECT_NE(what.find("non-finite result"), std::string::npos) << what;
    }
    const double elapsed_s = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
    EXPECT_LT(elapsed_s, 5.0);
  }
}

// ---- recovery model ---------------------------------------------------------

TEST(RecoveryModel, OptimalIntervalFollowsYoungDaly) {
  EXPECT_DOUBLE_EQ(sim::optimal_checkpoint_interval(0.5, 3600.0),
                   std::sqrt(2.0 * 0.5 * 3600.0));
  // More frequent failures → checkpoint more often.
  EXPECT_LT(sim::optimal_checkpoint_interval(0.5, 600.0),
            sim::optimal_checkpoint_interval(0.5, 3600.0));
}

TEST(RecoveryModel, EstimateChargesCheckpointsAndRework) {
  sim::SimResult base;
  base.total_seconds = 100.0;
  sim::RecoveryConfig cfg;
  cfg.mtbf_seconds = 500.0;
  cfg.checkpoint_seconds = 0.2;
  cfg.checkpoint_interval_seconds = 10.0;
  const auto est = sim::estimate_recovery(base, cfg);
  EXPECT_DOUBLE_EQ(est.interval_seconds, 10.0);
  EXPECT_DOUBLE_EQ(est.checkpoint_overhead_seconds, 2.0);  // 10 ckpts × 0.2
  EXPECT_GT(est.expected_failures, 0.0);
  EXPECT_GT(est.rework_seconds, 0.0);
  EXPECT_GT(est.expected_total_seconds, base.total_seconds);
  EXPECT_GT(est.overhead_fraction, 0.0);

  // The Young/Daly optimum must beat a far-too-eager cadence.
  sim::RecoveryConfig eager = cfg;
  eager.checkpoint_interval_seconds = 0.5;
  sim::RecoveryConfig optimal = cfg;
  optimal.checkpoint_interval_seconds = 0.0;  // pick √(2δM)
  EXPECT_LT(sim::estimate_recovery(base, optimal).expected_total_seconds,
            sim::estimate_recovery(base, eager).expected_total_seconds);
}
