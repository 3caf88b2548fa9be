// Tests for the in-process message-passing runtime.

#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "octgb/mpp/mpp.hpp"
#include "octgb/util/check.hpp"
#include "octgb/util/rng.hpp"

using octgb::mpp::Comm;
using octgb::mpp::Runtime;
using octgb::mpp::Topology;

namespace {

Runtime::Options opts(int ranks, int ranks_per_node = 12) {
  Runtime::Options o;
  o.ranks = ranks;
  o.topology.ranks_per_node = ranks_per_node;
  return o;
}

}  // namespace

TEST(Topology, NodeMapping) {
  Topology t{12};
  EXPECT_EQ(t.node_of(0), 0);
  EXPECT_EQ(t.node_of(11), 0);
  EXPECT_EQ(t.node_of(12), 1);
  EXPECT_TRUE(t.same_node(3, 11));
  EXPECT_FALSE(t.same_node(11, 12));
}

TEST(Topology, RanksNotDivisibleByNodeSize) {
  // 7 ranks on 5-per-node: the last node is only partially filled — the
  // mapping must not round, truncate to zero nodes, or mis-pair the tail.
  Topology t{5};
  EXPECT_EQ(t.node_of(4), 0);
  EXPECT_EQ(t.node_of(5), 1);
  EXPECT_EQ(t.node_of(6), 1);
  EXPECT_TRUE(t.same_node(5, 6));
  EXPECT_FALSE(t.same_node(4, 5));
}

TEST(Topology, SingleRankNodesAreAllCrossNode) {
  // ranks_per_node = 1: every rank is its own node (pure TCP for the
  // out-of-process transport), and no distinct pair shares a node.
  Topology t{1};
  for (int r = 0; r < 4; ++r) EXPECT_EQ(t.node_of(r), r);
  EXPECT_FALSE(t.same_node(0, 1));
  EXPECT_TRUE(t.same_node(2, 2));  // a rank shares a node with itself
}

TEST(Topology, NodeLargerThanJobHoldsAllRanks) {
  // ranks_per_node exceeding the job size: one node, all pairs intra-node.
  Topology t{64};
  EXPECT_EQ(t.node_of(0), 0);
  EXPECT_EQ(t.node_of(7), 0);
  EXPECT_TRUE(t.same_node(0, 7));
}

TEST(Mpp, CommStatusNamesRoundTrip) {
  using octgb::mpp::CommStatus;
  using octgb::mpp::comm_status_from_name;
  using octgb::mpp::comm_status_name;
  for (const CommStatus s :
       {CommStatus::Timeout, CommStatus::PeerDead, CommStatus::ChecksumMismatch,
        CommStatus::ConnectionLost}) {
    const auto back = comm_status_from_name(comm_status_name(s));
    ASSERT_TRUE(back.has_value()) << comm_status_name(s);
    EXPECT_EQ(*back, s);
  }
  EXPECT_STREQ(comm_status_name(CommStatus::ConnectionLost),
               "connection-lost");
  EXPECT_FALSE(comm_status_from_name("segfault").has_value());
  EXPECT_FALSE(comm_status_from_name("").has_value());
}

TEST(Mpp, SingleRankRunsTrivially) {
  int visits = 0;
  Runtime::run(opts(1), [&](Comm& c) {
    EXPECT_EQ(c.rank(), 0);
    EXPECT_EQ(c.size(), 1);
    ++visits;
  });
  EXPECT_EQ(visits, 1);
}

TEST(Mpp, PointToPointRoundTrip) {
  Runtime::run(opts(2), [](Comm& c) {
    if (c.rank() == 0) {
      c.send_value(1, 7, 42.5);
      EXPECT_DOUBLE_EQ(c.recv_value<double>(1, 8), 43.5);
    } else {
      EXPECT_DOUBLE_EQ(c.recv_value<double>(0, 7), 42.5);
      c.send_value(0, 8, 43.5);
    }
  });
}

TEST(Mpp, TagMatchingOutOfOrder) {
  // Rank 0 sends tag 2 then tag 1; rank 1 receives tag 1 first.
  Runtime::run(opts(2), [](Comm& c) {
    if (c.rank() == 0) {
      c.send_value(1, 2, 200);
      c.send_value(1, 1, 100);
    } else {
      EXPECT_EQ(c.recv_value<int>(0, 1), 100);
      EXPECT_EQ(c.recv_value<int>(0, 2), 200);
    }
  });
}

TEST(Mpp, SendToSelfIsRejected) {
  EXPECT_THROW(Runtime::run(opts(1),
                            [](Comm& c) { c.send_value(0, 0, 1); }),
               octgb::util::CheckError);
}

TEST(Mpp, MessageSizeMismatchIsRejected) {
  EXPECT_THROW(Runtime::run(opts(2),
                            [](Comm& c) {
                              if (c.rank() == 0) {
                                c.send_value<double>(1, 0, 1.0);
                              } else {
                                (void)c.recv_value<int>(0, 0);
                              }
                            }),
               octgb::util::CheckError);
}

TEST(Mpp, RankFailurePropagatesWithoutDeadlock) {
  // Rank 1 throws while rank 0 blocks in recv: the abort flag must wake
  // rank 0 and the first error must be rethrown.
  EXPECT_THROW(
      Runtime::run(opts(2),
                   [](Comm& c) {
                     if (c.rank() == 0) {
                       (void)c.recv_value<int>(1, 0);  // never arrives
                     } else {
                       throw std::runtime_error("rank 1 exploded");
                     }
                   }),
      std::runtime_error);
}

class MppCollectives : public ::testing::TestWithParam<int> {};

TEST_P(MppCollectives, BcastFromEveryRoot) {
  const int P = GetParam();
  for (int root = 0; root < P; ++root) {
    Runtime::run(opts(P), [root](Comm& c) {
      std::vector<double> data(5, c.rank() == root ? 3.25 : 0.0);
      c.bcast(std::span<double>(data), root);
      for (double v : data) EXPECT_DOUBLE_EQ(v, 3.25);
    });
  }
}

TEST_P(MppCollectives, AllreduceSumMatchesSerialReference) {
  const int P = GetParam();
  constexpr int kLen = 37;
  // Reference: per-rank values are deterministic functions of (rank, i).
  std::vector<double> expected(kLen, 0.0);
  for (int r = 0; r < P; ++r)
    for (int i = 0; i < kLen; ++i) expected[i] += r * 1000.0 + i;

  Runtime::run(opts(P), [&](Comm& c) {
    std::vector<double> mine(kLen);
    for (int i = 0; i < kLen; ++i) mine[i] = c.rank() * 1000.0 + i;
    c.allreduce_sum(std::span<double>(mine));
    for (int i = 0; i < kLen; ++i) EXPECT_DOUBLE_EQ(mine[i], expected[i]);
  });
}

TEST_P(MppCollectives, ScalarAllreduceVariants) {
  const int P = GetParam();
  Runtime::run(opts(P), [P](Comm& c) {
    const double r = static_cast<double>(c.rank());
    EXPECT_DOUBLE_EQ(c.allreduce_sum(r), P * (P - 1) / 2.0);
    EXPECT_EQ(c.allreduce_sum(std::uint64_t{1}),
              static_cast<std::uint64_t>(P));
  });
}

TEST_P(MppCollectives, ReduceSumOntoNonzeroRoot) {
  const int P = GetParam();
  const int root = P - 1;
  Runtime::run(opts(P), [&](Comm& c) {
    std::vector<double> v(3, 1.0);
    c.reduce_sum(std::span<double>(v), root);
    if (c.rank() == root) {
      for (double x : v) EXPECT_DOUBLE_EQ(x, static_cast<double>(P));
    }
  });
}

TEST_P(MppCollectives, AllgathervConcatenatesInRankOrder) {
  const int P = GetParam();
  Runtime::run(opts(P), [](Comm& c) {
    // Rank r contributes r+1 values, all equal to r.
    std::vector<int> mine(c.rank() + 1, c.rank());
    const auto all = c.allgatherv(std::span<const int>(mine));
    std::size_t pos = 0;
    for (int r = 0; r < c.size(); ++r) {
      for (int k = 0; k <= r; ++k) {
        ASSERT_LT(pos, all.size());
        EXPECT_EQ(all[pos++], r);
      }
    }
    EXPECT_EQ(pos, all.size());
  });
}

TEST_P(MppCollectives, GathervHandlesEmptyContributions) {
  const int P = GetParam();
  Runtime::run(opts(P), [](Comm& c) {
    std::vector<double> mine;
    if (c.rank() % 2 == 0) mine.assign(2, static_cast<double>(c.rank()));
    const auto all = c.gatherv(std::span<const double>(mine), 0);
    if (c.rank() == 0) {
      std::size_t expected = 0;
      for (int r = 0; r < c.size(); r += 2) expected += 2;
      EXPECT_EQ(all.size(), expected);
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, MppCollectives,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13));

TEST(Mpp, TrafficAccountingClassifiesIntraVsInterNode) {
  // 4 ranks, 2 per node: 0,1 on node 0; 2,3 on node 1.
  auto counters = Runtime::run(opts(4, 2), [](Comm& c) {
    if (c.rank() == 0) {
      c.send_value(1, 0, 1.0);  // intra-node
      c.send_value(2, 0, 1.0);  // inter-node
    }
    if (c.rank() == 1) (void)c.recv_value<double>(0, 0);
    if (c.rank() == 2) (void)c.recv_value<double>(0, 0);
  });
  EXPECT_EQ(counters[0].messages_intranode, 1u);
  EXPECT_EQ(counters[0].messages_internode, 1u);
  EXPECT_EQ(counters[0].bytes_intranode, sizeof(double));
  EXPECT_EQ(counters[0].bytes_internode, sizeof(double));
  EXPECT_EQ(counters[1].messages_intranode + counters[1].messages_internode,
            0u);
}

TEST(Mpp, CollectiveCountsIncrease) {
  auto counters = Runtime::run(opts(3), [](Comm& c) {
    (void)c.allreduce_sum(0.0);
    double v = 1.0;
    std::span<double> s(&v, 1);
    c.allreduce_sum(s);
  });
  for (const auto& cc : counters) {
    EXPECT_GE(cc.collectives, 2u);  // each allreduce counts reduce+bcast
  }
}

TEST(Mpp, ManyRanksStress) {
  // 32 ranks exchanging a ring of messages plus collectives.
  Runtime::run(opts(32, 12), [](Comm& c) {
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    if (c.rank() % 2 == 0) {
      c.send_value(next, 1, c.rank());
      EXPECT_EQ(c.recv_value<int>(prev, 1), prev);
    } else {
      EXPECT_EQ(c.recv_value<int>(prev, 1), prev);
      c.send_value(next, 1, c.rank());
    }
    const double total = c.allreduce_sum(1.0);
    EXPECT_DOUBLE_EQ(total, 32.0);
  });
}

// ---- randomized collective property sweep -------------------------------------

TEST(MppProperty, RandomAllreducePayloadsMatchSerialSums) {
  // Property: for random rank counts, payload lengths and values, the
  // allreduce equals the serial fold.
  octgb::util::Xoshiro256 rng(2024);
  for (int trial = 0; trial < 12; ++trial) {
    const int P = 1 + static_cast<int>(rng.below(9));
    const int len = 1 + static_cast<int>(rng.below(257));
    // Deterministic per-(rank, index) values so every rank can recompute
    // the expectation independently.
    const std::uint64_t seed = rng();
    std::vector<double> expected(len, 0.0);
    for (int r = 0; r < P; ++r) {
      octgb::util::Xoshiro256 g(seed + r);
      for (int i = 0; i < len; ++i) expected[i] += g.uniform(-1, 1);
    }
    Runtime::run(opts(P), [&](Comm& c) {
      octgb::util::Xoshiro256 g(seed + c.rank());
      std::vector<double> mine(len);
      for (int i = 0; i < len; ++i) mine[i] = g.uniform(-1, 1);
      c.allreduce_sum(std::span<double>(mine));
      for (int i = 0; i < len; ++i)
        ASSERT_NEAR(mine[i], expected[i], 1e-12)
            << "trial " << trial << " P=" << P << " i=" << i;
    });
  }
}

// ---- failure semantics --------------------------------------------------------

TEST(MppFailure, TagMismatchTimesOutWithDescriptiveError) {
  // A receive on the wrong tag must not hang: with a deadline it returns
  // Timeout naming the (src, tag, bytes) triple it was waiting for.
  Runtime::run(opts(2), [](Comm& c) {
    if (c.rank() == 0) {
      c.send_value(1, 7, 1.25);
      (void)c.allreduce_sum(0.0);
    } else {
      double v = 0.0;
      auto r = c.recv_bytes_deadline(0, 99, &v, sizeof(v), 10.0);
      ASSERT_FALSE(r.has_value());
      EXPECT_EQ(r.error().status, octgb::mpp::CommStatus::Timeout);
      EXPECT_EQ(r.error().src, 0);
      EXPECT_EQ(r.error().tag, 99);
      EXPECT_EQ(r.error().bytes, sizeof(double));
      const std::string what = r.error().describe();
      EXPECT_NE(what.find("src=0"), std::string::npos) << what;
      EXPECT_NE(what.find("tag=99"), std::string::npos) << what;
      (void)c.allreduce_sum(0.0);
      // Consume the real message so nothing leaks into later asserts.
      EXPECT_DOUBLE_EQ(c.recv_value<double>(0, 7), 1.25);
    }
  });
}

TEST(MppFailure, DefaultDeadlineTurnsBlockingRecvIntoException) {
  // The hard-hang footgun: without a deadline this recv would block
  // forever. Options::default_deadline_ms converts it into a
  // CommException carrying the triple.
  auto o = opts(2);
  o.default_deadline_ms = 10.0;
  Runtime::run(o, [](Comm& c) {
    if (c.rank() == 1) {
      try {
        (void)c.recv_value<int>(0, 42);  // never sent
        FAIL() << "recv of a never-sent message must throw";
      } catch (const octgb::mpp::CommException& e) {
        EXPECT_EQ(e.error().status, octgb::mpp::CommStatus::Timeout);
        EXPECT_EQ(e.error().src, 0);
        EXPECT_EQ(e.error().tag, 42);
        EXPECT_NE(std::string(e.what()).find("tag=42"), std::string::npos);
      }
    }
  });
}

TEST(MppFailure, RetryRecoversFromLateMessage) {
  Runtime::run(opts(2), [](Comm& c) {
    if (c.rank() == 0) {
      // First attempt's deadline expires; a later attempt succeeds once
      // rank 1 gets around to sending. The handshake pins the ordering:
      // rank 1 only starts its delay once rank 0 is provably about to
      // enter the retry loop, so the 2 ms first deadline expires before
      // the 30 ms-late message even under a loaded scheduler.
      c.send_value(1, 2, 1);
      double v = 0.0;
      octgb::mpp::RetryPolicy policy;
      policy.attempts = 50;
      policy.deadline_ms = 2.0;
      policy.backoff = 1.5;
      auto r = c.recv_bytes_retry(1, 3, &v, sizeof(v), policy);
      ASSERT_TRUE(r.has_value());
      EXPECT_DOUBLE_EQ(v, 9.75);
      EXPECT_GE(c.retries(), 1u);
    } else {
      (void)c.recv_value<int>(0, 2);
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      c.send_value(0, 3, 9.75);
    }
  });
}

TEST(MppFailure, DetectorReportsEveryoneAliveWithoutFaults) {
  Runtime::run(opts(3), [](Comm& c) {
    for (int r = 0; r < c.size(); ++r) EXPECT_TRUE(c.is_alive(r));
    EXPECT_EQ(c.alive_ranks().size(), 3u);
    EXPECT_EQ(c.failure_epoch(), 0);
    (void)c.allreduce_sum(0.0);
    EXPECT_GE(c.heartbeat_of(c.rank()), 1u);  // the allreduce bumped it
  });
}

TEST(MppProperty, BackToBackCollectivesKeepTagIsolation) {
  // Many collectives in a row must never cross-match (the sequence-number
  // tag scheme under test).
  Runtime::run(opts(5), [](Comm& c) {
    for (int round = 0; round < 25; ++round) {
      double v = c.rank() + round * 100.0;
      std::span<double> s(&v, 1);
      c.allreduce_sum(s);
      const double expected = 10.0 + 5 * round * 100.0;  // Σranks + P·round·100
      ASSERT_DOUBLE_EQ(v, expected) << "round " << round;
      (void)c.allreduce_sum(0.0);
    }
  });
}
