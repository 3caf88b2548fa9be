#pragma once
/// \file faults.hpp
/// Deterministic fault injection for the mpp runtime (chaos testing).
///
/// Long-running distributed N-body codes treat node loss, stragglers and
/// flaky links as routine events; this module makes them *first-class and
/// reproducible* inside the in-process runtime. A FaultPlan is a seed plus
/// a set of rules; the FaultInjector derives every decision ("does rank 2's
/// 17th communication operation get dropped?") from a stateless hash of
/// (seed, rule, rank, op-index), so the same plan produces the same fault
/// schedule on every run — failures become testable events instead of
/// heisenbugs. The runtime threads an injector through Comm's send/receive
/// paths (see mpp.hpp); the elastic hybrid driver (core/hybrid.hpp) is the
/// recovery layer the injector exists to exercise.
///
/// Fault taxonomy (DESIGN.md §2.5):
///   message faults  — Drop, Delay, Duplicate, Corrupt (applied at send)
///   process faults  — Stall (transient straggler), Kill (permanent death)

#include <atomic>
#include <cstdint>
#include <vector>

namespace octgb::mpp::faults {

/// What a fault rule does to its victim.
enum class FaultKind : std::uint8_t {
  Drop,       ///< message is silently discarded at the "wire"
  Delay,      ///< message delivery is deferred by `millis`
  Duplicate,  ///< message is delivered twice
  Corrupt,    ///< message payload is bit-flipped in flight
  Stall,      ///< the rank sleeps `millis` before the operation
  Kill        ///< the rank dies (RankKilledError) at the operation
};

/// One seeded fault rule. Message-fault rules (Drop/Delay/Duplicate/
/// Corrupt) trigger on sends; Stall/Kill trigger on any communication
/// operation of the victim rank.
struct FaultRule {
  FaultKind kind = FaultKind::Drop;
  /// Victim rank (the *sender* for message faults); -1 matches any rank.
  int rank = -1;
  /// Destination filter for message faults; -1 matches any destination.
  int peer = -1;
  /// Per-eligible-operation firing probability in [0, 1].
  double probability = 1.0;
  /// The rule is dormant until the victim's per-rank comm-op counter
  /// reaches this value — pins "dies mid-run" to a reproducible point.
  std::uint64_t after_op = 0;
  /// Cap on fires per (rule, rank); default unlimited.
  std::uint64_t max_fires = ~std::uint64_t{0};
  /// Delay/Stall duration in milliseconds.
  double millis = 0.0;
};

/// A reproducible fault schedule: a seed plus rules. Two injectors built
/// from equal plans make identical decisions for identical queries.
struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<FaultRule> rules;

  /// True when the plan injects nothing.
  bool empty() const { return rules.empty(); }
};

/// Canned plans used by bench_faults and the CI chaos job ------------------

/// Drop each message independently with probability `p`.
FaultPlan message_loss_plan(std::uint64_t seed, double p = 0.05);
/// Kill `victim` once its comm-op counter reaches `after_op`.
FaultPlan rank_kill_plan(std::uint64_t seed, int victim,
                         std::uint64_t after_op = 8);
/// Stall any rank for `millis` with probability `p` per comm op.
FaultPlan stall_plan(std::uint64_t seed, double p = 0.02,
                     double millis = 5.0);
/// Corrupt each message independently with probability `p` (pair with
/// Runtime::Options::checksum so corruption is *detected*, not absorbed).
FaultPlan corruption_plan(std::uint64_t seed, double p = 0.05);

/// Snapshot of how many faults of each kind have fired so far.
struct FaultStats {
  std::uint64_t drops = 0;
  std::uint64_t delays = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t stalls = 0;
  std::uint64_t kills = 0;

  /// Total fires across all kinds.
  std::uint64_t total() const {
    return drops + delays + duplicates + corruptions + stalls + kills;
  }
};

/// Faults to apply to one outgoing message (several rules may fire on the
/// same send; drop wins over the others when combined).
struct SendFaults {
  bool drop = false;
  bool duplicate = false;
  bool corrupt = false;
  double delay_ms = 0.0;

  /// True when no fault applies.
  bool clean() const {
    return !drop && !duplicate && !corrupt && delay_ms <= 0.0;
  }
};

/// Deterministic fault oracle. Thread-safe: decisions are pure functions
/// of (plan, rank, op); only the statistics counters mutate (atomically).
class FaultInjector {
 public:
  /// Build an injector for `ranks` ranks executing `plan`.
  FaultInjector(FaultPlan plan, int ranks);

  /// The plan this injector executes.
  const FaultPlan& plan() const { return plan_; }

  /// Message faults for the send that is `op` in the sender's comm-op
  /// sequence. Deterministic in (plan, src, dest, op).
  SendFaults on_send(int src, int dest, std::uint64_t op) const;

  /// True when `rank` dies at its `op`-th comm operation.
  bool should_kill(int rank, std::uint64_t op) const;

  /// Milliseconds `rank` must stall before its `op`-th comm operation
  /// (0 when no stall rule fires).
  double stall_ms(int rank, std::uint64_t op) const;

  /// Current fire counts by kind.
  FaultStats stats() const;

 private:
  bool rule_fires(std::size_t rule_index, const FaultRule& rule, int rank,
                  int peer, std::uint64_t op) const;

  FaultPlan plan_;
  int ranks_;
  /// Per-(rule, rank) fire counters backing max_fires; flat
  /// [rule * ranks + rank]. Mutable: firing is observable state, not a
  /// logical mutation of the schedule.
  mutable std::vector<std::atomic<std::uint64_t>> fires_;
  mutable std::atomic<std::uint64_t> stat_[6] = {};
};

/// CRC-32 (IEEE 802.3, reflected) of a byte range — the optional
/// per-message checksum the runtime uses to *detect* injected corruption.
std::uint32_t crc32(const void* data, std::size_t bytes);

}  // namespace octgb::mpp::faults
