#include "octgb/mpp/faults.hpp"

#include <array>

#include "octgb/util/check.hpp"
#include "octgb/util/rng.hpp"

namespace octgb::mpp::faults {

FaultPlan message_loss_plan(std::uint64_t seed, double p) {
  FaultPlan plan;
  plan.seed = seed;
  plan.rules.push_back({.kind = FaultKind::Drop, .probability = p});
  return plan;
}

FaultPlan rank_kill_plan(std::uint64_t seed, int victim,
                         std::uint64_t after_op) {
  FaultPlan plan;
  plan.seed = seed;
  plan.rules.push_back({.kind = FaultKind::Kill,
                        .rank = victim,
                        .probability = 1.0,
                        .after_op = after_op,
                        .max_fires = 1});
  return plan;
}

FaultPlan stall_plan(std::uint64_t seed, double p, double millis) {
  FaultPlan plan;
  plan.seed = seed;
  plan.rules.push_back(
      {.kind = FaultKind::Stall, .probability = p, .millis = millis});
  return plan;
}

FaultPlan corruption_plan(std::uint64_t seed, double p) {
  FaultPlan plan;
  plan.seed = seed;
  plan.rules.push_back({.kind = FaultKind::Corrupt, .probability = p});
  return plan;
}

FaultInjector::FaultInjector(FaultPlan plan, int ranks)
    : plan_(std::move(plan)), ranks_(ranks) {
  OCTGB_CHECK_MSG(ranks_ >= 1, "injector needs at least one rank");
  for (const auto& r : plan_.rules)
    OCTGB_CHECK_MSG(r.probability >= 0.0 && r.probability <= 1.0,
                    "fault probability must be in [0, 1], got "
                        << r.probability);
  fires_ = std::vector<std::atomic<std::uint64_t>>(plan_.rules.size() *
                                                   static_cast<std::size_t>(
                                                       ranks_));
}

bool FaultInjector::rule_fires(std::size_t rule_index, const FaultRule& rule,
                               int rank, int peer, std::uint64_t op) const {
  if (rule.rank >= 0 && rule.rank != rank) return false;
  if (rule.peer >= 0 && rule.peer != peer) return false;
  if (op < rule.after_op) return false;
  // Deterministic draw: a stateless mix of (seed, rule, rank, op). The
  // peer is deliberately excluded so a rule's schedule depends only on the
  // victim's own operation sequence.
  std::uint64_t state = plan_.seed ^ (0x51ed2701a9c3d5b7ULL * (rule_index + 1))
                        ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(
                               rank + 1))
                        ^ (0xd1342543de82ef95ULL * (op + 1));
  const std::uint64_t z = util::splitmix64(state);
  const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
  if (u >= rule.probability) return false;
  // max_fires: per-(rule, rank) counter; deterministic because each rank's
  // op sequence is deterministic and decisions are keyed by op index.
  auto& fired = fires_[rule_index * static_cast<std::size_t>(ranks_) +
                       static_cast<std::size_t>(rank)];
  if (fired.fetch_add(1, std::memory_order_relaxed) >= rule.max_fires) {
    fired.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

SendFaults FaultInjector::on_send(int src, int dest, std::uint64_t op) const {
  SendFaults f;
  for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
    const FaultRule& rule = plan_.rules[i];
    switch (rule.kind) {
      case FaultKind::Drop:
        if (!f.drop && rule_fires(i, rule, src, dest, op)) {
          f.drop = true;
          stat_[0].fetch_add(1, std::memory_order_relaxed);
        }
        break;
      case FaultKind::Delay:
        if (f.delay_ms <= 0.0 && rule_fires(i, rule, src, dest, op)) {
          f.delay_ms = rule.millis;
          stat_[1].fetch_add(1, std::memory_order_relaxed);
        }
        break;
      case FaultKind::Duplicate:
        if (!f.duplicate && rule_fires(i, rule, src, dest, op)) {
          f.duplicate = true;
          stat_[2].fetch_add(1, std::memory_order_relaxed);
        }
        break;
      case FaultKind::Corrupt:
        if (!f.corrupt && rule_fires(i, rule, src, dest, op)) {
          f.corrupt = true;
          stat_[3].fetch_add(1, std::memory_order_relaxed);
        }
        break;
      case FaultKind::Stall:
      case FaultKind::Kill:
        break;  // process faults; handled by stall_ms / should_kill
    }
  }
  return f;
}

bool FaultInjector::should_kill(int rank, std::uint64_t op) const {
  for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
    const FaultRule& rule = plan_.rules[i];
    if (rule.kind != FaultKind::Kill) continue;
    if (rule_fires(i, rule, rank, -1, op)) {
      stat_[5].fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

double FaultInjector::stall_ms(int rank, std::uint64_t op) const {
  for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
    const FaultRule& rule = plan_.rules[i];
    if (rule.kind != FaultKind::Stall) continue;
    if (rule_fires(i, rule, rank, -1, op)) {
      stat_[4].fetch_add(1, std::memory_order_relaxed);
      return rule.millis;
    }
  }
  return 0.0;
}

FaultStats FaultInjector::stats() const {
  FaultStats s;
  s.drops = stat_[0].load(std::memory_order_relaxed);
  s.delays = stat_[1].load(std::memory_order_relaxed);
  s.duplicates = stat_[2].load(std::memory_order_relaxed);
  s.corruptions = stat_[3].load(std::memory_order_relaxed);
  s.stalls = stat_[4].load(std::memory_order_relaxed);
  s.kills = stat_[5].load(std::memory_order_relaxed);
  return s;
}

namespace {

/// CRC-32 lookup table (IEEE 802.3 reflected polynomial 0xEDB88320).
constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

constexpr auto kCrcTable = make_crc_table();

}  // namespace

std::uint32_t crc32(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < bytes; ++i)
    crc = kCrcTable[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace octgb::mpp::faults
