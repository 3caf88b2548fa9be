#pragma once
/// \file checkpoint.hpp
/// Superstep checkpointing for the elastic hybrid driver (DESIGN.md §2.5).
///
/// The elastic driver divides each Epol phase into a *fixed grid* of tasks
/// and checkpoints every finished task result into a CheckpointStore — the
/// in-process stand-in for stable storage (a parallel filesystem or burst
/// buffer on a real cluster). When a rank dies, survivors read the store to
/// learn which task results are already durable and recompute only the
/// lost ones. Because each task result is computed deterministically and
/// combined in fixed task order, recovery reproduces the fault-free Epol
/// bit for bit (the property faults_test and the CI chaos job enforce).
///
/// The wire format is defensive: decode_checkpoint() returns an error (it
/// never yields partial state or UB) on bad magic, short reads, counts
/// that would overflow the buffer, or non-finite payload values, since a
/// checkpoint read happens exactly when the system is already degraded.

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "octgb/util/expected.hpp"

namespace octgb::core {

/// One durable unit of superstep state: the result of `task` within
/// `phase`, as a flat array of doubles (all Epol phase results — partial
/// integrals, Born-radius segments, energy partials — flatten to this).
struct SuperstepCheckpoint {
  std::string phase;
  std::uint64_t task = 0;
  std::vector<double> data;

  bool operator==(const SuperstepCheckpoint&) const = default;
};

/// Serialize to the "octgbsck" tagged wire format.
std::string encode_checkpoint(const SuperstepCheckpoint& c);

/// Parse a checkpoint; returns a descriptive error on bad magic, bad
/// version, truncation at any boundary, an implausible payload count, or a
/// NaN or infinite payload value (named by its index).
util::Expected<SuperstepCheckpoint, std::string> decode_checkpoint(
    std::string_view bytes);

/// Stable storage shared by every rank. Two modes:
///
///   * in-memory (default ctor) — a thread-safe key → bytes map that
///     survives *simulated* rank death (it lives on the launching
///     thread's stack); the PR-1..8 in-process harness.
///   * directory-backed (ctor with a path) — each key is a file written
///     via util::io::write_file_atomic (tmp + rename), so it survives
///     *real* rank death across a process boundary: a rank SIGKILLed
///     mid-put leaves either the old value or the complete new one,
///     never a torn file. This is what the out-of-process elastic runs
///     under tools/octgb_launch use; every rank process opens the same
///     job-directory store.
///
/// All operations are linearizable (the map by mutex, the directory by
/// rename atomicity).
class CheckpointStore {
 public:
  /// In-memory store.
  CheckpointStore() = default;

  /// Directory-backed store rooted at `dir` (created if absent).
  explicit CheckpointStore(std::string dir);

  /// Store `value` under `key`, replacing any previous value.
  void put(const std::string& key, std::string value);

  /// Fetch the value under `key`; nullopt when absent.
  std::optional<std::string> get(const std::string& key) const;

  /// True when `key` has a value.
  bool contains(const std::string& key) const;

  /// Remove every entry (start of a fresh run).
  void clear();

  /// Number of stored entries.
  std::size_t size() const;

  /// Canonical key for a (phase, task) checkpoint: "phase/task".
  static std::string key_of(std::string_view phase, std::uint64_t task);

  /// Encode + put under key_of(c.phase, c.task).
  void put_checkpoint(const SuperstepCheckpoint& c);

  /// Get + decode; nullopt when absent *or* undecodable (a corrupt
  /// checkpoint is treated as a missing one — the task is recomputed).
  std::optional<SuperstepCheckpoint> get_checkpoint(std::string_view phase,
                                                    std::uint64_t task) const;

  /// Lifetime count of put() calls (ElasticResult::checkpoint_puts).
  std::uint64_t puts() const;

  /// Directory of a file-backed store; empty for the in-memory mode.
  const std::string& directory() const { return dir_; }

 private:
  std::string file_of(const std::string& key) const;

  mutable std::mutex mu_;
  std::string dir_;  ///< empty → in-memory mode
  std::unordered_map<std::string, std::string> map_;
  std::uint64_t puts_ = 0;
};

}  // namespace octgb::core
