#pragma once
/// \file trace.hpp
/// Phase-level tracing: a low-overhead, thread-local span recorder.
///
/// The paper's evaluation (§V) is entirely about *where time goes* — Born
/// vs Epol phase splits, steal counts, per-rank balance — so every hot
/// path is instrumented with named spans (`OCTGB_SPAN("born.traversal")`),
/// counter tracks, and instant markers. Recording is gated by one global
/// flag read with a single relaxed atomic load: with tracing disabled
/// (the default) every tracing call is a branch-not-taken and performs
/// **no allocation and no clock read** (tests/trace_test.cpp asserts
/// this), so the instrumentation can stay in the kernels permanently.
///
/// Enabling: export `OCTGB_TRACE=1` or call
/// `Tracer::instance().set_enabled(true)` before the run. Every
/// thread appends events to its own buffer (registered lazily, mutex only
/// on first use per thread); `Tracer::write_chrome_trace()` merges the
/// buffers into chrome://tracing JSON loadable in Perfetto. The span
/// taxonomy and the metric name schema are documented in OBSERVABILITY.md.
///
/// Thread-safety contract: recording is wait-free per thread and safe
/// under the ws scheduler and mpp ranks; `write_chrome_trace()`, `clear()`
/// and `set_enabled()` must be called quiescently (no concurrent
/// recording), e.g. after `Scheduler::run()` / `Runtime::run()` return.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

/// Observability: the span recorder (this header) and the metrics
/// export registry (metrics.hpp). Handbook: OBSERVABILITY.md.
namespace octgb::trace {

/// Implementation details of the span recorder; not part of the API.
namespace detail {

/// Global recording switch. Read on every tracing call with a relaxed
/// load; written only by Tracer::set_enabled (and the OCTGB_TRACE env
/// check at static initialization).
extern std::atomic<bool> g_enabled;

/// What one recorded event is.
enum class EventKind : std::uint8_t {
  Complete,  ///< a finished span: [ts_ns, ts_ns + dur_ns)
  Counter,   ///< a sampled value on a named counter track
  Instant    ///< a point event (e.g. one successful steal)
};

/// One recorded event. `name` must have static storage duration (string
/// literals only) — events store the pointer, never a copy.
struct Event {
  const char* name = nullptr;          ///< static-storage label
  EventKind kind = EventKind::Instant; ///< event discriminator
  std::int32_t pid = 0;                ///< track group (rank id)
  std::int32_t tid = 0;                ///< track within the group (thread)
  std::int64_t ts_ns = 0;              ///< start, ns since the tracer epoch
  std::int64_t dur_ns = 0;             ///< Complete events only
  double value = 0.0;                  ///< Counter events only
};

/// Nanoseconds since the tracer's steady-clock epoch.
std::int64_t now_ns();

/// Append one event to the calling thread's buffer (drops and counts the
/// event once the per-thread capacity is reached).
void record(const Event& e);

/// The (pid, tid) the calling thread's events are attributed to,
/// honouring any active VirtualThreadScope override.
std::pair<std::int32_t, std::int32_t> current_ids();

}  // namespace detail

/// True when tracing is recording. One relaxed atomic load — callable
/// from any hot loop.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Process-wide trace recorder singleton: owns the per-thread event
/// buffers, track names, and the exporters.
class Tracer {
 public:
  /// The process-wide tracer.
  static Tracer& instance();

  /// Turn recording on or off. Quiescent-only (see file contract).
  void set_enabled(bool on);

  /// Drop all recorded events (buffers and track names survive so
  /// long-lived threads keep their identity). Quiescent-only.
  void clear();

  /// Total events currently buffered across all threads.
  std::size_t event_count() const;

  /// Events dropped because a per-thread buffer hit its capacity.
  std::uint64_t dropped_count() const;

  /// Cap on buffered events per thread (default 2^20). Oversized runs
  /// drop the tail and count it in dropped_count().
  void set_max_events_per_thread(std::size_t n);

  /// Display name for a pid track group ("rank 3"). Quiescent-only.
  void set_process_name(std::int32_t pid, std::string name);

  /// Write all buffered events as chrome://tracing JSON ("traceEvents"
  /// array of X/C/i events plus name metadata) — loadable in Perfetto or
  /// chrome://tracing. Quiescent-only.
  void write_chrome_trace(std::ostream& os) const;

  /// write_chrome_trace() to a file; returns false on I/O failure.
  bool save_chrome_trace(const std::string& path) const;

 private:
  Tracer() = default;

  friend struct ThreadBufferAccess;

  /// One thread's (or virtual track's) append-only event log.
  struct ThreadBuffer {
    std::vector<detail::Event> events;  ///< this thread's events
    std::uint64_t dropped = 0;          ///< events beyond capacity
    std::int32_t pid = 0;               ///< default attribution group
    std::int32_t tid = 0;               ///< unique across the process
  };

  ThreadBuffer* register_thread();  // called once per thread, lazily
  void set_thread_name_locked(std::int32_t pid, std::int32_t tid,
                              std::string name);

  mutable std::mutex mu_;  // guards buffers_ vector + name maps
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::map<std::int32_t, std::string> process_names_;
  std::map<std::pair<std::int32_t, std::int32_t>, std::string> thread_names_;
  std::atomic<std::int32_t> next_tid_{0};
  std::atomic<std::size_t> max_events_per_thread_{std::size_t{1} << 20};

  friend std::int64_t detail::now_ns();
  friend void detail::record(const detail::Event& e);
  friend std::pair<std::int32_t, std::int32_t> detail::current_ids();
  friend void set_thread_identity(std::int32_t pid, std::string name);
  friend std::int32_t current_pid();
  friend class VirtualThreadScope;
};

/// RAII scope: records one Complete event covering its lifetime. No-op
/// (no clock read, no allocation) when tracing is disabled at entry.
class Span {
 public:
  /// Open a span named `name` (static-storage string literal).
  explicit Span(const char* name) {
    if (enabled()) {
      name_ = name;
      start_ns_ = detail::now_ns();
    }
  }
  /// Closes the span: records one Complete event if it was opened.
  ~Span() {
    if (name_ == nullptr) return;
    detail::Event e;
    e.name = name_;
    e.kind = detail::EventKind::Complete;
    e.ts_ns = start_ns_;
    e.dur_ns = detail::now_ns() - start_ns_;
    const auto ids = detail::current_ids();
    e.pid = ids.first;
    e.tid = ids.second;
    detail::record(e);
  }

  Span(const Span&) = delete;             ///< non-copyable
  Span& operator=(const Span&) = delete;  ///< non-assignable

 private:
  const char* name_ = nullptr;
  std::int64_t start_ns_ = 0;
};

/// Record a sampled value on the counter track `name` (e.g. cumulative
/// bytes sent). No-op when tracing is disabled.
void counter(const char* name, double value);

/// Record a point event (e.g. one successful steal). No-op when tracing
/// is disabled.
void instant(const char* name);

/// Attribute the calling thread's future events to track group `pid`
/// with display name `name` (e.g. rank threads, ws workers). No-op when
/// tracing is disabled.
void set_thread_identity(std::int32_t pid, std::string name);

/// The pid the calling thread's events go to (0 when unset or disabled).
/// Lets child threads (ws workers) inherit their creator's rank group.
std::int32_t current_pid();

/// Reattributes events recorded in its scope to a different pid — used by
/// the cluster simulator, where one OS thread executes many simulated
/// ranks in turn and each rank should appear as its own Perfetto track
/// group. Nestable; restores the previous attribution on destruction.
/// No-op when tracing is disabled at entry.
class VirtualThreadScope {
 public:
  /// Attribute enclosed events to `pid`, displayed as `name`.
  VirtualThreadScope(std::int32_t pid, std::string name);
  /// Restores the previous attribution.
  ~VirtualThreadScope();

  /// non-copyable
  VirtualThreadScope(const VirtualThreadScope&) = delete;
  /// non-assignable
  VirtualThreadScope& operator=(const VirtualThreadScope&) = delete;

 private:
  bool active_ = false;
  std::int32_t saved_pid_ = 0;
  bool saved_override_ = false;
};

/// Token-paste helper for OCTGB_TRACE_CAT (second expansion step).
#define OCTGB_TRACE_CAT2(a, b) a##b
/// Two-step token paste so OCTGB_SPAN's `__LINE__` expands first, which
/// lets several OCTGB_SPANs coexist in one scope.
#define OCTGB_TRACE_CAT(a, b) OCTGB_TRACE_CAT2(a, b)

/// Open a span for the rest of the enclosing scope:
///   OCTGB_SPAN("born.traversal");
#define OCTGB_SPAN(name) \
  ::octgb::trace::Span OCTGB_TRACE_CAT(octgb_trace_span_, __LINE__)(name)

}  // namespace octgb::trace
