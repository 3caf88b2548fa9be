#include "octgb/mpp/mpp.hpp"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "octgb/trace/trace.hpp"
#include "octgb/util/strings.hpp"

namespace octgb::mpp {

namespace detail {

using Clock = std::chrono::steady_clock;

/// One in-flight message.
struct Message {
  int src;
  int tag;
  std::vector<std::uint8_t> payload;
  /// Delivery time for injected delays; matched receives skip messages
  /// still "on the wire".
  Clock::time_point visible_at{};
  std::uint32_t crc = 0;   ///< CRC-32 of the payload as sent
  bool has_crc = false;    ///< set when Options::checksum is on
};

/// Per-rank mailbox with blocking matched receive.
struct Mailbox {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Message> messages;
};

/// Failure-detector state for one rank.
struct RankState {
  std::atomic<bool> dead{false};
  std::atomic<std::uint64_t> heartbeat{0};
};

struct SharedState {
  Topology topology;
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  std::vector<std::unique_ptr<RankState>> ranks;
  std::atomic<bool> aborted{false};
  std::atomic<int> failure_epoch{0};
  const faults::FaultInjector* injector = nullptr;
  bool checksum = false;
  double default_deadline_ms = 0.0;
};

/// The in-thread transport: one endpoint per rank over shared mailboxes.
/// Faults come from the seeded injector; the out-of-process analogue of
/// each (drop ↔ lost frame, corrupt ↔ wire CRC break, kill ↔ SIGKILL)
/// lives in mpp/proc.hpp.
class ThreadEndpoint final : public Endpoint {
 public:
  ThreadEndpoint(SharedState* state, int rank)
      : state_(state), rank_(rank) {}

  const Topology& topology() const override { return state_->topology; }
  double default_deadline_ms() const override {
    return state_->default_deadline_ms;
  }

  void send(int dest, int tag, const void* data, std::size_t bytes,
            std::uint64_t op) override {
    faults::SendFaults f;
    if (state_->injector != nullptr)
      f = state_->injector->on_send(rank_, dest, op);
    if (f.drop) {
      // The message left the sender and vanished on the wire: sender-side
      // accounting stands, the receiver sees nothing (→ timeout).
      trace::instant("fault.drop");
      return;
    }
    Mailbox& box = *state_->mailboxes[dest];
    Message msg;
    msg.src = rank_;
    msg.tag = tag;
    msg.payload.resize(bytes);
    if (bytes) std::memcpy(msg.payload.data(), data, bytes);
    if (state_->checksum) {
      msg.crc = faults::crc32(msg.payload.data(), msg.payload.size());
      msg.has_crc = true;
    }
    if (f.corrupt && bytes > 0) {
      // Bit-flip after the checksum was computed — wire corruption, which
      // the CRC (when enabled) detects at the receiver.
      trace::instant("fault.corrupt");
      msg.payload[static_cast<std::size_t>(op) % bytes] ^= 0xA5;
    }
    if (f.delay_ms > 0.0) {
      trace::instant("fault.delay");
      msg.visible_at = Clock::now() +
                       std::chrono::microseconds(
                           static_cast<long long>(f.delay_ms * 1000.0));
    }
    {
      std::lock_guard<std::mutex> lock(box.mu);
      if (f.duplicate) {
        trace::instant("fault.duplicate");
        box.messages.push_back(msg);
      }
      box.messages.push_back(std::move(msg));
    }
    box.cv.notify_all();
  }

  CommResult recv(int src, int tag, void* data, std::size_t bytes,
                  double deadline_ms, int abort_epoch) override {
    const bool finite = deadline_ms > 0.0;
    const auto deadline =
        finite ? Clock::now() + std::chrono::microseconds(
                                    static_cast<long long>(deadline_ms *
                                                           1000.0))
               : Clock::time_point::max();
    Mailbox& box = *state_->mailboxes[rank_];
    std::unique_lock<std::mutex> lock(box.mu);
    for (;;) {
      OCTGB_CHECK_MSG(!state_->aborted.load(std::memory_order_relaxed),
                      "peer rank failed; aborting recv on rank " << rank_);
      const auto now = Clock::now();
      // Matched-but-delayed messages bound how long we sleep.
      auto next_visible = Clock::time_point::max();
      for (auto it = box.messages.begin(); it != box.messages.end(); ++it) {
        if (it->src != src || it->tag != tag) continue;
        if (it->visible_at > now) {
          next_visible = std::min(next_visible, it->visible_at);
          continue;
        }
        OCTGB_CHECK_MSG(it->payload.size() == bytes,
                        "message size mismatch: got "
                            << it->payload.size() << ", want " << bytes);
        if (it->has_crc && faults::crc32(it->payload.data(),
                                         it->payload.size()) != it->crc) {
          // Consume the corrupt copy so a retry can match a clean
          // duplicate.
          box.messages.erase(it);
          return CommResult::failure(
              {CommStatus::ChecksumMismatch, rank_, src, tag, bytes});
        }
        if (bytes) std::memcpy(data, it->payload.data(), bytes);
        box.messages.erase(it);
        return CommResult::success({});
      }
      // No consumable message: fail fast on a dead peer (messages it sent
      // before dying were already matched above).
      if (next_visible == Clock::time_point::max() &&
          state_->ranks[src]->dead.load(std::memory_order_acquire))
        return CommResult::failure(
            {CommStatus::PeerDead, rank_, src, tag, bytes});
      // Fail-fast on churn: a death anywhere in the job (kills notify
      // every mailbox cv, so this waiter wakes) aborts the wait early so
      // the caller can re-plan instead of draining its deadline.
      if (abort_epoch >= 0 &&
          state_->failure_epoch.load(std::memory_order_acquire) >
              abort_epoch)
        return CommResult::failure(
            {CommStatus::Timeout, rank_, src, tag, bytes});
      if (finite && now >= deadline)
        return CommResult::failure(
            {CommStatus::Timeout, rank_, src, tag, bytes});
      const auto wake_at = std::min(deadline, next_visible);
      if (wake_at == Clock::time_point::max())
        box.cv.wait(lock);
      else
        box.cv.wait_until(lock, wake_at);
    }
  }

  bool is_alive(int rank) const override {
    return !state_->ranks[rank]->dead.load(std::memory_order_acquire);
  }
  int failure_epoch() const override {
    return state_->failure_epoch.load(std::memory_order_acquire);
  }
  std::uint64_t heartbeat_of(int rank) const override {
    return state_->ranks[rank]->heartbeat.load(std::memory_order_relaxed);
  }
  void heartbeat() override {
    state_->ranks[rank_]->heartbeat.fetch_add(1, std::memory_order_relaxed);
  }

  void fault_hook(std::uint64_t op) override {
    RankState& me = *state_->ranks[rank_];
    // A dead rank must not keep communicating: re-throw on any further
    // use (the elastic driver catches RankKilledError and unwinds the
    // rank).
    if (me.dead.load(std::memory_order_relaxed))
      throw RankKilledError(rank_, op);
    const faults::FaultInjector* inj = state_->injector;
    if (inj == nullptr) return;
    const double stall = inj->stall_ms(rank_, op);
    if (stall > 0.0) {
      trace::instant("fault.stall");
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<long long>(stall * 1000.0)));
    }
    if (inj->should_kill(rank_, op)) {
      trace::instant("fault.kill");
      me.dead.store(true, std::memory_order_release);
      state_->failure_epoch.fetch_add(1, std::memory_order_acq_rel);
      // Wake every blocked receiver so it can observe the death and fail
      // fast (lock/unlock pairs with the waiters' condition re-check).
      for (auto& mb : state_->mailboxes) {
        { std::lock_guard<std::mutex> lock(mb->mu); }
        mb->cv.notify_all();
      }
      throw RankKilledError(rank_, op);
    }
  }

 private:
  SharedState* state_;
  int rank_;
};

Comm make_comm(Endpoint* endpoint, int rank, int size) {
  return Comm(endpoint, rank, size);
}

}  // namespace detail

const Topology& Comm::topology() const { return ep_->topology(); }

int Comm::next_coll_tag() {
  // Collectives are called in the same order on every rank, so a local
  // sequence number yields a globally consistent tag.
  return detail::kCollTagBase + (coll_seq_++);
}

void Comm::account_send(int dest, std::size_t bytes) {
  if (ep_->topology().same_node(rank_, dest)) {
    ++counters_.messages_intranode;
    counters_.bytes_intranode += bytes;
  } else {
    ++counters_.messages_internode;
    counters_.bytes_internode += bytes;
  }
  // Cumulative per-rank transmit volume as a Perfetto counter track.
  if (trace::enabled())
    trace::counter("mpp.tx_bytes",
                   static_cast<double>(counters_.bytes_intranode +
                                       counters_.bytes_internode));
}

std::uint64_t Comm::fault_point() {
  ep_->heartbeat();
  const std::uint64_t op = ops_++;
  ep_->fault_hook(op);
  return op;
}

void Comm::poll() { fault_point(); }

void Comm::send_bytes(int dest, int tag, const void* data,
                      std::size_t bytes) {
  OCTGB_CHECK_MSG(dest >= 0 && dest < size_, "send to invalid rank " << dest);
  OCTGB_CHECK_MSG(dest != rank_, "send to self would deadlock");
  const std::uint64_t op = fault_point();
  account_send(dest, bytes);
  ep_->send(dest, tag, data, bytes, op);
}

CommResult Comm::recv_impl(int src, int tag, void* data, std::size_t bytes,
                           double deadline_ms, int abort_epoch) {
  OCTGB_CHECK_MSG(src >= 0 && src < size_, "recv from invalid rank " << src);
  // The span covers matching + blocking, i.e. the rank's wait time.
  OCTGB_SPAN("mpp.recv");
  fault_point();
  return ep_->recv(src, tag, data, bytes, deadline_ms, abort_epoch);
}

void Comm::recv_bytes(int src, int tag, void* data, std::size_t bytes) {
  CommResult r =
      recv_impl(src, tag, data, bytes, ep_->default_deadline_ms());
  if (!r) throw CommException(r.error());
}

CommResult Comm::recv_bytes_deadline(int src, int tag, void* data,
                                     std::size_t bytes, double deadline_ms) {
  return recv_impl(src, tag, data, bytes, deadline_ms);
}

CommResult Comm::recv_bytes_retry(int src, int tag, void* data,
                                  std::size_t bytes,
                                  const RetryPolicy& policy) {
  OCTGB_CHECK_MSG(policy.attempts >= 1, "retry policy needs >= 1 attempt");
  // Snapshot the failure epoch so every attempt (and the wait inside it)
  // can abort as soon as *any* rank dies — without this, a kill of a rank
  // other than `src` would let the receive sleep out its entire backoff
  // window before the caller learns it must re-plan.
  const int epoch0 = ep_->failure_epoch();
  double deadline_ms = policy.deadline_ms;
  CommResult last = CommResult::failure(
      {CommStatus::Timeout, rank_, src, tag, bytes});
  for (int attempt = 0; attempt < policy.attempts; ++attempt) {
    if (attempt > 0) {
      ++retries_;
      trace::instant("mpp.retry");
      deadline_ms *= policy.backoff;
    }
    last = recv_impl(src, tag, data, bytes, deadline_ms, epoch0);
    if (last) return last;
    // A dead peer will never answer: retrying only burns the deadline.
    if (last.error().status == CommStatus::PeerDead) return last;
    // Same for a lost connection the transport already failed to restore.
    if (last.error().status == CommStatus::ConnectionLost) return last;
    if (ep_->failure_epoch() > epoch0) {
      trace::instant("mpp.retry_abort");
      return last;
    }
  }
  return last;
}

bool Comm::is_alive(int rank) const {
  OCTGB_CHECK_MSG(rank >= 0 && rank < size_, "invalid rank " << rank);
  return ep_->is_alive(rank);
}

std::vector<int> Comm::alive_ranks() const {
  std::vector<int> alive;
  alive.reserve(size_);
  for (int r = 0; r < size_; ++r)
    if (is_alive(r)) alive.push_back(r);
  return alive;
}

int Comm::failure_epoch() const { return ep_->failure_epoch(); }

std::uint64_t Comm::heartbeat_of(int rank) const {
  OCTGB_CHECK_MSG(rank >= 0 && rank < size_, "invalid rank " << rank);
  return ep_->heartbeat_of(rank);
}

double Comm::allreduce_sum(double v) {
  std::span<double> s(&v, 1);
  allreduce_sum(s);
  return v;
}

std::uint64_t Comm::allreduce_sum(std::uint64_t v) {
  std::span<std::uint64_t> s(&v, 1);
  allreduce_sum(s);
  return v;
}

std::vector<perf::CommCounters> Runtime::run(
    const Options& opts, const std::function<void(Comm&)>& rank_main) {
  OCTGB_CHECK_MSG(opts.ranks >= 1, "need at least one rank");
  detail::SharedState state;
  state.topology = opts.topology;
  state.checksum = opts.checksum;
  state.default_deadline_ms = opts.default_deadline_ms;
  std::unique_ptr<faults::FaultInjector> injector;
  if (!opts.fault_plan.empty()) {
    injector = std::make_unique<faults::FaultInjector>(opts.fault_plan,
                                                       opts.ranks);
    state.injector = injector.get();
  }
  for (int r = 0; r < opts.ranks; ++r) {
    state.mailboxes.push_back(std::make_unique<detail::Mailbox>());
    state.ranks.push_back(std::make_unique<detail::RankState>());
  }

  std::vector<detail::ThreadEndpoint> endpoints;
  endpoints.reserve(opts.ranks);
  std::vector<Comm> comms;
  comms.reserve(opts.ranks);
  for (int r = 0; r < opts.ranks; ++r) {
    endpoints.emplace_back(&state, r);
    comms.push_back(detail::make_comm(&endpoints[r], r, opts.ranks));
  }

  std::exception_ptr first_error;
  std::mutex err_mu;
  auto body = [&](int r) {
    try {
      if (trace::enabled()) {
        const std::string label = "rank" + std::to_string(r);
        trace::Tracer::instance().set_process_name(r, label);
        trace::set_thread_identity(r, label + ".main");
      }
      rank_main(comms[r]);
    } catch (const RankKilledError&) {
      // Simulated process exit: the dead flag and failure epoch were
      // already published by the fault hook; survivors keep running and
      // observe the death as PeerDead. Not a global failure.
    } catch (...) {
      std::lock_guard<std::mutex> lock(err_mu);
      if (!first_error) first_error = std::current_exception();
      state.aborted.store(true);
      // Wake blocked receivers so they observe the abort flag and unwind.
      for (auto& mb : state.mailboxes) mb->cv.notify_all();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(opts.ranks);
  for (int r = 1; r < opts.ranks; ++r) threads.emplace_back(body, r);
  body(0);
  for (auto& t : threads) t.join();
  if (opts.fault_stats_out)
    *opts.fault_stats_out =
        injector ? injector->stats() : faults::FaultStats{};
  if (first_error) std::rethrow_exception(first_error);

  std::vector<perf::CommCounters> out;
  out.reserve(opts.ranks);
  for (const auto& c : comms) out.push_back(c.counters());
  return out;
}

}  // namespace octgb::mpp
