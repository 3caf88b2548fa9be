#pragma once
/// \file admission.hpp
/// Admission control and per-tenant fair-share queuing for the scoring
/// service.
///
/// Two mechanisms, both bounded (the service never grows a queue without
/// limit — overload is surfaced as an immediate reject-with-reason the
/// client can act on, not as silent latency):
///
///   - Admission — every submit is checked against the per-tenant queue
///     bound, the global queue bound, the molecule size ceiling, and the
///     service lifecycle state; a failed check returns a RejectReason.
///   - Fair share — dispatch order between tenants is start-time fair
///     queuing: each tenant carries a virtual time that advances by
///     (job cost / tenant weight) as its jobs run; the dispatcher always
///     serves the backlogged tenant with the smallest virtual time. A
///     tenant returning from idle is floored to the minimum live virtual
///     time, so sleeping never banks credit, and a flood from one tenant
///     delays another's job by at most (inflight + 1) jobs — the
///     starvation bound svc_test pins.
///
/// Tuning knobs and worked examples: docs/SERVICE.md.

#include <cstdint>
#include <deque>
#include <map>
#include <string>

namespace octgb::svc {

/// Why a submission was not admitted.
enum class RejectReason : std::uint8_t {
  None,            ///< admitted
  TenantQueueFull, ///< this tenant's bounded queue is at capacity
  QueueFull,       ///< the global queue bound is reached
  TooLarge,        ///< molecule exceeds max_atoms
  ShuttingDown,    ///< service stopping; no new work
  Failed,          ///< admitted, but the job threw while it ran
};

/// Stable lowercase label for metrics/logs (e.g. "tenant_queue_full").
const char* to_string(RejectReason r);

/// Per-tenant policy.
struct TenantConfig {
  double weight = 1.0;          ///< fair-share weight (relative)
  std::size_t max_queued = 64;  ///< bounded queue depth; excess is rejected
};

/// Service-wide admission policy.
struct AdmissionConfig {
  std::size_t max_total_queued = 256;  ///< across all tenants
  std::size_t max_atoms = 2'000'000;   ///< per-molecule ceiling
  TenantConfig default_tenant;         ///< policy for unregistered tenants
};

/// Weighted start-time fair queues over opaque job ids.
///
/// Not thread-safe by itself — the service serializes access under its own
/// mutex (the queue operations are O(log tenants) map walks, cheap enough
/// to hold the lock across).
class FairQueues {
 public:
  /// Install (or update) a tenant's policy before traffic arrives.
  void configure(const std::string& tenant, const TenantConfig& cfg);

  /// Admission check + enqueue of `job_id` for `tenant`. Returns
  /// RejectReason::None on success. Unregistered tenants are auto-created
  /// with `admission.default_tenant`.
  RejectReason push(const std::string& tenant, std::uint64_t job_id,
                    const AdmissionConfig& admission);

  /// Dequeue the next job under fair-share order; false when all queues
  /// are empty. Reports the owning tenant via `tenant_out`.
  bool pop(std::uint64_t* job_id, std::string* tenant_out);

  /// Charge `cost` (any consistent unit — the service uses execution
  /// seconds) against `tenant`'s virtual time. Call once per completed job.
  void charge(const std::string& tenant, double cost);

  /// Jobs currently queued across all tenants.
  std::size_t total_queued() const { return total_; }

  /// Jobs currently queued for one tenant (0 when unknown).
  std::size_t queued(const std::string& tenant) const;

  /// Tenants ever seen (configured or auto-created).
  std::size_t tenants() const { return tenants_.size(); }

 private:
  struct Tenant {
    TenantConfig cfg;
    std::deque<std::uint64_t> q;
    double vtime = 0.0;  ///< weighted service received
  };

  double min_live_vtime() const;

  std::map<std::string, Tenant> tenants_;
  std::size_t total_ = 0;
};

}  // namespace octgb::svc
