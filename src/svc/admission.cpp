#include "octgb/svc/admission.hpp"

#include <limits>

#include "octgb/util/check.hpp"

namespace octgb::svc {

const char* to_string(RejectReason r) {
  switch (r) {
    case RejectReason::None: return "none";
    case RejectReason::TenantQueueFull: return "tenant_queue_full";
    case RejectReason::QueueFull: return "queue_full";
    case RejectReason::TooLarge: return "too_large";
    case RejectReason::ShuttingDown: return "shutting_down";
    case RejectReason::Failed: return "failed";
  }
  return "unknown";
}

void FairQueues::configure(const std::string& tenant, const TenantConfig& cfg) {
  OCTGB_CHECK_MSG(cfg.weight > 0.0, "svc: tenant weight must be positive");
  auto [it, inserted] = tenants_.try_emplace(tenant);
  it->second.cfg = cfg;
  if (inserted) it->second.vtime = min_live_vtime();
}

RejectReason FairQueues::push(const std::string& tenant, std::uint64_t job_id,
                              const AdmissionConfig& admission) {
  if (total_ >= admission.max_total_queued) return RejectReason::QueueFull;
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    it = tenants_.try_emplace(tenant).first;
    it->second.cfg = admission.default_tenant;
    it->second.vtime = min_live_vtime();
  }
  Tenant& t = it->second;
  if (t.q.size() >= t.cfg.max_queued) return RejectReason::TenantQueueFull;
  if (t.q.empty()) {
    // Returning from idle: floor to the live minimum so a sleeping tenant
    // cannot bank arbitrarily old virtual time and then flood.
    t.vtime = std::max(t.vtime, min_live_vtime());
  }
  t.q.push_back(job_id);
  ++total_;
  return RejectReason::None;
}

bool FairQueues::pop(std::uint64_t* job_id, std::string* tenant_out) {
  const std::string* best = nullptr;
  double best_v = std::numeric_limits<double>::infinity();
  for (const auto& [name, t] : tenants_) {
    if (t.q.empty()) continue;
    if (t.vtime < best_v) {
      best_v = t.vtime;
      best = &name;
    }
  }
  if (!best) return false;
  Tenant& t = tenants_[*best];
  if (tenant_out) *tenant_out = *best;
  if (job_id) *job_id = t.q.front();
  t.q.pop_front();
  --total_;
  return true;
}

void FairQueues::charge(const std::string& tenant, double cost) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return;
  // Virtual time is weight-normalized: a weight-2 tenant's vtime advances
  // half as fast, so it receives twice the service at equal backlog.
  it->second.vtime += std::max(cost, 0.0) / it->second.cfg.weight;
}

std::size_t FairQueues::queued(const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.q.size();
}

double FairQueues::min_live_vtime() const {
  double m = std::numeric_limits<double>::infinity();
  for (const auto& [name, t] : tenants_)
    if (!t.q.empty()) m = std::min(m, t.vtime);
  return m == std::numeric_limits<double>::infinity() ? 0.0 : m;
}

}  // namespace octgb::svc
