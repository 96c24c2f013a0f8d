// sdaf::qos -- per-tenant in-flight credit gauges: the backpressure half of
// multi-tenant isolation. A CreditGauge bounds how many data items one
// tenant may have in flight (pushed into a feed and not yet consumed by its
// source node), so `InputPort::push` / `try_push_for` park on tenant
// credits *before* channel space -- a saturating tenant exhausts its own
// credit window and stops generating worker wakes, instead of filling every
// channel it can reach while an interactive co-tenant queues behind it.
//
// The acquire side is a lock-free CAS against the in-flight counter; the
// release side (the feed channel's consumer, via BoundedChannel's drain
// hook) is a fetch_sub followed by the runtime's standard wake-elision
// publish: seq_cst fence, then EventWord::bump_if_waiters. Waiters follow
// the protocol used everywhere else (capture -> register, seq_cst RMW ->
// re-check -> park on the captured version), so a release is never missed
// by a parked pusher -- "never falsely empty for a parked peer".
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/obs/metrics.h"
#include "src/runtime/parking_lot.h"

namespace sdaf::qos {

class CreditGauge {
 public:
  // limit 0 = unlimited (every acquire succeeds, releases are no-ops).
  explicit CreditGauge(std::uint64_t limit) : limit_(limit) {}

  CreditGauge(const CreditGauge&) = delete;
  CreditGauge& operator=(const CreditGauge&) = delete;

  [[nodiscard]] bool unlimited() const { return limit_ == 0; }
  [[nodiscard]] std::uint64_t limit() const { return limit_; }
  [[nodiscard]] std::uint64_t in_flight() const {
    return in_flight_.load(std::memory_order_acquire);
  }

  // Acquires n credits iff all fit under the limit (all-or-nothing).
  [[nodiscard]] bool try_acquire(std::uint64_t n) {
    if (unlimited() || n == 0) return true;
    std::uint64_t cur = in_flight_.load(std::memory_order_relaxed);
    for (;;) {
      if (cur + n > limit_) return false;
      if (in_flight_.compare_exchange_weak(cur, cur + n,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed))
        return true;
    }
  }

  // Acquires as many of n as fit (possibly 0) and returns the count.
  [[nodiscard]] std::uint64_t try_acquire_upto(std::uint64_t n) {
    if (unlimited()) return n;
    std::uint64_t cur = in_flight_.load(std::memory_order_relaxed);
    for (;;) {
      const std::uint64_t room = cur < limit_ ? limit_ - cur : 0;
      const std::uint64_t take = n < room ? n : room;
      if (take == 0) return 0;
      if (in_flight_.compare_exchange_weak(cur, cur + take,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed))
        return take;
    }
  }

  // Returns n credits and wakes parked acquirers. The fence-then-elided-
  // bump pairs with the waiter's seq_cst registration (see EventWord).
  void release(std::uint64_t n) {
    if (unlimited() || n == 0) return;
    in_flight_.fetch_sub(n, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    event_.bump_if_waiters();
  }

  // The parkable word for blocked acquirers (wake-elision protocol).
  [[nodiscard]] runtime::EventWord& event() { return event_; }

 private:
  const std::uint64_t limit_;
  std::atomic<std::uint64_t> in_flight_{0};
  runtime::EventWord event_;
};

// Interns one CreditGauge per tenant name with stable addresses, so a
// server hands every stream of a tenant the same gauge and their in-flight
// items share one window. Gauges live as long as the table.
class TenantTable {
 public:
  // Default credit limit applied to newly seen tenants; 0 = unlimited.
  explicit TenantTable(std::uint64_t default_limit = 0)
      : default_limit_(default_limit) {}

  [[nodiscard]] CreditGauge* gauge(const std::string& tenant) {
    std::lock_guard lock(mu_);
    auto& slot = gauges_[tenant];
    if (slot == nullptr) slot = std::make_unique<CreditGauge>(default_limit_);
    return slot.get();
  }

  using Entry = obs::TenantCreditMetrics;
  [[nodiscard]] std::vector<Entry> entries() const {
    std::lock_guard lock(mu_);
    std::vector<Entry> out;
    out.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_)
      out.push_back({name, g->limit(), g->in_flight()});
    return out;
  }

 private:
  const std::uint64_t default_limit_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<CreditGauge>> gauges_;
};

}  // namespace sdaf::qos
