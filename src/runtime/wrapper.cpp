#include "src/runtime/wrapper.h"

#include <algorithm>

#include "src/support/contracts.h"

namespace sdaf::runtime {

NodeWrapper::NodeWrapper(DummyMode mode,
                         const std::vector<std::int64_t>& out_intervals,
                         const std::vector<std::uint8_t>& forward_on_filter) {
  reset(mode, out_intervals, forward_on_filter);
}

void NodeWrapper::reset(DummyMode mode,
                        const std::vector<std::int64_t>& out_intervals,
                        const std::vector<std::uint8_t>& forward_on_filter) {
  SDAF_EXPECTS(forward_on_filter.empty() ||
               forward_on_filter.size() == out_intervals.size());
  mode_ = mode;
  slots_.resize(out_intervals.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    SDAF_EXPECTS(out_intervals[i] >= 1);
    slots_[i] = {out_intervals[i], -1,
                 forward_on_filter.empty() ? std::uint8_t{0}
                                           : forward_on_filter[i]};
  }
}

std::vector<std::int64_t> NodeWrapper::last_sent() const {
  std::vector<std::int64_t> out;
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) out.push_back(slot.last_sent);
  return out;
}

void NodeWrapper::restore_last_sent(const std::vector<std::int64_t>& v) {
  SDAF_EXPECTS(v.size() == slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) slots_[i].last_sent = v[i];
}

bool NodeWrapper::should_send_dummy(std::size_t slot, std::uint64_t seq,
                                    bool sent_data, bool any_input_dummy) {
  SDAF_EXPECTS(slot < slots_.size());
  Slot& s = slots_[slot];
  const auto iseq = static_cast<std::int64_t>(seq);
  if (sent_data) {
    s.last_sent = iseq;
    return false;
  }
  if (mode_ == DummyMode::None) return false;
  if (mode_ == DummyMode::Propagation &&
      (any_input_dummy || s.forward_on_filter != 0)) {
    // Forced propagation: received dummies may not be filtered, and on
    // interior cycle edges neither may the *absence* created by filtering
    // data -- the sequence number must travel on at zero added gap.
    s.last_sent = iseq;
    return true;
  }
  if (s.interval != kInfiniteInterval && iseq - s.last_sent >= s.interval) {
    s.last_sent = iseq;
    return true;
  }
  return false;
}

NodeWrapper::DummyRun NodeWrapper::dummy_run(std::size_t slot,
                                             std::uint64_t first_seq,
                                             std::uint64_t r) {
  SDAF_EXPECTS(slot < slots_.size());
  Slot& s = slots_[slot];
  if (r == 0 || mode_ == DummyMode::None) return {};
  const auto begin = static_cast<std::int64_t>(first_seq);
  const auto end = begin + static_cast<std::int64_t>(r);  // exclusive
  if (mode_ == DummyMode::Propagation) {
    // Every seq of the run consumed a dummy: forced propagation throughout.
    s.last_sent = end - 1;
    return {first_seq, r, 1};
  }
  const std::int64_t iv = s.interval;
  // Written as a comparison against end - iv so last_sent + iv cannot
  // overflow: no seq of the run reaches the gap.
  if (iv == kInfiniteInterval || s.last_sent >= end - iv) return {};
  const std::int64_t due = std::max(begin, s.last_sent + iv);
  const std::int64_t count = (end - 1 - due) / iv + 1;
  s.last_sent = due + (count - 1) * iv;
  return {static_cast<std::uint64_t>(due), static_cast<std::uint64_t>(count),
          static_cast<std::uint64_t>(iv)};
}

}  // namespace sdaf::runtime
