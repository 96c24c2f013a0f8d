#include "src/runtime/wrapper.h"

#include <algorithm>

#include "src/support/contracts.h"

namespace sdaf::runtime {

NodeWrapper::NodeWrapper(DummyMode mode,
                         std::vector<std::int64_t> out_intervals,
                         std::vector<std::uint8_t> forward_on_filter)
    : mode_(mode),
      intervals_(std::move(out_intervals)),
      forward_on_filter_(std::move(forward_on_filter)),
      last_sent_(intervals_.size(), -1) {
  for (const auto iv : intervals_) SDAF_EXPECTS(iv >= 1);
  if (forward_on_filter_.empty())
    forward_on_filter_.assign(intervals_.size(), 0);
  SDAF_EXPECTS(forward_on_filter_.size() == intervals_.size());
}

void NodeWrapper::restore_last_sent(const std::vector<std::int64_t>& v) {
  SDAF_EXPECTS(v.size() == last_sent_.size());
  last_sent_ = v;
}

bool NodeWrapper::should_send_dummy(std::size_t slot, std::uint64_t seq,
                                    bool sent_data, bool any_input_dummy) {
  SDAF_EXPECTS(slot < last_sent_.size());
  const auto iseq = static_cast<std::int64_t>(seq);
  if (sent_data) {
    last_sent_[slot] = iseq;
    return false;
  }
  if (mode_ == DummyMode::None) return false;
  if (mode_ == DummyMode::Propagation &&
      (any_input_dummy || forward_on_filter_[slot] != 0)) {
    // Forced propagation: received dummies may not be filtered, and on
    // interior cycle edges neither may the *absence* created by filtering
    // data -- the sequence number must travel on at zero added gap.
    last_sent_[slot] = iseq;
    return true;
  }
  if (intervals_[slot] != kInfiniteInterval &&
      iseq - last_sent_[slot] >= intervals_[slot]) {
    last_sent_[slot] = iseq;
    return true;
  }
  return false;
}

NodeWrapper::DummyRun NodeWrapper::dummy_run(std::size_t slot,
                                             std::uint64_t first_seq,
                                             std::uint64_t r) {
  SDAF_EXPECTS(slot < last_sent_.size());
  if (r == 0 || mode_ == DummyMode::None) return {};
  const auto begin = static_cast<std::int64_t>(first_seq);
  const auto end = begin + static_cast<std::int64_t>(r);  // exclusive
  if (mode_ == DummyMode::Propagation) {
    // Every seq of the run consumed a dummy: forced propagation throughout.
    last_sent_[slot] = end - 1;
    return {first_seq, r, 1};
  }
  const std::int64_t iv = intervals_[slot];
  // Written as a comparison against end - iv so last_sent + iv cannot
  // overflow: no seq of the run reaches the gap.
  if (iv == kInfiniteInterval || last_sent_[slot] >= end - iv) return {};
  const std::int64_t due = std::max(begin, last_sent_[slot] + iv);
  const std::int64_t count = (end - 1 - due) / iv + 1;
  last_sent_[slot] = due + (count - 1) * iv;
  return {static_cast<std::uint64_t>(due), static_cast<std::uint64_t>(count),
          static_cast<std::uint64_t>(iv)};
}

}  // namespace sdaf::runtime
