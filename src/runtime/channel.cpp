#include "src/runtime/channel.h"

#include <algorithm>

#include "src/support/contracts.h"

namespace sdaf::runtime {

BoundedChannel::BoundedChannel(std::size_t capacity) : ring_(capacity) {
  SDAF_EXPECTS(capacity >= 1);
}

void BoundedChannel::set_producer_signal(ProducerSignal* signal) {
  producer_signal_ = signal;
}

void BoundedChannel::set_metrics(obs::ChannelCounters* metrics) {
  metrics_ = metrics;
}

void BoundedChannel::set_drain_hook(DrainHook* hook) { drain_hook_ = hook; }

void BoundedChannel::record_push(MessageKind kind, std::size_t count,
                                 const SpscRing::PushEffect& effect) {
  // Producer-only writers: plain load+store beats an RMW on the hot path.
  if (kind == MessageKind::Data)
    data_pushed_.store(data_pushed_.load(std::memory_order_relaxed) + count,
                       std::memory_order_relaxed);
  if (kind == MessageKind::Dummy)
    dummies_pushed_.store(
        dummies_pushed_.load(std::memory_order_relaxed) + count,
        std::memory_order_relaxed);
  const auto occ = static_cast<std::int64_t>(effect.occupancy);
  if (occ > max_occupancy_.load(std::memory_order_relaxed))
    max_occupancy_.store(occ, std::memory_order_relaxed);
  if (metrics_ != nullptr) {
    if (kind == MessageKind::Data) obs::bump(metrics_->data_pushed, count);
    if (kind == MessageKind::Dummy)
      obs::bump(metrics_->dummies_pushed, count);
    metrics_->note_high_water(occ);
  }
}

void BoundedChannel::notify_not_empty() {
  // The ring publish already issued a seq_cst fence, so the claimed wake's
  // relaxed waiter read pairs with a waiter's seq_cst registration: one
  // side always sees the other (lost-wakeup-free), and with no waiter
  // neither the version word nor the kernel is ever touched.
  not_empty_.claim_wake();
}

void BoundedChannel::notify_producer() {
  // After the pop's seq_cst fence. size() is read only when a pusher is
  // parked: the common pop pays one load of the waiter count, and a channel
  // with no producer signal (every interior edge) pays nothing.
  if (producer_signal_ != nullptr)
    producer_signal_->note_pop([this] { return ring_.size(); });
}

PushResult BoundedChannel::try_push(Message&& m, bool* was_empty) {
  if (aborted_.load(std::memory_order_acquire)) return PushResult::Aborted;
  const MessageKind kind = m.kind;
  SpscRing::PushEffect effect;
  if (!ring_.try_push(std::move(m), &effect)) {
    if (metrics_ != nullptr) obs::bump(metrics_->full_stalls);
    return PushResult::Full;
  }
  if (was_empty != nullptr) *was_empty = effect.was_empty;
  record_push(kind, 1, effect);
  notify_not_empty();
  return PushResult::Ok;
}

std::size_t BoundedChannel::try_push_batch(Message* msgs, std::size_t count,
                                           bool* was_empty, bool* aborted) {
  const bool is_aborted = aborted_.load(std::memory_order_acquire);
  if (aborted != nullptr) *aborted = is_aborted;
  if (is_aborted || count == 0) return 0;
  SpscRing::PushEffect effect;
  const std::size_t accepted = ring_.try_push_batch(msgs, count, &effect);
  if (accepted == 0) {
    if (metrics_ != nullptr) obs::bump(metrics_->full_stalls);
    return 0;
  }
  if (was_empty != nullptr) *was_empty = effect.was_empty;
  record_push(MessageKind::Data, accepted, effect);
  notify_not_empty();
  return accepted;
}

std::size_t BoundedChannel::try_push_dummies(std::uint64_t first_seq,
                                             std::size_t count,
                                             bool* was_empty, bool* aborted) {
  const bool is_aborted = aborted_.load(std::memory_order_acquire);
  if (aborted != nullptr) *aborted = is_aborted;
  if (is_aborted) return 0;
  SpscRing::PushEffect effect;
  const std::size_t accepted =
      ring_.try_push_dummies(first_seq, count, &effect);
  if (accepted == 0) {
    if (metrics_ != nullptr) obs::bump(metrics_->full_stalls);
    return 0;
  }
  if (was_empty != nullptr) *was_empty = effect.was_empty;
  record_push(MessageKind::Dummy, accepted, effect);
  notify_not_empty();
  return accepted;
}

PushResult BoundedChannel::try_push_marker(std::uint64_t seq,
                                           bool* was_empty) {
  if (aborted_.load(std::memory_order_acquire)) return PushResult::Aborted;
  // Latch the edge's cut BEFORE the marker becomes visible: every push the
  // downstream node can observe before the marker is already counted, and
  // the producer pushes nothing else between the latch and the publish.
  // The reader (snapshot assembly) only runs after the downstream node has
  // checkpointed this marker, which synchronizes via the channel's ring
  // release/acquire and the snapshot plane's mutex.
  cut_data_pushed_.store(data_pushed_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  cut_dummies_pushed_.store(dummies_pushed_.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
  SpscRing::PushEffect effect;
  if (!ring_.try_push_marker(seq, &effect)) return PushResult::Full;
  if (was_empty != nullptr) *was_empty = effect.was_empty;
  // Markers are not traffic: no data/dummy counters, no high-water (they
  // are occupancy-neutral), but they ARE pending work for a parked
  // consumer.
  notify_not_empty();
  return PushResult::Ok;
}

void BoundedChannel::restore_stats(std::uint64_t data_pushed,
                                   std::uint64_t dummies_pushed) {
  data_pushed_.store(data_pushed, std::memory_order_relaxed);
  dummies_pushed_.store(dummies_pushed, std::memory_order_relaxed);
  cut_data_pushed_.store(data_pushed, std::memory_order_relaxed);
  cut_dummies_pushed_.store(dummies_pushed, std::memory_order_relaxed);
}

ChannelStats BoundedChannel::marker_cut_stats() const {
  ChannelStats s;
  s.data_pushed = cut_data_pushed_.load(std::memory_order_acquire);
  s.dummies_pushed = cut_dummies_pushed_.load(std::memory_order_acquire);
  s.max_occupancy = max_occupancy_.load(std::memory_order_acquire);
  return s;
}

std::optional<HeadView> BoundedChannel::try_peek_head() const {
  auto head = ring_.peek_head();
  if (!head.has_value() && metrics_ != nullptr)
    obs::bump(metrics_->empty_waits);
  return head;
}

std::optional<HeadView> BoundedChannel::peek_head_wait() {
  for (;;) {
    if (auto head = ring_.peek_head(); head.has_value()) return head;
    if (aborted_.load(std::memory_order_acquire)) return std::nullopt;
    if (metrics_ != nullptr) obs::bump(metrics_->empty_waits);
    (void)not_empty_.wait([this] {
      return !ring_.empty() || aborted_.load(std::memory_order_acquire);
    });
  }
}

std::optional<Message> BoundedChannel::try_peek() const {
  return ring_.peek_message();
}

Message BoundedChannel::pop_head(bool* was_full) {
  SpscRing::PopEffect effect;
  Message m = ring_.pop_head(&effect);
  if (metrics_ != nullptr) obs::bump(metrics_->pops);
  notify_producer();
  if (was_full != nullptr) *was_full = effect.was_full;
  return m;
}

bool BoundedChannel::pop() {
  SpscRing::PopEffect effect;
  ring_.pop(&effect);
  if (metrics_ != nullptr) obs::bump(metrics_->pops);
  notify_producer();
  return effect.was_full;
}

BoundedChannel::PopRun BoundedChannel::pop_dummies(std::size_t count) {
  SpscRing::PopEffect effect;
  PopRun result;
  result.popped = ring_.pop_dummies(count, &effect);
  if (result.popped == 0) return result;
  result.was_full = effect.was_full;
  if (metrics_ != nullptr) obs::bump(metrics_->pops, result.popped);
  notify_producer();
  return result;
}

std::size_t BoundedChannel::pop_data(Message* out, std::size_t max,
                                     bool* was_full) {
  SpscRing::PopEffect effect;
  const std::size_t popped = ring_.pop_data(out, max, &effect);
  if (popped == 0) return 0;
  if (metrics_ != nullptr) obs::bump(metrics_->pops, popped);
  notify_producer();
  if (drain_hook_ != nullptr) drain_hook_->on_data_drained(popped);
  if (was_full != nullptr) *was_full = effect.was_full;
  return popped;
}

void BoundedChannel::abort() {
  aborted_.store(true, std::memory_order_seq_cst);
  // Unconditional bump: the version moves off every captured value before
  // the wake, so a waiter between its re-check and its park falls through
  // instead of sleeping past the abort.
  not_empty_.bump();
  if (producer_signal_ != nullptr) producer_signal_->abort();
}

void BoundedChannel::reset() {
  ring_.reset();
  aborted_.store(false, std::memory_order_relaxed);
  data_pushed_.store(0, std::memory_order_relaxed);
  dummies_pushed_.store(0, std::memory_order_relaxed);
  max_occupancy_.store(0, std::memory_order_relaxed);
  cut_data_pushed_.store(0, std::memory_order_relaxed);
  cut_dummies_pushed_.store(0, std::memory_order_relaxed);
}

bool BoundedChannel::aborted() const {
  return aborted_.load(std::memory_order_acquire);
}

bool BoundedChannel::empty() const { return ring_.empty(); }

bool BoundedChannel::full() const { return ring_.full(); }

std::size_t BoundedChannel::size() const { return ring_.size(); }

ChannelStats BoundedChannel::stats() const {
  ChannelStats s;
  s.data_pushed = data_pushed_.load(std::memory_order_acquire);
  s.dummies_pushed = dummies_pushed_.load(std::memory_order_acquire);
  s.max_occupancy = max_occupancy_.load(std::memory_order_acquire);
  return s;
}

}  // namespace sdaf::runtime
