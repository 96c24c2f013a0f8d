#include "src/runtime/node_state.h"

#include "src/support/contracts.h"

namespace sdaf::runtime {

NodeState::NodeState(NodeId node, Kernel& kernel,
                     std::vector<BoundedChannel*> ins,
                     std::vector<BoundedChannel*> outs, BoundedChannel* feed,
                     NodeWrapper wrapper, std::uint64_t num_inputs,
                     std::vector<NodeId> in_producers,
                     std::vector<NodeId> out_consumers, Waker* waker,
                     std::uint32_t batch, Tracer* tracer,
                     obs::NodeCounters* metrics)
    : ins_(std::move(ins)),
      outs_(std::move(outs)),
      feed_(feed),
      in_producers_(std::move(in_producers)),
      out_consumers_(std::move(out_consumers)),
      waker_(waker),
      core_(node, kernel, ins_.size(), outs_.size(), std::move(wrapper),
            num_inputs, *this, batch, tracer, /*tick=*/nullptr,
            /*port_fed=*/feed != nullptr, metrics) {
  SDAF_EXPECTS(in_producers_.size() == ins_.size());
  SDAF_EXPECTS(out_consumers_.size() == outs_.size());
  SDAF_EXPECTS(waker_ != nullptr);
}

std::optional<HeadView> NodeState::peek_head(std::size_t slot) {
  return ins_[slot]->try_peek_head();  // empty = parked until input fills
}

Message NodeState::pop_head(std::size_t slot) {
  bool was_full = false;
  Message m = ins_[slot]->pop_head(&was_full);
  if (was_full) waker_->wake(in_producers_[slot]);
  return m;
}

void NodeState::pop(std::size_t slot) {
  if (ins_[slot]->pop()) waker_->wake(in_producers_[slot]);
}

void NodeState::pop_dummies(std::size_t slot, std::size_t count) {
  const auto run = ins_[slot]->pop_dummies(count);
  SDAF_ASSERT(run.popped == count);
  if (run.was_full) waker_->wake(in_producers_[slot]);
}

exec::PushOutcome NodeState::try_push(std::size_t slot, Message&& m) {
  bool was_empty = false;
  // Markers ride their own channel entry point: occupancy-neutral admission
  // plus the producer-side edge-cut latch (see BoundedChannel).
  const PushResult result =
      m.kind == MessageKind::Marker
          ? outs_[slot]->try_push_marker(m.seq, &was_empty)
          : outs_[slot]->try_push(std::move(m), &was_empty);
  switch (result) {
    case PushResult::Ok:
      // kNoNode = egress tap: the consumer is the external caller, woken
      // through the channel's own condition variable, not the scheduler.
      if (was_empty && out_consumers_[slot] != kNoNode)
        waker_->wake(out_consumers_[slot]);
      return exec::PushOutcome::Delivered;
    case PushResult::Aborted:
      return exec::PushOutcome::Aborted;
    case PushResult::Full:
    default:
      return exec::PushOutcome::Blocked;
  }
}

std::size_t NodeState::try_push_dummies(std::size_t slot,
                                        std::uint64_t first_seq,
                                        std::size_t count,
                                        exec::PushOutcome* outcome) {
  bool was_empty = false;
  bool chan_aborted = false;
  const std::size_t accepted =
      outs_[slot]->try_push_dummies(first_seq, count, &was_empty,
                                    &chan_aborted);
  if (accepted > 0 && was_empty && out_consumers_[slot] != kNoNode)
    waker_->wake(out_consumers_[slot]);
  if (chan_aborted)
    *outcome = exec::PushOutcome::Aborted;
  else
    *outcome = accepted == count ? exec::PushOutcome::Delivered
                                 : exec::PushOutcome::Blocked;
  return accepted;
}

std::optional<HeadView> NodeState::peek_feed() {
  return feed_->try_peek_head();  // empty = parked until the caller pushes
}

void NodeState::pop_feed() { (void)feed_->pop(); }

std::size_t NodeState::pop_feed_data(Message* out, std::size_t max) {
  // The pop notes the feed's ProducerSignal inside the channel (once per
  // run), which is how a caller blocked in InputPort::push learns space
  // freed up.
  return feed_->pop_data(out, max);
}

bool NodeState::probe(std::uint64_t summary) const {
  switch (summary >> exec::kParkTagShift) {
    case exec::kParkDone:
      return false;
    case exec::kParkOutputs: {
      const std::uint64_t mask = summary & exec::kParkSlotMask;
      for (std::size_t slot = 0; slot < outs_.size(); ++slot) {
        const bool relevant =
            slot >= 62 ? mask == exec::kParkSlotMask
                       : (mask & (std::uint64_t{1} << slot)) != 0;
        if (relevant && !outs_[slot]->full()) return true;
      }
      return false;
    }
    default: {  // kParkInputs
      if (feed_ != nullptr && feed_->empty()) return false;
      for (const BoundedChannel* in : ins_)
        if (in->empty()) return false;
      return true;
    }
  }
}

}  // namespace sdaf::runtime
