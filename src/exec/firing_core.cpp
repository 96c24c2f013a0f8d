#include "src/exec/firing_core.h"

#include <algorithm>
#include <chrono>

#include "src/runtime/node_state.h"
#include "src/support/contracts.h"

namespace sdaf::exec {

using runtime::kEosSeq;
using runtime::Message;
using runtime::MessageKind;
using runtime::TraceKind;

std::string describe_park_summary(std::uint64_t summary) {
  switch (summary >> kParkTagShift) {
    case kParkDone:
      return "done";
    case kParkOutputs: {
      std::string s = "blocked-on-outputs mask=";
      const std::uint64_t mask = summary & kParkSlotMask;
      if (mask == kParkSlotMask) return s + "all";
      for (std::size_t slot = 0; slot < 62; ++slot)
        if ((mask >> slot) & 1u) s += std::to_string(slot) + ",";
      if (s.back() == ',') s.pop_back();
      return s;
    }
    default:
      return "waiting-on-inputs";
  }
}

FiringCore::FiringCore(NodeId node, std::size_t in_slots,
                       std::size_t out_slots, runtime::NodeState& owner)
    : node_(node),
      in_slots_(in_slots),
      out_slots_(out_slots),
      wrapper_(runtime::DummyMode::None, {}),
      io_(owner),
      emitter_(out_slots),
      inputs_(in_slots),
      feed_input_(in_slots == 0 ? 1 : 0),
      heads_(in_slots),
      out_(out_slots) {}

void FiringCore::reset(runtime::Kernel& kernel, runtime::DummyMode mode,
                       const std::vector<std::int64_t>& out_intervals,
                       const std::vector<std::uint8_t>& out_forward,
                       std::uint32_t batch, runtime::Tracer* tracer,
                       const std::uint64_t* tick, obs::NodeCounters* metrics,
                       ckpt::SnapshotPlane* plane) {
  SDAF_EXPECTS(out_intervals.size() == out_slots_);
  kernel_ = &kernel;
  wrapper_.reset(mode, out_intervals, out_forward);
  batch_ = std::max<std::uint32_t>(1, batch);
  tracer_ = tracer;
  tick_ = tick;
  metrics_ = metrics;
  plane_ = plane;
  emitter_.reset();
  for (auto& in : inputs_) in.reset();
  for (auto& in : feed_input_) in.reset();
  feed_batch_.resize(in_slots_ == 0 ? batch_ : 0);
  pending_.clear();
  for (OutSlot& out : out_) out.pending_tail = kNoTail;
  fires = 0;
  sink_data = 0;
  source_seq_ = 0;
  eos_flooded_ = false;
  done_ = false;
  aborted_ = false;
}

void FiringCore::trace(TraceKind kind, std::size_t slot, std::uint64_t seq) {
  if constexpr (runtime::kTracingEnabled) {
    if (tracer_ != nullptr) {
      // The sim stamps its sweep counter; the pooled engine stamps a
      // steady-clock timestamp instead (cross-thread order by time, not
      // by a global tick).
      runtime::TraceEvent e{kind, node_, slot, seq,
                            tick_ != nullptr ? *tick_ : 0};
      if (tick_ == nullptr)
        e.ts_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
      tracer_->record(e);
    }
  }
}

void FiringCore::trace_dummy_run(std::uint64_t min_seq, std::uint64_t r) {
  // The per-message event order of r message-at-a-time pure-dummy
  // firings: per seq, the consumed inputs, then the slots that sent.
  for (std::uint64_t seq = min_seq; seq < min_seq + r; ++seq) {
    for (std::size_t j = 0; j < in_slots_; ++j)
      if (heads_[j].seq == min_seq) trace(TraceKind::DummyConsumed, j, seq);
    for (std::size_t slot = 0; slot < out_slots_; ++slot) {
      const runtime::NodeWrapper::DummyRun& run = out_[slot].dummy_run;
      if (run.count > 0 && seq >= run.first &&
          (seq - run.first) % run.stride == 0 &&
          (seq - run.first) / run.stride < run.count)
        trace(TraceKind::DummySent, slot, seq);
    }
  }
}

void FiringCore::queue_dummies(std::size_t slot, std::uint64_t seq,
                               std::uint64_t count) {
  const std::size_t idx = out_[slot].pending_tail;
  if (idx != kNoTail) {
    // The slot's most recent pending entry is a dummy run; extend it when
    // the sequence number continues it (per-slot FIFO order is preserved
    // because data/EOS emissions invalidate the tail index).
    PendingRun& pr = pending_[idx];
    if (pr.message.seq + pr.run == seq) {
      pr.run += static_cast<std::uint32_t>(count);
      return;
    }
  }
  out_[slot].pending_tail = pending_.size();
  pending_.push_back(
      {slot, Message::dummy(seq), static_cast<std::uint32_t>(count)});
}

void FiringCore::queue_outputs(std::uint64_t seq, bool any_input_dummy) {
  for (std::size_t slot = 0; slot < out_slots_; ++slot) {
    if (emitter_.value(slot).has_value()) {
      (void)wrapper_.should_send_dummy(slot, seq, /*sent_data=*/true, false);
      pending_.push_back({slot, Message::data(seq, emitter_.take(slot)), 1});
      out_[slot].pending_tail = kNoTail;
      if (metrics_ != nullptr) obs::bump(metrics_->data_out);
      trace(TraceKind::DataSent, slot, seq);
    } else if (wrapper_.should_send_dummy(slot, seq, /*sent_data=*/false,
                                          any_input_dummy)) {
      queue_dummies(slot, seq, 1);
      if (metrics_ != nullptr) obs::bump(metrics_->dummy_out);
      trace(TraceKind::DummySent, slot, seq);
    }
  }
}

void FiringCore::queue_eos() {
  for (std::size_t slot = 0; slot < out_slots_; ++slot) {
    pending_.push_back({slot, Message::eos(), 1});
    out_[slot].pending_tail = kNoTail;
    if (metrics_ != nullptr) obs::bump(metrics_->eos_out);
    trace(TraceKind::EosSent, slot, kEosSeq);
  }
  eos_flooded_ = true;
  // Latch the final counters in the plane's finished set: a barrier begun
  // after this node drains treats the EOS flood as marker-equivalent
  // downstream, and the snapshot carries these counters as the node's cut.
  if (plane_ != nullptr) plane_->node_finished(node_, make_cut(/*done=*/true));
}

ckpt::NodeCut FiringCore::make_cut(bool done) const {
  ckpt::NodeCut cut;
  cut.done = done ? 1 : 0;
  cut.fires = fires;
  cut.sink_data = sink_data;
  cut.source_seq = source_seq_;
  cut.last_sent = wrapper_.last_sent();
  kernel_->save_state(cut.kernel_state);
  return cut;
}

void FiringCore::checkpoint(std::uint64_t barrier_seq) {
  if (plane_ != nullptr)
    plane_->node_checkpoint(node_, make_cut(/*done=*/false));
  // Forward Marker(S) on every output, behind any pre-S pending emissions
  // (per-slot FIFO through drain_pending keeps the barrier invariant: all
  // pre-cut messages precede the marker on each channel). Markers are not
  // traffic: no fires, no data/dummy counters.
  for (std::size_t slot = 0; slot < out_slots_; ++slot) {
    pending_.push_back({slot, Message::marker(barrier_seq), 1});
    out_[slot].pending_tail = kNoTail;
  }
}

void FiringCore::restore_cut(const ckpt::NodeCut& cut) {
  fires = cut.fires;
  sink_data = cut.sink_data;
  source_seq_ = cut.source_seq;
  wrapper_.restore_last_sent(cut.last_sent);
  kernel_->load_state(cut.kernel_state);
}

void FiringCore::mark_done() {
  eos_flooded_ = true;
  done_ = true;
  // Seed the plane's finished set so a barrier begun after the restore
  // still completes (the node will never step again, so this is its only
  // chance to report). Call restore_cut first: the final cut must carry
  // the restored counters, not zeros.
  if (plane_ != nullptr) plane_->node_finished(node_, make_cut(/*done=*/true));
}

bool FiringCore::drain_pending() {
  bool progressed = false;
  std::size_t write = 0;
  for (OutSlot& out : out_) out.blocked = false;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    PendingRun& pr = pending_[i];
    // A blocked message parks every later message for the same slot too
    // (per-slot FIFO); other slots keep draining -- per-channel asynchrony.
    if (aborted_ || out_[pr.out_slot].blocked) {
      if (write != i) pending_[write] = std::move(pr);
      ++write;
      continue;
    }
    bool keep = false;
    if (pr.run == 1) {
      switch (io_.try_push(pr.out_slot, std::move(pr.message))) {
        case PushOutcome::Delivered:
          progressed = true;
          break;
        case PushOutcome::Blocked:
          out_[pr.out_slot].blocked = true;
          keep = true;
          break;
        case PushOutcome::Aborted:
          aborted_ = true;
          keep = true;
          break;
      }
    } else {
      PushOutcome outcome = PushOutcome::Delivered;
      const std::size_t accepted =
          io_.try_push_dummies(pr.out_slot, pr.message.seq, pr.run,
                                 &outcome);
      if (accepted > 0) progressed = true;
      pr.message.seq += accepted;
      pr.run -= static_cast<std::uint32_t>(accepted);
      if (pr.run > 0) {
        if (outcome == PushOutcome::Aborted)
          aborted_ = true;
        else
          out_[pr.out_slot].blocked = true;
        keep = true;
      }
    }
    if (keep) {
      if (write != i) pending_[write] = std::move(pr);
      ++write;
    }
  }
  pending_.resize(write);
  // Surviving entries changed position; stop coalescing into them.
  for (OutSlot& out : out_) out.pending_tail = kNoTail;
  return progressed;
}

std::uint64_t FiringCore::fire_once(std::uint64_t budget) {
  static const std::vector<std::optional<runtime::Value>> no_inputs;
  if (in_slots_ == 0) {
    // Source: one firing per feed data message.
    auto head = io_.peek_feed();
    if (!head.has_value()) return 0;  // feed empty (or aborted)
    if (head->kind == MessageKind::Marker) {
      // Barrier reaches a source directly from its InputPort: checkpoint
      // between seq S-1 and seq S and forward the marker.
      const std::uint64_t barrier = head->seq;
      io_.pop_feed();
      checkpoint(barrier);
      return 1;
    }
    if (head->kind == MessageKind::Eos) {
      // Unlike interior nodes (which leave EOS in graph channels for
      // teardown), the feed EOS is consumed: an empty feed afterwards is
      // what lets the pooled backend's extended quiescence rule read
      // "no port has pending items" exactly.
      io_.pop_feed();
      queue_eos();
      return 1;
    }
    // A run of feed data: up to `budget` messages leave the feed with one
    // channel op, then fire one by one exactly as message-at-a-time (the
    // pop stops short of any marker, so a barrier still cuts between S-1
    // and S on the next call).
    SDAF_ASSERT(budget <= feed_batch_.size());
    const std::size_t n = io_.pop_feed_data(
        feed_batch_.data(), static_cast<std::size_t>(budget));
    SDAF_ASSERT(n >= 1);
    for (std::size_t i = 0; i < n; ++i) {
      Message& m = feed_batch_[i];
      emitter_.reset();
      if (m.payload.has_value()) {
        feed_input_[0] = std::move(m.payload);
        kernel_->fire(m.seq, feed_input_, emitter_);
        feed_input_[0].reset();
      } else {
        // Firing token: the kernel sees an empty input vector.
        kernel_->fire(m.seq, no_inputs, emitter_);
      }
      ++fires;
      if (metrics_ != nullptr) obs::bump(metrics_->fires);
      trace(TraceKind::Fire, 0, m.seq);
      queue_outputs(m.seq, /*any_input_dummy=*/false);
      source_seq_ = m.seq + 1;
    }
    return n;
  }
  // Interior / sink: alignment needs every input head present; the next
  // accepted sequence number is the minimum head. Peeks are payload-free.
  std::uint64_t min_seq = kEosSeq;
  bool any_data_at_min = false;
  bool marker_at_min = false;
  for (std::size_t j = 0; j < in_slots_; ++j) {
    auto head = io_.peek_head(j);
    if (!head.has_value()) return 0;  // input unavailable (or aborted)
    heads_[j] = *head;
    if (head->seq < min_seq) {
      min_seq = head->seq;
      any_data_at_min = head->kind == MessageKind::Data;
      marker_at_min = head->kind == MessageKind::Marker;
    } else if (head->seq == min_seq) {
      if (head->kind == MessageKind::Data) any_data_at_min = true;
      if (head->kind == MessageKind::Marker) marker_at_min = true;
    }
  }
  if (marker_at_min) {
    // A Marker(S) at the minimum head means every input has drained below
    // S: by the barrier invariant (markers precede all seq >= S traffic on
    // their channel) every head is now Marker(S) or EOS -- an EOS head is
    // an upstream that finished before the barrier, whose final cut the
    // plane already holds. Pop the markers (EOS stays for teardown),
    // checkpoint, and forward. No firing: the barrier is between S-1 and S.
    for (std::size_t j = 0; j < in_slots_; ++j) {
      if (heads_[j].kind == MessageKind::Marker) {
        SDAF_ASSERT(heads_[j].seq == min_seq);
        io_.pop(j);
      } else {
        SDAF_ASSERT(heads_[j].kind == MessageKind::Eos);
      }
    }
    checkpoint(min_seq);
    return 1;
  }
  if (min_seq == kEosSeq) {
    queue_eos();
    return 1;
  }

  if (!any_data_at_min) {
    // Every aligned head is a dummy: the aligned set stays fixed for as
    // long as each aligned run continues *and* stays below every other
    // head, so the whole stretch [min_seq, min_seq + r) is r pure-dummy
    // firings at once. The wrapper's run rule answers for the whole run
    // per slot (exactly r should_send_dummy calls' worth), its dummies
    // queue as coalesced runs, and each input pops its run with one
    // channel op. `budget` caps r so batch=1 keeps the exact
    // message-at-a-time pacing of the paper's model.
    std::uint64_t r = budget;
    for (std::size_t j = 0; j < in_slots_; ++j) {
      if (heads_[j].seq == min_seq)
        r = std::min<std::uint64_t>(r, heads_[j].run);
      else
        r = std::min<std::uint64_t>(r, heads_[j].seq - min_seq);
    }
    SDAF_ASSERT(r >= 1);
    for (std::size_t slot = 0; slot < out_slots_; ++slot)
      out_[slot].dummy_run = wrapper_.dummy_run(slot, min_seq, r);
    if (runtime::kTracingEnabled && tracer_ != nullptr)
      trace_dummy_run(min_seq, r);
    for (std::size_t slot = 0; slot < out_slots_; ++slot) {
      const runtime::NodeWrapper::DummyRun& run = out_[slot].dummy_run;
      if (run.count == 0) continue;
      if (run.stride == 1) {
        queue_dummies(slot, run.first, run.count);
      } else {
        for (std::uint64_t i = 0; i < run.count; ++i)
          queue_dummies(slot, run.first + i * run.stride, 1);
      }
      if (metrics_ != nullptr) obs::bump(metrics_->dummy_out, run.count);
    }
    for (std::size_t j = 0; j < in_slots_; ++j)
      if (heads_[j].seq == min_seq) {
        io_.pop_dummies(j, static_cast<std::size_t>(r));
        if (metrics_ != nullptr) obs::bump(metrics_->dummy_in, r);
      }
    return r;
  }

  bool any_dummy = false;
  bool any_data = false;
  for (std::size_t j = 0; j < in_slots_; ++j) {
    inputs_[j].reset();
    if (heads_[j].seq != min_seq) continue;  // upstream filtered min_seq
    if (heads_[j].kind == MessageKind::Data) {
      // One critical section: the head (payload included) moves out.
      Message m = io_.pop_head(j);
      inputs_[j] = std::move(m.payload);
      any_data = true;
      ++sink_data;
      if (metrics_ != nullptr) obs::bump(metrics_->data_in);
      trace(TraceKind::DataConsumed, j, min_seq);
    } else {
      any_dummy = true;
      if (metrics_ != nullptr) obs::bump(metrics_->dummy_in);
      trace(TraceKind::DummyConsumed, j, min_seq);
      io_.pop(j);
    }
  }
  emitter_.reset();
  if (any_data) {
    kernel_->fire(min_seq, inputs_, emitter_);
    ++fires;
    if (metrics_ != nullptr) obs::bump(metrics_->fires);
    trace(TraceKind::Fire, 0, min_seq);
  }
  queue_outputs(min_seq, any_dummy);
  return 1;
}

bool FiringCore::step() {
  if (done_ || aborted_) return false;
  bool progressed = false;
  // Drain pending emissions first: a firing's outputs must all leave before
  // the next alignment, but a full channel must not block messages destined
  // for channels with space.
  if (!pending_.empty()) {
    progressed = drain_pending();
    if (aborted_) return false;
    if (!pending_.empty()) return progressed;
  }
  if (eos_flooded_) {
    done_ = true;
    return true;
  }
  // The batch quantum: fire up to batch_ sequence numbers back to back,
  // accumulating outputs (dummy runs coalesce in pending_), so the next
  // drain delivers them with one channel op per slot per run instead of
  // one per message. A consumed dummy run spends its length of budget, so
  // batch=1 is exactly message-at-a-time.
  std::uint64_t budget = batch_;
  while (budget > 0) {
    const std::uint64_t used = fire_once(budget);
    if (used == 0) break;
    progressed = true;
    budget -= std::min(used, budget);
    if (eos_flooded_) break;
  }
  return progressed;
}

std::uint64_t FiringCore::park_summary() const {
  if (done_) return kParkDone << kParkTagShift;
  if (!pending_.empty()) {
    std::uint64_t mask = 0;
    for (const PendingRun& pr : pending_) {
      if (pr.out_slot >= 62)
        return (kParkOutputs << kParkTagShift) | kParkSlotMask;
      mask |= std::uint64_t{1} << pr.out_slot;
    }
    return (kParkOutputs << kParkTagShift) | mask;
  }
  return kParkInputs << kParkTagShift;
}

std::string FiringCore::describe() const {
  std::string s = done_ ? "done" : "running";
  s += " src_seq=";
  s += std::to_string(source_seq_);
  s += " pending=";
  s += std::to_string(pending_.size());
  for (const auto& pr : pending_) {
    s += " [slot=";
    s += std::to_string(pr.out_slot);
    s += ' ';
    s += runtime::to_string(pr.message);
    if (pr.run > 1) {
      s += 'x';
      s += std::to_string(pr.run);
    }
    s += ']';
  }
  return s;
}

}  // namespace sdaf::exec
