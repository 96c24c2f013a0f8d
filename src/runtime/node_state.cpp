#include "src/runtime/node_state.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "src/support/contracts.h"

namespace sdaf::runtime {

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

NodeState::NodeState(NodeId node, std::span<BoundedChannel* const> ins,
                     std::span<BoundedChannel* const> outs,
                     std::span<const NodeId> in_producers,
                     std::span<const NodeId> out_consumers)
    : node_(node),
      ins_(ins),
      outs_(outs),
      in_producers_(in_producers),
      out_consumers_(out_consumers),
      wrapper_(DummyMode::None, {}),
      emitter_(outs.size()),
      inputs_(ins.size()),
      feed_input_(ins.empty() ? 1 : 0),
      heads_(ins.size()),
      out_(outs.size()) {
  SDAF_EXPECTS(in_producers_.size() == ins_.size());
  SDAF_EXPECTS(out_consumers_.size() == outs_.size());
}

void NodeState::reset(Kernel& kernel, BoundedChannel* feed, Waker& waker,
                      DummyMode mode,
                      const std::vector<std::int64_t>& out_intervals,
                      const std::vector<std::uint8_t>& out_forward,
                      std::uint32_t batch, Tracer* tracer,
                      const std::uint64_t* tick, obs::NodeCounters* metrics,
                      ckpt::SnapshotPlane* plane) {
  SDAF_EXPECTS((feed != nullptr) == ins_.empty());
  SDAF_EXPECTS(out_intervals.size() == outs_.size());
  feed_ = feed;
  waker_ = &waker;
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
  feed_batch_.resize(ins_.empty() ? batch_ : 0);
  pending_.clear();
  for (OutSlot& out : out_) out.pending_tail = kNoTail;
  fires_ = 0;
  sink_data_ = 0;
  source_seq_ = 0;
  eos_flooded_ = false;
  done_ = false;
  aborted_ = false;
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

PushResult NodeState::try_push(std::size_t slot, Message&& m) {
  bool was_empty = false;
  // Markers ride their own channel entry point: occupancy-neutral admission
  // plus the producer-side edge-cut latch (see BoundedChannel).
  const PushResult result =
      m.kind == MessageKind::Marker
          ? outs_[slot]->try_push_marker(m.seq, &was_empty)
          : outs_[slot]->try_push(std::move(m), &was_empty);
  // kNoNode = egress tap: the consumer is the external caller, woken
  // through the channel's own event word, not the scheduler.
  if (result == PushResult::Ok && was_empty &&
      out_consumers_[slot] != kNoNode)
    waker_->wake(out_consumers_[slot]);
  return result;
}

std::size_t NodeState::try_push_dummies(std::size_t slot,
                                        std::uint64_t first_seq,
                                        std::size_t count, bool* aborted) {
  bool was_empty = false;
  const std::size_t accepted =
      outs_[slot]->try_push_dummies(first_seq, count, &was_empty, aborted);
  if (accepted > 0 && was_empty && out_consumers_[slot] != kNoNode)
    waker_->wake(out_consumers_[slot]);
  return accepted;
}

void NodeState::trace(TraceKind kind, std::size_t slot, std::uint64_t seq) {
  if constexpr (kTracingEnabled) {
    if (tracer_ != nullptr) {
      // The sim stamps its sweep counter; the pooled engine stamps a
      // steady-clock timestamp instead (cross-thread order by time, not
      // by a global tick).
      TraceEvent e{kind, node_, slot, seq, tick_ != nullptr ? *tick_ : 0};
      if (tick_ == nullptr)
        e.ts_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
      tracer_->record(e);
    }
  }
}

void NodeState::trace_dummy_run(std::uint64_t min_seq, std::uint64_t r) {
  // The per-message event order of r message-at-a-time pure-dummy
  // firings: per seq, the consumed inputs, then the slots that sent.
  for (std::uint64_t seq = min_seq; seq < min_seq + r; ++seq) {
    for (std::size_t j = 0; j < ins_.size(); ++j)
      if (heads_[j].seq == min_seq) trace(TraceKind::DummyConsumed, j, seq);
    for (std::size_t slot = 0; slot < outs_.size(); ++slot) {
      const NodeWrapper::DummyRun& run = out_[slot].dummy_run;
      if (run.count > 0 && seq >= run.first &&
          (seq - run.first) % run.stride == 0 &&
          (seq - run.first) / run.stride < run.count)
        trace(TraceKind::DummySent, slot, seq);
    }
  }
}

void NodeState::queue_dummies(std::size_t slot, std::uint64_t seq,
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

void NodeState::queue_outputs(std::uint64_t seq, bool any_input_dummy) {
  for (std::size_t slot = 0; slot < outs_.size(); ++slot) {
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

void NodeState::queue_eos() {
  for (std::size_t slot = 0; slot < outs_.size(); ++slot) {
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

ckpt::NodeCut NodeState::make_cut(bool done) const {
  ckpt::NodeCut cut;
  cut.done = done ? 1 : 0;
  cut.fires = fires_;
  cut.sink_data = sink_data_;
  cut.source_seq = source_seq_;
  cut.last_sent = wrapper_.last_sent();
  kernel_->save_state(cut.kernel_state);
  return cut;
}

void NodeState::checkpoint(std::uint64_t barrier_seq) {
  if (plane_ != nullptr)
    plane_->node_checkpoint(node_, make_cut(/*done=*/false));
  // Forward Marker(S) on every output, behind any pre-S pending emissions
  // (per-slot FIFO through drain_pending keeps the barrier invariant: all
  // pre-cut messages precede the marker on each channel). Markers are not
  // traffic: no fires, no data/dummy counters.
  for (std::size_t slot = 0; slot < outs_.size(); ++slot) {
    pending_.push_back({slot, Message::marker(barrier_seq), 1});
    out_[slot].pending_tail = kNoTail;
  }
}

void NodeState::restore_cut(const ckpt::NodeCut& cut) {
  fires_ = cut.fires;
  sink_data_ = cut.sink_data;
  source_seq_ = cut.source_seq;
  wrapper_.restore_last_sent(cut.last_sent);
  kernel_->load_state(cut.kernel_state);
}

void NodeState::mark_done() {
  eos_flooded_ = true;
  done_ = true;
  // Seed the plane's finished set so a barrier begun after the restore
  // still completes (the node will never step again, so this is its only
  // chance to report). Call restore_cut first: the final cut must carry
  // the restored counters, not zeros.
  if (plane_ != nullptr) plane_->node_finished(node_, make_cut(/*done=*/true));
}

bool NodeState::drain_pending() {
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
      switch (try_push(pr.out_slot, std::move(pr.message))) {
        case PushResult::Ok:
          progressed = true;
          break;
        case PushResult::Full:
          out_[pr.out_slot].blocked = true;
          keep = true;
          break;
        case PushResult::Aborted:
          aborted_ = true;
          keep = true;
          break;
      }
    } else {
      bool chan_aborted = false;
      const std::size_t accepted = try_push_dummies(
          pr.out_slot, pr.message.seq, pr.run, &chan_aborted);
      if (accepted > 0) progressed = true;
      pr.message.seq += accepted;
      pr.run -= static_cast<std::uint32_t>(accepted);
      if (pr.run > 0) {
        if (chan_aborted)
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

std::uint64_t NodeState::fire_once(std::uint64_t budget) {
  static const std::vector<std::optional<Value>> no_inputs;
  if (ins_.empty()) {
    // Source: one firing per feed data message.
    const auto head = feed_->try_peek_head();
    if (!head.has_value()) return 0;  // feed empty (or aborted)
    if (head->kind == MessageKind::Marker) {
      // Barrier reaches a source directly from its InputPort: checkpoint
      // between seq S-1 and seq S and forward the marker.
      const std::uint64_t barrier = head->seq;
      (void)feed_->pop();
      checkpoint(barrier);
      return 1;
    }
    if (head->kind == MessageKind::Eos) {
      // Unlike interior nodes (which leave EOS in graph channels for
      // teardown), the feed EOS is consumed: an empty feed afterwards is
      // what lets the pooled backend's extended quiescence rule read
      // "no port has pending items" exactly.
      (void)feed_->pop();
      queue_eos();
      return 1;
    }
    // A run of feed data: up to `budget` messages leave the feed with one
    // channel op, then fire one by one exactly as message-at-a-time (the
    // pop stops short of any marker, so a barrier still cuts between S-1
    // and S on the next call). The pop notes the feed's ProducerSignal
    // inside the channel (once per run), which is how a caller blocked in
    // InputPort::push learns space freed up.
    SDAF_ASSERT(budget <= feed_batch_.size());
    const std::size_t n = feed_->pop_data(feed_batch_.data(),
                                          static_cast<std::size_t>(budget));
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
      ++fires_;
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
  for (std::size_t j = 0; j < ins_.size(); ++j) {
    const auto head = ins_[j]->try_peek_head();
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
    for (std::size_t j = 0; j < ins_.size(); ++j) {
      if (heads_[j].kind == MessageKind::Marker) {
        SDAF_ASSERT(heads_[j].seq == min_seq);
        pop(j);
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
    for (std::size_t j = 0; j < ins_.size(); ++j) {
      if (heads_[j].seq == min_seq)
        r = std::min<std::uint64_t>(r, heads_[j].run);
      else
        r = std::min<std::uint64_t>(r, heads_[j].seq - min_seq);
    }
    SDAF_ASSERT(r >= 1);
    for (std::size_t slot = 0; slot < outs_.size(); ++slot)
      out_[slot].dummy_run = wrapper_.dummy_run(slot, min_seq, r);
    if (kTracingEnabled && tracer_ != nullptr) trace_dummy_run(min_seq, r);
    for (std::size_t slot = 0; slot < outs_.size(); ++slot) {
      const NodeWrapper::DummyRun& run = out_[slot].dummy_run;
      if (run.count == 0) continue;
      if (run.stride == 1) {
        queue_dummies(slot, run.first, run.count);
      } else {
        for (std::uint64_t i = 0; i < run.count; ++i)
          queue_dummies(slot, run.first + i * run.stride, 1);
      }
      if (metrics_ != nullptr) obs::bump(metrics_->dummy_out, run.count);
    }
    for (std::size_t j = 0; j < ins_.size(); ++j)
      if (heads_[j].seq == min_seq) {
        pop_dummies(j, static_cast<std::size_t>(r));
        if (metrics_ != nullptr) obs::bump(metrics_->dummy_in, r);
      }
    return r;
  }

  bool any_dummy = false;
  bool any_data = false;
  for (std::size_t j = 0; j < ins_.size(); ++j) {
    inputs_[j].reset();
    if (heads_[j].seq != min_seq) continue;  // upstream filtered min_seq
    if (heads_[j].kind == MessageKind::Data) {
      // One critical section: the head (payload included) moves out.
      Message m = pop_head(j);
      inputs_[j] = std::move(m.payload);
      any_data = true;
      ++sink_data_;
      if (metrics_ != nullptr) obs::bump(metrics_->data_in);
      trace(TraceKind::DataConsumed, j, min_seq);
    } else {
      any_dummy = true;
      if (metrics_ != nullptr) obs::bump(metrics_->dummy_in);
      trace(TraceKind::DummyConsumed, j, min_seq);
      pop(j);
    }
  }
  emitter_.reset();
  if (any_data) {
    kernel_->fire(min_seq, inputs_, emitter_);
    ++fires_;
    if (metrics_ != nullptr) obs::bump(metrics_->fires);
    trace(TraceKind::Fire, 0, min_seq);
  }
  queue_outputs(min_seq, any_dummy);
  return 1;
}

bool NodeState::step() {
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

std::uint64_t NodeState::park_summary() const {
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

bool NodeState::probe(std::uint64_t summary) const {
  switch (summary >> kParkTagShift) {
    case kParkDone:
      return false;
    case kParkOutputs: {
      const std::uint64_t mask = summary & kParkSlotMask;
      for (std::size_t slot = 0; slot < outs_.size(); ++slot) {
        const bool relevant = slot >= 62
                                  ? mask == kParkSlotMask
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

std::string NodeState::describe() const {
  std::string s = done_ ? "done" : "running";
  s += " src_seq=";
  s += std::to_string(source_seq_);
  s += " pending=";
  s += std::to_string(pending_.size());
  for (const auto& pr : pending_) {
    s += " [slot=";
    s += std::to_string(pr.out_slot);
    s += ' ';
    s += to_string(pr.message);
    if (pr.run > 1) {
      s += 'x';
      s += std::to_string(pr.run);
    }
    s += ']';
  }
  return s;
}

Wiring::Wiring(const StreamGraph& g,
               const std::vector<std::shared_ptr<Kernel>>& kernels,
               const exec::RunSpec& spec, Waker& waker,
               const std::uint64_t* tick)
    : tick_(tick) {
  edges_.reserve(g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) edges_.push_back(g.edge(e));
  channels_.reserve(g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e)
    channels_.push_back(std::make_unique<BoundedChannel>(
        static_cast<std::size_t>(g.edge(e).buffer)));

  // Sized once, so the spans each node borrows stay valid.
  const auto egress = [&](NodeId n) {
    return spec.ports != nullptr ? spec.ports->egress_for(n) : nullptr;
  };
  std::size_t slots = 0;
  for (NodeId n = 0; n < g.node_count(); ++n)
    slots += g.in_degree(n) + g.out_degree(n) + (egress(n) != nullptr ? 1 : 0);
  slot_channels_.resize(slots);
  slot_peers_.resize(slots);
  std::size_t k = 0;
  nodes_.reserve(g.node_count());
  for (NodeId n = 0; n < g.node_count(); ++n) {
    const std::size_t ins = k;
    for (const EdgeId e : g.in_edges(n)) {
      slot_channels_[k] = channels_[e].get();
      slot_peers_[k++] = g.edge(e).from;
    }
    const std::size_t outs = k;
    for (const EdgeId e : g.out_edges(n)) {
      slot_channels_[k] = channels_[e].get();
      slot_peers_[k++] = g.edge(e).to;
    }
    if (BoundedChannel* tap = egress(n)) {
      // The egress tap is one extra out-slot with no consumer task to
      // wake; reset() gives it an infinite dummy interval and no
      // continuation forwarding.
      slot_channels_[k] = tap;
      slot_peers_[k++] = kNoNode;
    }
    const std::span<BoundedChannel* const> channels(slot_channels_);
    const std::span<const NodeId> peers(slot_peers_);
    nodes_.push_back(std::make_unique<NodeState>(
        n, channels.subspan(ins, outs - ins), channels.subspan(outs, k - outs),
        peers.subspan(ins, outs - ins), peers.subspan(outs, k - outs)));
  }
  reset(g, kernels, spec, waker);
}

void Wiring::reset(const StreamGraph& g,
                   const std::vector<std::shared_ptr<Kernel>>& kernels,
                   const exec::RunSpec& spec, Waker& waker) {
  const std::size_t edges = g.edge_count();
  SDAF_EXPECTS(fits(g));
  SDAF_EXPECTS(kernels.size() == g.node_count());
  for (const auto& k : kernels) SDAF_EXPECTS(k != nullptr);
  SDAF_EXPECTS(spec.intervals.empty() || spec.intervals.size() == edges);
  SDAF_EXPECTS(spec.forward_on_filter.empty() ||
               spec.forward_on_filter.size() == edges);
  graph_ = &g;
  tracer_ = spec.tracer;

  for (EdgeId e = 0; e < edges; ++e) {
    channels_[e]->reset();
    channels_[e]->set_metrics(spec.metrics != nullptr
                                  ? &spec.metrics->channel(e)
                                  : nullptr);
  }

  std::size_t sources = 0;
  for (NodeId n = 0; n < g.node_count(); ++n) {
    slot_intervals_.clear();
    slot_forward_.clear();
    for (const EdgeId e : g.out_edges(n)) {
      slot_intervals_.push_back(spec.intervals.empty() ? kInfiniteInterval
                                                       : spec.intervals[e]);
      slot_forward_.push_back(
          spec.forward_on_filter.empty() ? 0 : spec.forward_on_filter[e]);
    }
    BoundedChannel* feed = nullptr;
    if (spec.ports == nullptr) {
      if (g.in_degree(n) == 0) feed = token_feed(sources++, spec.num_inputs);
    } else {
      feed = spec.ports->feed_for(n);
      if (spec.ports->egress_for(n) != nullptr) {
        // The egress out-slot: infinite dummy interval, never
        // continuation-forwarding.
        slot_intervals_.push_back(kInfiniteInterval);
        slot_forward_.push_back(0);
      }
    }
    nodes_[n]->reset(*kernels[n], feed, waker, spec.mode, slot_intervals_,
                     slot_forward_, spec.batch, spec.tracer, tick_,
                     spec.metrics != nullptr ? &spec.metrics->node(n) : nullptr,
                     spec.ckpt_plane);
  }

  if (spec.restore == nullptr) return;
  const ckpt::StreamSnapshot& snap = *spec.restore;
  SDAF_EXPECTS(snap.nodes.size() == g.node_count() &&
               snap.edges.size() == edges);
  for (NodeId n = 0; n < g.node_count(); ++n) {
    nodes_[n]->restore_cut(snap.nodes[n]);
    if (snap.nodes[n].done != 0) nodes_[n]->mark_done();
  }
  for (EdgeId e = 0; e < edges; ++e) {
    channels_[e]->restore_stats(snap.edges[e].data_pushed,
                                snap.edges[e].dummies_pushed);
    // The cut's interior channels are logically empty except for the EOS
    // a pre-barrier-finished producer had flooded; re-create that head so
    // a live consumer still terminates.
    if (snap.nodes[g.edge(e).from].done != 0 &&
        snap.nodes[g.edge(e).to].done == 0) {
      const PushResult pushed = channels_[e]->try_push(Message::eos());
      SDAF_ASSERT(pushed == PushResult::Ok);
    }
  }
}

BoundedChannel* Wiring::token_feed(std::size_t i, std::uint64_t num_inputs) {
  // Pre-closed: the source never observes a starved feed, so a batch run's
  // verdict is the closed-world one, and its EOS lands right after item N.
  const auto capacity = static_cast<std::size_t>(num_inputs) + 1;
  if (i == token_feeds_.size())
    token_feeds_.push_back(std::make_unique<BoundedChannel>(capacity));
  else if (token_feeds_[i]->capacity() != capacity)
    token_feeds_[i] = std::make_unique<BoundedChannel>(capacity);
  else
    token_feeds_[i]->reset();
  BoundedChannel& feed = *token_feeds_[i];
  for (std::uint64_t seq = 0; seq < num_inputs; ++seq) {
    const PushResult r = feed.try_push(Message::data(seq, {}));
    SDAF_ASSERT(r == PushResult::Ok);
  }
  const PushResult r = feed.try_push(Message::eos());
  SDAF_ASSERT(r == PushResult::Ok);
  return &feed;
}

bool Wiring::fits(const StreamGraph& g) const {
  if (g.node_count() != nodes_.size() || g.edge_count() != edges_.size())
    return false;
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    const Edge& a = g.edge(e);
    const Edge& b = edges_[e];
    if (a.from != b.from || a.to != b.to || a.buffer != b.buffer) return false;
  }
  return true;
}

bool Wiring::all_done() const {
  for (const auto& node : nodes_)
    if (!node->done()) return false;
  return true;
}

void Wiring::report(exec::RunReport& r) const {
  r.edges.resize(channels_.size());
  for (std::size_t e = 0; e < channels_.size(); ++e) {
    const ChannelStats s = channels_[e]->stats();
    r.edges[e] =
        exec::EdgeTraffic{s.data_pushed, s.dummies_pushed, s.max_occupancy};
  }
  r.fires.resize(nodes_.size());
  r.sink_data.resize(nodes_.size());
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    r.fires[n] = nodes_[n]->fires();
    r.sink_data[n] = nodes_[n]->sink_data();
  }
}

ckpt::EdgeCut Wiring::edge_cut(EdgeId e, bool producer_checkpointed) const {
  const ChannelStats s = producer_checkpointed
                             ? channels_[e]->marker_cut_stats()
                             : channels_[e]->stats();
  return ckpt::EdgeCut{s.data_pushed, s.dummies_pushed};
}

std::string Wiring::dump_wedged_state() const {
  std::ostringstream dump;
  const StreamGraph& graph = *graph_;
  for (EdgeId e = 0; e < graph.edge_count(); ++e) {
    const BoundedChannel& ch = *channels_[e];
    const ChannelStats s = ch.stats();
    dump << "edge " << e << " " << graph.node_name(graph.edge(e).from)
         << "->" << graph.node_name(graph.edge(e).to) << " " << ch.size()
         << "/" << ch.capacity() << " pushed=" << s.data_pushed << "+"
         << s.dummies_pushed << "d";
    if (const auto head = ch.try_peek(); head.has_value())
      dump << " head=" << to_string(*head);
    dump << "\n";
  }
  for (NodeId n = 0; n < graph.node_count(); ++n) {
    const NodeState& node = *nodes_[n];
    dump << "node " << graph.node_name(n) << " " << node.describe()
         << " park=" << describe_park_summary(node.park_summary())
         << "\n";
    if (tracer_ != nullptr)
      for (const auto& e : tracer_->tail_for_node(n, /*limit=*/4))
        dump << "  trace " << e.to_string() << "\n";
  }
  return dump.str();
}

}  // namespace sdaf::runtime
