#include "src/runtime/node_state.h"

#include <sstream>

#include "src/support/contracts.h"

namespace sdaf::runtime {

NodeState::NodeState(NodeId node, std::span<BoundedChannel* const> ins,
                     std::span<BoundedChannel* const> outs,
                     std::span<const NodeId> in_producers,
                     std::span<const NodeId> out_consumers)
    : ins_(ins),
      outs_(outs),
      in_producers_(in_producers),
      out_consumers_(out_consumers),
      core_(node, ins_.size(), outs_.size(), *this) {
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
  feed_ = feed;
  waker_ = &waker;
  core_.reset(kernel, mode, out_intervals, out_forward, batch, tracer, tick,
              metrics, plane);
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
      // through the channel's own event word, not the scheduler.
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
         << " park=" << exec::describe_park_summary(node.park_summary())
         << "\n";
    if (tracer_ != nullptr)
      for (const auto& e : tracer_->tail_for_node(n, /*limit=*/4))
        dump << "  trace " << e.to_string() << "\n";
  }
  return dump.str();
}

}  // namespace sdaf::runtime
