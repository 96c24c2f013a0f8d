#include "src/runtime/node_state.h"

#include <sstream>

#include "src/support/contracts.h"

namespace sdaf::runtime {

NodeState::NodeState(NodeId node, Kernel& kernel,
                     std::vector<BoundedChannel*> ins,
                     std::vector<BoundedChannel*> outs, BoundedChannel* feed,
                     NodeWrapper wrapper, std::vector<NodeId> in_producers,
                     std::vector<NodeId> out_consumers, Waker& waker,
                     std::uint32_t batch, Tracer* tracer,
                     const std::uint64_t* tick, obs::NodeCounters* metrics)
    : ins_(std::move(ins)),
      outs_(std::move(outs)),
      feed_(feed),
      in_producers_(std::move(in_producers)),
      out_consumers_(std::move(out_consumers)),
      waker_(waker),
      core_(node, kernel, ins_.size(), outs_.size(), std::move(wrapper),
            *this, batch, tracer, tick, metrics) {
  SDAF_EXPECTS((feed_ != nullptr) == ins_.empty());
  SDAF_EXPECTS(in_producers_.size() == ins_.size());
  SDAF_EXPECTS(out_consumers_.size() == outs_.size());
}

Message NodeState::pop_head(std::size_t slot) {
  bool was_full = false;
  Message m = ins_[slot]->pop_head(&was_full);
  if (was_full) waker_.wake(in_producers_[slot]);
  return m;
}

void NodeState::pop(std::size_t slot) {
  if (ins_[slot]->pop()) waker_.wake(in_producers_[slot]);
}

void NodeState::pop_dummies(std::size_t slot, std::size_t count) {
  const auto run = ins_[slot]->pop_dummies(count);
  SDAF_ASSERT(run.popped == count);
  if (run.was_full) waker_.wake(in_producers_[slot]);
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
        waker_.wake(out_consumers_[slot]);
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
    waker_.wake(out_consumers_[slot]);
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
    : graph_(g), tracer_(spec.tracer) {
  const std::size_t edges = g.edge_count();
  SDAF_EXPECTS(kernels.size() == g.node_count());
  for (const auto& k : kernels) SDAF_EXPECTS(k != nullptr);
  std::vector<std::int64_t> intervals = spec.intervals;
  if (intervals.empty()) intervals.assign(edges, kInfiniteInterval);
  SDAF_EXPECTS(intervals.size() == edges);
  std::vector<std::uint8_t> forward = spec.forward_on_filter;
  if (forward.empty()) forward.assign(edges, 0);
  SDAF_EXPECTS(forward.size() == edges);

  channels_.reserve(edges);
  for (EdgeId e = 0; e < edges; ++e) {
    channels_.push_back(std::make_unique<BoundedChannel>(
        static_cast<std::size_t>(g.edge(e).buffer)));
    if (spec.metrics != nullptr)
      channels_.back()->set_metrics(&spec.metrics->channel(e));
  }

  nodes_.reserve(g.node_count());
  for (NodeId n = 0; n < g.node_count(); ++n) {
    std::vector<BoundedChannel*> ins;
    std::vector<NodeId> in_producers;
    for (const EdgeId e : g.in_edges(n)) {
      ins.push_back(channels_[e].get());
      in_producers.push_back(g.edge(e).from);
    }
    std::vector<BoundedChannel*> outs;
    std::vector<NodeId> out_consumers;
    std::vector<std::int64_t> out_intervals;
    std::vector<std::uint8_t> out_forward;
    for (const EdgeId e : g.out_edges(n)) {
      outs.push_back(channels_[e].get());
      out_consumers.push_back(g.edge(e).to);
      out_intervals.push_back(intervals[e]);
      out_forward.push_back(forward[e]);
    }
    BoundedChannel* feed = nullptr;
    if (spec.ports == nullptr) {
      if (ins.empty()) feed = token_feed(spec.num_inputs);
    } else {
      feed = spec.ports->feed_for(n);
      if (BoundedChannel* egress = spec.ports->egress_for(n)) {
        // The egress tap is one extra out-slot: infinite dummy interval,
        // never continuation-forwarding, no consumer task to wake.
        outs.push_back(egress);
        out_consumers.push_back(kNoNode);
        out_intervals.push_back(kInfiniteInterval);
        out_forward.push_back(0);
      }
    }
    nodes_.push_back(std::make_unique<NodeState>(
        n, *kernels[n], std::move(ins), std::move(outs), feed,
        NodeWrapper(spec.mode, std::move(out_intervals),
                    std::move(out_forward)),
        std::move(in_producers), std::move(out_consumers), waker, spec.batch,
        spec.tracer, tick,
        spec.metrics != nullptr ? &spec.metrics->node(n) : nullptr));
    if (spec.ckpt_plane != nullptr)
      nodes_.back()->set_snapshot_plane(spec.ckpt_plane);
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

BoundedChannel* Wiring::token_feed(std::uint64_t num_inputs) {
  // Pre-closed: the source never observes a starved feed, so a batch run's
  // verdict is the closed-world one, and its EOS lands right after item N.
  auto feed = std::make_unique<BoundedChannel>(
      static_cast<std::size_t>(num_inputs) + 1);
  for (std::uint64_t seq = 0; seq < num_inputs; ++seq) {
    const PushResult r = feed->try_push(Message::data(seq, {}));
    SDAF_ASSERT(r == PushResult::Ok);
  }
  const PushResult r = feed->try_push(Message::eos());
  SDAF_ASSERT(r == PushResult::Ok);
  token_feeds_.push_back(std::move(feed));
  return token_feeds_.back().get();
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
  for (EdgeId e = 0; e < graph_.edge_count(); ++e) {
    const BoundedChannel& ch = *channels_[e];
    const ChannelStats s = ch.stats();
    dump << "edge " << e << " " << graph_.node_name(graph_.edge(e).from)
         << "->" << graph_.node_name(graph_.edge(e).to) << " " << ch.size()
         << "/" << ch.capacity() << " pushed=" << s.data_pushed << "+"
         << s.dummies_pushed << "d";
    if (const auto head = ch.try_peek(); head.has_value())
      dump << " head=" << to_string(*head);
    dump << "\n";
  }
  for (NodeId n = 0; n < graph_.node_count(); ++n) {
    const NodeState& node = *nodes_[n];
    dump << "node " << graph_.node_name(n) << " " << node.describe()
         << " park=" << exec::describe_park_summary(node.park_summary())
         << "\n";
    if (tracer_ != nullptr)
      for (const auto& e : tracer_->tail_for_node(n, /*limit=*/4))
        dump << "  trace " << e.to_string() << "\n";
  }
  return dump.str();
}

}  // namespace sdaf::runtime
