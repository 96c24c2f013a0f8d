// Per-node task and per-run wiring shared by both execution engines.
//
// NodeState is an exec::FiringCore plus the node's channels: its delivery
// operations never block -- an unavailable head or a full channel is
// reported, and the engine decides when to step the node again. Any
// channel transition that could unblock a peer (an input becoming
// non-empty, a full output draining) is reported through the Waker: the
// pooled scheduler re-enqueues the peer, the simulator's no-op waker lets
// its round-robin sweep find it. The task never holds a lock across a
// kernel firing and never waits inside a channel, which is what lets a
// fixed worker pool run graphs with orders of magnitude more nodes than
// threads. The firing semantics themselves (alignment, dummy wrappers, EOS
// flood) live in src/exec/firing_core.cpp.
//
// Wiring builds one run's runtime::BoundedChannels and NodeStates from a
// graph and an exec::RunSpec -- intervals, continuation flags, injected
// ports (or, for a batch run, its pre-closed token feeds), snapshot plane,
// restore -- and reads back the report, the edge cuts and the wedge dump.
// sim::SweepEngine and runtime::PoolExecutor each hold one, so both
// engines run the same channels and the same nodes. Its shape (channels,
// nodes, slots) is allocated once; reset() binds a run's values to it, so
// the pool rewinds one wiring across rounds of a topology instead of
// rebuilding it. A node that has never run counts as parked on its inputs:
// its park summary reads kParkInputs, and probe() of that summary is how
// the pool picks the nodes worth kicking at submit.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/exec/firing_core.h"
#include "src/exec/run_types.h"
#include "src/graph/stream_graph.h"
#include "src/runtime/channel.h"
#include "src/runtime/kernel.h"
#include "src/runtime/trace.h"
#include "src/runtime/wrapper.h"

namespace sdaf::runtime {

// Scheduler hook: wake(node) must make the named node runnable again. The
// callee may be invoked from any worker thread and must be cheap; spurious
// wakes are allowed (the woken node simply makes no progress and re-parks).
class Waker {
 public:
  virtual ~Waker() = default;
  virtual void wake(NodeId node) = 0;
};

class NodeState final {
 public:
  // The node's shape, borrowed from its owner (runtime::Wiring keeps every
  // node's slots in two flat arrays). `in_producers[j]` /
  // `out_consumers[slot]` name the node at the far end of the corresponding
  // channel; they are the wake targets for the pop-freed-a-full-channel /
  // push-filled-an-empty-channel transitions. An egress tap rides in `outs`
  // as one extra slot whose out_consumers entry is kNoNode (its consumer is
  // the external caller, woken through the channel itself, never through
  // the Waker). The node is not runnable until reset() binds it to a run.
  NodeState(NodeId node, std::span<BoundedChannel* const> ins,
            std::span<BoundedChannel* const> outs,
            std::span<const NodeId> in_producers,
            std::span<const NodeId> out_consumers);

  // Binds the node to one run and rewinds its core (see
  // exec::FiringCore::reset for the remaining parameters). `feed` is the
  // injected channel a source (no `ins`) consumes, null for every other
  // node; wakes go to `waker`. The channels are rewound by their owner,
  // runtime::Wiring.
  void reset(Kernel& kernel, BoundedChannel* feed, Waker& waker,
             DummyMode mode, const std::vector<std::int64_t>& out_intervals,
             const std::vector<std::uint8_t>& out_forward,
             std::uint32_t batch, Tracer* tracer, const std::uint64_t* tick,
             obs::NodeCounters* metrics, ckpt::SnapshotPlane* plane);

  // One scheduling quantum; returns true iff any progress was made
  // (a message delivered, consumed, or produced). After false the node is
  // quiescent until one of its channels changes.
  bool step() { return core_.step(); }

  // Park protocol support. After step() returns false the owning worker
  // calls park_summary() (still owner, so reading core state is safe)
  // to capture *why* the node is stuck, publishes it, parks, and then calls
  // probe(summary) to close the race with a wake that slipped between the
  // last unproductive step and the park. probe() reads only immutable
  // members and coherent channel-occupancy snapshots, so it is safe to
  // call after ownership has been lost; a stale verdict is handled by the
  // caller (it re-acquires the node or defers to whoever queued it).
  // The probe must run after the park transition's seq_cst RMW: that RMW
  // pairs with the seq_cst fence a channel peer issues between publishing
  // its counter and deciding whether to wake us, which is what makes the
  // lock-free channel's elided wake-ups lost-wakeup-free.
  [[nodiscard]] std::uint64_t park_summary() const {
    return core_.park_summary();
  }
  [[nodiscard]] bool probe(std::uint64_t summary) const;

  [[nodiscard]] bool done() const { return core_.done(); }
  [[nodiscard]] NodeId node() const { return core_.node(); }
  [[nodiscard]] std::uint64_t fires() const { return core_.fires; }
  [[nodiscard]] std::uint64_t sink_data() const { return core_.sink_data; }

  // Human-readable state for deadlock dumps; only valid at quiescence (or
  // from the owning worker).
  [[nodiscard]] std::string describe() const { return core_.describe(); }

  // Restore plumbing (ckpt): see exec::FiringCore.
  void restore_cut(const ckpt::NodeCut& cut) { core_.restore_cut(cut); }
  void mark_done() { core_.mark_done(); }

 private:
  // The core's channel operations. Peeks/pops act on in-slots, pushes on
  // out-slots (slot indices follow StreamGraph::in_edges/out_edges order,
  // plus the egress tap). None blocks; each wakes the peer on the
  // empty->non-empty and full->non-full transitions, and the batched ops
  // issue one wake-up per run, not per message.
  friend class exec::FiringCore;

  // Payload-free view of the head of in-slot `slot` (seq, kind, and the
  // length of the consecutive dummy run starting there), or empty when no
  // message is available.
  [[nodiscard]] std::optional<HeadView> peek_head(std::size_t slot) {
    return ins_[slot]->try_peek_head();
  }
  // Removes the head and returns it (payload moved out). Precondition: the
  // immediately preceding peek_head(slot) observed a head.
  [[nodiscard]] Message pop_head(std::size_t slot);
  // Removes the head, discarding it. Precondition: as for pop_head.
  void pop(std::size_t slot);
  // Removes `count` dummies from the head run with one channel operation.
  // Precondition: the preceding peek observed a dummy run >= count.
  void pop_dummies(std::size_t slot, std::size_t count);
  // Delivers `m` without blocking; consumes it only when Delivered.
  [[nodiscard]] exec::PushOutcome try_push(std::size_t slot, Message&& m);
  // Delivers up to `count` dummies first_seq, first_seq+1, ... as one
  // coalesced run; returns how many were accepted. `*outcome` is
  // Delivered when all fit, Blocked/Aborted otherwise.
  [[nodiscard]] std::size_t try_push_dummies(std::size_t slot,
                                             std::uint64_t first_seq,
                                             std::size_t count,
                                             exec::PushOutcome* outcome);
  // Sources only: the injected feed. peek_feed has the contract
  // of peek_head; pop_feed discards the head (a marker or EOS);
  // pop_feed_data moves out up to `max` consecutive data heads with one
  // channel op, stopping at any other kind, and returns how many.
  [[nodiscard]] std::optional<HeadView> peek_feed() {
    return feed_->try_peek_head();  // empty = parked until the caller pushes
  }
  void pop_feed() { (void)feed_->pop(); }
  [[nodiscard]] std::size_t pop_feed_data(Message* out, std::size_t max) {
    // The pop notes the feed's ProducerSignal inside the channel (once per
    // run), which is how a caller blocked in InputPort::push learns space
    // freed up.
    return feed_->pop_data(out, max);
  }

  std::span<BoundedChannel* const> ins_;
  std::span<BoundedChannel* const> outs_;
  BoundedChannel* feed_ = nullptr;
  std::span<const NodeId> in_producers_;
  std::span<const NodeId> out_consumers_;
  Waker* waker_ = nullptr;
  exec::FiringCore core_;  // last: its channel operations are ours
};

// One run's channels (one per graph edge, capacity = the edge's buffer)
// and node tasks. The graph, the kernels and the spec's borrowed pointers
// must outlive the run. The wiring splits into a shape -- the channels,
// the nodes and the slots that join them, allocated once by the
// constructor -- and the values one run binds to that shape, which reset()
// applies. The constructor ends with reset(), so a new wiring and a rewound
// one get their values from the same code.
class Wiring {
 public:
  // Allocates the channels and nodes of `g` (plus an egress out-slot for
  // each tapped sink when spec.ports is set), then reset()s them to `spec`.
  // `tick` (optional) stamps trace events, see exec::FiringCore.
  Wiring(const StreamGraph& g,
         const std::vector<std::shared_ptr<Kernel>>& kernels,
         const exec::RunSpec& spec, Waker& waker,
         const std::uint64_t* tick = nullptr);

  // Binds the wiring to a run of `g`, which must have the shape it was
  // built from (node and edge counts, each edge's endpoints and buffer),
  // and rewinds it to "never ran" without reallocating: rebinds the graph,
  // the kernels, the waker, the spec's tracer, metrics and snapshot plane;
  // applies the spec's intervals and continuation flags (empty = none),
  // mode and batch; rewinds every channel and node; attaches the ports'
  // feeds -- or, with spec.ports null, refills each source's feed with
  // spec.num_inputs firing tokens and EOS (a feed is re-allocated only when
  // num_inputs changes its capacity) -- and rebuilds the cut of
  // spec.restore: node counters and kernel state, finished nodes,
  // cumulative edge traffic, and the EOS a finished producer had left for
  // a live consumer. A port run's egress slots are part of its shape, so a
  // wiring built with ports is only ever reset by its constructor. No task
  // may run on the wiring meanwhile.
  void reset(const StreamGraph& g,
             const std::vector<std::shared_ptr<Kernel>>& kernels,
             const exec::RunSpec& spec, Waker& waker);

  // Whether `g` has the shape this wiring was built from: the node count,
  // and each edge's endpoints and buffer in edge order (StreamGraph only
  // appends, so equal edge lists mean equal in/out slot orders).
  [[nodiscard]] bool fits(const StreamGraph& g) const;

  Wiring(const Wiring&) = delete;
  Wiring& operator=(const Wiring&) = delete;

  [[nodiscard]] NodeState& node(NodeId n) { return *nodes_[n]; }
  [[nodiscard]] const NodeState& node(NodeId n) const { return *nodes_[n]; }
  [[nodiscard]] bool all_done() const;

  // Fills the report's per-edge traffic, fires and sink deliveries.
  void report(exec::RunReport& r) const;

  // Snapshot assembly (ckpt): edge e's cumulative traffic at the barrier
  // cut -- the marker latch when the producer forwarded Marker(S), the
  // frozen totals when it finished before the barrier. Only valid once the
  // barrier's downstream consumers have checkpointed.
  [[nodiscard]] ckpt::EdgeCut edge_cut(EdgeId e,
                                       bool producer_checkpointed) const;

  // The deadlock state dump, read at quiescence:
  //
  //   edge <i> <from>-><to> <occ>/<cap> pushed=<D>+<K>d [head=...]
  //   node <name> <describe> park=<park-summary text>
  //     trace <event>            (last few events of the spec's tracer)
  [[nodiscard]] std::string dump_wedged_state() const;

 private:
  // Batch source `i`'s feed, refilled with num_inputs firing tokens, then
  // EOS.
  BoundedChannel* token_feed(std::size_t i, std::uint64_t num_inputs);

  const StreamGraph* graph_ = nullptr;
  const std::uint64_t* tick_;
  const Tracer* tracer_ = nullptr;
  // The shape: the edges the channels were built from.
  std::vector<Edge> edges_;
  std::vector<std::unique_ptr<BoundedChannel>> channels_;
  // Batch runs only: the sources' pre-closed token feeds, in node order.
  std::vector<std::unique_ptr<BoundedChannel>> token_feeds_;
  // Every node's slots, node by node (its ins, then its outs): the
  // channels, and the node at each channel's far end.
  std::vector<BoundedChannel*> slot_channels_;
  std::vector<NodeId> slot_peers_;
  std::vector<std::unique_ptr<NodeState>> nodes_;
  // reset() scratch: one node's out-slot intervals and forward flags.
  std::vector<std::int64_t> slot_intervals_;
  std::vector<std::uint8_t> slot_forward_;
};

}  // namespace sdaf::runtime
