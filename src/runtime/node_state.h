// Per-node task and per-run wiring shared by both execution engines.
//
// NodeState is the one node state machine: the paper's filter with its
// wrapper, over the node's bounded input and output channels. Both
// engines -- the deterministic simulator and the pooled scheduler -- step
// every node through it: sequence-number alignment at the minimum input
// head, kernel invocation only when data arrived, wrapper-driven dummy
// origination/forwarding, per-channel-asynchronous output delivery, and
// the EOS flood. Its operations never block -- an unavailable head or a
// full channel is reported, and the engine decides when to step the node
// again. Any channel transition that could unblock a peer (an input
// becoming non-empty, a full output draining) is reported through the
// Waker: the pooled scheduler re-enqueues the peer, the simulator's no-op
// waker lets its round-robin sweep find it. The task never holds a lock
// across a kernel firing and never waits inside a channel, which is what
// lets a fixed worker pool run graphs with orders of magnitude more nodes
// than threads.
//
// The data plane is allocation-free, batched, and (on both engines)
// lock-free: alignment peeks payload-free HeadViews (never copying a
// payload), data is moved out of a channel by its single consumer without
// a mutex (the channels ride SpscRing), and the firing cost is per run,
// not per message. When every aligned head is a dummy, the stretch
// [min_seq, min_seq + r) fires at once: each input pops its run with one
// channel op (pop_dummies), the wrapper's run rule (NodeWrapper::dummy_run)
// decides each output slot's dummies for the whole run in O(1) -- all of
// it under Propagation, every interval-th seq under Non-Propagation -- and
// they queue and leave as coalesced runs (try_push_dummies). A source pops
// a run of feed data the same way (one publish, one producer wake-up, one
// credit return) and fires it message by message. A `batch` quantum lets
// step() run several firings before handing outputs to the ring, so one
// channel op and one (usually elided) wake-up amortize over the whole
// batch. All of this is below the firing semantics: per-edge traffic,
// firing counts, obs counters, trace events and verdicts are bit-identical
// at every batch setting, which the differential tests enforce.
//
// A NodeState is single-owner: exactly one thread may call step() at a
// time (the simulator sweep, or the pool worker that currently owns the
// task).
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
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/ckpt/snapshot.h"
#include "src/exec/run_types.h"
#include "src/graph/stream_graph.h"
#include "src/obs/metrics.h"
#include "src/runtime/channel.h"
#include "src/runtime/kernel.h"
#include "src/runtime/message.h"
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

// Park summary encoding, shared by the pooled scheduler's park/probe
// protocol and the deadlock state dumps: the top two bits select the park
// reason, the low 62 bits are a mask of the output slots the node is
// blocked on (slots >= 62 degrade to "check every slot"). A node only
// parks done, output-blocked (pending messages for full channels), or
// input-blocked (some input empty); every other situation lets step()
// progress.
inline constexpr std::uint64_t kParkInputs = 0;
inline constexpr std::uint64_t kParkDone = 1;
inline constexpr std::uint64_t kParkOutputs = 2;
inline constexpr int kParkTagShift = 62;
inline constexpr std::uint64_t kParkSlotMask = (std::uint64_t{1} << 62) - 1;

[[nodiscard]] std::string describe_park_summary(std::uint64_t summary);

class NodeState final {
 public:
  // The node's shape, borrowed from its owner (runtime::Wiring keeps every
  // node's slots in two flat arrays). Slot indices follow
  // StreamGraph::in_edges/out_edges order. `in_producers[j]` /
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

  // Binds the node to one run and rewinds it to "never fired": counters,
  // source sequence, pending outputs, EOS/done/abort flags and the
  // wrapper's emissions. The channels are rewound by their owner,
  // runtime::Wiring. `feed` is the injected channel a source (no `ins`)
  // consumes, null for every other node: a payload-free data message is a
  // pure firing token (the kernel sees an empty input vector), a payload
  // rides to the kernel as a single-slot input, and EOS triggers the
  // ordinary flood. Wakes go to `waker`. The wrapper runs `mode` with one
  // interval and one forward-on-filter flag per out-slot (see
  // NodeWrapper). `batch` is the firing quantum (see RunSpec::batch;
  // clamped to >= 1). `tracer` (optional, not owned) records per-message
  // events; `tick` (optional, not owned) supplies the tracer timestamp --
  // the simulator points it at its sweep counter, the pooled backend
  // leaves it null (a steady-clock stamp; event *order* across threads is
  // not meaningful there). `metrics` (optional, not owned): the node's obs
  // counter shard; increments happen at the same sites on every engine, so
  // the counters are differentially exact against the sim reference.
  // `plane` (optional, not owned): the stream's barrier coordinator, see
  // restore_cut. Reuses the node's buffers, so rewinding allocates nothing
  // unless `batch` grew. Never while a step() runs.
  void reset(Kernel& kernel, BoundedChannel* feed, Waker& waker,
             DummyMode mode, const std::vector<std::int64_t>& out_intervals,
             const std::vector<std::uint8_t>& out_forward,
             std::uint32_t batch, Tracer* tracer, const std::uint64_t* tick,
             obs::NodeCounters* metrics, ckpt::SnapshotPlane* plane);

  // One scheduling quantum; returns true iff any progress was made
  // (a message delivered, consumed, or produced). After false the node is
  // quiescent until one of its channels changes (or the run aborted: a
  // channel reported PushResult::Aborted, and the node stops delivering
  // and returns false forever).
  bool step();

  // Park protocol support. After step() returns false the owning worker
  // calls park_summary() (still owner, so reading node state is safe)
  // to capture *why* the node is stuck, in the encoding above, publishes
  // it, parks, and then calls probe(summary) to close the race with a wake
  // that slipped between the last unproductive step and the park. probe()
  // reads only immutable members and coherent channel-occupancy
  // snapshots, so it is safe to call after ownership has been lost; a
  // stale verdict is handled by the caller (it re-acquires the node or
  // defers to whoever queued it). The probe must run after the park
  // transition's seq_cst RMW: that RMW pairs with the seq_cst fence a
  // channel peer issues between publishing its counter and deciding
  // whether to wake us, which is what makes the lock-free channel's elided
  // wake-ups lost-wakeup-free.
  [[nodiscard]] std::uint64_t park_summary() const;
  [[nodiscard]] bool probe(std::uint64_t summary) const;

  [[nodiscard]] bool done() const { return done_; }
  // Kernel invocations, and data messages consumed.
  [[nodiscard]] std::uint64_t fires() const { return fires_; }
  [[nodiscard]] std::uint64_t sink_data() const { return sink_data_; }

  // Human-readable state for deadlock dumps; only valid at quiescence (or
  // from the owning worker).
  [[nodiscard]] std::string describe() const;

  // Snapshot plumbing (ckpt). With a barrier coordinator attached (null =
  // snapshots off, the default: every marker branch is then dead and the
  // fast path is unchanged), a Marker(S) that aligns at this node's inputs
  // makes step() pop the markers, report a NodeCut to the plane, and queue
  // Marker(S) on every output after the pre-S emissions -- no kernel
  // firing, no counter movement. The EOS flood additionally reports the
  // node's final cut so a barrier begun after this node drained still
  // completes.
  //
  // Restore: rehydrate the node from a NodeCut taken at a barrier. Live
  // node: restore_cut alone. Done node: restore_cut (its final counters)
  // *then* mark_done, which makes the node terminal and seeds the plane's
  // finished set; its outgoing channels are preloaded with EOS by the
  // wiring. Must run after reset() and before the first step().
  void restore_cut(const ckpt::NodeCut& cut);
  void mark_done();

 private:
  static constexpr std::size_t kNoTail =
      std::numeric_limits<std::size_t>::max();

  // One queued output: a single message, or (run > 1) a coalesced run of
  // `run` dummies starting at message.seq.
  struct PendingRun {
    std::size_t out_slot;
    Message message;
    std::uint32_t run = 1;
  };

  // The channel operations that pair a pop or push with its wake-up: each
  // wakes the peer on the full->non-full (pop) or empty->non-empty (push)
  // transition, once per run for the batched ones. Pops act on in-slots
  // and need a preceding peek that observed the head (a dummy run >=
  // count for pop_dummies); pushes act on out-slots and never block.
  [[nodiscard]] Message pop_head(std::size_t slot);
  void pop(std::size_t slot);
  void pop_dummies(std::size_t slot, std::size_t count);
  // Consumes `m` only on Ok.
  [[nodiscard]] PushResult try_push(std::size_t slot, Message&& m);
  // Pushes up to `count` dummies first_seq, first_seq+1, ... as one
  // coalesced run; returns how many were accepted, and sets `*aborted`
  // when the channel refused them because the run is tearing down.
  [[nodiscard]] std::size_t try_push_dummies(std::size_t slot,
                                             std::uint64_t first_seq,
                                             std::size_t count, bool* aborted);

  void trace(TraceKind kind, std::size_t slot, std::uint64_t seq);
  // The node's state at a consistent cut (ckpt).
  [[nodiscard]] ckpt::NodeCut make_cut(bool done) const;
  // Barrier alignment reached: report the cut and forward Marker(S).
  void checkpoint(std::uint64_t barrier_seq);
  // Queues this firing's outputs: kernel data plus wrapper-mandated
  // dummies. The wrapper is consulted exactly once per slot per seq;
  // consecutive dummies for a slot coalesce into one pending run.
  void queue_outputs(std::uint64_t seq, bool any_input_dummy);
  // Appends dummies seq .. seq + count - 1 to the slot's pending output,
  // extending its trailing dummy run when the seqs continue it.
  void queue_dummies(std::size_t slot, std::uint64_t seq, std::uint64_t count);
  // Tracer only: the DummyConsumed/DummySent events of the pure-dummy run
  // [min_seq, min_seq + r) just decided into out_[*].dummy_run, in
  // per-message order.
  void trace_dummy_run(std::uint64_t min_seq, std::uint64_t r);
  void queue_eos();
  // Pushes whatever fits from pending_, per-channel asynchronously: a full
  // channel must not block messages destined for channels with space (but
  // messages for the *same* channel stay FIFO). Returns true iff anything
  // was delivered.
  bool drain_pending();
  // One alignment + firing attempt; returns how many firing quanta it
  // consumed (0 = no progress possible). When every aligned head is a
  // dummy, consumes the whole aligned run -- bounded by the other heads
  // and by `budget`, so a quantum never fires more than RunSpec::batch
  // sequence numbers -- with one channel op per slot.
  std::uint64_t fire_once(std::uint64_t budget);

  // The shape: fixed at construction.
  NodeId node_;
  std::span<BoundedChannel* const> ins_;
  std::span<BoundedChannel* const> outs_;
  std::span<const NodeId> in_producers_;
  std::span<const NodeId> out_consumers_;

  // The run's bindings: set by reset().
  BoundedChannel* feed_ = nullptr;
  Waker* waker_ = nullptr;
  Kernel* kernel_ = nullptr;
  NodeWrapper wrapper_;
  std::uint32_t batch_ = 1;
  Tracer* tracer_ = nullptr;
  const std::uint64_t* tick_ = nullptr;
  obs::NodeCounters* metrics_ = nullptr;
  ckpt::SnapshotPlane* plane_ = nullptr;

  // Firing state and scratch.
  Emitter emitter_;
  std::vector<std::optional<Value>> inputs_;
  // Scratch single-slot input vector for payload-carrying feed messages.
  std::vector<std::optional<Value>> feed_input_;
  // Sources: staging for one quantum's run of feed data (batch messages,
  // reused).
  std::vector<Message> feed_batch_;
  std::vector<HeadView> heads_;
  std::vector<PendingRun> pending_;
  // Per output slot, one allocation for all three.
  struct OutSlot {
    // Pure-dummy run scratch: the wrapper's decision for this slot.
    NodeWrapper::DummyRun dummy_run;
    // Index into pending_ of the slot's trailing dummy run (coalescing
    // target), or kNoTail. Only valid between drains; drain_pending resets
    // it.
    std::size_t pending_tail = kNoTail;
    bool blocked = false;  // drain_pending scratch
  };
  std::vector<OutSlot> out_;
  std::uint64_t fires_ = 0;
  std::uint64_t sink_data_ = 0;
  std::uint64_t source_seq_ = 0;
  bool eos_flooded_ = false;
  bool done_ = false;
  bool aborted_ = false;
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
  // `tick` (optional) stamps trace events, see NodeState::reset.
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
