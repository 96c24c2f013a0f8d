// The one true firing rule. Both execution engines -- the deterministic
// simulator and the pooled scheduler -- run each node through this state
// machine: sequence-number alignment at the minimum input head, kernel
// invocation only when data arrived, wrapper-driven dummy
// origination/forwarding, per-channel-asynchronous output delivery, and
// the EOS flood. Delivery -- how a message moves through a channel and
// what happens when it cannot -- is runtime::NodeState's: the core's
// owner, which holds the node's runtime::BoundedChannels and reports
// full->non-full / empty->non-empty transitions to its scheduler's Waker
// (a no-op in the simulator, whose round-robin sweep steps every node).
//
// The data plane is allocation-free, batched, and (on both engines)
// lock-free: alignment peeks payload-free HeadViews (never
// copying a payload), data is moved out of a channel by its single
// consumer without a mutex (the channels ride runtime::SpscRing), and the
// firing cost is per run, not per message. When every aligned head is a
// dummy, the stretch [min_seq, min_seq + r) fires at once: each input pops
// its run with one channel op (pop_dummies), the wrapper's run rule
// (NodeWrapper::dummy_run) decides each output slot's dummies for the whole
// run in O(1) -- all of it under Propagation, every interval-th seq under
// Non-Propagation -- and they queue and leave as coalesced runs
// (try_push_dummies). A source pops a run of feed data the same
// way (pop_feed_data: one publish, one producer wake-up, one credit
// return) and fires it message by message. A `batch` quantum lets step()
// run several firings before handing outputs to the ring, so one channel
// op and one (usually elided) wake-up amortize over the whole batch. All
// of this is below the firing semantics: per-edge traffic, firing counts,
// obs counters, trace events and verdicts are bit-identical at every batch
// setting, which the differential tests enforce.
//
// A FiringCore is single-owner: exactly one thread may call step() at a
// time (the simulator sweep, or the pool worker that currently owns the
// task). The channel operations run inside step() on that same thread.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "src/ckpt/snapshot.h"
#include "src/graph/stream_graph.h"
#include "src/obs/metrics.h"
#include "src/runtime/kernel.h"
#include "src/runtime/message.h"
#include "src/runtime/trace.h"
#include "src/runtime/wrapper.h"

namespace sdaf::runtime {
class NodeState;
}  // namespace sdaf::runtime

namespace sdaf::exec {

// Outcome of a non-blocking delivery attempt.
enum class PushOutcome : std::uint8_t {
  Delivered,  // message accepted by the channel
  Blocked,    // channel full; retry after a transition
  Aborted,    // run is tearing down; stop delivering
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

class FiringCore {
 public:
  // `in_slots`/`out_slots` are the node's degree; the channels themselves
  // live in `owner`, the NodeState this core is a member of. The core is
  // not runnable until reset() binds it to a run.
  FiringCore(NodeId node, std::size_t in_slots, std::size_t out_slots,
             runtime::NodeState& owner);

  // Binds the core to one run and rewinds it to "never fired": counters,
  // source sequence, pending outputs, EOS/done/abort flags and the
  // wrapper's emissions. A source (in_slots == 0) consumes the owner's
  // feed: a payload-free data message is a pure firing token (the kernel
  // sees an empty input vector), a payload rides to the kernel as a
  // single-slot input, and EOS triggers the ordinary flood. The wrapper
  // runs `mode` with one interval and one forward-on-filter flag per
  // out-slot (see runtime::NodeWrapper). `batch` is the firing quantum
  // (see RunSpec::batch; clamped to >= 1). `tracer` (optional, not owned)
  // records per-message events; `tick` (optional, not owned) supplies the
  // tracer timestamp -- the simulator points it at its sweep counter, the
  // pooled backend leaves it null (tick 0; event *order* across threads is
  // not meaningful there). `metrics` (optional, not owned): the node's obs
  // counter shard; increments happen at the same sites on every engine, so
  // the counters are differentially exact against the sim reference.
  // `plane` (optional, not owned): the stream's barrier coordinator, see
  // below. Reuses the core's buffers, so rewinding allocates nothing
  // unless `batch` grew. Never while a step() runs.
  void reset(runtime::Kernel& kernel, runtime::DummyMode mode,
             const std::vector<std::int64_t>& out_intervals,
             const std::vector<std::uint8_t>& out_forward,
             std::uint32_t batch, runtime::Tracer* tracer,
             const std::uint64_t* tick, obs::NodeCounters* metrics,
             ckpt::SnapshotPlane* plane);

  // One scheduling quantum; returns true iff any progress was made (a
  // message delivered, consumed, or produced). After false the node cannot
  // progress until a channel changes (or the run aborted; see aborted()).
  bool step();

  [[nodiscard]] bool done() const { return done_; }
  // True once a channel reported PushOutcome::Aborted; the core stops
  // delivering and step() returns false forever.
  [[nodiscard]] bool aborted() const { return aborted_; }
  [[nodiscard]] bool has_pending() const { return !pending_.empty(); }
  [[nodiscard]] NodeId node() const { return node_; }

  // Why an unproductive node is stuck, in the encoding above. Owner-only.
  [[nodiscard]] std::uint64_t park_summary() const;

  // Human-readable state for deadlock dumps. Owner-only (or quiescent).
  [[nodiscard]] std::string describe() const;

  // Snapshot plumbing (ckpt). reset() attaches the stream's barrier
  // coordinator (null = snapshots off, the default: every marker branch
  // below is then dead and the fast path is unchanged). When a Marker(S)
  // aligns at this node's inputs, step() pops the markers, reports a
  // NodeCut to the plane, and queues Marker(S) on every output after the
  // pre-S emissions -- no kernel firing, no counter movement. queue_eos
  // additionally reports the node's final cut to the plane so a barrier
  // begun after this node drained still completes.

  // Restore plumbing: rehydrate this core from a NodeCut taken at a
  // barrier. Live node: restore_cut alone. Done node: restore_cut (its
  // final counters) *then* mark_done, which makes the core terminal and
  // seeds the plane's finished set; its outgoing channels are preloaded
  // with EOS by the engine. Must run before the first step().
  void restore_cut(const ckpt::NodeCut& cut);
  void mark_done();

  std::uint64_t fires = 0;      // kernel invocations
  std::uint64_t sink_data = 0;  // data messages consumed

 private:
  static constexpr std::size_t kNoTail =
      std::numeric_limits<std::size_t>::max();

  // One queued output: a single message, or (run > 1) a coalesced run of
  // `run` dummies starting at message.seq.
  struct PendingRun {
    std::size_t out_slot;
    runtime::Message message;
    std::uint32_t run = 1;
  };

  void trace(runtime::TraceKind kind, std::size_t slot, std::uint64_t seq);
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
  // [min_seq, min_seq + r) just decided into out_[*].dummy_run, in per-message
  // order.
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

  NodeId node_;
  runtime::Kernel* kernel_ = nullptr;
  std::size_t in_slots_;
  std::size_t out_slots_;
  runtime::NodeWrapper wrapper_;
  runtime::NodeState& io_;
  std::uint32_t batch_ = 1;
  runtime::Tracer* tracer_ = nullptr;
  const std::uint64_t* tick_ = nullptr;
  obs::NodeCounters* metrics_ = nullptr;
  runtime::Emitter emitter_;
  std::vector<std::optional<runtime::Value>> inputs_;
  // Scratch single-slot input vector for payload-carrying feed messages.
  std::vector<std::optional<runtime::Value>> feed_input_;
  // Sources: staging for one quantum's run of feed data (batch messages,
  // reused).
  std::vector<runtime::Message> feed_batch_;
  std::vector<runtime::HeadView> heads_;
  std::vector<PendingRun> pending_;
  // Per output slot, one allocation for all three.
  struct OutSlot {
    // Pure-dummy run scratch: the wrapper's decision for this slot.
    runtime::NodeWrapper::DummyRun dummy_run;
    // Index into pending_ of the slot's trailing dummy run (coalescing
    // target), or kNoTail. Only valid between drains; drain_pending resets
    // it.
    std::size_t pending_tail = kNoTail;
    bool blocked = false;  // drain_pending scratch
  };
  std::vector<OutSlot> out_;
  std::uint64_t source_seq_ = 0;
  bool eos_flooded_ = false;
  bool done_ = false;
  bool aborted_ = false;
  ckpt::SnapshotPlane* plane_ = nullptr;
};

}  // namespace sdaf::exec
