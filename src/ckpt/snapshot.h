// sdaf::ckpt -- asynchronous barrier snapshots for long-lived streams.
//
// The mechanism is Chandy-Lamport specialized to the sequence-numbered
// dataflow of the paper's model (after Carbone et al., "Lightweight
// Asynchronous Snapshots for Distributed Dataflows"): the stream picks a
// global barrier sequence number S, injects a Marker(S) message into every
// open input port (and into lagging ports exactly when their next push
// would reach S), and lets the markers ride the ordinary channels through
// runtime::NodeState like EOS does. The invariant that makes alignment
// automatic is
//
//   on every channel, a Marker(S) precedes every message with seq >= S
//   and follows every message with seq < S,
//
// which holds at the injection points by choice of S (S = max over ALL
// ports -- open and closed -- of items already pushed: a closed port
// forwards no marker, so everything it ever contributed must sit below the
// cut for downstream alignment to hold) and is preserved hop over hop because a
// node checkpoints -- and forwards its own markers -- exactly between
// processing seq S-1 and seq S. Consequently, when a marker is at the
// minimum of a node's input heads, *every* input head is Marker(S) or EOS
// (an EOS head means that upstream finished before the barrier began and
// its final counters are already latched in the finished set). The node
// pops the markers, reports its NodeCut, and queues Marker(S) on every
// output after its pre-S emissions: a consistent cut with provably empty
// interior channels (everything below S has been consumed, everything at
// or above S is behind the marker) -- no stop-the-world, no channel
// segment replay.
//
// Markers are occupancy-neutral in every ring (they never count against
// the certified logical capacity and ride one extra physical segment), so
// the paper's buffer-size semantics -- and the deadlock-avoidance
// certification built on them -- are unaffected by an in-progress
// snapshot; schedulers still see markers as pending work (physical
// emptiness), so quiescence is never declared across an un-consumed
// marker.
//
// The serialized format (versioned, see serialize/deserialize) reuses the
// net frame codec: little-endian fixed-width fields and the frame Value
// encoding for tap residue payloads, so a snapshot travels the wire as-is
// in a Snapshot/Restore frame pair.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/runtime/message.h"

namespace sdaf::ckpt {

inline constexpr std::uint32_t kSnapshotVersion = 1;

// Per-node state at the cut. `done` nodes had flooded EOS before the
// barrier began; their counters are final and a restore re-creates them
// terminal (their outgoing channels are preloaded with EOS).
struct NodeCut {
  std::uint8_t done = 0;
  std::uint64_t fires = 0;
  std::uint64_t sink_data = 0;
  std::uint64_t source_seq = 0;           // next accepted feed seq
  std::vector<std::int64_t> last_sent;    // wrapper dummy schedule per slot
  std::string kernel_state;               // opaque Kernel::save_state blob
};

// Per-edge cumulative traffic at the cut, latched producer-side at the
// marker crossing (BoundedChannel::try_push_marker): the totals a restored
// run resumes from so final RunReports match an uninterrupted run's.
struct EdgeCut {
  std::uint64_t data_pushed = 0;
  std::uint64_t dummies_pushed = 0;
};

// One undelivered egress item parked at the cut (popped from the tap ring
// before the tap's marker but not yet handed to the client). Restore
// preloads these; a client replays its own pushes from S and dedupes
// delivered items by seq, which together give exactly-once output.
struct TapItem {
  std::uint64_t seq = 0;
  runtime::Value value;
};

struct TapCut {
  std::uint8_t ended = 0;  // tap consumed EOS before the cut
  std::vector<TapItem> residue;
};

struct PortCut {
  std::uint8_t closed = 0;
  // The port's replay point: the caller re-pushes from here on. == S for a
  // port that reached the barrier; its final accepted count for one that
  // was closed at (or cut short of) the barrier.
  std::uint64_t next_seq = 0;
};

// A complete, self-describing checkpoint of one open stream. `signature`
// pins the compiled topology + avoidance mode (core::CompileCache
// signature plus a mode tag): restore refuses a snapshot whose signature
// does not match the spec it is asked to rehydrate into. `epoch` counts
// logical streams over one compiled topology -- a restored stream runs at
// epoch + 1.
struct StreamSnapshot {
  std::uint32_t version = kSnapshotVersion;
  std::string signature;
  std::uint64_t epoch = 0;
  std::uint64_t barrier_seq = 0;
  std::uint64_t sweeps = 0;  // Sim backend: cumulative sweeps at the cut
  std::vector<NodeCut> nodes;  // by NodeId
  std::vector<EdgeCut> edges;  // by EdgeId
  std::vector<PortCut> ports;  // by input port index
  std::vector<TapCut> taps;    // by output port index
};

// Versioned wire/file form (reuses the net frame primitives; values are
// encoded with the frame Value codec). deserialize returns nullopt on any
// malformation or unknown version -- never throws, never over-reads.
[[nodiscard]] std::vector<std::uint8_t> serialize(const StreamSnapshot& s);
[[nodiscard]] std::optional<StreamSnapshot> deserialize(
    const std::uint8_t* data, std::size_t size);
[[nodiscard]] std::optional<StreamSnapshot> deserialize(
    const std::vector<std::uint8_t>& bytes);

// Engine-side coordination state for barriers: tracks which nodes have
// checkpointed the pending barrier and which nodes have finished (flooded
// EOS) -- the finished set is maintained continuously, barrier or not, so
// a snapshot begun after part of the graph drained still completes.
//
// Threading: node_checkpoint/node_finished are called from whatever thread
// owns the node's NodeState (sim sweep or pool worker); the
// initiator polls from the stream's caller thread. One mutex serializes
// everything -- these are per-barrier events, not data-plane traffic.
class SnapshotPlane {
 public:
  // Engine build time, before any node steps.
  void attach(std::size_t num_nodes);

  // Starts a barrier at S. Returns false if one is already pending
  // (back-to-back snapshots serialize: a new barrier may only begin after
  // the previous one's markers have fully drained).
  [[nodiscard]] bool begin(std::uint64_t barrier_seq);

  [[nodiscard]] bool pending() const;
  [[nodiscard]] std::uint64_t barrier_seq() const;

  // NodeState hooks.
  void node_checkpoint(std::size_t node, NodeCut cut);
  void node_finished(std::size_t node, NodeCut cut);

  // True when every node has either checkpointed the pending barrier or
  // finished. (Tap markers are tracked by the stream core -- it is the
  // sole tap consumer.)
  [[nodiscard]] bool nodes_complete() const;

  [[nodiscard]] bool is_finished(std::size_t node) const;

  // After nodes_complete(): the per-node cuts (finished nodes reported
  // with done = 1 and their final counters) and clears the pending
  // barrier. Precondition: nodes_complete().
  [[nodiscard]] std::vector<NodeCut> take_cuts();

  // Abandons a pending barrier without collecting (stream teardown only:
  // in-flight markers die with the channels).
  void abort_barrier();

 private:
  mutable std::mutex mu_;
  std::size_t num_nodes_ = 0;
  bool pending_ = false;
  std::uint64_t barrier_ = 0;
  std::vector<std::uint8_t> have_;
  std::size_t have_count_ = 0;
  std::vector<NodeCut> cuts_;
  std::vector<std::uint8_t> finished_;
  std::vector<NodeCut> final_cuts_;
};

}  // namespace sdaf::ckpt
