// The dummy-message wrappers of Section II.B, as pure decision logic shared
// verbatim by the pooled executor and the deterministic simulator.
//
// The silence gap is measured in *sequence numbers*, not firings: a node
// only fires when messages arrive, and arrivals are sparse exactly when
// upstream filters, so counting firings would let the effective gap
// multiply hop over hop (and messages die out along a path). Measured in
// sequence numbers the gap grows only *additively*: each hop adds at most
// its own interval, which is precisely why the Non-Propagation intervals
// divide the cycle budget L by the hop count h (Section II.B), and why the
// Propagation Algorithm needs no division -- forwarding happens at the
// same sequence number, adding zero gap per hop.
//
// Propagation Algorithm: only edges with finite intervals *originate*
// dummies (after [e] silent sequence numbers), but any node that consumed a
// dummy -- or filtered data on an interior cycle edge -- must forward one
// on every output channel it did not send data on.
//
// Non-Propagation Algorithm: every edge with a finite interval originates
// dummies on its own schedule; received dummies only serve alignment and
// are never forwarded.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace sdaf::runtime {

enum class DummyMode : std::uint8_t { None, Propagation, NonPropagation };

// Matches core::kNoDummyInterval numerically; edges with this threshold
// never originate dummies.
inline constexpr std::int64_t kInfiniteInterval =
    std::numeric_limits<std::int64_t>::max();

class NodeWrapper {
 public:
  // `forward_on_filter[slot]`: Propagation mode only -- the slot's edge
  // lies on a cycle but has no scheduled interval (an interior cycle edge),
  // so sequence-number knowledge must be forwarded whenever the node
  // filters data on it; otherwise interior filtering re-creates the
  // deadlock the branch-node schedules cannot see.
  NodeWrapper(DummyMode mode, const std::vector<std::int64_t>& out_intervals,
              const std::vector<std::uint8_t>& forward_on_filter = {});

  // Re-applies the mode, the intervals and the flags (as the constructor
  // does) and forgets every emission: last_sent() reads -1 on every slot.
  // Reuses the slots' storage, so a rewound run allocates nothing.
  void reset(DummyMode mode, const std::vector<std::int64_t>& out_intervals,
             const std::vector<std::uint8_t>& forward_on_filter = {});

  // Called once per accepted sequence number per output slot, after the
  // kernel fired (or the node aligned a pure-dummy firing). Returns true
  // iff a dummy must be emitted on this slot for sequence number `seq`.
  [[nodiscard]] bool should_send_dummy(std::size_t slot, std::uint64_t seq,
                                       bool sent_data, bool any_input_dummy);

  // The dummies a pure-dummy firing run emits on one slot: seqs
  // first, first + stride, ... (count of them; count 0 = none).
  struct DummyRun {
    std::uint64_t first = 0;
    std::uint64_t count = 0;
    std::uint64_t stride = 1;
  };

  // The run rule: exactly what `r` calls should_send_dummy(slot, seq,
  // false, true) for seq = first_seq .. first_seq + r - 1 would return,
  // leaving the same last_sent(), in O(1). Propagation forwards the whole
  // run; Non-Propagation originates every `interval`-th seq once the gap
  // since last_sent reaches it; None emits nothing.
  [[nodiscard]] DummyRun dummy_run(std::size_t slot, std::uint64_t first_seq,
                                   std::uint64_t r);

  [[nodiscard]] DummyMode mode() const { return mode_; }

  // Checkpoint hooks (ckpt): the wrapper's only mutable state is the last
  // sequence number emitted per output slot, which a snapshot captures and
  // a restore rehydrates so dummy-origination schedules resume exactly
  // where the cut left them.
  [[nodiscard]] std::vector<std::int64_t> last_sent() const;
  void restore_last_sent(const std::vector<std::int64_t>& v);

 private:
  struct Slot {
    std::int64_t interval = kInfiniteInterval;
    std::int64_t last_sent = -1;  // last seq emitted; -1 none
    std::uint8_t forward_on_filter = 0;
  };

  DummyMode mode_ = DummyMode::None;
  std::vector<Slot> slots_;  // one per output slot
};

}  // namespace sdaf::runtime
