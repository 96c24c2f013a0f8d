// Fixed-capacity message buffer with dummy run-length coalescing: the
// single-threaded executable specification of the coalescing semantics.
// runtime::SpscRing (the ring under every runtime::BoundedChannel) is
// model-checked against it op for op in tests/test_spsc_ring.cpp -- keep
// the two in lockstep when touching either.
//
// A run of k dummies with consecutive sequence numbers is stored as a
// single {first_seq, count} segment: pushing the (i+1)-th dummy of a run is
// O(1) and allocation-free, and the whole run occupies one physical slot.
// *Logical* occupancy still counts k items -- capacity, full() and
// max-occupancy accounting see exactly the message sequence the paper's
// buffer-size semantics require; only the physical footprint and the op
// count shrink.
//
// Storage is a ring of `capacity` segments allocated once at construction
// (logical occupancy >= segment count, so it can never overflow); no
// allocation ever happens on push/pop.
#pragma once

#include <cstdint>
#include <vector>

#include "src/runtime/message.h"

namespace sdaf::harness {

using runtime::HeadView;
using runtime::Message;

class MessageRing {
 public:
  explicit MessageRing(std::size_t capacity);

  // Logical occupancy: coalesced runs count their full length; snapshot
  // markers are excluded (they are occupancy-neutral for the certified
  // capacity and ride one extra physical segment).
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  // Physical emptiness: a ring holding only a marker is NOT empty --
  // schedulers must treat an in-flight marker as pending work.
  [[nodiscard]] bool empty() const { return size_ == 0 && markers_ == 0; }
  [[nodiscard]] bool full() const { return size_ >= capacity_; }
  [[nodiscard]] std::size_t free_space() const { return capacity_ - size_; }

  // Payload-free head view. Precondition: !empty().
  [[nodiscard]] HeadView head() const;

  // Full head/tail copies, for state dumps only. Precondition: !empty().
  [[nodiscard]] Message head_message() const;
  [[nodiscard]] Message tail_message() const;

  // Appends one message; a dummy whose sequence number continues the tail
  // run is folded into it. Precondition: !full().
  void push(Message m);

  // Appends up to `count` dummies first_seq, first_seq+1, ...; returns how
  // many fit (min(count, free_space())). One segment, O(1).
  std::size_t push_dummies(std::uint64_t first_seq, std::size_t count);

  // Appends a snapshot barrier marker (ckpt). Occupancy-neutral: does not
  // count against the logical capacity and never coalesces (it terminates
  // any dummy tail run). Always admissible at or below the certified bound
  // with at most one marker in flight; returns false only if even the
  // physical headroom (capacity + 1 segments) is exhausted.
  bool push_marker(std::uint64_t seq);

  // Removes the head and returns it, materializing one dummy of a run.
  // Precondition: !empty().
  Message pop_head();

  // Removes the head, discarding the payload. Precondition: !empty().
  void pop();

  // Removes up to `count` dummies from the head run; returns how many were
  // removed (0 when the head is not a dummy). Never crosses into a
  // following segment -- callers commit to one consecutive run at a time.
  std::size_t pop_dummies(std::size_t count);

 private:
  struct Segment {
    Message msg;
    std::uint32_t run = 1;  // > 1 only for coalesced dummy runs
  };

  [[nodiscard]] Segment& tail() { return segs_[wrap(head_ + nsegs_ - 1)]; }
  [[nodiscard]] const Segment& tail() const {
    return segs_[wrap(head_ + nsegs_ - 1)];
  }
  // Physical slots number capacity + 1: the extra segment is the marker's
  // headroom (logical occupancy >= data/dummy segment count, so data alone
  // can never need more than capacity segments).
  [[nodiscard]] std::size_t wrap(std::size_t i) const {
    const std::size_t nslots = capacity_ + 1;
    return i < nslots ? i : i - nslots;
  }
  void drop_head_segment();

  std::size_t capacity_;
  std::vector<Segment> segs_;
  std::size_t head_ = 0;     // index of the head segment
  std::size_t nsegs_ = 0;    // occupied segments
  std::size_t size_ = 0;     // logical messages (markers excluded)
  std::size_t markers_ = 0;  // in-flight snapshot markers (0 or 1)
};

}  // namespace sdaf::harness
