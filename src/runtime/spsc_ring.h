// Lock-free single-producer/single-consumer segment ring with dummy
// run-length coalescing: the fast path under BoundedChannel. Every compiled
// edge has exactly one producer and one consumer, so the channel never needs
// a mutex on the data path -- an atomic pushed/popped counter pair (with the
// classic cached-index optimization: each side re-reads the other's counter
// only when its cached copy says full/empty) carries all ordering.
//
// Storage is `capacity` segments, allocated once, where a run of k
// consecutive-sequence dummies occupies one {base_seq, run} segment.
// *Logical* occupancy still counts k messages, so the paper's buffer-size
// semantics (and exact deadlock certification) are unchanged. This is the
// one ring: both engines' channels ride it (the simulator single-threaded).
// The coalescing semantics are specified by the single-threaded
// MessageRing in tests/harness, and tests/test_spsc_ring.cpp model-checks
// this class against it op for op -- keep the two in lockstep when touching
// either.
//
// The one place both sides touch the same memory is the tail segment of a
// dummy run: the producer extends `run` while the consumer may be draining
// the same segment. A single-word CAS protocol arbitrates:
//
//   producer  extend run r -> r+k     (CAS; fails iff the consumer sealed)
//   consumer  seal run r -> r|kSealed (CAS; fails iff the producer extended)
//
// The consumer seals a segment only when it has consumed all r messages, and
// retires it immediately after a successful seal; a sealed segment can never
// be extended, so the producer starts a fresh segment on CAS failure. Both
// CASes target the same word with the same expected value, so exactly one
// side wins and each failure tells the loser precisely what happened.
//
// The extension CAS lands *before* the producer's pushed_ publish, so a raw
// `run` read can briefly exceed the published message count. The consumer
// therefore clamps every head view to pushed_ (see peek_head): without the
// clamp, a consumer draining the tail run in a tight loop can pop messages
// ahead of the count, driving popped_ past pushed_ -- which breaks the
// producer's full-check (slot reuse under a live head) and every
// counter-derived invariant after it.
//
// Slot-reuse safety (why the producer may overwrite seg[segs % capacity]
// without reading a consumer-side segment counter): the consumer retires a
// segment *before* publishing the pop that exhausted it, so whenever the
// producer acquires popped_ == P, every segment except the newest
// (pushed - P) <= capacity-1 ones is retired and will never be touched by
// the consumer again. The full-check therefore doubles as the slot-check.
//
// Transition reporting for schedulers (was_empty / was_full) uses a seq_cst
// fence after the counter publish and a fresh read of the opposite counter:
// paired with the consumer's park protocol (a seq_cst RMW before probing)
// and the producer's waiter registration, either the popping/pushing side
// observes the transition and issues a wake, or the parking side's probe
// observes the new counter -- a wake-up can be spurious but never lost.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/runtime/message.h"

namespace sdaf::runtime {

class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  // Rewinds the ring to empty without reallocating: a message left in it is
  // destroyed and both sides' counters return to zero. No endpoint may run concurrently; the
  // caller provides the happens-before edge to the next producer and
  // consumer (the pool hands a reset instance to its workers through the
  // scheduler's own synchronisation).
  void reset();

  struct PushEffect {
    // Whether the consumer may have observed the ring empty immediately
    // before this push (the empty -> non-empty edge a scheduler must turn
    // into a consumer wake-up). May be spuriously true, never falsely
    // false for a parked consumer.
    bool was_empty = false;
    // Logical occupancy just after the push (for high-water stats): exact
    // when un-raced; under concurrency it may over-report (a pop landing
    // inside the publish window is not subtracted) but never misses a
    // genuine peak, and it stays within [0, capacity].
    std::size_t occupancy = 0;
  };

  // Producer only. Consumes `m` and returns true unless logically full.
  [[nodiscard]] bool try_push(Message&& m, PushEffect* effect = nullptr);

  // Producer only. Bulk-ingest fast path: stages up to `count` *data*
  // messages (one segment each) and makes them visible with ONE counter
  // publish + one seq_cst fence, so a whole batch costs what a single push
  // used to. Returns how many fit (a prefix of msgs is consumed). The
  // staged slots are safe to write before the publish for the same reason
  // sequential pushes may reuse slots: the full-check bounds live segments
  // to `capacity`, and unpublished segments are invisible to the consumer
  // (peek clamps every head view to pushed_).
  [[nodiscard]] std::size_t try_push_batch(Message* msgs, std::size_t count,
                                           PushEffect* effect = nullptr);

  // Producer only. Appends up to `count` dummies first_seq, first_seq+1,
  // ... as (part of) one coalesced segment; returns how many fit.
  [[nodiscard]] std::size_t try_push_dummies(std::uint64_t first_seq,
                                             std::size_t count,
                                             PushEffect* effect = nullptr);

  struct PopEffect {
    // Whether the producer may have observed the ring full immediately
    // before this pop (the full -> non-full edge a scheduler must turn into
    // a producer wake-up). May be spuriously true, never falsely false for
    // a parked producer.
    bool was_full = false;
  };

  // Consumer only. Payload-free view of the head (seq, kind, remaining run
  // length), or empty when no message is available.
  [[nodiscard]] std::optional<HeadView> peek_head();

  // Consumer only. Full copy of the head, for state dumps and tests.
  [[nodiscard]] std::optional<Message> peek_message();

  // Consumer only. Removes the head and returns it, materializing one dummy
  // of a run. Precondition: a preceding peek_head observed a head.
  [[nodiscard]] Message pop_head(PopEffect* effect = nullptr);

  // Consumer only. Removes the head, discarding any payload. Precondition:
  // as for pop_head.
  void pop(PopEffect* effect = nullptr);

  // Consumer only. Removes up to `count` dummies from the head run (never
  // crossing into a following segment); returns how many were removed
  // (0 when empty or the head is not a dummy).
  [[nodiscard]] std::size_t pop_dummies(std::size_t count,
                                        PopEffect* effect = nullptr);

  // Consumer only. Batch data pop (a port-fed source draining its feed):
  // moves out up to `max` consecutive Data heads into `out`, stopping at
  // any Dummy, EOS or Marker head, and publishes them with ONE counter
  // store + one seq_cst fence. Returns how many were moved (0 when empty
  // or the head is not data).
  [[nodiscard]] std::size_t pop_data(Message* out, std::size_t max,
                                     PopEffect* effect = nullptr);

  // Producer only. Appends a snapshot barrier marker (ckpt). Markers are
  // occupancy-neutral: they do not count against the certified logical
  // capacity (size/full exclude them), riding in the one extra physical
  // segment the ring over-allocates. With the snapshot plane's at-most-one-
  // marker-per-channel invariant this never fails on a channel within its
  // certified bound; returns false only if even the physical headroom is
  // exhausted. Never coalesces with a dummy tail run.
  [[nodiscard]] bool try_push_marker(std::uint64_t seq,
                                     PushEffect* effect = nullptr);

  // Any thread: coherent *logical* occupancy snapshot -- data + dummy
  // messages, markers excluded -- always within [0, capacity]. This is the
  // value the paper's buffer-size semantics and the deadlock certification
  // reason about.
  [[nodiscard]] std::size_t size() const;
  // Any thread: *physical* emptiness (markers included): schedulers and the
  // quiescence rules must treat an in-flight marker as pending work, so a
  // ring holding only a marker is NOT empty.
  [[nodiscard]] bool empty() const {
    return pushed_.load(std::memory_order_acquire) ==
           popped_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool full() const { return size() >= capacity_; }

 private:
  struct Segment {
    Message msg;  // written by the producer before publish; a data payload
                  // is moved out (or destroyed) by the consumer's pop
    std::atomic<std::uint32_t> run{0};  // logical length; kSealed = retired
  };
  // Seal bit: set by the consumer when it retires a fully-consumed segment;
  // forever blocks producer run-extension of that segment.
  static constexpr std::uint32_t kSealed = 1u << 31;
  // A tail dummy run stops coalescing here and starts a new segment, so
  // `run` (which counts consumed messages too) can never near kSealed.
  static constexpr std::uint32_t kRunLimit = 1u << 30;

  // Physical storage is capacity + 1 segments: markers are occupancy-neutral
  // for the logical (certified) capacity, so with one marker in flight the
  // ring can hold capacity logical messages plus the marker. Live segments
  // are bounded by physical messages in flight <= capacity + 1, so the
  // slot-reuse argument carries over unchanged with the wider modulus.
  [[nodiscard]] Segment& slot(std::uint64_t seg_number) {
    return segs_[seg_number % (capacity_ + 1)];
  }
  void publish(std::size_t count, PushEffect* effect);
  void finish_pop(Segment& s, std::size_t count, PopEffect* effect);
  void publish_pop(std::uint64_t before, PopEffect* effect);
  [[nodiscard]] std::uint64_t logical_space(std::uint64_t want);

  std::size_t capacity_;
  std::vector<Segment> segs_;
  // Markers currently in the ring (0 or 1 under the snapshot plane's
  // invariant). The producer increments BEFORE its pushed_ publish and the
  // consumer decrements BEFORE its popped_ publish, so observing either
  // counter's publish implies observing the matching marker transition --
  // which is what keeps every marker-excluded occupancy estimate
  // conservative (never under-counts logical occupancy; see logical_space).
  // It shares the shape's read-mostly line: only a marker's push or pop
  // writes it, so outside a snapshot the line is never invalidated, and
  // the ring takes five lines instead of six.
  std::atomic<std::uint64_t> markers_in_ring_{0};

  // Producer-owned (no other thread reads or writes these).
  struct alignas(64) ProducerSide {
    std::uint64_t pushed = 0;        // mirror of pushed_
    std::uint64_t segs = 0;          // segments ever started
    std::uint64_t popped_cache = 0;  // last observed popped_
    std::uint64_t markers_cache = 0;  // last observed markers_in_ring_
    // Mirror of the newest segment, so coalescing checks never read memory
    // the consumer might be touching; the CAS is the only shared access.
    bool tail_is_dummy = false;
    std::uint64_t tail_base_seq = 0;
    std::uint32_t tail_run = 0;
  };

  // Consumer-owned.
  struct alignas(64) ConsumerSide {
    std::uint64_t popped = 0;        // mirror of popped_
    std::uint64_t segs = 0;          // segments ever retired
    std::uint64_t pushed_cache = 0;  // last observed pushed_
    std::uint32_t consumed = 0;      // messages popped from the head segment
  };

  ProducerSide p_;
  ConsumerSide c_;

  alignas(64) std::atomic<std::uint64_t> pushed_{0};
  alignas(64) std::atomic<std::uint64_t> popped_{0};
};

}  // namespace sdaf::runtime
