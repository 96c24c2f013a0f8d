// Bounded FIFO channel: the finite buffer of the paper's model. Exactly one
// producer and one consumer thread per channel (the edge's endpoints), which
// is what makes the data path lock-free: every push and pop rides on a
// runtime::SpscRing (atomic head/tail counters over coalescing segment
// storage) and never takes a mutex. The simulator runs on these channels
// too, from one thread, where the atomics are uncontended.
//
// Pushes never block: a full channel answers Full and the caller (a pooled
// node task, or an exec::Stream port parked on the feed's ProducerSignal
// until the feed drains to its low-water mark) retries after a transition.
// The one blocking operation, peek_head_wait (an OutputPort waiting on its
// egress tap), parks futex-style directly on the channel's not-empty event
// word (runtime::ParkingLot). Wake-ups are elided with an atomic waiter
// count: a push never issues a wake syscall unless the consumer has
// registered as parked (and none while a claimed wake to it is in
// flight), so the hot path of the pooled backend pays nothing. The
// protocol is lost-wakeup-free: a waiter
// captures the event word, registers its count with a seq_cst RMW *before*
// re-checking the ring, and the producer's counter publish issues a
// seq_cst fence *before* reading the waiter count, so one of the two
// always observes the other -- "never falsely empty for a parked peer"
// (see docs/SCHEDULER.md).
//
// Occupancy, full() and the stats still count logical messages (a coalesced
// run of k dummies counts k), so the paper's buffer-size semantics -- and
// exact deadlock certification -- are untouched. Occupancy probes
// (empty/full/size) are coherent snapshots, never torn, so the pooled
// scheduler's park-probe protocol and the deadlock state dumps read sizes
// that actually existed. abort() releases every waiter, which then unwinds.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "src/obs/metrics.h"
#include "src/runtime/message.h"
#include "src/runtime/parking_lot.h"
#include "src/runtime/spsc_ring.h"

namespace sdaf::runtime {

struct ChannelStats {
  std::uint64_t data_pushed = 0;
  std::uint64_t dummies_pushed = 0;  // counts k for a coalesced run of k
  std::int64_t max_occupancy = 0;    // logical messages, not segments
};

// Wakeup channel from a channel's consumer back to a producer waiting for
// space: an exec::Stream InputPort pusher parked on its full feed. It has a
// low-water mark: the parked pusher publishes `wake_at`, and a pop wakes it
// only when it leaves the channel at or below that occupancy, so a batch
// pusher sleeps until its next round fits instead of waking on every freed
// slot. With no pusher registered a pop touches neither the version word
// nor the kernel; abort() always bumps. Waiters park futex-style on
// `event.version` -- no mutex, no condition variable.
struct ProducerSignal {
  EventWord event;
  std::atomic<bool> aborted{false};
  // Occupancy at or below which a pop wakes the registered waiter. Written
  // by the waiter before it registers (one waiter at a time: the port's
  // single caller).
  std::atomic<std::size_t> wake_at{0};

  // Wake-elision contract: a waiter must (1) store `wake_at`, (2) capture
  // `event`, (3) register with a seq_cst RMW, (4) re-check `occupancy <=
  // wake_at`, and only then park on the captured value. The consumer calls
  // note_pop after each pop, past the ring's seq_cst fence
  // (SpscRing::finish_pop), so either it sees the registration -- and,
  // through the acquire on the count, the `wake_at` stored before it -- or
  // the waiter's re-check sees the pop. Never both miss. The wake is
  // claimed: the waiter is single, so pops behind the one that woke it skip
  // the syscall. `occupancy()` (the post-pop logical occupancy) is read
  // only when a waiter is registered; it must not over-report, which holds
  // for the channel's size() on the consumer thread while the one producer
  // is parked.
  template <typename OccupancyFn>
  void note_pop(OccupancyFn occupancy) {
    if (event.waiters.load(std::memory_order_acquire) > 0 &&
        occupancy() <= wake_at.load(std::memory_order_relaxed))
      event.claim_wake();
  }

  // Unconditional: the version moves off every captured value, so a waiter
  // between its re-check and its park falls through.
  void abort() {
    aborted.store(true, std::memory_order_release);
    event.bump();
  }
};

enum class PushResult : std::uint8_t { Ok, Full, Aborted };

class BoundedChannel {
 public:
  explicit BoundedChannel(std::size_t capacity);

  // Push used by the per-channel-asynchronous emission path; consumes `m`
  // only on Ok. When `was_empty` is non-null it is set to whether the push
  // made the channel transition empty -> non-empty (the edge a pooled
  // scheduler must turn into a consumer wake-up; may be spuriously true
  // under concurrency, never falsely false for a parked consumer).
  [[nodiscard]] PushResult try_push(Message&& m, bool* was_empty = nullptr);

  // Non-blocking bulk push of up to `count` data messages: one ring
  // reservation, one counter publish, one (elidable) wake for the whole
  // batch. Returns how many were accepted (a prefix of msgs is consumed);
  // `aborted` distinguishes an aborted channel from a full one.
  [[nodiscard]] std::size_t try_push_batch(Message* msgs, std::size_t count,
                                           bool* was_empty = nullptr,
                                           bool* aborted = nullptr);

  // Non-blocking batch push of up to `count` dummies first_seq,
  // first_seq+1, ...: one coalesced segment, one (elidable) wake. Returns
  // how many were accepted (0 when full or aborted); `aborted` reports the
  // abort case so a caller can distinguish it from a full channel.
  [[nodiscard]] std::size_t try_push_dummies(std::uint64_t first_seq,
                                             std::size_t count,
                                             bool* was_empty = nullptr,
                                             bool* aborted = nullptr);

  // Non-blocking push of a snapshot barrier marker (ckpt). Markers are
  // occupancy-neutral (they never count against the certified capacity and
  // ride the ring's extra physical segment), so with the snapshot plane's
  // at-most-one-marker-per-channel invariant this returns Full only in the
  // transient where the previous marker is still in flight. On success the
  // channel also latches its cumulative push counters as the edge's marker
  // cut (see marker_cut_stats): the producer-side capture point is exactly
  // the consistent-cut boundary, and it is ordered before the consumer can
  // observe the marker.
  [[nodiscard]] PushResult try_push_marker(std::uint64_t seq,
                                           bool* was_empty = nullptr);

  // Payload-free head views -- alignment never copies a payload. Consumer
  // side only.
  // try_peek_head: empty when the channel holds no messages (never blocks;
  // the caller parks instead).
  // peek_head_wait: blocks while empty; empty optional iff aborted.
  [[nodiscard]] std::optional<HeadView> try_peek_head() const;
  [[nodiscard]] std::optional<HeadView> peek_head_wait();

  // Full copy of the head, for state dumps and tests. Heads remaining
  // after abort() are still observable (the consumer drains them while
  // unwinding).
  [[nodiscard]] std::optional<Message> try_peek() const;

  // Removes the head and returns it (payload moved out, no copy).
  // Precondition: a preceding peek by the (single) consumer observed a
  // head. `was_full` reports whether the channel was full before the pop
  // (the edge a pooled scheduler must turn into a producer wake-up; may be
  // spuriously true, never falsely false for a parked producer).
  [[nodiscard]] Message pop_head(bool* was_full = nullptr);

  // Removes the head, discarding it. Precondition: as for pop_head.
  // Returns whether the channel was full before the pop.
  bool pop();

  // Removes up to `count` dummies from the head run with one producer
  // wake-up. Returns {popped, was_full}.
  struct PopRun {
    std::size_t popped = 0;
    bool was_full = false;
  };
  PopRun pop_dummies(std::size_t count);

  // Removes up to `max` consecutive data heads into `out` (payloads moved
  // out), stopping at any dummy, EOS or marker head: one ring publish, one
  // producer-signal note and one drain-hook call for the whole run.
  // Returns how many were removed. `was_full` as for pop_head.
  [[nodiscard]] std::size_t pop_data(Message* out, std::size_t max,
                                     bool* was_full = nullptr);

  // Registers the producer's wakeup signal: every pop notes itself to it
  // (ProducerSignal::note_pop) and abort() bumps it.
  void set_producer_signal(ProducerSignal* signal);

  // Consumer-side drain notification (qos credit return): invoked by the
  // consumer thread once per pop_data run, with its length. A feed's data
  // leaves only through pop_data (its markers and EOS through pop), so
  // this covers every item a port pushed; dummies, EOS and markers never
  // carry a credit. Not owned; must be set before the endpoints start
  // running, like set_metrics.
  struct DrainHook {
    virtual ~DrainHook() = default;
    virtual void on_data_drained(std::size_t n) = 0;
  };
  void set_drain_hook(DrainHook* hook);

  // Attaches the edge's obs counter shard (not owned; null detaches). The
  // channel mirrors pushes/pops/stalls/waits/high-water into it with relaxed
  // single-writer increments -- one predictable branch per op when detached.
  // Must be set before the endpoints start running (no concurrent attach).
  void set_metrics(obs::ChannelCounters* metrics);

  void abort();
  [[nodiscard]] bool aborted() const;

  // Rewinds the channel for another run of the same shape: the ring's
  // contents and counters, the stats, the marker latch and the abort flag.
  // The capacity and the attached producer signal and drain hook stay;
  // set_metrics rebinds the counters. Pre-start only, like restore_stats.
  void reset();

  // Instantaneous occupancy tests (non-blocking, any thread; coherent
  // snapshots -- for scheduler probes and state dumps). All logical-message
  // counts: a coalesced run of k dummies counts k.
  [[nodiscard]] bool empty() const;
  [[nodiscard]] bool full() const;
  [[nodiscard]] std::size_t size() const;

  [[nodiscard]] ChannelStats stats() const;
  [[nodiscard]] std::size_t capacity() const { return ring_.capacity(); }

  // Cumulative {data_pushed, dummies_pushed} latched by the most recent
  // successful try_push_marker -- the edge's traffic totals at the snapshot
  // cut. Safe to read once the marker's downstream node has checkpointed
  // (the capture is sequenced before the marker publish, and the reader
  // synchronizes via the plane's completion protocol).
  [[nodiscard]] ChannelStats marker_cut_stats() const;

  // Restore plumbing (ckpt): preloads the cumulative push counters with a
  // snapshot's edge cut so a restored run's final totals continue the
  // pre-crash ones. Pre-start only (no concurrent endpoint).
  void restore_stats(std::uint64_t data_pushed, std::uint64_t dummies_pushed);

 private:
  void record_push(MessageKind kind, std::size_t count,
                   const SpscRing::PushEffect& effect);
  void notify_not_empty();
  void notify_producer();

  ProducerSignal* producer_signal_ = nullptr;
  obs::ChannelCounters* metrics_ = nullptr;
  DrainHook* drain_hook_ = nullptr;
  // mutable: const peeks are consumer-side operations that may advance the
  // ring's consumer cursor past exhausted segments.
  mutable SpscRing ring_;
  std::atomic<bool> aborted_{false};

  // Stats are producer-written atomics so probes and state dumps read them
  // without tearing. Push counters are exact at quiescence; max_occupancy
  // is a conservative high-water mark (exact when pushes and pops do not
  // race; never misses a genuine peak -- see SpscRing::PushEffect).
  std::atomic<std::uint64_t> data_pushed_{0};
  std::atomic<std::uint64_t> dummies_pushed_{0};
  std::atomic<std::int64_t> max_occupancy_{0};

  // Edge cut latched at the marker crossing (producer-written; see
  // try_push_marker / marker_cut_stats).
  std::atomic<std::uint64_t> cut_data_pushed_{0};
  std::atomic<std::uint64_t> cut_dummies_pushed_{0};

  // Slow path only: the futex-parked event word for peek_head_wait (one
  // waiter: the tap's poller). The claimed wake is sound because SpscRing's
  // publish issues a seq_cst fence before the waiter-count read (see
  // EventWord).
  EventWord not_empty_;
};

}  // namespace sdaf::runtime
