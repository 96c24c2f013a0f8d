#include "src/exec/stream.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>
#include <sstream>
#include <thread>

#include "src/core/compile_cache.h"
#include "src/exec/session.h"
#include "src/qos/admission.h"
#include "src/qos/credit.h"
#include "src/runtime/channel.h"
#include "src/runtime/pool_executor.h"
#include "src/sim/simulation.h"
#include "src/support/contracts.h"
#include "src/support/timer.h"

namespace sdaf::exec {
namespace stream_detail {

using runtime::BoundedChannel;
using runtime::Message;
using runtime::MessageKind;
using runtime::ProducerSignal;
using runtime::PushResult;
using runtime::Value;
using Waited = runtime::EventWord::Waited;

// What a snapshot pins: the compiled topology (CompileCache's canonical
// signature) plus every traffic-affecting run setting. Restore refuses a
// snapshot whose signature does not match the spec it is rehydrated into;
// backend and capacities are deliberately excluded (snapshots are
// backend-portable, and port buffer sizes only pace the caller).
std::string snapshot_signature(const StreamGraph& g, const RunSpec& run) {
  std::ostringstream sig;
  sig << core::CompileCache::signature(g, core::CompileOptions{});
  sig << "|mode=" << static_cast<int>(run.mode)
      << "|fwd=" << (run.forward_on_filter.empty() ? "-" : "");
  for (const std::uint8_t f : run.forward_on_filter) sig << int{f};
  sig << "|iv=";
  for (const std::int64_t v : run.intervals) sig << v << ",";
  return std::move(sig).str();
}

// The backend-polymorphic stream engine. The base class owns everything a
// stream is made of -- one Feed per source and one Tap per sink (each port
// channel, its barrier state and its port handle in one object), and the
// PortBinding the backend consumes -- plus the backend-agnostic port logic.
// Subclasses supply how execution is driven (sweeps on the caller's thread
// vs. pool tasks) and what a port transition must additionally do (nothing,
// or a task wake-up).
struct Core {
  static constexpr std::uint64_t kNoBarrier = ~std::uint64_t{0};

  // --- ports -------------------------------------------------------------
  // Locking: snap_mu serializes begin/poll/assembly and may nest a Feed::mu
  // or a Tap::mu try_lock inside it; the port paths take only their own
  // port's mutex and never snap_mu, so there is no lock inversion.
  //
  // One input port. `mu` serializes every producer-side op on the feed (the
  // caller's pushes and the barrier's marker injection -- the ring is SPSC,
  // two concurrent producers would be a race). The signal, read on every
  // pop by the source node, sits on its own cache line, away from the
  // pusher's per-round writes to `mu` and the port.
  struct Feed {
    explicit Feed(std::size_t capacity) : channel(capacity) {
      channel.set_producer_signal(&signal);
    }
    BoundedChannel channel;
    alignas(64) ProducerSignal signal;
    alignas(64) std::mutex mu;
    InputPort port;
    // Guarded by mu:
    std::uint64_t armed_marker = kNoBarrier;  // kNoBarrier = none armed
    ckpt::PortCut cut;
    // push_batch's staging buffer, reused across calls (the port's single
    // caller owns it), so a steady batch allocates nothing.
    std::vector<Message> staging;
  };
  // One output port. `mu` serializes every consumer-side op on the tap (the
  // caller's polls and the barrier's marker reaping). `cut.residue` is
  // additionally only ever written under snap_mu, so assembly reads it
  // without the tap lock -- a caller parked in next() holds `mu`
  // indefinitely.
  struct Tap {
    explicit Tap(std::size_t capacity) : channel(capacity) {}
    BoundedChannel channel;
    std::mutex mu;
    OutputPort port;
    // Guarded by mu:
    std::uint64_t gen = 0;
    std::uint8_t acked = 0;
    std::uint8_t parked_ended = 0;
    ckpt::TapCut cut;
    std::deque<OutputPort::Item> parked;
  };

  const StreamGraph& graph;
  std::vector<std::shared_ptr<runtime::Kernel>> kernels;
  StreamSpec spec;
  PortBinding binding;
  // Built in place and never moved (a port is pinned by its mutex, its
  // channel and the pointers in `binding`): a deque grows without
  // relocating its elements.
  std::deque<Feed> feeds;
  std::deque<Tap> taps;
  // --- per-tenant credit backpressure (sdaf::qos) -----------------------
  // Borrowed gauge bounding this tenant's in-flight items (null or
  // unlimited = no credit gating; normalized to null below so every check
  // is one pointer test). A push round acquires a credit per item BEFORE
  // probing channel space; a credit returns when the source node consumes
  // its item (the feed's drain hook fires on the consumer thread) or, for
  // items still buffered when the stream dies, in finish() after
  // collect(). The charge is recorded in `credit_releaser.held` before the
  // channel publish, so drain decrements can never outrun their
  // increments; `held` is signed only to tolerate the transient where a
  // concurrent drain's decrement lands between a batch push and its
  // (post-publish) charge -- at quiescence it is exact and non-negative.
  qos::CreditGauge* credits = nullptr;
  struct CreditReleaser final : BoundedChannel::DrainHook {
    qos::CreditGauge* gauge = nullptr;
    std::atomic<std::int64_t> held{0};
    void on_data_drained(std::size_t n) override {
      held.fetch_sub(static_cast<std::int64_t>(n), std::memory_order_relaxed);
      gauge->release(n);
    }
    void charge(std::uint64_t n) {
      held.fetch_add(static_cast<std::int64_t>(n), std::memory_order_relaxed);
    }
    void uncharge(std::uint64_t n) {
      held.fetch_sub(static_cast<std::int64_t>(n), std::memory_order_relaxed);
      gauge->release(n);
    }
    // finish() only (quiesced): returns whatever the stream still holds --
    // items pushed but never consumed (deadlock, abort, undrained feeds).
    void release_rest() {
      const std::int64_t rest = held.exchange(0, std::memory_order_relaxed);
      if (rest > 0) gauge->release(static_cast<std::uint64_t>(rest));
    }
  };
  CreditReleaser credit_releaser;
  // Counter registry the backend writes through (see StreamSpec::metrics).
  // Owned here unless the caller supplied one via spec.run.metrics, so
  // snapshots stay valid for the Stream's whole lifetime regardless of
  // backend teardown order.
  std::unique_ptr<obs::MetricsRegistry> owned_registry;
  obs::MetricsRegistry* registry = nullptr;
  Stopwatch clock;
  bool collected = false;

  // --- checkpoint state (sdaf::ckpt) ------------------------------------
  ckpt::SnapshotPlane plane;
  std::uint64_t epoch = 0;
  const ckpt::StreamSnapshot* restore_src = nullptr;  // ctor-time borrow
  mutable std::mutex snap_mu;  // mutable: metrics reads it from const
  bool snap_active = false;        // guarded by snap_mu
  std::uint64_t snap_barrier = 0;  // guarded by snap_mu
  double snap_begin_seconds = 0;   // guarded by snap_mu
  std::uint64_t snapshots_taken = 0;    // guarded by snap_mu
  double last_snapshot_seconds = 0;     // guarded by snap_mu
  // Barrier generation: bumped by begin() before any marker is injected, so
  // a marker racing to a tap always acks under the generation that sent it.
  std::atomic<std::uint64_t> snap_gen{0};
  std::atomic<std::size_t> tap_acked_count{0};

  Core(const StreamGraph& g,
       std::vector<std::shared_ptr<runtime::Kernel>> session_kernels,
       StreamSpec stream_spec, const ckpt::StreamSnapshot* restore)
      : graph(g),
        kernels(std::move(session_kernels)),
        spec(std::move(stream_spec)),
        restore_src(restore) {
    SDAF_EXPECTS(graph.node_count() > 0);
    SDAF_EXPECTS(spec.feed_capacity >= 1);
    SDAF_EXPECTS(spec.egress_capacity >= 1);
    if (spec.run.metrics != nullptr) {
      registry = spec.run.metrics;
    } else if (spec.metrics) {
      owned_registry = std::make_unique<obs::MetricsRegistry>(
          graph.node_count(), graph.edge_count());
      registry = owned_registry.get();
      spec.run.metrics = registry;
    }
    // An unlimited gauge gates nothing; normalize it away so the push path
    // pays a single null test.
    if (spec.run.credits != nullptr && !spec.run.credits->unlimited()) {
      credits = spec.run.credits;
      credit_releaser.gauge = credits;
    }
    for (const NodeId n : graph.sources()) {
      binding.source_nodes.push_back(n);
      // capacity + 1: the extra slot is reserved for EOS, so close() can
      // never fail for lack of space (data occupancy is capped at
      // feed_capacity by the port push path).
      Feed& feed = feeds.emplace_back(spec.feed_capacity + 1);
      if (credits != nullptr) feed.channel.set_drain_hook(&credit_releaser);
      binding.feeds.push_back(&feed.channel);
      feed.port.core_ = this;
      feed.port.index_ = feeds.size() - 1;
      feed.port.node_ = n;
    }
    for (const NodeId n : graph.sinks()) {
      binding.sink_nodes.push_back(n);
      if (spec.capture_outputs) {
        Tap& tap = taps.emplace_back(spec.egress_capacity);
        binding.egress.push_back(&tap.channel);
        tap.port.core_ = this;
        tap.port.index_ = taps.size() - 1;
        tap.port.node_ = n;
      } else {
        binding.egress.push_back(nullptr);
      }
    }
    plane.attach(graph.node_count());
    if (restore_src != nullptr) apply_restore();
  }

  // The port-facing half of a restore; the engine half (node counters,
  // kernel state, edge baselines, EOS preloads) runs inside the backend
  // engine's construction off RunSpec::restore. Open ports resume at their
  // cut sequence numbers; tap residue is parked for re-delivery ahead of
  // anything the restored sinks emit.
  void apply_restore() {
    const ckpt::StreamSnapshot& snap = *restore_src;
    epoch = snap.epoch + 1;
    SDAF_EXPECTS(snap.ports.size() == feeds.size());
    SDAF_EXPECTS(snap.taps.size() == taps.size());
    for (std::size_t i = 0; i < feeds.size(); ++i) {
      feeds[i].port.next_seq_.store(snap.ports[i].next_seq,
                                    std::memory_order_relaxed);
      // A port closed at the cut stays closed; its source was restored done
      // (Session::restore validates that), so no EOS needs re-pushing.
      feeds[i].port.closed_ = snap.ports[i].closed != 0;
    }
    for (std::size_t j = 0; j < taps.size(); ++j) {
      for (const ckpt::TapItem& item : snap.taps[j].residue)
        taps[j].parked.push_back(OutputPort::Item{item.seq, item.value});
      taps[j].parked_ended = snap.taps[j].ended;
    }
  }

  virtual ~Core() = default;

  [[nodiscard]] RunSpec bound_spec() {
    RunSpec bound = spec.run;
    bound.ports = &binding;
    bound.ckpt_plane = &plane;
    bound.restore = restore_src;
    return bound;
  }

  // --- backend hooks ---------------------------------------------------
  // Sim only: run sweeps now. Concurrent backends: no-op.
  virtual bool pump_now() { return false; }
  // ckpt: edge e's cumulative traffic at the barrier cut -- the producer's
  // marker latch when it forwarded Marker(S), its frozen totals when it
  // finished before the barrier. Only read after the barrier completes.
  [[nodiscard]] virtual ckpt::EdgeCut edge_cut_at(
      EdgeId e, bool producer_checkpointed) const = 0;
  // Sim only: cumulative sweeps, so a restored engine resumes the count.
  [[nodiscard]] virtual std::uint64_t sweeps_now() const { return 0; }
  // Pooled only: the pool's per-worker scheduler counters.
  [[nodiscard]] virtual std::vector<obs::WorkerMetrics> worker_metrics()
      const {
    return {};
  }
  // Port transitions. Pushes/pops report the channel's wake-relevant edge.
  virtual void feed_pushed(const Feed& /*feed*/, bool /*was_empty*/) {}
  virtual void feed_closed(const Feed& /*feed*/) {}
  virtual void egress_popped(const Tap& /*tap*/, bool /*was_full*/) {}
  // Blocking helpers: return true = state may have changed, retry; false =
  // give up (aborted, deadline passed, or -- Sim -- no progress possible).
  // A null deadline waits forever (the classic push() path).
  using Deadline = std::optional<std::chrono::steady_clock::time_point>;
  // Parks until the feed has room for `need` data items (its low-water
  // mark: occupancy <= feed_capacity - need). 1 <= need <= feed_capacity.
  virtual bool wait_feed_space(Feed& feed, const Deadline& deadline,
                               std::size_t need) {
    // Wake-elision protocol: publish the low-water mark, then wait on the
    // feed's ProducerSignal (runtime::EventWord::wait), bounded by the
    // absolute deadline when the caller asked for timed parking. Only a pop
    // that leaves the feed at or below the mark wakes the pusher. The caller
    // loops, so a spurious wake-up just re-probes. See
    // runtime::ProducerSignal::note_pop.
    SDAF_EXPECTS(need >= 1 && need <= spec.feed_capacity);
    ProducerSignal& sig = feed.signal;
    const std::size_t wake_at = spec.feed_capacity - need;
    sig.wake_at.store(wake_at, std::memory_order_relaxed);
    const auto waited = sig.event.wait(
        [&] {
          return feed.channel.size() <= wake_at || feed.channel.aborted() ||
                 sig.aborted.load(std::memory_order_acquire);
        },
        deadline);
    return !feed.channel.aborted() && waited != Waited::TimedOut;
  }
  virtual bool wait_egress_item(Tap& tap) {
    // Blocks in the channel itself (every producer push notifies); empty
    // optional iff the tap was aborted.
    return tap.channel.peek_head_wait().has_value();
  }
  // Blocks until the tenant gauge may have credit again (same wake-elision
  // protocol as wait_feed_space, parked on the gauge's event word). The
  // park is insurance-bounded: credits held by a stream that aborts come
  // back through finish(), which never bumps this gauge's event, so a
  // bounded park plus the caller's re-probe (which observes the abort)
  // keeps a parked pusher from sleeping forever. Sim pumps instead.
  virtual bool wait_credit(const Deadline& deadline) {
    // Wake-elision protocol against the tenant gauge (runtime::EventWord::
    // wait). Every release() fences then bumps-if-waiters, so a parked pusher
    // never misses a returned credit. The park carries 50ms insurance on top
    // of any caller deadline: a co-stream that aborts returns its credits via
    // finish() without bumping this event, and the re-probe upstream is what
    // observes the abort.
    using namespace std::chrono_literals;
    auto until = std::chrono::steady_clock::now() + 50ms;
    if (deadline.has_value() && *deadline < until) until = *deadline;
    const auto waited = credits->event().wait(
        [&] { return credits->in_flight() < credits->limit(); }, until);
    return waited == Waited::Ready || !deadline.has_value() ||
           std::chrono::steady_clock::now() < *deadline;
  }
  // After every port is closed and the taps are drained: the final report.
  virtual RunReport collect() = 0;

  // --- shared port logic -----------------------------------------------
  // Pre: feed.mu held, a marker is due now (the barrier armed this port and
  // it just reached S, begin() found it already at S, or close() cuts it
  // short of S). The feed always has physical room: data occupancy is
  // capped at feed_capacity segments, EOS adds one, and a marker rides the
  // ring's extra physical slot -- so Full can only mean a previous barrier's
  // marker is still in flight, which barrier serialization excludes.
  void inject_marker_locked(Feed& feed, std::uint64_t seq) {
    bool was_empty = false;
    const PushResult r = feed.channel.try_push_marker(seq, &was_empty);
    SDAF_ASSERT(r != PushResult::Full);
    feed.armed_marker = kNoBarrier;
    // This port's cut: everything it accepted before its marker (== S for a
    // port that reached the barrier, its final count for one closed short).
    feed.cut.next_seq = feed.port.pushed();
    if (r == PushResult::Ok) feed_pushed(feed, was_empty);
  }

  // The one push loop: lands msgs[0, n) in order, in rounds. Each round
  // takes as much tenant credit as it can (charged before the publish, so
  // drains never outrun their charges), stages as many messages as the
  // feed has data room for and lands them with one
  // BoundedChannel::try_push_batch (one ring reservation + one publish +
  // one wake), then hands back the unused credit. Traffic is bit-identical
  // however the messages are split into calls: same seqs, same channel
  // contents, one empty->non-empty wake edge per round.
  //
  // Backpressure: a round short of credit parks on the tenant gauge; a
  // full feed parks until the rest fits -- at most half the feed (the
  // low-water mark) -- so a saturated pusher lands large rounds instead of
  // waking for every slot the source frees. A deadline that passes first
  // still lands whatever fits then. With `wait` false it runs one round and
  // never parks (nor, on the Sim backend, pumps). Returns how many landed.
  // Pre: the port is open.
  std::size_t push_messages(InputPort& port, Message* msgs, std::size_t n,
                            const Deadline& deadline, bool wait) {
    Feed& feed = feeds[port.index_];
    std::size_t done = 0;
    bool last_round = !wait;
    for (;;) {
      bool aborted = false;
      std::size_t landed = 0;
      std::size_t room = 0;
      std::uint64_t credit = 0;
      if (credits != nullptr) {
        // The abort check first keeps a credit-starved pusher from spinning
        // forever on a stream whose credits died with another feed.
        if (feed.channel.aborted()) break;
        credit = credits->try_acquire_upto(n - done);
        if (credit == 0) {
          if (last_round || !wait_credit(deadline)) break;
          continue;
        }
        credit_releaser.charge(credit);
      }
      {
        std::lock_guard plock(feed.mu);
        // Data occupancy is capped at feed_capacity (the ring's extra slot
        // is reserved for EOS); size() only shrinks under the caller's
        // feet, so `room` is a safe underestimate.
        const std::size_t occ = feed.channel.size();
        room = occ >= spec.feed_capacity ? 0 : spec.feed_capacity - occ;
        std::size_t want = n - done;
        if (credits != nullptr)
          want = std::min<std::size_t>(want, static_cast<std::size_t>(credit));
        // An armed barrier splits the round at S: land up to the marker's
        // slot, inject it exactly between seq S-1 and seq S, and the next
        // round continues past it.
        if (feed.armed_marker != kNoBarrier)
          want = std::min<std::size_t>(
              want,
              static_cast<std::size_t>(feed.armed_marker - port.pushed()));
        if (room > 0 && want > 0) {
          bool was_empty = false;
          landed = feed.channel.try_push_batch(
              msgs + done, std::min(room, want), &was_empty, &aborted);
          if (landed > 0) {
            done += landed;
            // Single writer (the port's caller): plain load+store, no RMW.
            port.next_seq_.store(port.pushed() + landed,
                                 std::memory_order_relaxed);
            if (feed.armed_marker != kNoBarrier &&
                port.pushed() == feed.armed_marker)
              inject_marker_locked(feed, feed.armed_marker);
            feed_pushed(feed, was_empty);
          }
        }
      }
      if (credits != nullptr && credit > landed)
        credit_releaser.uncharge(credit - landed);
      if (aborted || done == n || last_round) break;
      // Room left over: credit or a barrier cut the round short, not the
      // feed -- go again at once.
      if (landed < room) continue;
      const std::size_t need = std::max<std::size_t>(
          1, std::min(n - done, spec.feed_capacity / 2));
      if (!wait_feed_space(feed, deadline, need)) {
        if (feed.channel.aborted()) break;
        last_round = true;
      }
    }
    return done;
  }

  // push / try_push / try_push_for: one stack message through the loop.
  PortPushOutcome port_push(InputPort& port, Value&& v,
                            const Deadline& deadline, bool wait) {
    if (port.closed_) return PortPushOutcome::Ended;
    Message m = Message::data(port.pushed(), std::move(v));
    if (push_messages(port, &m, 1, deadline, wait) == 1)
      return PortPushOutcome::Ok;
    return feeds[port.index_].channel.aborted() ? PortPushOutcome::Ended
                                                : PortPushOutcome::TimedOut;
  }

  // push_batch / push_batch_for: seqs are assigned up front into the
  // port's reused staging buffer.
  std::size_t port_push_batch(InputPort& port, std::vector<Value> values,
                              const Deadline& deadline) {
    if (port.closed_ || values.empty()) return 0;
    std::vector<Message>& msgs = feeds[port.index_].staging;
    msgs.clear();
    std::uint64_t seq = port.pushed();
    for (auto& v : values) msgs.push_back(Message::data(seq++, std::move(v)));
    const std::size_t done =
        push_messages(port, msgs.data(), msgs.size(), deadline, true);
    msgs.clear();  // drops unaccepted payloads, keeps the capacity
    return done;
  }

  void port_close(InputPort& port) {
    if (port.closed_) return;
    Feed& feed = feeds[port.index_];
    std::lock_guard plock(feed.mu);
    // A port closed short of an armed barrier cuts at its final count: its
    // marker precedes the EOS, so everything it ever accepted is below the
    // cut and the barrier invariant holds with next_seq < S.
    if (feed.armed_marker != kNoBarrier)
      inject_marker_locked(feed, feed.armed_marker);
    port.closed_ = true;
    // The reserved slot makes this infallible unless the stream already
    // aborted (then the EOS is moot anyway).
    const PushResult r = feed.channel.try_push(Message::eos());
    SDAF_ASSERT(r != PushResult::Full);
    feed_closed(feed);
  }

  // Lazily aligns the tap's cut state with the current barrier generation
  // (begin() bumps the generation; the taps reset on first touch instead of
  // begin() taking every tap lock -- a caller parked in next() holds its
  // tap's lock indefinitely). Pre: tap.mu held.
  void tap_sync_locked(Tap& tap) {
    const std::uint64_t gen = snap_gen.load(std::memory_order_acquire);
    if (tap.gen == gen) return;
    tap.gen = gen;
    tap.acked = 0;
    tap.cut.ended = 0;
    tap.cut.residue.clear();
    // A tap whose EOS was consumed before the barrier began is already at
    // its final cut: no marker will arrive (the sink finished), ack now.
    if (tap.port.ended_) ack_tap_locked(tap, /*ended=*/true);
  }

  // Pre: tap.mu held and tap_sync_locked ran this touch. The release
  // increment pairs with assembly's acquire read, publishing the frozen tap
  // cut (ended flag + residue).
  void ack_tap_locked(Tap& tap, bool ended) {
    if (tap.acked != 0) return;
    tap.acked = 1;
    tap.cut.ended = ended ? 1 : 0;
    tap_acked_count.fetch_add(1, std::memory_order_release);
  }

  // The one tap reader, for the caller's poll and the snapshot reaper.
  // Pre: tap.mu held. Drops dummy runs off the head -- interior dummies
  // reaching the tap (propagation-mode forwarding) carry no caller-visible
  // payload, so each run goes in one op -- and stops at the first other
  // head, returning its kind (nullopt: the ring is empty):
  //   Marker: the tap's barrier marker, invisible to the caller. Popped,
  //     and the tap's cut acked: everything ahead of it was delivered or
  //     parked (needs no further residue).
  //   Eos: acked as the tap's cut and left on the ring. EOS racing a
  //     pending barrier means the sink finished before (or while)
  //     consuming its markers -- either way no marker follows, so this IS
  //     the tap's cut.
  //   Data: left on the ring for the caller's pop_tap_item_locked.
  std::optional<MessageKind> dispatch_tap_head_locked(Tap& tap) {
    for (;;) {
      const auto head = tap.channel.try_peek_head();
      if (!head.has_value()) return std::nullopt;
      switch (head->kind) {
        case MessageKind::Dummy: {
          const auto run = tap.channel.pop_dummies(head->run);
          egress_popped(tap, run.was_full);
          continue;
        }
        case MessageKind::Marker: {
          const bool was_full = tap.channel.pop();
          egress_popped(tap, was_full);
          tap_sync_locked(tap);
          ack_tap_locked(tap, /*ended=*/false);
          return MessageKind::Marker;
        }
        case MessageKind::Eos:
          tap_sync_locked(tap);
          ack_tap_locked(tap, /*ended=*/true);
          return MessageKind::Eos;
        case MessageKind::Data:
          return MessageKind::Data;
      }
    }
  }

  // Pre: tap.mu held and dispatch_tap_head_locked returned Data.
  OutputPort::Item pop_tap_item_locked(Tap& tap) {
    bool was_full = false;
    Message m = tap.channel.pop_head(&was_full);
    egress_popped(tap, was_full);
    return OutputPort::Item{m.seq, std::move(m.payload)};
  }

  std::optional<OutputPort::Item> port_poll_once(OutputPort& port) {
    Tap& tap = taps[port.index_];
    std::lock_guard elock(tap.mu);
    return port_poll_once_locked(tap);
  }

  std::optional<OutputPort::Item> port_poll_once_locked(Tap& tap) {
    OutputPort& port = tap.port;
    // Restored tap residue (and items the snapshot reaper parked to surface
    // a marker) delivers ahead of anything in the live ring -- it is older.
    if (!tap.parked.empty()) {
      OutputPort::Item item = std::move(tap.parked.front());
      tap.parked.pop_front();
      return item;
    }
    if (tap.parked_ended != 0) {
      // The cut saw this tap's EOS; the restored sink is done and will not
      // flood another one into the new ring.
      port.ended_ = true;
      return std::nullopt;
    }
    if (port.ended_) return std::nullopt;
    for (;;) {
      const auto kind = dispatch_tap_head_locked(tap);
      if (kind == MessageKind::Data) return pop_tap_item_locked(tap);
      if (kind == MessageKind::Marker) continue;  // keep polling past it
      if (kind == MessageKind::Eos) {
        const bool was_full = tap.channel.pop();
        egress_popped(tap, was_full);
        port.ended_ = true;
      } else if (tap.channel.aborted()) {
        port.ended_ = true;
      }
      return std::nullopt;
    }
  }

  std::optional<OutputPort::Item> port_poll(OutputPort& port) {
    auto item = port_poll_once(port);
    if (!item.has_value() && !port.ended_ && pump_now())
      item = port_poll_once(port);
    return item;
  }

  std::optional<OutputPort::Item> port_next(OutputPort& port) {
    // Holds the tap lock across the park: the wait peeks the ring, which is
    // a consumer-side op that must not race the snapshot reaper (whose
    // try_lock simply skips a tap its caller owns).
    Tap& tap = taps[port.index_];
    std::lock_guard elock(tap.mu);
    for (;;) {
      if (auto item = port_poll_once_locked(tap); item.has_value())
        return item;
      if (port.ended_) return std::nullopt;
      if (!wait_egress_item(tap)) return std::nullopt;
    }
  }

  // Discard whatever is still on the taps until every tap saw EOS (or the
  // run aborted): with the taps kept drained the EOS flood can always
  // complete, and on deadlock the backend aborts the taps, which ends the
  // loop too.
  virtual void drain_taps() {
    using namespace std::chrono_literals;
    for (;;) {
      const bool any = discard_tap_items();
      if (std::all_of(taps.begin(), taps.end(),
                      [](const Tap& tap) { return tap.port.ended_; }))
        return;
      if (!any) std::this_thread::sleep_for(200us);
    }
  }

  // Polls every tap empty, dropping the items; true = it dropped any.
  bool discard_tap_items() {
    bool any = false;
    for (Tap& tap : taps)
      while (port_poll_once(tap.port).has_value()) any = true;
    return any;
  }

  // --- barrier lifecycle (Stream::snapshot_*) ---------------------------

  bool snapshot_begin() {
    std::lock_guard slock(snap_mu);
    if (collected) return false;
    if (snap_active || plane.pending()) return false;
    // Generation first: a marker that races through a shallow graph to a
    // tap before begin() returns must ack under the new generation.
    snap_gen.fetch_add(1, std::memory_order_release);
    tap_acked_count.store(0, std::memory_order_relaxed);
    // Hold every feed's producer side while choosing S and injecting, so no
    // port can slip an item with seq >= S underneath an injected marker.
    std::vector<std::unique_lock<std::mutex>> plocks;
    plocks.reserve(feeds.size());
    for (Feed& feed : feeds) plocks.emplace_back(feed.mu);
    // S = max over ALL ports (open and closed) of items accepted: closed
    // ports forward no marker, so every message they ever contributed must
    // sit below the cut for downstream alignment to hold.
    std::uint64_t barrier = 0;
    for (const Feed& feed : feeds)
      barrier = std::max(barrier, feed.port.pushed());
    const bool begun = plane.begin(barrier);
    SDAF_ASSERT(begun);
    snap_barrier = barrier;
    for (Feed& feed : feeds) {
      if (feed.port.closed_) {
        // No marker: the source drains to EOS and reports through the
        // plane's finished set (its feed holds only seqs < S by choice of
        // S, plus the EOS).
        feed.cut = ckpt::PortCut{1, feed.port.pushed()};
        continue;
      }
      feed.cut.closed = 0;
      if (feed.port.pushed() == barrier)
        inject_marker_locked(feed, barrier);
      else
        feed.armed_marker = barrier;  // inject exactly when it reaches S
    }
    snap_active = true;
    snap_begin_seconds = clock.elapsed_seconds();
    return true;
  }

  // Reap tap markers that idle output ports have not consumed: for each
  // unacked tap we can lock (try_lock -- a caller inside a port call owns
  // the tap and will process its marker itself), pop ahead of the marker,
  // parking Data items for later delivery and recording them as the cut's
  // residue (popped-but-undelivered at the cut). An EOS stays for the
  // caller's poll (ended() flips there); the cut records the tap as ended
  // either way. Pre: snap_mu held.
  void reap_tap_markers() {
    for (Tap& tap : taps) {
      std::unique_lock elock(tap.mu, std::try_to_lock);
      if (!elock.owns_lock()) continue;
      tap_sync_locked(tap);
      if (tap.acked != 0 || tap.parked_ended != 0 || tap.port.ended_)
        continue;
      while (dispatch_tap_head_locked(tap) == MessageKind::Data) {
        OutputPort::Item item = pop_tap_item_locked(tap);
        tap.cut.residue.push_back(ckpt::TapItem{item.seq, item.value});
        tap.parked.push_back(std::move(item));
      }
    }
  }

  std::optional<ckpt::StreamSnapshot> snapshot_poll() {
    std::lock_guard slock(snap_mu);
    if (!snap_active) return std::nullopt;
    (void)pump_now();  // Sim: markers only advance on the caller's thread
    reap_tap_markers();
    if (!plane.nodes_complete()) return std::nullopt;
    if (tap_acked_count.load(std::memory_order_acquire) != taps.size())
      return std::nullopt;
    return assemble_snapshot();
  }

  // Pre: snap_mu held, every node checkpointed/finished, every tap acked.
  ckpt::StreamSnapshot assemble_snapshot() {
    ckpt::StreamSnapshot snap;
    snap.signature = snapshot_signature(graph, spec.run);
    snap.epoch = epoch;
    snap.barrier_seq = snap_barrier;
    snap.sweeps = sweeps_now();
    snap.nodes = plane.take_cuts();
    snap.edges.reserve(graph.edge_count());
    for (EdgeId e = 0; e < static_cast<EdgeId>(graph.edge_count()); ++e)
      snap.edges.push_back(
          edge_cut_at(e, /*producer_checkpointed=*/
                      snap.nodes[graph.edge(e).from].done == 0));
    snap.ports.reserve(feeds.size());
    for (Feed& feed : feeds) {
      // Brief lock: port mutex holders never block (pushes park outside).
      std::lock_guard plock(feed.mu);
      snap.ports.push_back(feed.cut);
    }
    snap.taps.reserve(taps.size());
    for (Tap& tap : taps) {
      // No tap lock (a parked next() caller holds one indefinitely): the
      // residue is written only under snap_mu, and the ended flag was
      // published by the ack's release increment.
      snap.taps.push_back(std::move(tap.cut));
      tap.cut.residue.clear();
    }
    snap_active = false;
    ++snapshots_taken;
    last_snapshot_seconds = clock.elapsed_seconds() - snap_begin_seconds;
    return snap;
  }

  std::optional<ckpt::StreamSnapshot> snapshot_wait(
      std::chrono::milliseconds timeout) {
    (void)snapshot_begin();  // false = already pending; poll that barrier
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    for (;;) {
      if (auto snap = snapshot_poll(); snap.has_value()) return snap;
      {
        std::lock_guard slock(snap_mu);
        if (!snap_active) return std::nullopt;  // never begun (finished)
      }
      if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  [[nodiscard]] obs::MetricsSnapshot take_snapshot() const {
    obs::MetricsSnapshot s;
    if (registry != nullptr) {
      obs::SnapshotOptions opts;
      opts.backend = to_string(spec.run.backend);
      opts.tenant = spec.run.tenant;
      opts.wall_seconds = clock.elapsed_seconds();
      opts.bytes_per_slot = sizeof(Message);
      s = obs::snapshot(graph, *registry, opts);
    } else {
      s.backend = to_string(spec.run.backend);
      s.tenant.tenant = spec.run.tenant;
      s.tenant.wall_seconds = clock.elapsed_seconds();
    }
    const auto add_port = [&](NodeId node, bool input, std::uint64_t pushed,
                              const BoundedChannel& channel,
                              std::size_t capacity) {
      s.ports.push_back(obs::PortMetrics{node, graph.node_name(node), input,
                                         pushed, channel.size(), capacity});
    };
    for (const Feed& feed : feeds)
      add_port(feed.port.node(), true, feed.port.pushed(), feed.channel,
               spec.feed_capacity);
    for (const Tap& tap : taps)
      add_port(tap.port.node(), false, tap.channel.stats().data_pushed,
               tap.channel, spec.egress_capacity);
    s.workers = worker_metrics();
    {
      std::lock_guard slock(snap_mu);
      s.ckpt.epoch = epoch;
      s.ckpt.snapshots_taken = snapshots_taken;
      s.ckpt.snapshot_pending = snap_active;
      s.ckpt.last_snapshot_seconds = last_snapshot_seconds;
    }
    return s;
  }

  RunReport finish() {
    SDAF_EXPECTS(!collected);
    {
      // A pending barrier dies with the stream: in-flight markers drain as
      // stale (the plane drops their checkpoints after abort_barrier).
      std::lock_guard slock(snap_mu);
      collected = true;
      snap_active = false;
      plane.abort_barrier();
    }
    for (Feed& feed : feeds) port_close(feed.port);
    drain_taps();
    RunReport report = collect();
    // The engine is quiesced: every drain hook that will ever fire has
    // fired. Whatever this stream still holds (items left in feeds by a
    // deadlock or abort) goes back to the tenant's window now, so one
    // wedged stream cannot leak its co-streams' credits forever.
    if (credits != nullptr) credit_releaser.release_rest();
    if (report.deadlocked) append_port_dump(&report);
    return report;
  }

  void append_port_dump(RunReport* report) const {
    std::ostringstream out;
    for (const Feed& feed : feeds)
      out << "port feed " << graph.node_name(feed.port.node_) << " "
          << feed.channel.size() << "/" << spec.feed_capacity
          << (feed.port.closed_ ? " closed" : " open") << "\n";
    for (const Tap& tap : taps)
      out << "port egress " << graph.node_name(tap.port.node_) << " "
          << tap.channel.size() << "/" << spec.egress_capacity
          << (tap.port.ended_ ? " ended" : "") << "\n";
    report->state_dump += out.str();
  }
};

// ---------------------------------------------------------------- Sim ---
// Single-threaded: the caller's own thread runs the deterministic sweeps.
// Ports never block -- "waiting" means pumping, and a pump with no progress
// tells the caller nothing more can happen without new input.
struct SimCore final : Core {
  std::unique_ptr<sim::SweepEngine> engine;

  SimCore(const StreamGraph& g,
          std::vector<std::shared_ptr<runtime::Kernel>> k, StreamSpec s,
          const ckpt::StreamSnapshot* restore)
      : Core(g, std::move(k), std::move(s), restore) {
    engine = std::make_unique<sim::SweepEngine>(graph, kernels, bound_spec());
    restore_src = nullptr;  // borrow ends with engine construction
  }

  bool pump_now() override { return engine->pump(); }
  [[nodiscard]] ckpt::EdgeCut edge_cut_at(
      EdgeId e, bool producer_checkpointed) const override {
    return engine->edge_cut(e, producer_checkpointed);
  }
  [[nodiscard]] std::uint64_t sweeps_now() const override {
    return engine->sweeps();
  }
  bool wait_feed_space(Feed& feed, const Deadline& /*deadline*/,
                       std::size_t /*need*/) override {
    // "Waiting" on the Sim backend means pumping on the caller's thread; a
    // pump with no progress already answers a deadline caller (the graph
    // cannot absorb the item no matter how long it waits), so the deadline
    // itself is moot -- and so is the low-water mark: one pump is as far
    // as the feed can drain before the caller pushes again.
    return engine->pump() && !feed.channel.aborted();
  }
  bool wait_egress_item(Tap& /*tap*/) override { return engine->pump(); }
  bool wait_credit(const Deadline& /*deadline*/) override {
    // The feed consumers run on this thread: pumping is what returns
    // credits. A pump with no progress means no credit will ever free
    // without new polls, so give up (same contract as wait_feed_space).
    return engine->pump();
  }

  void drain_taps() override {
    for (;;) {
      const bool any = discard_tap_items();
      const bool pumped = engine->pump();
      if (engine->all_done()) {
        // One last drain so collect() leaves no tap contents behind.
        (void)discard_tap_items();
        return;
      }
      if (!pumped && !any) return;  // wedged (or sweep budget exhausted)
    }
  }

  RunReport collect() override {
    const bool deadlocked =
        !engine->all_done() && engine->sweeps() < spec.run.max_sweeps;
    RunReport report = engine->report(deadlocked);
    report.wall_seconds = clock.elapsed_seconds();
    return report;
  }
};

// ------------------------------------------------------------- Pooled ---
// Node tasks on a worker pool; port transitions become task wake-ups
// through the PoolExecutor stream hooks, and the extended quiescence rule
// ("quiescent and no port has pending items") keeps the deadlock verdict
// exact while ports are open.
struct PooledCore final : Core {
  std::unique_ptr<runtime::PoolExecutor> owned_pool;
  runtime::PoolExecutor* pool = nullptr;
  runtime::PoolExecutor::TicketId ticket = 0;
  runtime::PoolExecutor::StreamHandle handle;

  PooledCore(const StreamGraph& g,
             std::vector<std::shared_ptr<runtime::Kernel>> k, StreamSpec s,
             const ckpt::StreamSnapshot* restore)
      : Core(g, std::move(k), std::move(s), restore) {
    if (spec.run.pool != nullptr) {
      pool = spec.run.pool;
    } else {
      runtime::PoolExecutor::Options popt;
      popt.workers = spec.run.pool_workers;
      owned_pool = std::make_unique<runtime::PoolExecutor>(popt);
      pool = owned_pool.get();
    }
    ticket = pool->submit(graph, kernels, bound_spec());
    handle = pool->stream_handle(ticket);
    restore_src = nullptr;  // borrow ends with submit
    // Ports restored closed (their sources restored done) never call
    // feed_closed; report them so the extended quiescence rule sees the
    // right open-port count.
    for (const Feed& feed : feeds)
      if (feed.port.closed()) feed_closed(feed);
  }

  void feed_pushed(const Feed& feed, bool was_empty) override {
    if (was_empty) runtime::PoolExecutor::stream_wake(handle, feed.port.node());
  }

  void feed_closed(const Feed& feed) override {
    // Close protocol (see PoolExecutor::Instance): EOS already pushed by
    // port_close, then the decrement, then the wake -- so a quiescent
    // observer that reads the decrement also sees the EOS.
    runtime::PoolExecutor::stream_port_closed(handle);
    runtime::PoolExecutor::stream_wake(handle, feed.port.node());
  }

  void egress_popped(const Tap& tap, bool was_full) override {
    if (was_full) runtime::PoolExecutor::stream_wake(handle, tap.port.node());
  }

  [[nodiscard]] std::vector<obs::WorkerMetrics> worker_metrics()
      const override {
    return pool->worker_metrics();
  }

  [[nodiscard]] ckpt::EdgeCut edge_cut_at(
      EdgeId e, bool producer_checkpointed) const override {
    return runtime::PoolExecutor::stream_edge_cut(handle, e,
                                                  producer_checkpointed);
  }

  RunReport collect() override {
    RunReport report = pool->wait(ticket);
    handle.reset();
    return report;
  }
};

std::unique_ptr<Core> make_core(const StreamGraph& graph,
                                std::vector<std::shared_ptr<runtime::Kernel>>
                                    kernels,
                                StreamSpec spec,
                                const ckpt::StreamSnapshot* restore) {
  switch (spec.run.backend) {
    case Backend::Sim:
      return std::make_unique<SimCore>(graph, std::move(kernels),
                                       std::move(spec), restore);
    case Backend::Pooled:
      return std::make_unique<PooledCore>(graph, std::move(kernels),
                                          std::move(spec), restore);
  }
  SDAF_ASSERT(false && "unknown backend");
  return nullptr;
}

}  // namespace stream_detail

using stream_detail::Core;

bool InputPort::push(runtime::Value v) {
  return core_->port_push(*this, std::move(v), std::nullopt, true) ==
         PortPushOutcome::Ok;
}

bool InputPort::try_push(runtime::Value v) {
  return core_->port_push(*this, std::move(v), std::nullopt, false) ==
         PortPushOutcome::Ok;
}

PortPushOutcome InputPort::try_push_for(runtime::Value v,
                                    std::chrono::nanoseconds timeout) {
  // timeout <= 0: a deadline already in the past -- one push attempt, no
  // park (try_push semantics with the three-way status).
  const auto deadline = std::chrono::steady_clock::now() +
                        std::max(timeout, std::chrono::nanoseconds::zero());
  return core_->port_push(*this, std::move(v), deadline, true);
}

std::size_t InputPort::push_batch(std::vector<runtime::Value> values) {
  return core_->port_push_batch(*this, std::move(values), std::nullopt);
}

std::size_t InputPort::push_batch_for(std::vector<runtime::Value> values,
                                      std::chrono::nanoseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::max(timeout, std::chrono::nanoseconds::zero());
  return core_->port_push_batch(*this, std::move(values), deadline);
}

void InputPort::close() { core_->port_close(*this); }

std::optional<OutputPort::Item> OutputPort::poll() {
  return core_->port_poll(*this);
}

std::size_t OutputPort::poll_batch(std::vector<Item>* out, std::size_t max) {
  SDAF_EXPECTS(out != nullptr);
  std::size_t appended = 0;
  while (appended < max) {
    auto item = core_->port_poll(*this);
    if (!item.has_value()) break;
    out->push_back(std::move(*item));
    ++appended;
  }
  return appended;
}

std::optional<OutputPort::Item> OutputPort::next() {
  return core_->port_next(*this);
}

Stream::Stream(std::unique_ptr<stream_detail::Core> core)
    : core_(std::move(core)) {}

Stream::Stream(Stream&& other) noexcept = default;

Stream::~Stream() {
  if (core_ != nullptr && !core_->collected) (void)core_->finish();
}

std::size_t Stream::input_count() const { return core_->feeds.size(); }

InputPort& Stream::input(std::size_t i) {
  SDAF_EXPECTS(i < core_->feeds.size());
  return core_->feeds[i].port;
}

std::size_t Stream::output_count() const { return core_->taps.size(); }

OutputPort& Stream::output(std::size_t i) {
  SDAF_EXPECTS(i < core_->taps.size());
  return core_->taps[i].port;
}

void Stream::pump() { (void)core_->pump_now(); }

obs::MetricsSnapshot Stream::metrics() const { return core_->take_snapshot(); }

bool Stream::snapshot_begin() { return core_->snapshot_begin(); }

std::optional<ckpt::StreamSnapshot> Stream::snapshot_poll() {
  return core_->snapshot_poll();
}

std::optional<ckpt::StreamSnapshot> Stream::snapshot(
    std::chrono::milliseconds timeout) {
  return core_->snapshot_wait(timeout);
}

std::uint64_t Stream::epoch() const { return core_->epoch; }

RunReport Stream::finish() { return core_->finish(); }

// Defined here (not session.cpp) so the concrete cores stay file-local.
Stream Session::open(StreamSpec spec) {
  return Stream(stream_detail::make_core(graph_, kernels_, std::move(spec),
                                         /*restore=*/nullptr));
}

namespace {
// The reservation a successful admit pinned; releasing is the deleter's
// job so the budget comes back exactly once, when the Stream (which owns
// the lease through its spec) is destroyed.
struct AdmissionTicket {
  qos::Admission& admission;
  std::string tenant;
  qos::TenantCost cost;
  AdmissionTicket(qos::Admission& a, std::string t, const qos::TenantCost& c)
      : admission(a), tenant(std::move(t)), cost(c) {}
  ~AdmissionTicket() { admission.release(tenant, cost); }
};
}  // namespace

Session::OpenDecision Session::open(StreamSpec spec,
                                    qos::Admission& admission) {
  OpenDecision decision;
  // The spec's intervals ARE the compile result (RunSpec::apply), so the
  // cost model needs no separate CompileResult here; an empty vector
  // (avoidance off) predicts zero dummy overhead over the raw buffers.
  decision.predicted = qos::estimate(graph_, spec.run.intervals);
  if (auto rejected = admission.admit(spec.run.tenant, decision.predicted)) {
    decision.rejected = std::move(rejected);
    return decision;
  }
  spec.lease = std::make_shared<AdmissionTicket>(admission, spec.run.tenant,
                                                 decision.predicted);
  decision.stream.emplace(Stream(stream_detail::make_core(
      graph_, kernels_, std::move(spec), /*restore=*/nullptr)));
  return decision;
}

std::optional<Stream> Session::restore(StreamSpec spec,
                                       const ckpt::StreamSnapshot& snapshot) {
  if (snapshot.version != ckpt::kSnapshotVersion) return std::nullopt;
  if (snapshot.signature != stream_detail::snapshot_signature(graph_, spec.run))
    return std::nullopt;
  if (snapshot.nodes.size() != graph_.node_count()) return std::nullopt;
  if (snapshot.edges.size() != graph_.edge_count()) return std::nullopt;
  const auto& sources = graph_.sources();
  if (snapshot.ports.size() != sources.size()) return std::nullopt;
  const std::size_t want_taps =
      spec.capture_outputs ? graph_.sinks().size() : 0;
  if (snapshot.taps.size() != want_taps) return std::nullopt;
  // Internal consistency: a port closed at the cut implies its source was
  // cut done (a closed feed carries no marker, so the barrier can only have
  // completed through the source finishing). Reject blobs that violate it
  // -- apply_restore leans on the EOS having fully flooded.
  for (std::size_t i = 0; i < snapshot.ports.size(); ++i)
    if (snapshot.ports[i].closed != 0 && snapshot.nodes[sources[i]].done == 0)
      return std::nullopt;
  return Stream(
      stream_detail::make_core(graph_, kernels_, std::move(spec), &snapshot));
}

}  // namespace sdaf::exec
