// Futex-style parking keyed directly on 32-bit atomic words: the blocking
// half of every wait protocol in the runtime (idle pool workers,
// OutputPort::next's egress wait, InputPort::push backpressure) without a
// mutex or condition variable anywhere on the path.
//
// The protocol is the futex one: a waiter captures the word's value,
// registers/re-checks whatever condition it is really waiting for, and then
// calls park(word, captured) -- which sleeps only while the word still
// holds the captured value (the compare-and-sleep is atomic against
// publishers, so the classic check-then-wait race cannot lose a wake-up).
// A publisher changes the word (any store that moves it off the captured
// value) *before* calling wake(); waiters unconditionally re-check their
// real condition on return, so spurious wake-ups are harmless by
// construction.
//
// The happens-before edges all ride on the word itself (and the callers'
// own counters/fences); the kernel queue is pure blocking transport. On
// Linux park/wake compile to the futex syscall; elsewhere they fall back to
// a small hashed table of mutex+condvar buckets with identical semantics,
// so the portable build keeps working (the mutex then lives inside the
// parking lot, not in the runtime's data structures).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>

namespace sdaf::runtime {

class ParkingLot {
 public:
  // Sleeps while `word == expected`. Returns immediately when the word
  // already moved; otherwise blocks until a wake (or a spurious return --
  // callers always loop on their real condition).
  static void park(const std::atomic<std::uint32_t>& word,
                   std::uint32_t expected);

  // park() with a relative timeout; returns false iff the wait timed out
  // with the word still unchanged (best effort: a racing wake may also
  // report false -- callers re-check their condition either way).
  static bool park_for(const std::atomic<std::uint32_t>& word,
                       std::uint32_t expected,
                       std::chrono::nanoseconds timeout);

  // park() bounded by an absolute steady_clock deadline.
  static bool park_until(const std::atomic<std::uint32_t>& word,
                         std::uint32_t expected,
                         std::chrono::steady_clock::time_point deadline);

  // Wakes up to `count` threads parked on `word`. The caller must have
  // already moved the word off every sleeper's captured value, or the
  // sleepers may immediately park again (correct, just wasteful).
  static void wake_one(const std::atomic<std::uint32_t>& word);
  static void wake_all(const std::atomic<std::uint32_t>& word);
};

// A parkable event word: the version counter half of the wake-elision
// protocol used throughout the runtime. Publishers bump(); waiters capture,
// re-check their condition, then park on the captured value. The waiter
// count lets publishers elide the wake syscall when nobody is parked -- a
// waiter registers with a seq_cst RMW *before* its re-check, and bump()
// publishes the new version before reading the count across a seq_cst
// fence, so one side always observes the other ("never falsely empty for a
// parked peer").
//
// bump_if_waiters() wakes every sleeper (the credit gauge: its pushers do
// not wake each other). claim_wake() wakes one, and only while no claimed
// wake is in flight: for single waiters and the pool's idle workers, which
// pass the wake on. register/unregister_waiter clear the claim ahead of
// the waiter's fence and re-check, so a publisher that skips its wake
// leaves its change to a later re-check (docs/SCHEDULER.md).
struct EventWord {
  std::atomic<std::uint32_t> version{0};
  std::atomic<int> waiters{0};
  std::atomic<bool> wake_pending{false};

  [[nodiscard]] std::uint32_t capture() const {
    return version.load(std::memory_order_acquire);
  }

  // Registers as parked; pair with unregister_waiter() after the park.
  void register_waiter() {
    waiters.fetch_add(1, std::memory_order_seq_cst);
    clear_claim();
  }
  void unregister_waiter() {
    waiters.fetch_sub(1, std::memory_order_relaxed);
    clear_claim();
  }

  // The waiter side in one call: capture -> register (seq_cst RMW) ->
  // fence -> re-check `ready` -> park on the captured version (until
  // `deadline`, if given) -> unregister, with no fence after it: the caller
  // re-probes before it can wait again (docs/SCHEDULER.md). The pool's idle
  // workers keep their own sequence; they fence after unregistering.
  // Ready = the re-check held and nothing parked; Woken may be spurious.
  enum class Waited : std::uint8_t { Ready, Woken, TimedOut };
  template <typename ReadyFn>
  Waited wait(ReadyFn ready,
              std::optional<std::chrono::steady_clock::time_point> deadline =
                  std::nullopt) {
    const std::uint32_t captured = capture();
    register_waiter();
    std::atomic_thread_fence(std::memory_order_seq_cst);
    Waited result = Waited::Ready;
    if (!ready()) {
      result = Waited::Woken;
      if (!deadline.has_value())
        ParkingLot::park(version, captured);
      else if (!ParkingLot::park_until(version, captured, *deadline))
        result = Waited::TimedOut;
    }
    unregister_waiter();
    return result;
  }

  // Publishes one transition: version moves first (so a mid-registration
  // waiter's park falls through), then the waiter count is read across a
  // seq_cst fence. The relaxed count read is safe only *because* of that
  // fence -- see the protocol note above.
  void bump() {
    version.fetch_add(1, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiters.load(std::memory_order_relaxed) > 0)
      ParkingLot::wake_all(version);
  }

  // Wake-elided bump: touches `version` only when a waiter is registered.
  // Sound ONLY when the caller's state change already published through a
  // seq_cst fence before this call (e.g. SpscRing's publish/finish_pop
  // fences): that fence against the waiter's seq_cst registration guarantees
  // either this relaxed read sees the waiter (and the version moves off its
  // captured value before/while it parks) or the waiter's post-registration
  // re-check sees the state change -- never both miss.
  void bump_if_waiters() {
    if (waiters.load(std::memory_order_relaxed) > 0) {
      version.fetch_add(1, std::memory_order_release);
      ParkingLot::wake_all(version);
    }
  }

  // bump_if_waiters' fence precondition, but one wake at a time: only the
  // publisher that sets `wake_pending` bumps and wakes a sleeper. Returns
  // whether this call issued the wake.
  bool claim_wake() {
    if (waiters.load(std::memory_order_relaxed) == 0 ||
        wake_pending.load(std::memory_order_relaxed) ||
        wake_pending.exchange(true, std::memory_order_acq_rel))
      return false;
    version.fetch_add(1, std::memory_order_release);
    ParkingLot::wake_one(version);
    return true;
  }

 private:
  void clear_claim() { wake_pending.store(false, std::memory_order_relaxed); }
};

}  // namespace sdaf::runtime
