#include "src/runtime/steal_deque.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "src/support/prng.h"
#include "src/support/timer.h"

namespace sdaf::runtime {
namespace {

// ---------------------------------------------------------------------
// Model-based property tests: StealDeque driven single-threaded against a
// sequential reference (std::deque), which defines the semantics exactly:
// push_bottom = push_back, pop_bottom = pop_back (LIFO), steal = pop_front
// (FIFO). Every observable -- popped/stolen items, emptiness, sizes --
// must agree op for op, across capacities that force the growth path.
// ---------------------------------------------------------------------

// Items are pointers into a stable arena so the deque's void* contract is
// exercised with real, distinct addresses.
struct Arena {
  std::vector<std::uint64_t> cells;
  explicit Arena(std::size_t n) : cells(n) {
    for (std::size_t i = 0; i < n; ++i) cells[i] = i;
  }
  void* item(std::size_t i) { return &cells[i]; }
  [[nodiscard]] std::size_t index(const void* p) const {
    return static_cast<std::size_t>(static_cast<const std::uint64_t*>(p) -
                                    cells.data());
  }
};

void run_model_check(std::size_t capacity, std::uint64_t seed, int ops) {
  StealDeque deque(capacity);
  std::deque<void*> model;
  Arena arena(static_cast<std::size_t>(ops) + 1);
  Prng rng(seed);
  std::size_t next = 0;
  const std::string label =
      "cap=" + std::to_string(capacity) + " seed=" + std::to_string(seed);

  for (int op = 0; op < ops; ++op) {
    const std::string step = label + " op=" + std::to_string(op);
    ASSERT_EQ(model.size(), deque.approx_size()) << step;
    switch (rng.next_below(4)) {
      case 0:
      case 1: {  // push_bottom (weighted up so the deque actually fills)
        void* item = arena.item(next++);
        model.push_back(item);
        deque.push_bottom(item);
        break;
      }
      case 2: {  // pop_bottom: LIFO, exactly the reference's back
        void* expected = model.empty() ? nullptr : model.back();
        if (!model.empty()) model.pop_back();
        ASSERT_EQ(expected, deque.pop_bottom()) << step;
        break;
      }
      case 3: {  // steal: FIFO, exactly the reference's front
        void* out = nullptr;
        const auto result = deque.steal(&out);
        if (model.empty()) {
          ASSERT_EQ(result, StealDeque::StealResult::Empty) << step;
        } else {
          // Single-threaded: contention is impossible.
          ASSERT_EQ(result, StealDeque::StealResult::Ok) << step;
          ASSERT_EQ(model.front(), out) << step;
          model.pop_front();
        }
        break;
      }
    }
  }
  // Drain both ways and require the same residue.
  while (!model.empty()) {
    ASSERT_EQ(model.back(), deque.pop_bottom()) << label;
    model.pop_back();
  }
  ASSERT_EQ(deque.pop_bottom(), nullptr) << label;
  void* out = nullptr;
  ASSERT_EQ(deque.steal(&out), StealDeque::StealResult::Empty) << label;
}

TEST(StealDequeModel, AgreesWithSequentialReferenceAcrossCapacities) {
  for (const std::size_t capacity : {2u, 3u, 4u, 8u, 64u, 256u})
    for (std::uint64_t seed = 1; seed <= 6; ++seed)
      run_model_check(capacity, 0xDE0E ^ (capacity * 1000 + seed), 4000);
}

TEST(StealDequeModel, GrowthPreservesContentsAndOrder) {
  // Fill far past the initial capacity with no pops: every item must
  // survive the ring copies, in FIFO order from the thief's side.
  StealDeque deque(2);
  Arena arena(1000);
  for (std::size_t i = 0; i < 1000; ++i) deque.push_bottom(arena.item(i));
  EXPECT_GE(deque.capacity(), 1000u);
  for (std::size_t i = 0; i < 1000; ++i) {
    void* out = nullptr;
    ASSERT_EQ(deque.steal(&out), StealDeque::StealResult::Ok) << i;
    ASSERT_EQ(arena.index(out), i);
  }
  void* out = nullptr;
  EXPECT_EQ(deque.steal(&out), StealDeque::StealResult::Empty);
}

TEST(StealDequeModel, InterleavedGrowthKeepsLiveRange) {
  // Alternate growth bursts with partial drains so the copied window
  // [top, bottom) starts at many different offsets.
  StealDeque deque(2);
  std::deque<void*> model;
  Arena arena(200 * 41);  // rounds * max burst: never outgrown
  std::size_t next = 0;
  Prng rng(0x6B0B);
  for (int round = 0; round < 200; ++round) {
    const std::size_t burst = 1 + rng.next_below(40);
    for (std::size_t i = 0; i < burst; ++i) {
      void* item = arena.item(next++);
      model.push_back(item);
      deque.push_bottom(item);
    }
    const std::size_t drain = rng.next_below(burst + 4);
    for (std::size_t i = 0; i < drain && !model.empty(); ++i) {
      if (rng.next_bool(0.5)) {
        ASSERT_EQ(model.back(), deque.pop_bottom());
        model.pop_back();
      } else {
        void* out = nullptr;
        ASSERT_EQ(deque.steal(&out), StealDeque::StealResult::Ok);
        ASSERT_EQ(model.front(), out);
        model.pop_front();
      }
    }
  }
  while (!model.empty()) {
    ASSERT_EQ(model.back(), deque.pop_bottom());
    model.pop_back();
  }
  EXPECT_EQ(deque.pop_bottom(), nullptr);
}

// ---------------------------------------------------------------------
// Three-thread hammer, designed to run under TSan: one owner pushing and
// popping at the bottom, two thieves stealing concurrently. The
// linearizability check is on the observed pop/steal sets: every pushed
// item is claimed exactly once (owner xor one thief xor final drain),
// nothing is invented, nothing is lost, and each thief's steal sequence is
// strictly increasing in push order (top only ever advances).
// SDAF_STRESS_SECONDS scales it up for tools/ci.sh --stress.
//
// The owner reuses the same kBatch arena cells every round, so each cell
// is stamped with its round before it is pushed, and the ordering check
// compares rounds first and push indices only within a round. A thief
// cannot tell rounds apart any other way: between two of its steals the
// owner may finish a round and push the next batch, whose low indices
// would otherwise read as going backwards. The stamp write is ordered
// before the steal that reads it by push_bottom's release, and the read is
// ordered before the next round's rewrite by claim()'s acq_rel count.
// ---------------------------------------------------------------------

void run_hammer(std::uint64_t seed, double seconds, std::size_t capacity) {
  StealDeque deque(capacity);
  constexpr std::size_t kBatch = 512;
  Arena arena(kBatch);

  std::atomic<bool> stop{false};
  // Claim slots: claimed[i] counts how many threads took item i this
  // round; any value > 1 is a double-delivery, caught immediately.
  std::vector<std::atomic<std::uint32_t>> claimed(kBatch);
  std::atomic<std::size_t> claimed_total{0};
  std::atomic<bool> double_claim{false};
  std::atomic<bool> bad_order{false};

  auto claim = [&](void* item) {
    const std::size_t i = arena.index(item);
    if (claimed[i].fetch_add(1, std::memory_order_relaxed) != 0)
      double_claim.store(true, std::memory_order_relaxed);
    claimed_total.fetch_add(1, std::memory_order_acq_rel);
  };

  auto thief = [&](std::uint64_t thief_seed) {
    Prng rng(thief_seed);
    std::uint64_t last_round = 0;  // rounds are numbered from 1
    std::size_t last_index = 0;
    while (!stop.load(std::memory_order_acquire)) {
      void* out = nullptr;
      switch (deque.steal(&out)) {
        case StealDeque::StealResult::Ok: {
          const std::size_t i = arena.index(out);
          const std::uint64_t item_round = *static_cast<std::uint64_t*>(out);
          // A thief's steals come off a monotonically advancing top: never
          // an earlier round, and within one round strictly increasing
          // push indices.
          if (item_round < last_round ||
              (item_round == last_round && i <= last_index))
            bad_order.store(true, std::memory_order_relaxed);
          last_round = item_round;
          last_index = i;
          claim(out);
          break;
        }
        case StealDeque::StealResult::Empty:
          std::this_thread::yield();  // 1-CPU friendly
          break;
        case StealDeque::StealResult::Contended:
          if (rng.next_bool(0.5)) std::this_thread::yield();
          break;
      }
    }
  };

  {
    std::thread t1([&] { thief(seed ^ 0x1111); });
    std::thread t2([&] { thief(seed ^ 0x2222); });
    // Stops and joins the thieves on every exit from the owner loop below,
    // including a failed ASSERT, which returns with the threads joinable.
    struct JoinThieves {
      std::atomic<bool>& stop;
      std::thread& t1;
      std::thread& t2;
      ~JoinThieves() {
        stop.store(true, std::memory_order_release);
        t1.join();
        t2.join();
      }
    } join_thieves{stop, t1, t2};

    // Owner (this thread): rounds of push-all / mixed pop+work until every
    // item of the round is claimed by someone.
    Prng rng(seed);
    Stopwatch clock;
    std::uint64_t rounds = 0;
    while (clock.elapsed_seconds() < seconds || rounds == 0) {
      for (auto& c : claimed) c.store(0, std::memory_order_relaxed);
      claimed_total.store(0, std::memory_order_release);
      const std::uint64_t round = rounds + 1;
      std::size_t pushed = 0;
      while (pushed < kBatch) {
        const std::size_t burst =
            std::min<std::size_t>(1 + rng.next_below(16), kBatch - pushed);
        for (std::size_t i = 0; i < burst; ++i) {
          arena.cells[pushed + i] = round;
          deque.push_bottom(arena.item(pushed + i));
        }
        pushed += burst;
        // Interleave owner pops so the last-item CAS race actually runs.
        const std::size_t pops = rng.next_below(burst + 1);
        for (std::size_t i = 0; i < pops; ++i) {
          if (void* item = deque.pop_bottom()) claim(item);
        }
      }
      // Drain the remainder (owner side) and wait for in-flight steals.
      while (claimed_total.load(std::memory_order_acquire) < kBatch) {
        if (void* item = deque.pop_bottom())
          claim(item);
        else
          std::this_thread::yield();
      }
      ASSERT_FALSE(double_claim.load()) << "item delivered twice";
      ASSERT_FALSE(bad_order.load()) << "thief observed non-monotonic steals";
      // Exactly-once: every claim counter is exactly 1.
      for (std::size_t i = 0; i < kBatch; ++i)
        ASSERT_EQ(claimed[i].load(std::memory_order_relaxed), 1u)
            << "item " << i << " round " << rounds;
      ++rounds;
    }
  }
  EXPECT_EQ(deque.pop_bottom(), nullptr);
}

TEST(StealDequeHammer, OwnerVersusTwoThievesExactlyOnce) {
  double seconds = 1.0;
  if (const char* env = std::getenv("SDAF_STRESS_SECONDS"))
    seconds = std::strtod(env, nullptr) / 2;  // shared budget with the next
  std::uint64_t seed = 0x57EA1;
  if (const char* env = std::getenv("SDAF_STRESS_SEED"))
    seed = std::strtoull(env, nullptr, 0);
  run_hammer(seed, seconds, /*capacity=*/64);
}

TEST(StealDequeHammer, TinyRingForcesConcurrentGrowth) {
  // Capacity 2: every round grows the ring several times while thieves
  // hold stale array pointers -- the retire-chain path under fire.
  double seconds = 1.0;
  if (const char* env = std::getenv("SDAF_STRESS_SECONDS"))
    seconds = std::strtod(env, nullptr) / 2;
  std::uint64_t seed = 0x6120;
  if (const char* env = std::getenv("SDAF_STRESS_SEED"))
    seed = std::strtoull(env, nullptr, 0);
  run_hammer(seed, seconds, /*capacity=*/2);
}

}  // namespace
}  // namespace sdaf::runtime
