#include "src/runtime/pool_executor.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "src/support/contracts.h"
#include "src/support/prng.h"
#include "src/support/timer.h"

namespace sdaf::runtime {

namespace pool_detail {

// Scheduling state of one node task. A task is enqueued (hot slot, deque,
// or injector) iff its state is kQueued; notifications that arrive while it
// runs are folded into kRunningNotified so the owning worker re-runs it
// instead of racing a second worker onto the same node.
enum : std::uint32_t {
  kIdle = 0,
  kQueued = 1,
  kRunning = 2,
  kRunningNotified = 3,
};

struct NodeTask {
  PoolExecutor::Instance* instance = nullptr;
  NodeState* node = nullptr;
  std::atomic<std::uint32_t> sched{kIdle};
  // Why the last owner parked this node (NodeState::park_summary encoding);
  // written by the owner before the park transition, read by the post-park
  // probe, which may race a newer owner's write -- benign, see run_task.
  std::atomic<std::uint64_t> park_summary{0};
};

}  // namespace pool_detail

namespace {

// Per-thread shard attribution: worker_loop pins these for pool workers;
// any other thread (submit kicks, stream-port hooks) falls back to the
// pool's shared external shard. Pool identity is checked so a worker of
// pool A calling into pool B (never happens today, but cheap to guard)
// does not write through a foreign shard pointer.
thread_local const void* tls_pool = nullptr;
thread_local obs::WorkerCounters* tls_shard = nullptr;
thread_local void* tls_worker = nullptr;  // PoolExecutor::Worker*

// Schedule-perturbation hook (harness sched=steal-heavy / park-storm): an
// injected yield point that fires with probability p/256, forcing the
// adversarial interleavings a free-running pool rarely explores. The PRNG
// is the worker's own, so a fixed Options::seed reproduces the same
// decision sequence for a given interleaving.
inline void maybe_perturb(std::uint32_t p, sdaf::Prng& rng) {
  if (p != 0 && rng.next_below(256) < p) std::this_thread::yield();
}

}  // namespace

using pool_detail::kIdle;
using pool_detail::kQueued;
using pool_detail::kRunning;
using pool_detail::kRunningNotified;
using pool_detail::NodeTask;

// One worker's scheduling state. Only the owning worker touches the deque
// bottom, the PRNG, pending_wakes and the quiescence credits; the hot slot
// and the deque top are shared with thieves.
struct PoolExecutor::Worker {
  Worker(std::size_t deque_capacity, std::uint64_t seed)
      : deque(deque_capacity), rng(seed) {}

  StealDeque deque;
  // LIFO slot for the freshest wake-up: the task most likely to have its
  // channel data still in this worker's cache. Any thread takes it with an
  // exchange, so a task here is never stranded -- thieves probe it too.
  alignas(64) std::atomic<NodeTask*> hot{nullptr};
  // Owner-only fields start on their own cache line, so thieves exchanging
  // `hot` never invalidate them.
  alignas(64) Prng rng;
  std::size_t pending_wakes = 0;  // pushes since the last flush
  // Quiescence credits: parks of credit_instance's tasks whose `active`
  // decrement this worker still holds (see Instance::active). A wake of
  // that instance spends one instead of incrementing; flush_credits
  // returns the rest with a single RMW.
  Instance* credit_instance = nullptr;
  std::int64_t credits = 0;
};

// One submitted graph execution: channels, node state machines, tasks, and
// the exact-quiescence bookkeeping. Lives until wait() collects the result.
struct PoolExecutor::Instance final : Waker {
  PoolExecutor* executor = nullptr;
  std::vector<std::shared_ptr<Kernel>> kernels;
  std::optional<Wiring> wiring;  // wakes route through this Instance
  std::vector<NodeTask> tasks;
  // submit()'s scratch: the tasks runnable at the kick.
  std::vector<NodeTask*> runnable;
  Stopwatch clock;
  // The submitting tenant's injector ledger row.
  std::size_t tenant_row = 0;

  // Queued + running tasks of this instance, plus the credits workers hold
  // for it. A task counts from its kIdle->kQueued CAS until its park
  // decrement, wherever it sits -- a hot slot, any deque, the injector, or
  // a thief's hands between the winning steal CAS and run_task -- so a
  // steal in flight is still pending work. The park
  // decrement is deferred: the parking worker keeps it as a credit, spends
  // it on its next wake of this instance (instead of an increment), and
  // returns what is left with one fetch_sub when it switches to another
  // instance's task or finds no task at all. So
  //   active = queued + running + credits held,
  // which is never below the true queued + running count (no false
  // verdict), and every credit comes back once its holder goes idle or
  // moves on (a quiescent instance always reaches 0). Wake-ups only
  // originate from tasks of the same instance (or, for live ports, from
  // the stream hooks, which always follow the channel transition they
  // report), so 0 here means quiescence: no node of this instance can
  // progress until a port supplies more work -- and with no open ports
  // that verdict is final: either all nodes finished (completed) or some
  // cannot (deadlock), exactly. A task waiting in the injector behind
  // co-tenants' tasks keeps `active` nonzero, so quiescence stays exact
  // per instance (docs/SCHEDULER.md).
  std::atomic<std::int64_t> active{0};

  // Live-port bookkeeping (exec::Stream submissions; null `ports` = a batch
  // run on pre-closed token feeds). `open_ports` counts input ports whose
  // EOS has not been pushed yet.
  // finalize() is gated on open_ports == 0 *and* every feed drained: the
  // close protocol is push-EOS, then decrement, then wake, so whenever a
  // quiescent observer reads open_ports == 0, the EOS that closed the last
  // port is already visible -- it either still sits in the feed (then the
  // close's wake re-activates the instance) or was consumed (then the feed
  // is empty and the nodes took the flood as far as it goes).
  const exec::PortBinding* ports = nullptr;
  std::atomic<std::int64_t> open_ports{0};
  // Serializes caller-side port wakes against the final verdict: a stream
  // hook either schedules before maybe_finalize takes the lock (then
  // `active` is nonzero and the verdict attempt aborts) or after `dead` is
  // set (then the wake is dropped -- by then it is provably spurious). Only
  // port-transition edges take it, never the data fast path.
  std::mutex port_mu;
  std::atomic<bool> dead{false};
  // Workers inside the quiescence-decrement + maybe_finalize window. With
  // live ports `active` can reach zero many times, so a *stale* verdict
  // attempt may still be parked on port_mu when the real finalize lets the
  // caller collect -- wait() spins this count to zero before handing the
  // instance to its destroyer.
  std::atomic<std::int64_t> verdict_guests{0};

  std::mutex mu;
  std::condition_variable cv;
  bool finished = false;
  bool collected = false;
  exec::RunReport result;

  void wake(NodeId node) override {
    executor->schedule(&tasks[node]);
  }

  // Back to the state of a freshly built batch instance, keeping the
  // wiring and the tasks for the next submit of the same shape (which
  // reset()s the wiring): the kernel references are dropped, the result
  // and the verdict flags cleared, and every task reads "never ran"
  // (kIdle, park summary 0). Only after wait() collected the run: the
  // instance is quiescent, so no worker touches it.
  void retire() {
    kernels.clear();
    for (NodeTask& task : tasks) {
      SDAF_ASSERT(task.sched.load(std::memory_order_relaxed) == kIdle);
      task.park_summary.store(0, std::memory_order_relaxed);
    }
    SDAF_ASSERT(active.load(std::memory_order_relaxed) == 0);
    finished = false;
    collected = false;
    result = exec::RunReport{};
  }
};

PoolExecutor::PoolExecutor(const Options& options) : options_(options) {
  std::size_t n = options_.workers;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  options_.workers = n;
  if (options_.max_steps_per_quantum == 0) options_.max_steps_per_quantum = 1;
  if (options_.deque_capacity < 2) options_.deque_capacity = 2;
  // Sized before the workers spawn and never resized: one shard per worker
  // plus a trailing shard for non-worker threads.
  worker_shards_ = std::vector<obs::WorkerCounters>(n + 1);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Odd-multiplier mix so seed 0 still decorrelates the workers.
    std::uint64_t s = options_.seed + 0x9E3779B97F4A7C15ULL * (i + 1);
    workers_.push_back(std::make_unique<Worker>(options_.deque_capacity,
                                                splitmix64(s)));
  }
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

PoolExecutor::~PoolExecutor() {
  // Drain: every instance reaches `finished` on its own (deadlocks are
  // detected exactly, so no instance can hang), then stop the pool.
  for (;;) {
    std::shared_ptr<Instance> pending;
    {
      std::lock_guard lock(instances_mu_);
      for (auto& [id, inst] : instances_) {
        std::lock_guard ilock(inst->mu);
        if (!inst->finished) {
          pending = inst;
          break;
        }
      }
    }
    if (pending == nullptr) break;
    std::unique_lock ilock(pending->mu);
    pending->cv.wait(ilock, [&] { return pending->finished; });
  }
  stop_.store(true, std::memory_order_release);
  // Unconditional bump: the epoch moves off every captured value before the
  // wake, so a worker between its re-scan and its park falls through.
  work_event_.bump();
  for (auto& t : threads_) t.join();
}

PoolExecutor::TicketId PoolExecutor::submit(
    const StreamGraph& g, std::vector<std::shared_ptr<Kernel>> kernels,
    const exec::RunSpec& options) {
  // A batch run takes the retired instance and rewinds it if it has the
  // graph's shape; a stream (port) run, or a batch run with none that
  // fits, builds a new one.
  std::shared_ptr<Instance> instance;
  if (options.ports == nullptr) {
    std::lock_guard lock(instances_mu_);
    instance = std::move(retired_);
  }
  // Outside the lock: a retired instance that does not fit is freed here.
  if (instance != nullptr && !instance->wiring->fits(g)) instance.reset();
  if (instance != nullptr) {
    instance->kernels = std::move(kernels);
    instance->wiring->reset(g, instance->kernels, options, *instance);
  } else {
    instances_built_.fetch_add(1, std::memory_order_relaxed);
    instance = std::make_shared<Instance>();
    instance->executor = this;
    instance->kernels = std::move(kernels);
    instance->wiring.emplace(g, instance->kernels, options, *instance);
    instance->tasks = std::vector<NodeTask>(g.node_count());
    for (NodeId n = 0; n < g.node_count(); ++n) {
      instance->tasks[n].instance = instance.get();
      instance->tasks[n].node = &instance->wiring->node(n);
    }
  }
  instance->ports = options.ports;
  if (instance->ports != nullptr)
    instance->open_ports.store(
        static_cast<std::int64_t>(options.ports->feeds.size()));
  instance->tenant_row = intern_tenant(options.tenant);

  TicketId ticket;
  {
    std::lock_guard lock(instances_mu_);
    ticket = next_ticket_++;
    instances_.emplace(ticket, instance);
  }
  instance->clock.reset();
  // Kick only the nodes that can run (every input, or the feed, holds a
  // message). Any other node is left as a kick would leave it: parked on
  // its inputs (park summary 0 == kParkInputs), outside `active`, woken by
  // the push that fills its empty input -- so quiescence is unchanged
  // (docs/SCHEDULER.md). Collected before the first schedule(), so the
  // workers it wakes do not preempt the probes.
  instance->runnable.clear();
  for (NodeTask& task : instance->tasks)
    if (task.node->probe(kParkInputs << kParkTagShift))
      instance->runnable.push_back(&task);
  // Guard against quiescence being declared mid-kick (a fast subgraph could
  // otherwise drain to zero before every node is scheduled): hold one
  // synthetic active task for the duration of submission.
  instance->active.store(1);
  for (NodeTask* task : instance->runnable) schedule(task);
  instance->verdict_guests.fetch_add(1, std::memory_order_acq_rel);
  if (instance->active.fetch_sub(1) == 1) maybe_finalize(*instance);
  instance->verdict_guests.fetch_sub(1, std::memory_order_release);
  return ticket;
}

void PoolExecutor::enqueue_local(Worker& w, NodeTask* task) {
  if (options_.lifo_slot) {
    // The fresh wake takes the hot slot; its previous occupant ages into
    // the deque where peers can steal it from the FIFO end.
    NodeTask* displaced = w.hot.exchange(task, std::memory_order_acq_rel);
    if (displaced != nullptr) w.deque.push_bottom(displaced);
  } else {
    w.deque.push_bottom(task);
  }
  // The wake is deferred: one flush per drain (after run_task) publishes
  // the whole batch with a single fence + epoch bump instead of a fence
  // per channel push. Liveness holds because a worker's own pre-park
  // re-scan covers every deque -- see worker_loop.
  ++w.pending_wakes;
}

std::size_t PoolExecutor::intern_tenant(const std::string& tenant) {
  std::lock_guard lock(injector_mu_);
  const auto [it, inserted] = ledger_ids_.emplace(tenant, ledger_.size());
  if (inserted) ledger_.push_back(TenantLedger{tenant});
  return it->second;
}

void PoolExecutor::enqueue_injector(NodeTask* task) {
  {
    std::lock_guard lock(injector_mu_);
    injector_.push_back(task);
    TenantLedger& row = ledger_[task->instance->tenant_row];
    ++row.enqueued;
    row.depth_max = std::max(row.depth_max, row.enqueued - row.dequeued);
    injector_size_.store(injector_.size(), std::memory_order_relaxed);
  }
  // External enqueues flush immediately: nothing amortizes a caller that
  // may go quiet (a stream pusher, a submit kick).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  wake_idle_worker();
}

void PoolExecutor::flush_wakes(Worker& w) {
  if (w.pending_wakes == 0) return;
  w.pending_wakes = 0;
  // Pairs with a parking worker's seq_cst registration: either this read
  // sees the sleeper (and the epoch bump unparks it), or the sleeper's
  // post-registration re-scan sees our deque pushes. Never both miss.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  wake_idle_worker();
}

void PoolExecutor::wake_idle_worker() {
  if (work_event_.claim_wake()) obs::bump(current_shard().futex_wakes);
}

NodeTask* PoolExecutor::pop_injector() {
  if (injector_size_.load(std::memory_order_acquire) == 0) return nullptr;
  std::lock_guard lock(injector_mu_);
  if (injector_.empty()) return nullptr;
  NodeTask* task = injector_.front();
  injector_.pop_front();
  ++ledger_[task->instance->tenant_row].dequeued;
  injector_size_.store(injector_.size(), std::memory_order_relaxed);
  return task;
}

NodeTask* PoolExecutor::find_task(Worker& w, bool* contended) {
  *contended = false;
  // 1. Own hot slot: the freshest wake, hottest cache.
  if (w.hot.load(std::memory_order_relaxed) != nullptr)
    if (NodeTask* task = w.hot.exchange(nullptr, std::memory_order_acquire))
      return task;
  // 2. Own deque: LIFO bottom normally; in fifo mode (lifo_slot off) take
  // the FIFO end via self-steal so arrival order is preserved.
  if (options_.lifo_slot) {
    if (auto* task = static_cast<NodeTask*>(w.deque.pop_bottom())) return task;
  } else {
    for (;;) {
      void* out = nullptr;
      const auto r = w.deque.steal(&out);
      if (r == StealDeque::StealResult::Ok)
        return static_cast<NodeTask*>(out);
      if (r == StealDeque::StealResult::Empty) break;
      // Contended self-steal: a thief holds the race; retry, it is our own
      // non-empty deque.
    }
  }
  // 3. Shared injector (external wakes, quantum-yielded tasks).
  if (NodeTask* task = pop_injector()) return task;
  // 4. Randomized steal sweep: probe every peer once, starting at a
  // PRNG-chosen victim so simultaneous thieves fan out instead of piling
  // onto worker 0.
  const std::size_t n = workers_.size();
  if (n <= 1) return nullptr;
  obs::WorkerCounters& shard = current_shard();
  const std::size_t start = static_cast<std::size_t>(w.rng.next_below(n));
  for (std::size_t k = 0; k < n; ++k) {
    Worker& victim = *workers_[(start + k) % n];
    if (&victim == &w) continue;
    maybe_perturb(options_.perturb_yield_in_256, w.rng);
    // Hot slots are stealable too (exchange), so a wake parked there while
    // its owner crunches a long quantum is never stranded. Probe with a
    // load first: the exchange dirties the victim's cache line.
    if (victim.hot.load(std::memory_order_relaxed) != nullptr) {
      if (NodeTask* task =
              victim.hot.exchange(nullptr, std::memory_order_acquire)) {
        obs::bump(shard.steals);
        return task;
      }
    }
    void* out = nullptr;
    switch (victim.deque.steal(&out)) {
      case StealDeque::StealResult::Ok:
        obs::bump(shard.steals);
        return static_cast<NodeTask*>(out);
      case StealDeque::StealResult::Contended:
        // Lost the top CAS: work exists (someone else got it, more may
        // remain). The caller treats this as a work signal and must not
        // park off this sweep.
        *contended = true;
        obs::bump(shard.steal_fails);
        break;
      case StealDeque::StealResult::Empty:
        obs::bump(shard.steal_fails);
        break;
    }
  }
  return nullptr;
}

void PoolExecutor::schedule(NodeTask* task) {
  std::uint32_t s = task->sched.load();
  for (;;) {
    switch (s) {
      case kIdle:
        if (task->sched.compare_exchange_weak(s, kQueued)) {
          // A wake is counted only when it actually transitions a parked
          // task to runnable; notifications folded into a running task are
          // re-runs, not wakes. The external shard (non-worker callers) is
          // multi-writer, so a rare lost increment there is tolerated --
          // these are scheduling diagnostics, not exactness-checked counts.
          obs::bump(current_shard().wakes);
          if (tls_pool == this) {
            // A worker of this pool pays for the wake with a park credit
            // of the same instance when it holds one.
            auto& w = *static_cast<Worker*>(tls_worker);
            if (w.credit_instance == task->instance && w.credits > 0)
              --w.credits;
            else
              task->instance->active.fetch_add(1);
            enqueue_local(w, task);
          } else {
            task->instance->active.fetch_add(1);
            enqueue_injector(task);
          }
          return;
        }
        break;
      case kRunning:
        if (task->sched.compare_exchange_weak(s, kRunningNotified)) return;
        break;
      default:  // kQueued, kRunningNotified: already accounted for
        return;
    }
  }
}

void PoolExecutor::flush_credits(Worker& w) {
  if (w.credits == 0) return;
  Instance& instance = *w.credit_instance;
  const std::int64_t n = w.credits;
  w.credits = 0;
  // If these were the last, the instance is quiescent and its verdict is
  // exact. The guest count pins the instance across the window (see
  // Instance::verdict_guests).
  instance.verdict_guests.fetch_add(1, std::memory_order_acq_rel);
  if (instance.active.fetch_sub(n) == n) maybe_finalize(instance);
  instance.verdict_guests.fetch_sub(1, std::memory_order_release);
}

void PoolExecutor::run_task(Worker& w, NodeTask* task) {
  NodeState& node = *task->node;
  obs::WorkerCounters& shard = current_shard();
  obs::bump(shard.task_runs);
  shard.sample_depth(
      w.deque.approx_size() +
      (w.hot.load(std::memory_order_relaxed) != nullptr ? 1 : 0));
  // Credits are held for one instance at a time: switching instances
  // returns the old one's, so a co-tenant keeping this worker busy cannot
  // hold back another instance's verdict.
  if (w.credit_instance != task->instance) {
    flush_credits(w);
    w.credit_instance = task->instance;
  }
  // An RMW, not a blind store: acquire-reading the enqueuer's kQueued write
  // orders this runner after the previous runner through the sched word
  // itself (park CAS -> wake CAS -> this exchange), independent of which
  // container delivered the task.
  const std::uint32_t pre = task->sched.exchange(kRunning);
  SDAF_ASSERT(pre == kQueued);
  for (;;) {
    std::size_t steps = 0;
    while (node.step()) {
      maybe_perturb(options_.perturb_yield_in_256, w.rng);
      if (++steps >= options_.max_steps_per_quantum) {
        // Yield for fairness; the task stays accounted as active. It goes
        // to the shared FIFO, not our own LIFO end, so co-tenant tasks in
        // this deque get the worker first and idle peers can take it. A
        // notification folded in while running is subsumed by re-queuing.
        task->sched.exchange(kQueued);
        enqueue_injector(task);
        return;
      }
    }
    // Publish why we are about to park while still the owner (reading
    // NodeState private fields is only safe for the owner).
    task->park_summary.store(node.park_summary(), std::memory_order_release);
    std::uint32_t expected = kRunning;
    if (!task->sched.compare_exchange_strong(expected, kIdle)) {
      // kRunningNotified: a wake arrived while stepping; consume and rerun.
      task->sched.store(kRunning);
      continue;
    }
    obs::bump(shard.parks);
    // Parked. Dekker-style recheck against a wake that raced our last
    // unproductive step: probe only the channels named by the summary (no
    // NodeState access -- a new owner may already be stepping it). If the
    // node can progress, try to reclaim it; if the reclaim CAS fails, a
    // concurrent wake has already queued it and responsibility moved on.
    // A newer owner overwriting park_summary is benign for the same
    // reason: its own park runs this protocol again.
    // Quiescence stays exact with the lock-free SPSC channels: the park
    // CAS above is a seq_cst RMW, and every channel peer issues a seq_cst
    // fence between publishing its pushed/popped counter and checking
    // whether to wake us -- so either the peer saw the transition and
    // re-queues this task (keeping `active` nonzero), or this probe sees
    // the peer's counter and reclaims. No third outcome exists, so when
    // `active` hits zero no wake can be in flight. The explicit fence
    // completes the pairing: the park CAS's seq_cst RMW alone does not
    // order the probe's acquire loads under the standard's fence rules.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (node.probe(task->park_summary.load(std::memory_order_acquire))) {
      expected = kIdle;
      if (task->sched.compare_exchange_strong(expected, kRunning)) continue;
    }
    break;
  }
  // This task is no longer queued or running: keep its `active` decrement
  // as a credit (returned by flush_credits).
  ++w.credits;
}

void PoolExecutor::maybe_finalize(Instance& instance) {
  if (instance.ports == nullptr) {
    finalize(instance);
    return;
  }
  // Extended quiescence rule for live ports: the verdict is final only when
  // the instance is quiescent *and* no port can still supply work:
  //   - an open input port means the caller may push or close later;
  //   - a non-empty feed still holds the EOS whose close-wake is in flight;
  //   - a sink parked on its egress slot resumes when the caller drains the
  //     tap (or its pop-wake is already in flight).
  // In each of those cases the instance idles -- quiescence is "awaiting
  // the caller", not a verdict -- and the corresponding port wake
  // re-activates it. Otherwise all nodes either finished (completed) or
  // are wedged on graph channels alone (deadlock), exactly as in the
  // closed-world rule. port_mu freezes the instance for the decision: any
  // concurrent stream hook either scheduled first (then `active` is
  // nonzero below) or waits and observes `dead`.
  std::lock_guard plock(instance.port_mu);
  if (instance.dead.load(std::memory_order_relaxed)) return;
  if (instance.active.load(std::memory_order_acquire) != 0) return;
  if (!instance.wiring->all_done()) {
    if (instance.open_ports.load(std::memory_order_acquire) > 0) return;
    for (std::size_t i = 0; i < instance.ports->feeds.size(); ++i) {
      // A pending feed item (the closing EOS included) only defers the
      // verdict if its source could actually consume it -- i.e. it parked
      // waiting on input, in which case the close/push wake that follows
      // every feed transition re-activates the instance. A source parked
      // on full *outputs* can never drain its feed: those items are part
      // of the wedge, exactly like a batch source's ungenerated remainder.
      if (instance.ports->feeds[i]->empty()) continue;
      const NodeId n = instance.ports->source_nodes[i];
      if (instance.wiring->node(n).done()) continue;
      const std::uint64_t summary = instance.tasks[n].park_summary.load(
          std::memory_order_acquire);
      if ((summary >> kParkTagShift) == kParkInputs) return;
    }
    for (std::size_t i = 0; i < instance.ports->sink_nodes.size(); ++i) {
      if (instance.ports->egress[i] == nullptr) continue;
      const NodeId n = instance.ports->sink_nodes[i];
      if (instance.wiring->node(n).done()) continue;
      const std::uint64_t summary = instance.tasks[n].park_summary.load(
          std::memory_order_acquire);
      if ((summary >> kParkTagShift) != kParkOutputs) continue;
      // Taps attach only to out-degree-0 sinks, so the tap is the node's
      // sole out-slot: parked-on-outputs means parked on the tap.
      return;
    }
  }
  instance.dead.store(true, std::memory_order_release);
  finalize(instance);
}

void PoolExecutor::finalize(Instance& instance) {
  exec::RunReport result;
  result.backend = exec::Backend::Pooled;
  result.completed = instance.wiring->all_done();
  result.deadlocked = !result.completed;
  result.wall_seconds = instance.clock.elapsed_seconds();
  instance.wiring->report(result);
  // Quiescence means no task of this instance is queued or running, so
  // node and channel state is stable: dump channel occupancies and each
  // unfinished node's park summary for diagnosis.
  if (result.deadlocked)
    result.state_dump = instance.wiring->dump_wedged_state();
  if (instance.ports != nullptr && result.deadlocked) {
    // Release callers parked on the ports: a pusher blocked on a full feed
    // and a poller blocked on an empty tap both unwind on abort (remaining
    // tap contents stay drainable).
    for (BoundedChannel* feed : instance.ports->feeds) feed->abort();
    for (BoundedChannel* egress : instance.ports->egress)
      if (egress != nullptr) egress->abort();
  }
  {
    std::lock_guard lock(instance.mu);
    instance.result = std::move(result);
    instance.finished = true;
    // Notify while holding the lock: the waiter in wait() may destroy the
    // Instance the moment it observes `finished`, so the condition variable
    // must not be touched after the mutex is released.
    instance.cv.notify_all();
  }
}

void PoolExecutor::worker_loop(std::size_t worker_index) {
  tls_pool = this;
  tls_shard = &worker_shards_[worker_index];
  Worker& w = *workers_[worker_index];
  tls_worker = &w;
  obs::WorkerCounters& shard = *tls_shard;
  bool parked = false;  // back from a futex park, no task found since
  for (;;) {
    bool contended = false;
    if (NodeTask* task = find_task(w, &contended)) {
      // Chain wake: with one claimed wake in flight at a time, a worker
      // woken into a burst passes it on, so the burst fans out.
      if (parked) {
        parked = false;
        wake_idle_worker();
      }
      run_task(w, task);
      // The amortized wake point: one epoch bump covers every push this
      // drain produced.
      flush_wakes(w);
      continue;
    }
    // No task: return every held credit before yielding or parking, so an
    // idle worker never sits on an instance's quiescence.
    flush_credits(w);
    if (stop_.load(std::memory_order_acquire)) return;
    if (contended) {
      // A steal lost its race: work exists, re-sweep instead of parking
      // (yield first -- on few cores the winner needs the CPU to finish).
      std::this_thread::yield();
      continue;
    }
    // Idle. Futex-park on the work epoch: capture -> register (seq_cst
    // RMW) -> full re-scan -> park on the captured epoch. Any publisher
    // either sees our registration after its fence (and bumps the epoch,
    // so the park falls through or wakes) or published before our re-scan
    // (and the re-scan finds its task). "Never falsely empty for a parked
    // peer" -- see docs/SCHEDULER.md.
    const std::uint32_t epoch = work_event_.capture();
    work_event_.register_waiter();
    std::atomic_thread_fence(std::memory_order_seq_cst);
    NodeTask* task = find_task(w, &contended);
    if (task == nullptr && !contended &&
        !stop_.load(std::memory_order_acquire)) {
      obs::bump(shard.futex_parks);
      // The timeout is insurance only (the flush handshake makes wakes
      // reliable); keep it long enough that idle pools cost ~nothing.
      ParkingLot::park_for(work_event_.version, epoch,
                           std::chrono::milliseconds(50));
      parked = true;
    }
    // Orders unregister's claim clear before the next re-scan.
    work_event_.unregister_waiter();
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (task != nullptr) {
      run_task(w, task);
      flush_wakes(w);
    }
  }
}

obs::WorkerCounters& PoolExecutor::current_shard() {
  if (tls_pool == this) return *tls_shard;
  return worker_shards_.back();
}

std::vector<obs::WorkerMetrics> PoolExecutor::worker_metrics() const {
  std::vector<obs::WorkerMetrics> out;
  out.reserve(worker_shards_.size());
  for (std::size_t i = 0; i < worker_shards_.size(); ++i)
    out.push_back(obs::read_worker(worker_shards_[i], i));
  return out;
}

std::vector<obs::TenantSchedMetrics> PoolExecutor::tenant_metrics() const {
  std::lock_guard lock(injector_mu_);
  std::vector<obs::TenantSchedMetrics> out;
  out.reserve(ledger_.size());
  for (const TenantLedger& row : ledger_)
    out.push_back({row.tenant, row.enqueued, row.dequeued,
                   row.enqueued - row.dequeued, row.depth_max});
  return out;
}

exec::RunReport PoolExecutor::wait(TicketId ticket) {
  std::shared_ptr<Instance> instance;
  {
    std::lock_guard lock(instances_mu_);
    auto it = instances_.find(ticket);
    SDAF_EXPECTS(it != instances_.end());
    instance = it->second;
  }
  exec::RunReport result;
  {
    std::unique_lock lock(instance->mu);
    instance->cv.wait(lock, [&] { return instance->finished; });
    SDAF_EXPECTS(!instance->collected);
    instance->collected = true;
    result = std::move(instance->result);
  }
  // Do not hand the instance to its destroyer while a stale verdict
  // attempt is still inside the decrement/maybe_finalize window.
  while (instance->verdict_guests.load(std::memory_order_acquire) != 0)
    std::this_thread::yield();
  {
    std::lock_guard lock(instances_mu_);
    instances_.erase(ticket);
  }
  // A batch instance, now reachable from this thread alone, is retired for
  // the next batch submit; it replaces the one retired before (freed
  // outside the lock). A stream instance may still be pinned by its
  // StreamHandle, so it is freed with its last reference, as before.
  if (instance->ports == nullptr) {
    instance->retire();
    std::shared_ptr<Instance> replaced;
    std::lock_guard lock(instances_mu_);
    replaced = std::exchange(retired_, std::move(instance));
  }
  return result;
}

exec::RunReport PoolExecutor::run(
    const StreamGraph& g, std::vector<std::shared_ptr<Kernel>> kernels,
    const exec::RunSpec& options) {
  return wait(submit(g, std::move(kernels), options));
}

PoolExecutor::StreamHandle PoolExecutor::stream_handle(TicketId ticket) {
  std::lock_guard lock(instances_mu_);
  auto it = instances_.find(ticket);
  SDAF_EXPECTS(it != instances_.end());
  SDAF_EXPECTS(it->second->ports != nullptr);
  return it->second;
}

void PoolExecutor::stream_wake(const StreamHandle& handle, NodeId node) {
  auto* instance = static_cast<Instance*>(handle.get());
  std::lock_guard lock(instance->port_mu);
  if (instance->dead.load(std::memory_order_relaxed)) return;
  instance->executor->schedule(&instance->tasks[node]);
}

void PoolExecutor::stream_port_closed(const StreamHandle& handle) {
  auto* instance = static_cast<Instance*>(handle.get());
  std::lock_guard lock(instance->port_mu);
  instance->open_ports.fetch_sub(1, std::memory_order_acq_rel);
}

ckpt::EdgeCut PoolExecutor::stream_edge_cut(const StreamHandle& handle,
                                            EdgeId e,
                                            bool producer_checkpointed) {
  return static_cast<Instance*>(handle.get())
      ->wiring->edge_cut(e, producer_checkpointed);
}

}  // namespace sdaf::runtime
