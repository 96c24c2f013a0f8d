// Kernel: the user-supplied computation at a node. The wrapper machinery
// (sequence-number alignment, dummy emission and propagation) is entirely
// outside the kernel, exactly as the paper prescribes: "either algorithm
// can be implemented as a wrapper around each computational node ... with
// no participation by the application programmer".
//
// Firing contract: fire(seq, inputs, emitter) is called once per accepted
// sequence number. inputs[j] corresponds to in-edge slot j; an empty
// optional means the producer filtered this sequence number with respect to
// that channel (or a dummy stood in for it). Source nodes are fired with an
// empty input vector for each generated sequence number. Emitting on a
// subset of output slots *is* filtering.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/runtime/message.h"

namespace sdaf::runtime {

class Emitter {
 public:
  explicit Emitter(std::size_t out_slots) : values_(out_slots) {}

  void emit(std::size_t slot, Value v);

  [[nodiscard]] std::size_t slots() const { return values_.size(); }
  [[nodiscard]] const std::optional<Value>& value(std::size_t slot) const;
  // Moves the slot's value out (leaving it empty), so NodeState can
  // build the outgoing message without copying the payload. Precondition:
  // value(slot).has_value().
  [[nodiscard]] Value take(std::size_t slot);
  void reset();

 private:
  std::vector<std::optional<Value>> values_;
};

class Kernel {
 public:
  virtual ~Kernel() = default;
  virtual void fire(std::uint64_t seq,
                    const std::vector<std::optional<Value>>& inputs,
                    Emitter& out) = 0;

  // Checkpoint hooks (ckpt): a stateful kernel serializes its state into an
  // opaque byte blob at a snapshot barrier and rehydrates from it on
  // restore. The default no-ops declare the kernel stateless, which is what
  // every built-in kernel is -- its firings are a pure function of
  // (seq, inputs). save_state is called at a consistent cut (never
  // concurrently with fire); load_state before the first post-restore fire.
  virtual void save_state(std::string& out) const { (void)out; }
  virtual void load_state(const std::string& in) { (void)in; }
};

// Kernel from a lambda.
class LambdaKernel final : public Kernel {
 public:
  using Fn = std::function<void(std::uint64_t,
                                const std::vector<std::optional<Value>>&,
                                Emitter&)>;
  explicit LambdaKernel(Fn fn) : fn_(std::move(fn)) {}
  void fire(std::uint64_t seq,
            const std::vector<std::optional<Value>>& inputs,
            Emitter& out) override {
    fn_(seq, inputs, out);
  }

 private:
  Fn fn_;
};

// Forwards the first present input (or, for sources, a fresh value carrying
// the sequence number) to every output slot the predicate admits. The
// predicate *is* the filtering behaviour: pass(seq, slot) == false filters
// the item with respect to that channel.
class RelayKernel final : public Kernel {
 public:
  using FilterFn = std::function<bool(std::uint64_t seq, std::size_t slot)>;
  explicit RelayKernel(FilterFn pass) : pass_(std::move(pass)) {}
  void fire(std::uint64_t seq,
            const std::vector<std::optional<Value>>& inputs,
            Emitter& out) override;

 private:
  FilterFn pass_;
};

// A relay that additionally burns `spin_iterations` of arithmetic per
// firing; used by the throughput benchmarks to model real per-item work.
class WorkKernel final : public Kernel {
 public:
  WorkKernel(std::uint64_t spin_iterations, RelayKernel::FilterFn pass)
      : spin_(spin_iterations), pass_(std::move(pass)) {}
  void fire(std::uint64_t seq,
            const std::vector<std::optional<Value>>& inputs,
            Emitter& out) override;

 private:
  std::uint64_t spin_;
  RelayKernel::FilterFn pass_;
};

[[nodiscard]] std::shared_ptr<Kernel> pass_through_kernel();

}  // namespace sdaf::runtime
