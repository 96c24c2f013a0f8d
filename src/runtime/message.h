// Messages of the streaming model (Section II.A): every message carries a
// monotonically increasing sequence number; dummy messages are content-free
// and exist only to advance sequence-number knowledge downstream; EOS is an
// implementation-level flood that lets executions terminate cleanly (it
// behaves like a message with infinite sequence number and so never blocks
// alignment).
//
// The data plane moves millions of these, so Value stores payloads of up to
// two machine words inline (no heap for the ints/floats/small structs every
// bench and workload kernel uses) and Message is cheaply movable: a move is
// a couple of word copies plus nulling the source, never an allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <utility>

namespace sdaf::runtime {

namespace detail {

// Per-type vtable for Value's storage. Inline types are restricted to
// trivially-copyable so relocation is a memcpy; everything else lives on
// the heap behind one pointer.
struct ValueOps {
  const std::type_info& (*type)();
  // Heap types only (inline types are trivially destructible/copyable).
  void (*destroy)(void* heap);
  void* (*clone)(const void* heap);
  bool heap;
};

template <typename T>
inline constexpr bool kValueInline =
    sizeof(T) <= 2 * sizeof(void*) &&
    alignof(T) <= alignof(std::max_align_t) &&
    std::is_trivially_copyable_v<T>;

template <typename T>
const ValueOps* value_ops() {
  static const ValueOps ops = [] {
    ValueOps o;
    o.type = []() -> const std::type_info& { return typeid(T); };
    if constexpr (kValueInline<T>) {
      o.destroy = nullptr;
      o.clone = nullptr;
      o.heap = false;
    } else {
      o.destroy = [](void* p) { delete static_cast<T*>(p); };
      o.clone = [](const void* p) -> void* {
        return new T(*static_cast<const T*>(p));
      };
      o.heap = true;
    }
    return o;
  }();
  return &ops;
}

}  // namespace detail

// Type-erased payload with small-object storage: values of at most two
// machine words (and trivially copyable) are stored inline -- no heap
// traffic on the hot path. Larger or non-trivial types fall back to a
// single heap allocation. Moves never allocate.
class Value {
 public:
  Value() = default;

  template <typename T, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<T>, Value>>>
  explicit Value(T v) : ops_(detail::value_ops<T>()) {
    if constexpr (detail::kValueInline<T>) {
      ::new (static_cast<void*>(storage_.buf)) T(std::move(v));
    } else {
      storage_.ptr = new T(std::move(v));
    }
  }

  Value(const Value& other) : ops_(other.ops_) {
    if (ops_ == nullptr) return;
    if (ops_->heap) {
      storage_.ptr = ops_->clone(other.storage_.ptr);
    } else {
      std::memcpy(storage_.buf, other.storage_.buf, sizeof(storage_.buf));
    }
  }

  Value(Value&& other) noexcept : ops_(other.ops_), storage_(other.storage_) {
    other.ops_ = nullptr;
  }

  Value& operator=(const Value& other) {
    if (this != &other) *this = Value(other);
    return *this;
  }

  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      storage_ = other.storage_;
      other.ops_ = nullptr;
    }
    return *this;
  }

  ~Value() { reset(); }

  [[nodiscard]] bool has_value() const { return ops_ != nullptr; }

  template <typename T>
  [[nodiscard]] const T& as() const {
    if (ops_ == nullptr || ops_->type() != typeid(T)) throw std::bad_cast();
    if constexpr (detail::kValueInline<T>) {
      return *std::launder(
          reinterpret_cast<const T*>(static_cast<const void*>(storage_.buf)));
    } else {
      return *static_cast<const T*>(storage_.ptr);
    }
  }

 private:
  void reset() {
    if (ops_ != nullptr && ops_->heap) ops_->destroy(storage_.ptr);
    ops_ = nullptr;
  }

  union Storage {
    void* ptr;
    alignas(std::max_align_t) unsigned char buf[2 * sizeof(void*)];
  };

  const detail::ValueOps* ops_ = nullptr;
  Storage storage_{};
};

inline constexpr std::uint64_t kEosSeq =
    std::numeric_limits<std::uint64_t>::max();

enum class MessageKind : std::uint8_t { Data, Dummy, Eos, Marker };

struct Message {
  std::uint64_t seq = 0;
  MessageKind kind = MessageKind::Data;
  Value payload;

  static Message data(std::uint64_t seq, Value v) {
    return Message{seq, MessageKind::Data, std::move(v)};
  }
  static Message dummy(std::uint64_t seq) {
    return Message{seq, MessageKind::Dummy, {}};
  }
  static Message eos() { return Message{kEosSeq, MessageKind::Eos, {}}; }
  // Snapshot barrier marker (ckpt): carries the barrier sequence S with the
  // invariant that it precedes every message of seq >= S on its channel.
  // Markers are occupancy-neutral -- they never count against a channel's
  // certified logical capacity (see SpscRing).
  static Message marker(std::uint64_t seq) {
    return Message{seq, MessageKind::Marker, {}};
  }
};

// Payload-free view of a channel head, all alignment ever needs: the
// sequence number and kind, plus the length of the consecutive-sequence
// dummy run starting at the head (1 for data/EOS). Peeking a view never
// touches a payload.
struct HeadView {
  std::uint64_t seq = 0;
  MessageKind kind = MessageKind::Data;
  std::uint32_t run = 1;
};

[[nodiscard]] std::string to_string(const Message& m);

}  // namespace sdaf::runtime
