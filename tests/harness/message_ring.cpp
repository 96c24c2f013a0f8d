#include "tests/harness/message_ring.h"

#include <algorithm>

#include "src/support/contracts.h"

namespace sdaf::harness {

using runtime::MessageKind;

MessageRing::MessageRing(std::size_t capacity)
    : capacity_(capacity), segs_(capacity + 1) {
  SDAF_EXPECTS(capacity >= 1);
}

HeadView MessageRing::head() const {
  SDAF_EXPECTS(!empty());
  const Segment& s = segs_[head_];
  return HeadView{s.msg.seq, s.msg.kind, s.run};
}

Message MessageRing::head_message() const {
  SDAF_EXPECTS(!empty());
  const Segment& s = segs_[head_];
  return s.run > 1 ? Message::dummy(s.msg.seq) : s.msg;
}

Message MessageRing::tail_message() const {
  SDAF_EXPECTS(!empty());
  const Segment& s = tail();
  return s.run > 1 ? Message::dummy(s.msg.seq + s.run - 1) : s.msg;
}

void MessageRing::push(Message m) {
  SDAF_EXPECTS(!full());
  if (m.kind == MessageKind::Dummy && nsegs_ > 0) {
    Segment& t = tail();
    if (t.msg.kind == MessageKind::Dummy && t.msg.seq + t.run == m.seq) {
      ++t.run;
      ++size_;
      return;
    }
  }
  Segment& s = segs_[wrap(head_ + nsegs_)];
  s.msg = std::move(m);
  s.run = 1;
  ++nsegs_;
  ++size_;
}

std::size_t MessageRing::push_dummies(std::uint64_t first_seq,
                                      std::size_t count) {
  const std::size_t accepted = std::min(count, free_space());
  if (accepted == 0) return 0;
  if (nsegs_ > 0) {
    Segment& t = tail();
    if (t.msg.kind == MessageKind::Dummy && t.msg.seq + t.run == first_seq) {
      t.run += static_cast<std::uint32_t>(accepted);
      size_ += accepted;
      return accepted;
    }
  }
  Segment& s = segs_[wrap(head_ + nsegs_)];
  s.msg = Message::dummy(first_seq);
  s.run = static_cast<std::uint32_t>(accepted);
  ++nsegs_;
  size_ += accepted;
  return accepted;
}

bool MessageRing::push_marker(std::uint64_t seq) {
  if (nsegs_ >= capacity_ + 1) return false;
  Segment& s = segs_[wrap(head_ + nsegs_)];
  s.msg = Message::marker(seq);
  s.run = 1;
  ++nsegs_;
  ++markers_;
  return true;
}

void MessageRing::drop_head_segment() {
  segs_[head_].msg = Message{};  // release any payload eagerly
  segs_[head_].run = 1;
  head_ = wrap(head_ + 1);
  --nsegs_;
}

Message MessageRing::pop_head() {
  SDAF_EXPECTS(!empty());
  Segment& s = segs_[head_];
  if (s.msg.kind == MessageKind::Marker) {
    --markers_;  // occupancy-neutral: size_ never counted it
  } else {
    --size_;
  }
  if (s.run > 1) {
    Message m = Message::dummy(s.msg.seq);
    ++s.msg.seq;
    --s.run;
    return m;
  }
  Message m = std::move(s.msg);
  drop_head_segment();
  return m;
}

void MessageRing::pop() {
  SDAF_EXPECTS(!empty());
  Segment& s = segs_[head_];
  if (s.msg.kind == MessageKind::Marker) {
    --markers_;
  } else {
    --size_;
  }
  if (s.run > 1) {
    ++s.msg.seq;
    --s.run;
    return;
  }
  drop_head_segment();
}

std::size_t MessageRing::pop_dummies(std::size_t count) {
  if (empty() || count == 0) return 0;
  Segment& s = segs_[head_];
  if (s.msg.kind != MessageKind::Dummy) return 0;
  const std::size_t popped = std::min<std::size_t>(count, s.run);
  size_ -= popped;
  if (popped == s.run) {
    drop_head_segment();
  } else {
    s.msg.seq += popped;
    s.run -= static_cast<std::uint32_t>(popped);
  }
  return popped;
}

}  // namespace sdaf::harness
