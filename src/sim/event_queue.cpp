#include "sim/event_queue.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace hbp::sim {

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNoFree) {
    const std::uint32_t idx = free_head_;
    free_head_ = slots_[idx].next_free;
    return idx;
  }
  HBP_ASSERT_MSG(slots_.size() < kNoFree, "event slab exhausted");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::push(SimTime at, Event fn, const char* label) {
  const std::uint32_t idx = acquire_slot();
  Slot& slot = slots_[idx];
  slot.fn = std::move(fn);
  slot.label = label;

  heap_.push_back(Item{at.nanos(), next_seq_++, idx});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

SimTime EventQueue::next_time() const {
  HBP_ASSERT_MSG(!empty(), "next_time() on empty queue");
  return SimTime(heap_.front().at_ns);
}

EventQueue::PoppedEvent EventQueue::pop() {
  HBP_ASSERT_MSG(!empty(), "pop() on empty queue");
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Item it = heap_.back();
  heap_.pop_back();
  // Moving the closure out leaves the slot empty, ready for reuse.
  Slot& s = slots_[it.slot];
  PoppedEvent out{SimTime(it.at_ns), std::move(s.fn), s.label};
  s.next_free = free_head_;
  free_head_ = it.slot;
  return out;
}

}  // namespace hbp::sim
