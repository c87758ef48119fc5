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
  HBP_ASSERT_MSG(slots_.size() < 0xffffffffu, "event slab exhausted");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.fn = Event();  // destroy the closure now, not when the record surfaces
  s.label = nullptr;
  s.occupied = false;
  ++s.gen;  // invalidates outstanding ids and ordering records
  s.next_free = free_head_;
  free_head_ = idx;
}

EventId EventQueue::push(SimTime at, Event fn, const char* label) {
  const std::uint32_t idx = acquire_slot();
  Slot& slot = slots_[idx];
  slot.fn = std::move(fn);
  slot.label = label;
  slot.occupied = true;

  heap_.push_back(Item{at.nanos(), next_seq_++, idx, slot.gen});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_count_;
  return (static_cast<EventId>(slot.gen) << 32) | idx;
}

SimTime EventQueue::next_time() const {
  HBP_ASSERT_MSG(!empty(), "next_time() on empty queue");
  return SimTime(peek_min().at_ns);
}

EventQueue::PoppedEvent EventQueue::pop() {
  HBP_ASSERT_MSG(!empty(), "pop() on empty queue");
  const Item it = take_min();
  Slot& s = slots_[it.slot];
  PoppedEvent out{SimTime(it.at_ns), std::move(s.fn), s.label};
  release_slot(it.slot);
  --live_count_;
  return out;
}

bool EventQueue::cancel(EventId id) {
  const auto idx = static_cast<std::uint32_t>(id);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (idx >= slots_.size()) return false;
  Slot& s = slots_[idx];
  if (!s.occupied || s.gen != gen) return false;
  release_slot(idx);
  HBP_ASSERT(live_count_ > 0);
  --live_count_;
  ++stale_count_;  // its ordering record is still in the heap
  maybe_compact();
  return true;
}

void EventQueue::maybe_compact() {
  // Amortised-O(1) bound on stale records: whenever cancellations have left
  // more dead index records than live ones, sweep them in one pass.
  if (stale_count_ <= 64 || stale_count_ <= live_count_) return;
  std::erase_if(heap_, [this](const Item& it) { return !item_live(it); });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  stale_count_ = 0;
}

void EventQueue::prune_top() const {
  while (!heap_.empty() && !item_live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    --stale_count_;
  }
}

EventQueue::Item EventQueue::take_min() {
  prune_top();
  HBP_ASSERT(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Item it = heap_.back();
  heap_.pop_back();
  return it;
}

const EventQueue::Item& EventQueue::peek_min() const {
  prune_top();
  HBP_ASSERT(!heap_.empty());
  return heap_.front();
}

}  // namespace hbp::sim
