// Pending-event set for the discrete-event engine.
//
// A binary min-heap of 24-byte index records keyed on (time, insertion
// sequence): events fire in time order and equal times fire in the order
// they were pushed, so a run's trace digest is a pure function of the model.
//
// Event closures themselves never move through the heap: they live in a
// slab of recycled slots addressed by the index records.  Events cannot be
// cancelled; a component that needs to retract a timer (TCP's RTO) lets it
// fire and ignores it when stale.  Steady-state push/pop performs zero heap
// allocations once the slab and the heap have reached their peak size.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event.hpp"
#include "sim/time.hpp"

namespace hbp::sim {

class EventQueue {
 public:
  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // `label` is an optional static string naming the event type for the loop
  // profiler (scheduling sites pass string literals; the queue only stores
  // the pointer).
  void push(SimTime at, Event fn, const char* label = nullptr);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  // Time of the earliest event; queue must be non-empty.
  SimTime next_time() const;

  struct PoppedEvent {
    SimTime at;
    Event fn;
    const char* label;  // as passed to push(); may be null
  };

  // Pops and returns the earliest event.
  PoppedEvent pop();

  // Slots ever created; bounded by the peak number of concurrently pending
  // events (slots recycle through a free list, never accumulate).
  std::size_t slot_capacity() const { return slots_.size(); }

 private:
  // 24-byte ordering record; the closure stays in the slab.
  struct Item {
    std::int64_t at_ns;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  // Heap comparator: the std heap algorithms keep the greatest element on
  // top, so "fires later" is "less" and the earliest (time, seq) surfaces.
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.at_ns != b.at_ns) return a.at_ns > b.at_ns;
      return a.seq > b.seq;
    }
  };

  struct Slot {
    Event fn;
    const char* label = nullptr;
    std::uint32_t next_free = 0;  // free-list link
  };

  static constexpr std::uint32_t kNoFree = 0xffffffffu;

  std::uint32_t acquire_slot();

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoFree;
  std::uint64_t next_seq_ = 0;
  std::vector<Item> heap_;
};

}  // namespace hbp::sim
