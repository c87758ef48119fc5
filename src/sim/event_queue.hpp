// Pending-event set for the discrete-event engine.
//
// A binary min-heap of 24-byte index records keyed on (time, insertion
// sequence): events fire in time order and equal times fire in the order
// they were pushed, so a run's trace digest is a pure function of the model.
//
// Event closures themselves never move through the heap: they live in a
// slab of recycled slots addressed by the index records, and ids carry a
// per-slot generation so stale ids and stale index records are rejected in
// O(1).  Cancellation frees the slot at once; its record is dropped when it
// surfaces, or swept in bulk once stale records outnumber live ones.
// Steady-state push/pop/cancel performs zero heap allocations once the slab
// and the heap have reached their peak size.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event.hpp"
#include "sim/time.hpp"

namespace hbp::sim {

using EventId = std::uint64_t;

class EventQueue {
 public:
  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Returns an id usable with cancel().  `label` is an optional static
  // string naming the event type for the loop profiler (scheduling sites
  // pass string literals; the queue only stores the pointer).
  EventId push(SimTime at, Event fn, const char* label = nullptr);

  bool empty() const { return live_count_ == 0; }
  std::size_t size() const { return live_count_; }

  // Time of the earliest live event; queue must be non-empty.
  SimTime next_time() const;

  struct PoppedEvent {
    SimTime at;
    Event fn;
    const char* label;  // as passed to push(); may be null
  };

  // Pops and returns the earliest live event.
  PoppedEvent pop();

  // Cancels a pending event, destroying its closure and recycling its slot
  // immediately; cancelling an already-fired or unknown id is a no-op and
  // returns false.
  bool cancel(EventId id);

  // --- bounded-memory introspection (regression tests) ---

  // Slots ever created; bounded by the peak number of concurrently pending
  // events (slots recycle through a free list, never accumulate).
  std::size_t slot_capacity() const { return slots_.size(); }
  // Index records still inside the heap, live + stale.  Stale records (from
  // cancellations) are dropped when they surface and compacted away
  // whenever they outnumber the live ones.
  std::size_t backlog_items() const { return heap_.size(); }
  std::size_t stale_items() const { return stale_count_; }

 private:
  // 24-byte ordering record; the closure stays in the slab.
  struct Item {
    std::int64_t at_ns;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
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
    std::uint32_t gen = 0;        // bumped on every free
    std::uint32_t next_free = 0;  // free-list link
    bool occupied = false;
  };

  static constexpr std::uint32_t kNoFree = 0xffffffffu;

  bool item_live(const Item& it) const {
    const Slot& s = slots_[it.slot];
    return s.occupied && s.gen == it.gen;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx);
  void maybe_compact();

  // Pops stale records off the top until a live one (or nothing) is left.
  void prune_top() const;
  // Removes and returns the earliest live item.
  Item take_min();
  // Earliest live item without removing it.
  const Item& peek_min() const;

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoFree;
  std::uint64_t next_seq_ = 0;
  std::size_t live_count_ = 0;
  mutable std::size_t stale_count_ = 0;

  mutable std::vector<Item> heap_;
};

}  // namespace hbp::sim
