#include "sim/event_queue.hpp"

#include <utility>

#include "support/contracts.hpp"

namespace easched::sim {

namespace {

/// EventId layout: high 32 bits = allocation-time generation (always odd),
/// low 32 bits = slot + 1 (so kNoEvent == 0 is never produced).
constexpr EventId make_id(std::uint32_t slot, std::uint32_t gen) noexcept {
  return (static_cast<EventId>(gen) << 32) |
         (static_cast<EventId>(slot) + 1);
}
constexpr std::uint32_t id_slot(EventId id) noexcept {
  return static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
}
constexpr std::uint32_t id_gen(EventId id) noexcept {
  return static_cast<std::uint32_t>(id >> 32);
}

}  // namespace

EventId PooledEventQueue::push_impl(SimTime t, SmallFn fn) {
  EA_EXPECTS(static_cast<bool>(fn));
  std::uint32_t slot;
  if (free_head_ != kNpos) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  ++s.gen;  // even -> odd: in use
  s.fn = std::move(fn);
  heap_.push_back(HeapEntry{t, next_seq_++, slot, s.gen});
  sift_up(heap_.size() - 1);
  ++live_;
  return make_id(slot, s.gen);
}

void PooledEventQueue::free_slot(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.fn.reset();
  ++s.gen;  // odd -> even: free; stale ids and heap entries now mismatch
  s.next_free = free_head_;
  free_head_ = slot;
}

bool PooledEventQueue::live(EventId id) const noexcept {
  if (id == kNoEvent) return false;
  const std::uint32_t slot = id_slot(id);
  // A fired, cancelled or recycled slot carries a different generation.
  return slot < slots_.size() && slots_[slot].gen == id_gen(id);
}

void PooledEventQueue::cancel(EventId id) {
  if (!live(id)) return;
  free_slot(id_slot(id));
  EA_ASSERT(live_ > 0);
  --live_;
  ++cancelled_total_;
  ++dead_in_heap_;
  if (heap_.size() >= kCompactMinHeap && dead_in_heap_ * 2 > heap_.size()) {
    compact();
  }
}

void PooledEventQueue::sift_up(std::size_t i) {
  const HeapEntry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void PooledEventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const HeapEntry e = heap_[i];
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void PooledEventQueue::pop_root() {
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void PooledEventQueue::prune_top() {
  // The single invariant checkpoint of the lazy-cancel design: every
  // parked entry is either live or counted in dead_in_heap_.
  EA_ASSERT(heap_.size() == live_ + dead_in_heap_);
  while (!heap_.empty() && stale(heap_[0])) {
    pop_root();
    --dead_in_heap_;
  }
}

void PooledEventQueue::compact() {
  std::size_t kept = 0;
  for (const HeapEntry& e : heap_) {
    if (!stale(e)) heap_[kept++] = e;
  }
  heap_.resize(kept);
  dead_in_heap_ = 0;
  if (heap_.size() > 1) {
    for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) sift_down(i);
  }
}

PooledEventQueue::Key PooledEventQueue::next_key() {
  EA_EXPECTS(!empty());
  // A cancel may have hit the current heap top since the last pop.
  prune_top();
  return Key{heap_[0].time, heap_[0].seq};
}

PooledEventQueue::Fired PooledEventQueue::pop() {
  EA_EXPECTS(!empty());
  prune_top();
  EA_ASSERT(!heap_.empty());
  const HeapEntry top = heap_[0];
  Fired fired{top.time, std::move(slots_[top.slot].fn)};
  free_slot(top.slot);
  pop_root();
  EA_ASSERT(live_ > 0);
  --live_;
  return fired;
}

}  // namespace easched::sim
