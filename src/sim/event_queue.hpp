// Pending-event set of the discrete-event kernel.
//
// `PooledEventQueue` is a zero-allocation-on-the-hot-path event set:
//
//   * Entries live in a slab of fixed-size slots recycled through a free
//     list; actions are stored in `SmallFn` small-buffer callables, so the
//     common push (closure of `this` + a couple of ids) touches no
//     allocator at all.
//   * `EventId` packs (generation << 32 | slot + 1). Cancellation resolves
//     the slot with two array reads and a generation compare — no hashing,
//     no map — and a recycled slot's bumped generation makes every stale
//     handle inert (enforced by the stale-handle test).
//   * The pending set is a 4-ary implicit heap ordered by (time, sequence):
//     shallower than a binary heap and with all four children in one cache
//     line of 24-byte entries. The sequence number makes simultaneous
//     events pop in scheduling order — the reproducibility contract.
//   * Cancellation is lazy (the heap entry stays parked until it surfaces),
//     which matters because the simulator cancels and reschedules a
//     VM-finish event on every CPU reallocation. When parked-dead entries
//     exceed half the heap it is compacted in place, so lazy cancellation
//     cannot grow the heap unboundedly.
//
// Pop order is exactly (time, seq) — identical to `ReferenceEventQueue`
// (the pre-pool seed implementation, kept as the executable spec);
// `tests/test_event_queue_differential.cpp` holds the two to the same pop
// sequence under randomized push/cancel/reschedule scripts.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/small_fn.hpp"
#include "sim/time.hpp"

namespace easched::sim {

/// Identifies a scheduled event for cancellation. Value 0 is reserved for
/// "no event".
using EventId = std::uint64_t;

inline constexpr EventId kNoEvent = 0;

class PooledEventQueue {
 public:
  /// Schedules `fn` at absolute time `t`. Accepts any void() callable;
  /// captures up to SmallFn::kInlineBytes are stored in the pool slot
  /// without allocating.
  template <typename F>
  EventId push(SimTime t, F&& fn) {
    return push_impl(t, SmallFn(std::forward<F>(fn)));
  }

  /// Cancels a previously pushed event. Cancelling an already-fired,
  /// already-cancelled or stale (recycled-slot) id is a no-op; kNoEvent is
  /// ignored.
  void cancel(EventId id);

  /// True when no live (non-cancelled) event remains.
  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Cumulative number of successful cancellations.
  [[nodiscard]] std::uint64_t cancelled() const noexcept {
    return cancelled_total_;
  }

  /// Time of the earliest live event. Requires !empty(). Non-const because
  /// it prunes cancelled entries off the heap top.
  [[nodiscard]] SimTime next_time();

  /// Pops and returns the earliest live event's action together with its
  /// timestamp. Requires !empty().
  struct Fired {
    SimTime time;
    SmallFn action;
  };
  Fired pop();

 private:
  static constexpr std::uint32_t kNpos = ~std::uint32_t{0};
  /// Compaction kicks in only past this heap size: tiny queues never pay
  /// for it and the fraction test below is meaningful.
  static constexpr std::size_t kCompactMinHeap = 64;

  /// One pool slot. `gen` is odd while the slot holds a live event and
  /// even while it sits on the free list; it increments on every
  /// transition, so an id (which embeds the odd allocation-time gen) can
  /// never match a freed or recycled slot.
  struct Slot {
    SmallFn fn;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNpos;
  };

  /// 24-byte heap entry: ordering keys plus the slot handle. `gen` copies
  /// the slot's allocation-time generation so parked entries of cancelled
  /// (and possibly recycled) slots are recognisably stale.
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  static bool earlier(const HeapEntry& a, const HeapEntry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  [[nodiscard]] bool stale(const HeapEntry& e) const noexcept {
    return slots_[e.slot].gen != e.gen;
  }

  EventId push_impl(SimTime t, SmallFn fn);
  void free_slot(std::uint32_t slot) noexcept;
  /// Removes the heap root (sift-down of the last entry).
  void pop_root();
  /// Drops stale entries off the heap top; the single home of lazy-cancel
  /// pruning (both next_time() and pop() route through it).
  void prune_top();
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Rebuilds the heap without its stale entries (O(n) Floyd heapify).
  void compact();

  std::vector<Slot> slots_;
  std::vector<HeapEntry> heap_;
  std::uint32_t free_head_ = kNpos;
  std::uint64_t next_seq_ = 0;
  std::uint64_t cancelled_total_ = 0;
  std::size_t live_ = 0;          ///< live events (== in-use slots)
  std::size_t dead_in_heap_ = 0;  ///< cancelled entries still parked
};

using EventQueue = PooledEventQueue;

}  // namespace easched::sim
