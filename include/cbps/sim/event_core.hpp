// The simulator's event-queue machinery.
//
// An EventCore is one time-ordered event heap plus the slot storage and
// periodic-timer table behind it; the Simulator owns exactly one. The
// schedule/fire/cancel cycle is allocation-free in steady state
// (generation-stamped slots recycled through a free list, inline
// callbacks, a flat vector heap), and stale entries left behind by
// cancel() are skipped lazily and compacted away once they dominate.
//
// Ordering — the determinism contract. Every event carries a canonical
// 64-bit key
//
//     key = (scheduling domain << 40) | per-domain schedule counter
//
// and the heap orders by (time, key). Because a domain's counter is
// only ever bumped while that domain is executing (or, for the global
// domain, while the engine is between events), the sequence of keys a
// domain assigns is a pure function of its own execution history.
// (time, key) is a total order, so a run is bit-identical across runs
// and sweep worker counts. Domain 0 keys sort before all node keys at
// equal time: global events (drivers, samplers, fault scripts) at time
// t run before node events at t.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cbps/common/assert.hpp"
#include "cbps/common/exec_context.hpp"
#include "cbps/common/inline_function.hpp"
#include "cbps/sim/time.hpp"

namespace cbps::sim::detail {

using Domain = common::Domain;

/// Canonical event key: scheduling domain in the high 24 bits, that
/// domain's schedule counter in the low 40. Uniqueness needs < 2^24
/// domains and < 2^40 events per domain; both asserted where bumped.
inline std::uint64_t make_key(Domain domain, std::uint64_t dseq) {
  CBPS_ASSERT(domain < (1u << 24));
  CBPS_ASSERT(dseq < (std::uint64_t{1} << 40));
  return (static_cast<std::uint64_t>(domain) << 40) | dseq;
}

class EventCore {
 public:
  using Callback = common::InlineFunction<void(), 48>;
  using EventId = std::uint64_t;

  static constexpr EventId kInvalidEvent = 0;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  // EventId layout: [generation:30][slot index + 1:28]. The +1 keeps
  // generation 0 / slot 0 distinct from kInvalidEvent. A slot's
  // generation bumps on every release, so handles to fired, cancelled,
  // or recycled events go stale (2^30 reuses to alias).
  static EventId make_id(std::uint32_t gen, std::uint32_t slot) {
    CBPS_ASSERT(slot < ((1u << 28) - 1));
    return (static_cast<EventId>(gen & ((1u << 30) - 1)) << 28) |
           (static_cast<EventId>(slot) + 1);
  }
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id & ((1u << 28) - 1)) - 1;
  }
  static std::uint32_t gen_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 28) & ((1u << 30) - 1);
  }

  EventCore() = default;
  EventCore(const EventCore&) = delete;
  EventCore& operator=(const EventCore&) = delete;

  struct Popped {
    SimTime time = 0;
    std::uint64_t key = 0;
    Domain target = 0;  // domain the callback executes as
    Callback cb;
  };

  /// Insert an event. `key` is the canonical key (already attributed to
  /// the scheduling domain by the engine); `target` is the domain the
  /// callback will execute as.
  EventId schedule(SimTime t, std::uint64_t key, Domain target,
                   Callback cb) {
    CBPS_ASSERT_MSG(t >= floor_, "scheduling into the past");
    CBPS_ASSERT(static_cast<bool>(cb));
    std::uint32_t slot;
    if (free_head_ != kNoSlot) {
      slot = free_head_;
      free_head_ = slots_[slot].next_free;
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    s.cb = std::move(cb);
    s.armed = true;
    s.target = target;
    const EventId id = make_id(s.gen, slot);
    heap_.push_back(HeapEntry{t, key, id});
    std::push_heap(heap_.begin(), heap_.end(), HeapGreater{});
    ++live_;
    return id;
  }

  /// Cancel a pending event. Returns false if it already
  /// fired or was already cancelled.
  bool cancel(EventId id) {
    if (!is_live(id)) return false;
    release(slot_of(id));
    // The heap entry stays behind and is skipped lazily when popped —
    // unless stale entries now dominate, in which case rebuild.
    maybe_compact();
    return true;
  }

  bool is_live(EventId id) const {
    const std::uint32_t slot = slot_of(id);
    return slot < slots_.size() && slots_[slot].armed &&
           slots_[slot].gen == gen_of(id);
  }

  /// Time of the earliest live event (kSimTimeNever when empty). Pops
  /// stale (cancelled) heads as a side effect.
  SimTime min_time() {
    skim_stale();
    return heap_.empty() ? kSimTimeNever : heap_.front().time;
  }

  /// Pop the earliest live event. Returns false when the core is empty.
  bool pop(Popped& out) {
    skim_stale();
    if (heap_.empty()) return false;
    const HeapEntry top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), HeapGreater{});
    heap_.pop_back();
    CBPS_ASSERT(top.time >= floor_);
    floor_ = top.time;
    const std::uint32_t slot = slot_of(top.id);
    out.time = top.time;
    out.key = top.key;
    out.target = slots_[slot].target;
    out.cb = std::move(slots_[slot].cb);
    release(slot);
    ++processed_;
    return true;
  }

  // --- periodic timers ----------------------------------------------------
  // The core stores the timer table; the engine drives arming/firing so
  // it can attribute the rearm key to the timer's owner domain.
  struct TimerState {
    SimTime period = 0;
    // Shared so a fire can keep the body alive while the callback itself
    // cancels the timer (which erases this state).
    std::shared_ptr<Callback> cb;
    EventId next_event = kInvalidEvent;
    Domain owner = 0;
  };
  std::unordered_map<std::uint64_t, TimerState> timers;
  std::uint64_t next_timer_seq = 1;

  // --- accounting ---------------------------------------------------------
  std::size_t live() const { return live_; }
  std::uint64_t processed() const { return processed_; }
  std::uint64_t compactions() const { return compactions_; }
  std::uint64_t stale_skipped() const { return stale_skipped_; }

 private:
  struct Slot {
    Callback cb;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNoSlot;
    Domain target = 0;
    bool armed = false;
  };

  struct HeapEntry {
    SimTime time;
    std::uint64_t key;  // canonical (domain, seq) key — see file header
    EventId id;
    // Min-heap ordering: earliest time first, then canonical key. Keys
    // are unique, so pop order is a total order independent of the
    // heap's internal (insertion-dependent) layout.
    friend bool operator>(const HeapEntry& a, const HeapEntry& b) {
      return a.time != b.time ? a.time > b.time : a.key > b.key;
    }
  };

  struct HeapGreater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      return a > b;
    }
  };

  /// Free the slot behind `id` (bumps generation, recycles storage).
  void release(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.cb = nullptr;
    s.armed = false;
    ++s.gen;
    s.next_free = free_head_;
    free_head_ = slot;
    --live_;
  }

  void skim_stale() {
    while (!heap_.empty() && !is_live(heap_.front().id)) {
      std::pop_heap(heap_.begin(), heap_.end(), HeapGreater{});
      heap_.pop_back();
      ++stale_skipped_;
    }
  }

  /// Rebuild the heap without stale entries once they dominate.
  void maybe_compact() {
    const std::size_t stale = heap_.size() - live_;
    if (stale <= live_ || heap_.size() < 64) return;
    std::erase_if(heap_,
                  [this](const HeapEntry& e) { return !is_live(e.id); });
    std::make_heap(heap_.begin(), heap_.end(), HeapGreater{});
    ++compactions_;
  }

  std::vector<HeapEntry> heap_;  // min-heap via std::push_heap/pop_heap
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t live_ = 0;  // armed slots == non-stale heap entries
  std::uint64_t processed_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t stale_skipped_ = 0;
  SimTime floor_ = 0;
};

}  // namespace cbps::sim::detail
