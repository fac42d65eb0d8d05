// The discrete-event simulation engine.
//
// Simulator is what the overlay/network/pub-sub layers program against:
// scheduling, periodic timers, domain registration, and run control. One
// event core, events processed in canonical (time, key) order (see
// event_core.hpp for the ordering contract).
//
// Domains: every simulated actor registers a *domain*
// (register_domain()) so the events it schedules are keyed by its own
// counter. Domain 0 is the global domain — drivers, samplers, fault
// scripts. Single-domain users (unit tests, micro-benches) can ignore
// the concept entirely; everything then defaults to domain 0.
#pragma once

#include <cstdint>
#include <vector>

#include "cbps/common/assert.hpp"
#include "cbps/common/exec_context.hpp"
#include "cbps/common/inline_function.hpp"
#include "cbps/sim/event_core.hpp"
#include "cbps/sim/time.hpp"

namespace cbps::sim {

class Simulator {
 public:
  using Callback = common::InlineFunction<void(), 48>;
  using EventId = std::uint64_t;
  using TimerId = std::uint64_t;
  using Domain = common::Domain;

  static constexpr EventId kInvalidEvent = 0;

  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Inside an event callback this is the
  /// event's time.
  SimTime now() const { return now_; }

  /// Schedule `cb` at absolute time `t` (>= now()). The event is keyed
  /// by the current acting domain (common::exec_context().actor_domain)
  /// and executes as it. Returns a handle that can cancel the event
  /// before it fires.
  EventId schedule_at(SimTime t, Callback cb);

  /// Schedule `cb` after `delay` from now.
  EventId schedule_after(SimTime delay, Callback cb) {
    return schedule_at(now() + delay, std::move(cb));
  }

  /// Schedule `cb` to execute *as* domain `target` at absolute time `t`
  /// (network delivery: the receiver runs the callback). The event is
  /// still keyed by the scheduling domain.
  EventId schedule_for(Domain target, SimTime t, Callback cb);

  /// Cancel a pending event. Returns false if it already fired or was
  /// already cancelled.
  bool cancel(EventId id) { return core_.cancel(id); }

  /// Register a periodic timer firing every `period`, first at
  /// now() + first_delay (defaults to one full period). The timer is
  /// owned by the current acting domain (events keyed like
  /// schedule_at). The callback keeps firing until cancel_timer().
  TimerId add_timer(SimTime period, Callback cb) {
    return add_timer(period, period, std::move(cb));
  }
  TimerId add_timer(SimTime period, SimTime first_delay, Callback cb);

  /// Stop a periodic timer. Returns false if unknown/already cancelled.
  bool cancel_timer(TimerId id);

  /// Run until the queue drains or `max_events` fire. Returns the
  /// number of events processed.
  std::uint64_t run(std::uint64_t max_events = ~std::uint64_t{0});

  /// Process every event with time <= t, then advance the clock to t.
  /// Returns the number of events processed.
  std::uint64_t run_until(SimTime t);

  /// Pending (non-cancelled) event count, periodic timers included.
  std::size_t pending_events() const { return core_.live(); }

  std::uint64_t events_processed() const { return core_.processed(); }

  /// Heap-health accounting (surfaces in --metrics-json): lazy-deleted
  /// entries skipped at pop time, and full heap rebuilds triggered when
  /// stale entries outnumbered live ones.
  std::uint64_t stale_entries_skipped() const {
    return core_.stale_skipped();
  }
  std::uint64_t heap_compactions() const { return core_.compactions(); }

  /// Allocate a fresh scheduling domain (dense, starting at 1), used
  /// for key attribution.
  Domain register_domain();

 private:
  /// Canonical key for a fresh event, attributed to the acting domain.
  std::uint64_t next_key();

  /// Pop and run the earliest event. Returns false if nothing runnable.
  bool step();

  void fire_timer(TimerId id);

  detail::EventCore core_;
  SimTime now_ = 0;
  // Per-domain schedule counters (index = domain; [0] is global).
  std::vector<std::uint64_t> dom_seq_;
};

}  // namespace cbps::sim
