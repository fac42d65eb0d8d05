// Thread-local execution context shared by the simulation engine and
// the metrics layer.
//
// The engine publishes, for the event callback currently running on
// this thread:
//   - the simulated time of the event,
//   - the *acting domain* (who is doing the scheduling — used to
//     attribute canonical event keys, see event_core.hpp), and
//   - the canonical key of the event itself plus a per-event emission
//     counter (the deterministic sort key for trace spans).
//
// Keeping this in common/ lets metrics code read the event key without
// a dependency on the sim layer, and sim code stays the only writer.
// Thread-local so concurrent sweep workers (--jobs) each run their own
// simulation with their own context.
#pragma once

#include <cstdint>

namespace cbps::common {

/// A scheduling/execution domain. 0 is the global domain (drivers,
/// samplers, fault scripts — everything that is not a simulated node);
/// simulated nodes register dense domains >= 1 with their engine.
using Domain = std::uint32_t;

inline constexpr Domain kGlobalDomain = 0;

struct ExecContext {
  std::uint64_t time = 0;        // simulated time of the running event
  Domain actor_domain = 0;       // who schedules / draws randomness
  std::uint64_t event_key = 0;   // canonical key of the running event
  std::uint32_t emit_seq = 0;    // per-event trace-span emission counter
};

inline ExecContext& exec_context() {
  thread_local ExecContext ctx;
  return ctx;
}

/// RAII actor switch: node code wraps scheduling of *self-owned* events
/// (periodic timers, retransmit timers, buffer flushes) in an
/// ActorScope(my_domain) so the event is keyed by its owner even when
/// the node's code happens to run inside a global-context callback
/// (e.g. a subscribe issued by the driver). The keys, and so the tie
/// order of equal-time events, then depend only on the owner's history.
class ActorScope {
 public:
  explicit ActorScope(Domain d) : saved_(exec_context().actor_domain) {
    exec_context().actor_domain = d;
  }
  ~ActorScope() { exec_context().actor_domain = saved_; }
  ActorScope(const ActorScope&) = delete;
  ActorScope& operator=(const ActorScope&) = delete;

 private:
  Domain saved_;
};

}  // namespace cbps::common
