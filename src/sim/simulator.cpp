#include "cbps/sim/simulator.hpp"

#include <utility>

#include "cbps/common/logging.hpp"

namespace cbps::sim {

namespace {

// Clock hook for log-line prefixes: installed once per dispatch loop
// (not per event) so the hot path pays nothing.
std::uint64_t log_clock_now_us(const void* ctx) {
  return static_cast<const Simulator*>(ctx)->now();
}

}  // namespace

Simulator::Simulator() : dom_seq_(1, 0) {}

std::uint64_t Simulator::next_key() {
  const Domain actor = common::exec_context().actor_domain;
  CBPS_ASSERT_MSG(actor < dom_seq_.size(),
                  "acting domain not registered with this engine");
  return detail::make_key(actor, dom_seq_[actor]++);
}

Simulator::EventId Simulator::schedule_at(SimTime t, Callback cb) {
  CBPS_ASSERT_MSG(t >= now_, "scheduling into the past");
  return core_.schedule(t, next_key(), common::exec_context().actor_domain,
                        std::move(cb));
}

Simulator::EventId Simulator::schedule_for(Domain target, SimTime t,
                                           Callback cb) {
  CBPS_ASSERT_MSG(t >= now_, "scheduling into the past");
  return core_.schedule(t, next_key(), target, std::move(cb));
}

Simulator::TimerId Simulator::add_timer(SimTime period, SimTime first_delay,
                                        Callback cb) {
  CBPS_ASSERT_MSG(period > 0, "zero-period timer would livelock");
  const Domain owner = common::exec_context().actor_domain;
  const TimerId id = core_.next_timer_seq++;
  core_.timers.emplace(
      id, detail::EventCore::TimerState{
              period, std::make_shared<Callback>(std::move(cb)),
              kInvalidEvent, owner});
  auto& st = core_.timers.at(id);
  st.next_event = core_.schedule(now_ + first_delay, next_key(), owner,
                                 [this, id] { fire_timer(id); });
  return id;
}

void Simulator::fire_timer(TimerId id) {
  auto it = core_.timers.find(id);
  CBPS_ASSERT(it != core_.timers.end());
  // Pin the body: the callback may cancel_timer(id), which erases the
  // timer state — the shared_ptr keeps the callable alive through the
  // invocation without copying it. Rearm before the body runs (the seed
  // engine's behavior; keeps the timer phase independent of body work).
  const std::shared_ptr<Callback> body = it->second.cb;
  auto& st = it->second;
  st.next_event = core_.schedule(now_ + st.period, next_key(), st.owner,
                                 [this, id] { fire_timer(id); });
  (*body)();
}

bool Simulator::cancel_timer(TimerId id) {
  auto it = core_.timers.find(id);
  if (it == core_.timers.end()) return false;
  core_.cancel(it->second.next_event);
  core_.timers.erase(it);
  return true;
}

Simulator::Domain Simulator::register_domain() {
  const auto d = static_cast<Domain>(dom_seq_.size());
  dom_seq_.push_back(0);
  return d;
}

bool Simulator::step() {
  detail::EventCore::Popped ev;
  if (!core_.pop(ev)) return false;
  now_ = ev.time;
  auto& x = common::exec_context();
  x.time = ev.time;
  x.actor_domain = ev.target;
  x.event_key = ev.key;
  x.emit_seq = 0;
  ev.cb();
  x.actor_domain = common::kGlobalDomain;
  x.event_key = 0;
  return true;
}

std::uint64_t Simulator::run(std::uint64_t max_events) {
  const logctx::ScopedClock clock(this, &log_clock_now_us);
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
  common::exec_context().time = now_;
  return n;
}

std::uint64_t Simulator::run_until(SimTime t) {
  const logctx::ScopedClock clock(this, &log_clock_now_us);
  std::uint64_t n = 0;
  while (true) {
    const SimTime next = core_.min_time();
    if (next == kSimTimeNever || next > t) break;
    step();
    ++n;
  }
  CBPS_ASSERT(t >= now_);
  now_ = t;
  common::exec_context().time = now_;
  return n;
}

}  // namespace cbps::sim
