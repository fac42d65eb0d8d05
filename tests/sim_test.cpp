// Tests for the discrete-event simulation engine.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "cbps/common/exec_context.hpp"
#include "cbps/sim/latency.hpp"
#include "cbps/sim/simulator.hpp"

namespace cbps::sim {
namespace {

TEST(SimulatorTest, ProcessesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(ms(30), [&] { order.push_back(3); });
  sim.schedule_at(ms(10), [&] { order.push_back(1); });
  sim.schedule_at(ms(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), ms(30));
}

TEST(SimulatorTest, TiesBreakByScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(ms(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, ClockVisibleInsideCallback) {
  Simulator sim;
  SimTime seen = 0;
  sim.schedule_after(sec(2), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, sec(2));
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  std::vector<SimTime> fire_times;
  sim.schedule_at(ms(10), [&] {
    fire_times.push_back(sim.now());
    sim.schedule_after(ms(15), [&] { fire_times.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(fire_times.size(), 2u);
  EXPECT_EQ(fire_times[0], ms(10));
  EXPECT_EQ(fire_times[1], ms(25));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const auto id = sim.schedule_at(ms(5), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // second cancel is a no-op
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelAfterFiringReturnsFalse) {
  Simulator sim;
  const auto id = sim.schedule_at(ms(1), [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(ms(10), [&] { fired.push_back(1); });
  sim.schedule_at(ms(20), [&] { fired.push_back(2); });
  sim.schedule_at(ms(30), [&] { fired.push_back(3); });
  EXPECT_EQ(sim.run_until(ms(20)), 2u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), ms(20));
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, RunUntilWithNoEventsAdvancesClock) {
  Simulator sim;
  EXPECT_EQ(sim.run_until(sec(100)), 0u);
  EXPECT_EQ(sim.now(), sec(100));
}

TEST(SimulatorTest, RunHonorsMaxEvents) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(ms(static_cast<std::uint64_t>(i)), [&] { ++count; });
  }
  EXPECT_EQ(sim.run(4), 4u);
  EXPECT_EQ(count, 4);
  sim.run();
  EXPECT_EQ(count, 10);
}

TEST(SimulatorTest, PeriodicTimerFiresRepeatedly) {
  Simulator sim;
  std::vector<SimTime> fires;
  const auto id = sim.add_timer(sec(3), [&] { fires.push_back(sim.now()); });
  sim.run_until(sec(10));
  EXPECT_EQ(fires, (std::vector<SimTime>{sec(3), sec(6), sec(9)}));
  sim.cancel_timer(id);
  sim.run_until(sec(20));
  EXPECT_EQ(fires.size(), 3u);
}

TEST(SimulatorTest, TimerWithCustomFirstDelay) {
  Simulator sim;
  std::vector<SimTime> fires;
  sim.add_timer(sec(5), sec(1), [&] { fires.push_back(sim.now()); });
  sim.run_until(sec(12));
  EXPECT_EQ(fires, (std::vector<SimTime>{sec(1), sec(6), sec(11)}));
}

TEST(SimulatorTest, TimerCanCancelItself) {
  Simulator sim;
  int count = 0;
  Simulator::TimerId id = 0;
  id = sim.add_timer(sec(1), [&] {
    if (++count == 3) sim.cancel_timer(id);
  });
  sim.run_until(sec(10));
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, CancelUnknownTimerReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel_timer(999));
}

TEST(SimulatorTest, EventsProcessedCounter) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_after(ms(1), [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(SimulatorTest, CancelledIdStaysDeadAfterSlotReuse) {
  Simulator sim;
  bool a_fired = false;
  bool b_fired = false;
  const auto id_a = sim.schedule_at(ms(10), [&] { a_fired = true; });
  EXPECT_TRUE(sim.cancel(id_a));
  // The freed slot is reused, but a fresh generation makes a fresh id.
  const auto id_b = sim.schedule_at(ms(20), [&] { b_fired = true; });
  EXPECT_NE(id_a, id_b);
  EXPECT_FALSE(sim.cancel(id_a));  // the old id must not hit the new event
  sim.run();
  EXPECT_FALSE(a_fired);
  EXPECT_TRUE(b_fired);
}

TEST(SimulatorTest, FiredIdDoesNotCancelSlotSuccessor) {
  Simulator sim;
  const auto id_a = sim.schedule_at(ms(1), [] {});
  sim.run();
  bool b_fired = false;
  const auto id_b = sim.schedule_at(ms(2), [&] { b_fired = true; });
  EXPECT_NE(id_a, id_b);
  EXPECT_FALSE(sim.cancel(id_a));
  sim.run();
  EXPECT_TRUE(b_fired);
}

TEST(SimulatorTest, PendingEventsTracksCancellation) {
  Simulator sim;
  const auto a = sim.schedule_at(ms(1), [] {});
  sim.schedule_at(ms(2), [] {});
  sim.schedule_at(ms(3), [] {});
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_TRUE(sim.cancel(a));
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, HeapCompactionPreservesOrderAndTies) {
  // Cancel enough entries that the stale ones outnumber the live ones
  // (triggering compaction), then check the survivors still fire in
  // time order with schedule-order tie-breaking.
  Simulator sim;
  std::vector<Simulator::EventId> cancels;
  std::vector<int> order;
  for (int i = 0; i < 1000; ++i) {
    const auto id = sim.schedule_at(
        ms(static_cast<std::uint64_t>(100 + i % 7)),
        [&order, i] { order.push_back(i); });
    if (i % 10 != 0) cancels.push_back(id);
  }
  for (const auto id : cancels) EXPECT_TRUE(sim.cancel(id));
  EXPECT_EQ(sim.pending_events(), 100u);
  sim.run();
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 1; i < order.size(); ++i) {
    // Same-time events keep schedule order, so within a time bucket the
    // payload values are ascending; across buckets time dominates.
    const int prev_time = order[i - 1] % 7;
    const int cur_time = order[i] % 7;
    EXPECT_TRUE(prev_time < cur_time ||
                (prev_time == cur_time && order[i - 1] < order[i]));
  }
}

TEST(SimulatorTest, AckRetryChurnKeepsPendingBounded) {
  // The ack/retry pattern: every fire cancels a long-dead decoy and
  // schedules a replacement. Generation reuse must keep this airtight.
  Simulator sim;
  int fires = 0;
  Simulator::EventId decoy = sim.schedule_at(sec(1000), [] { FAIL(); });
  std::function<void()> step = [&] {
    ++fires;
    EXPECT_TRUE(sim.cancel(decoy));
    if (fires < 5000) {
      decoy = sim.schedule_at(sec(1000) + ms(static_cast<std::uint64_t>(fires)),
                              [] { FAIL(); });
      sim.schedule_after(us(3), step);
    }
  };
  sim.schedule_after(us(3), step);
  sim.run();
  EXPECT_EQ(fires, 5000);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// A periodic timer ticking exactly on the run_until boundaries, one on
// the global domain and one on a registered node domain: every tick
// fires exactly once, and a repeated run_until at the same boundary
// does not re-fire it.
TEST(EpochBoundaryTest, RunUntilPeriodicTimerAtExactBoundary) {
  const SimTime period = ms(50);
  Simulator sim;
  std::vector<SimTime> global_fires;
  std::vector<SimTime> node_fires;
  sim.add_timer(period, [&] { global_fires.push_back(sim.now()); });
  const common::Domain d = sim.register_domain();
  {
    const common::ActorScope as(d);
    sim.add_timer(period, [&] { node_fires.push_back(sim.now()); });
  }
  sim.run_until(ms(500));
  ASSERT_EQ(global_fires.size(), 10u);
  ASSERT_EQ(node_fires.size(), 10u);
  sim.run_until(ms(500));  // same boundary again: no re-fire
  EXPECT_EQ(global_fires.size(), 10u);
  EXPECT_EQ(node_fires.size(), 10u);
  sim.run_until(ms(1000));
  EXPECT_EQ(sim.now(), ms(1000));
  // run_until is inclusive: ticks at 50, 100, ..., 1000 -> 20 per timer.
  std::vector<SimTime> expected;
  for (SimTime t = period; t <= ms(1000); t += period) expected.push_back(t);
  EXPECT_EQ(global_fires, expected);
  EXPECT_EQ(node_fires, expected);
}

// One-shot events scheduled exactly at the run_until boundary and one
// tick past it: the boundary event fires, the later one stays pending.
TEST(EpochBoundaryTest, BoundaryEventFiresLaterEventStaysPending) {
  Simulator sim;
  int at_boundary = 0;
  int past_boundary = 0;
  const common::Domain d = sim.register_domain();
  {
    const common::ActorScope as(d);
    sim.schedule_at(ms(200), [&at_boundary] { ++at_boundary; });
    sim.schedule_at(ms(200) + 1, [&past_boundary] { ++past_boundary; });
  }
  sim.run_until(ms(200));
  EXPECT_EQ(at_boundary, 1);
  EXPECT_EQ(past_boundary, 0);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(past_boundary, 1);
}

TEST(LatencyTest, FixedLatencyIsConstant) {
  Rng rng(1);
  FixedLatency lat(ms(50));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(lat.sample(rng), ms(50));
}

TEST(LatencyTest, UniformLatencyWithinBounds) {
  Rng rng(2);
  UniformLatency lat(ms(10), ms(90));
  RunningStat stat;
  for (int i = 0; i < 10000; ++i) {
    const SimTime v = lat.sample(rng);
    EXPECT_GE(v, ms(10));
    EXPECT_LE(v, ms(90));
    stat.add(static_cast<double>(v));
  }
  EXPECT_NEAR(stat.mean(), static_cast<double>(ms(50)),
              static_cast<double>(ms(2)));
}

TEST(TimeTest, Conversions) {
  EXPECT_EQ(sec(2), ms(2000));
  EXPECT_EQ(ms(1), us(1000));
  EXPECT_DOUBLE_EQ(to_seconds(sec(5)), 5.0);
  EXPECT_EQ(from_seconds(2.5), ms(2500));
}

}  // namespace
}  // namespace cbps::sim
