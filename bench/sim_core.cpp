// Scheduler microbench — events/sec through the simulator's dominant
// schedule/fire/cancel cycles, isolated from any pub/sub logic.
//
// Three workloads:
//   fire         K self-rescheduling events (pure schedule+fire churn,
//                the publish/notify delivery pattern)
//   cancel       every fired event schedules a successor AND a decoy
//                that is cancelled before it can fire (the ack/retry
//                timer pattern from the reliability layer)
//   timers       K periodic timers ticking concurrently (stabilize /
//                retry backoff maintenance load)
//
// Prints events/sec per workload and, with --json, appends a bench
// record in the same shape the sweep runner emits (see EXPERIMENTS.md).
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "cbps/common/flags.hpp"
#include "cbps/sim/simulator.hpp"

using namespace cbps;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Row {
  std::string label;
  std::uint64_t events = 0;
  double wall_s = 0;
  double events_per_sec = 0;
};

Row run_fire(std::uint64_t total_events, std::size_t width) {
  sim::Simulator sim;
  struct Chain {
    sim::Simulator& sim;
    std::uint64_t budget;
    void arm() {
      if (budget == 0) return;
      --budget;
      sim.schedule_after(sim::us(7), [this] { arm(); });
    }
  };
  std::vector<Chain> chains(width, Chain{sim, 0});
  const auto t0 = std::chrono::steady_clock::now();
  for (auto& c : chains) {
    c.budget = total_events / width;
    c.arm();
  }
  sim.run();
  Row r{"fire", sim.events_processed(), seconds_since(t0), 0};
  r.events_per_sec = static_cast<double>(r.events) / r.wall_s;
  return r;
}

Row run_cancel(std::uint64_t total_events, std::size_t width) {
  sim::Simulator sim;
  // Each live event re-arms itself and a decoy timeout that it cancels
  // on the next firing — one cancel per fire, like an ack arriving
  // before the retransmit timer.
  struct Retry {
    sim::Simulator& sim;
    std::uint64_t budget;
    sim::Simulator::EventId decoy = sim::Simulator::kInvalidEvent;
    void arm() {
      if (decoy != sim::Simulator::kInvalidEvent) sim.cancel(decoy);
      decoy = sim::Simulator::kInvalidEvent;
      if (budget == 0) return;
      --budget;
      decoy = sim.schedule_after(sim::sec(60), [] {});
      sim.schedule_after(sim::us(11), [this] { arm(); });
    }
  };
  std::vector<Retry> retries(width, Retry{sim, 0});
  const auto t0 = std::chrono::steady_clock::now();
  for (auto& rt : retries) {
    rt.budget = total_events / width;
    rt.arm();
  }
  sim.run();
  Row r{"cancel", sim.events_processed(), seconds_since(t0), 0};
  r.events_per_sec = static_cast<double>(r.events) / r.wall_s;
  return r;
}

Row run_timers(std::uint64_t total_events, std::size_t width) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  std::vector<sim::Simulator::TimerId> ids;
  ids.reserve(width);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < width; ++i) {
    ids.push_back(
        sim.add_timer(sim::us(13 + i % 7), [&fired] { ++fired; }));
  }
  while (fired < total_events) {
    sim.run(total_events - fired);
  }
  for (const auto id : ids) sim.cancel_timer(id);
  sim.run();
  Row r{"timers", sim.events_processed(), seconds_since(t0), 0};
  r.events_per_sec = static_cast<double>(r.events) / r.wall_s;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t events = 2'000'000;
  std::int64_t width = 1024;
  std::string json_path;
  FlagParser parser(
      "sim_core — discrete-event scheduler microbench (events/sec through\n"
      "the schedule/fire/cancel hot path; no pub/sub logic involved).");
  parser.add("events", "events to process per workload", &events);
  parser.add("width", "concurrently pending events / timers", &width);
  parser.add("json", "append a bench record to this JSON file", &json_path);
  if (!parser.parse(argc, argv, std::cout, std::cerr)) return 1;

  std::puts("=== sim_core: scheduler hot-path events/sec ===");
  std::printf("%-8s %12s %10s %14s\n", "workload", "events", "wall s",
              "events/sec");
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<Row> rows;
  rows.push_back(run_fire(static_cast<std::uint64_t>(events),
                          static_cast<std::size_t>(width)));
  rows.push_back(run_cancel(static_cast<std::uint64_t>(events),
                            static_cast<std::size_t>(width)));
  rows.push_back(run_timers(static_cast<std::uint64_t>(events),
                            static_cast<std::size_t>(width)));
  for (const Row& r : rows) {
    std::printf("%-8s %12llu %10.3f %14.0f\n", r.label.c_str(),
                static_cast<unsigned long long>(r.events), r.wall_s,
                r.events_per_sec);
  }
  const double total_wall = seconds_since(t0);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"sim_core\",\n  \"jobs\": 1,\n"
                 "  \"total_wall_s\": %.6f,\n  \"points\": [\n", total_wall);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "    {\"label\": \"%s\", \"wall_s\": %.6f, "
                   "\"sim_events\": %llu, \"events_per_sec\": %.0f, "
                   "\"metrics\": {\"events_per_sec\": %.0f}}%s\n",
                   r.label.c_str(), r.wall_s,
                   static_cast<unsigned long long>(r.events),
                   r.events_per_sec, r.events_per_sec,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }
  return 0;
}
