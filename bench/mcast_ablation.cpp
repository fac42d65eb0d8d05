// Ablation — §4.3.1's analysis of one-to-many propagation to a key
// range: the native m-cast vs the aggressive unicast baseline (one
// send() per key, in parallel) vs the conservative chain baseline
// (ring-order walk).
//
// Expected shape (paper's analysis):
//   m-cast:      O(log n + N) messages, O(log n) dilation
//   aggressive:  Omega(x * log n) messages, O(log n) dilation
//   chain:       O(log n + N) messages, O(log n + N) dilation
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cbps/chord/network.hpp"
#include "cbps/sim/simulator.hpp"
#include "sweep.hpp"

using namespace cbps;
using namespace cbps::chord;

namespace {

struct ProbePayload final : overlay::Payload {
  overlay::MessageClass message_class() const override {
    return overlay::MessageClass::kPublish;
  }
};

struct CountingApp final : overlay::OverlayApp {
  explicit CountingApp(sim::Simulator& sim) : sim_(sim) {}
  void on_deliver(Key, const overlay::PayloadPtr&) override { note(); }
  void on_deliver_mcast(std::span<const Key>,
                        const overlay::PayloadPtr&) override {
    note();
  }
  overlay::PayloadPtr export_state(Key, Key, bool) override {
    return nullptr;
  }
  void import_state(const overlay::PayloadPtr&) override {}
  void note() {
    ++deliveries;
    last_delivery = sim_.now();
  }
  sim::Simulator& sim_;
  std::uint64_t deliveries = 0;
  sim::SimTime last_delivery = 0;
};

struct Outcome {
  std::uint64_t hops = 0;
  std::uint64_t node_deliveries = 0;
  double dilation_hops = 0;  // completion time / per-hop delay
  double hops_p50 = 0;       // per-route hop distribution (unicast legs)
  double hops_p99 = 0;
  double fanout_p50 = 0;     // m-cast split branching factor
  double fanout_p99 = 0;
  std::uint64_t sim_events = 0;
};

bench::JsonFields json_fields(const Outcome& o) {
  return {{"hops", static_cast<double>(o.hops)},
          {"nodes_hit", static_cast<double>(o.node_deliveries)},
          {"dilation_hops", o.dilation_hops},
          {"hops_p50", o.hops_p50},
          {"hops_p99", o.hops_p99},
          {"fanout_p50", o.fanout_p50},
          {"fanout_p99", o.fanout_p99}};
}

bench::JsonFields metrics_fields(const Outcome& o) {
  return {{"hops_p50", o.hops_p50},
          {"hops_p99", o.hops_p99},
          {"fanout_p50", o.fanout_p50},
          {"fanout_p99", o.fanout_p99},
          {"dilation_hops", o.dilation_hops}};
}

enum class Mode { kMcast, kAggressiveUnicast, kChain };

Outcome run(Mode mode, std::uint64_t range_keys, std::size_t n = 500) {
  sim::Simulator sim;
  ChordConfig cfg;
  cfg.location_cache_size = 0;  // isolate the primitives from caching
  cfg.owner_feedback = false;
  ChordNetwork net(sim, cfg, 99);
  for (std::size_t i = 0; i < n; ++i) {
    net.add_node("node-" + std::to_string(i));
  }
  net.build_static_ring();
  std::vector<std::unique_ptr<CountingApp>> apps;
  for (Key id : net.alive_ids()) {
    apps.push_back(std::make_unique<CountingApp>(sim));
    net.node(id)->set_app(apps.back().get());
  }

  std::vector<Key> keys;
  keys.reserve(range_keys);
  for (std::uint64_t i = 0; i < range_keys; ++i) {
    keys.push_back(net.ring().wrap(1000 + i));
  }

  ChordNode& src = net.alive_node(n / 2);
  const auto payload = std::make_shared<ProbePayload>();
  const sim::SimTime start = sim.now();
  switch (mode) {
    case Mode::kMcast:
      src.m_cast(keys, payload);
      break;
    case Mode::kAggressiveUnicast:
      for (Key k : keys) src.send(k, payload);
      break;
    case Mode::kChain:
      src.chain_cast(keys, payload);
      break;
  }
  sim.run();

  Outcome out;
  out.hops = net.traffic().hops(overlay::MessageClass::kPublish);
  sim::SimTime last = start;
  for (const auto& app : apps) {
    if (app->deliveries > 0) {
      ++out.node_deliveries;  // counts nodes reached
      if (app->last_delivery > last) last = app->last_delivery;
    }
  }
  out.dilation_hops = static_cast<double>(last - start) /
                      static_cast<double>(sim::ms(50));
  metrics::Registry& reg = net.registry();
  out.hops_p50 = reg.histogram("chord.route_hops").p50();
  out.hops_p99 = reg.histogram("chord.route_hops").p99();
  out.fanout_p50 = reg.histogram("chord.mcast_fanout").p50();
  out.fanout_p99 = reg.histogram("chord.mcast_fanout").p99();
  out.sim_events = sim.events_processed();
  return out;
}

const char* mode_label(Mode m) {
  switch (m) {
    case Mode::kMcast:
      return "m-cast";
    case Mode::kAggressiveUnicast:
      return "aggressive";
    case Mode::kChain:
      return "chain";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Sweep<Outcome> sweep("mcast_ablation");
  if (!sweep.parse_args(argc, argv)) return 1;

  const std::uint64_t ranges[] = {64, 256, 1024, 4096};
  const Mode modes[] = {Mode::kMcast, Mode::kAggressiveUnicast,
                        Mode::kChain};
  for (const std::uint64_t range : ranges) {
    for (const Mode mode : modes) {
      sweep.add(std::string(mode_label(mode)) + "/range=" +
                    std::to_string(range),
                [mode, range] { return run(mode, range); });
    }
  }

  std::puts("=== m-cast ablation: one-to-many to a key range, n=500 ===");
  std::puts("(cache disabled; dilation = completion time in hop units)\n");
  std::printf("%10s %-12s %10s %12s %10s\n", "range keys", "primitive",
              "hops", "nodes hit", "dilation");
  const std::size_t per_group = std::size(modes);
  sweep.run([&](std::size_t i, const Outcome& o) {
    const std::uint64_t range = ranges[i / per_group];
    const Mode mode = modes[i % per_group];
    std::printf("%10llu %-12s %10llu %12llu %10.0f\n",
                static_cast<unsigned long long>(range), mode_label(mode),
                static_cast<unsigned long long>(o.hops),
                static_cast<unsigned long long>(o.node_deliveries),
                o.dilation_hops);
    if ((i + 1) % per_group == 0) std::puts("");
  });
  std::puts("m-cast matches the aggressive baseline's O(log n) dilation at");
  std::puts("the chain baseline's O(log n + N) message cost — the best of");
  std::puts("both, as §4.3.1 argues.");
  return 0;
}
