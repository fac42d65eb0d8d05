#include "layers.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <string>

#include "cbps/chord/network.hpp"
#include "cbps/common/rng.hpp"
#include "cbps/metrics/histogram.hpp"
#include "cbps/metrics/topk.hpp"
#include "cbps/pubsub/store.hpp"
#include "cbps/sim/latency.hpp"
#include "cbps/sim/simulator.hpp"

namespace perfbench {

using cbps::Key;
namespace chord = cbps::chord;
namespace overlay = cbps::overlay;

namespace {

/// Keeps a computed value alive so the timed call is not optimized out.
template <class T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Calls f(i) for i cycling over [0, n) until `budget_s` has elapsed;
/// returns ns per call.
template <class F>
double ns_per_call(std::size_t n, double budget_s, F&& f) {
  if (n == 0) return 0.0;
  const Clock::time_point t0 = Clock::now();
  std::uint64_t calls = 0;
  double elapsed = 0;
  do {
    for (int k = 0; k < 16; ++k) f(static_cast<std::size_t>(calls++ % n));
    elapsed = seconds_since(t0);
  } while (elapsed < budget_s);
  return elapsed * 1e9 / static_cast<double>(calls);
}

/// Owner of `k` on a static ring with the sorted node ids `ids`.
Key owner(const std::vector<Key>& ids, Key k) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), k);
  return it == ids.end() ? ids.front() : *it;
}

/// The rendezvous nodes an operation's keys reach: one per key for
/// unicast transports, one per distinct owner for m-cast.
std::vector<Key> rendezvous(const std::vector<Key>& ids,
                            const std::vector<Key>& keys, bool unicast) {
  std::vector<Key> out;
  out.reserve(keys.size());
  for (const Key k : keys) out.push_back(owner(ids, k));
  if (!unicast) {
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  return out;
}

struct ProbePayload final : overlay::Payload {
  overlay::MessageClass message_class() const override {
    return overlay::MessageClass::kSubscribe;
  }
};

/// Benchmark-owned application on the standalone ring: counts what the
/// overlay hands up and holds no state.
struct CountingApp final : overlay::OverlayApp {
  std::uint64_t delivered = 0;
  void on_deliver(Key, const overlay::PayloadPtr&) override { ++delivered; }
  void on_deliver_mcast(std::span<const Key> covered,
                        const overlay::PayloadPtr&) override {
    delivered += covered.size();
  }
  overlay::PayloadPtr export_state(Key, Key, bool) override {
    return nullptr;
  }
  void import_state(const overlay::PayloadPtr&) override {}
};

double send_cost(const WorkloadSpec& spec, const RecordedInputs& in,
                 double sim_ns, double budget_s, bool mcast) {
  if (in.ops.empty()) return 0.0;
  sim::Simulator s;
  chord::ChordNetwork net(
      s, spec.sys.chord, spec.sys.seed,
      std::make_unique<sim::FixedLatency>(spec.sys.message_delay));
  for (std::size_t i = 0; i < spec.sys.nodes; ++i) {
    net.add_node("node-" + std::to_string(i));
  }
  net.build_static_ring();
  const std::vector<Key> ids = net.alive_ids();
  CountingApp app;
  for (const Key id : ids) net.node(id)->set_app(&app);
  const overlay::PayloadPtr payload = std::make_shared<ProbePayload>();

  const Clock::time_point t0 = Clock::now();
  double elapsed = 0;
  for (std::size_t i = 0; elapsed < budget_s; i = (i + 1) % in.ops.size()) {
    const RecordedInputs::Op& op = in.ops[i];
    chord::ChordNode& origin = *net.node(ids[op.op->node % ids.size()]);
    if (mcast) {
      origin.m_cast(op.keys, payload);
    } else {
      for (const Key k : op.keys) origin.send(k, payload);
    }
    s.run();
    elapsed = seconds_since(t0);
  }
  const auto hops = static_cast<double>(net.traffic().total_hops());
  if (hops == 0) return 0.0;
  const auto events = static_cast<double>(s.events_processed());
  return (elapsed * 1e9 - sim_ns * events) / hops;
}

}  // namespace

RecordedInputs record_inputs(const workload::Trace& trace,
                             const pubsub::AkMapping& mapping) {
  RecordedInputs in;
  cbps::EventId next_event = 1;
  for (const workload::TraceOp& op : trace.ops()) {
    RecordedInputs::Op r;
    r.op = &op;
    if (op.kind == workload::TraceOp::Kind::kSubscribe) {
      auto sub = std::make_shared<pubsub::Subscription>();
      sub->id = op.sub_id;
      sub->constraints = op.constraints;
      r.keys = mapping.subscription_keys(*sub);
      in.sk_keys += r.keys.size();
      r.sub = std::move(sub);
    } else if (op.kind == workload::TraceOp::Kind::kPublish) {
      auto event = std::make_shared<pubsub::Event>();
      event->id = next_event++;
      event->values = op.values;
      r.keys = mapping.event_keys(*event);
      in.ek_keys += r.keys.size();
      r.event = std::move(event);
    } else {
      continue;
    }
    in.ops.push_back(std::move(r));
  }
  return in;
}

double sim_ns_per_event(std::size_t depth, double budget_s) {
  sim::Simulator s;
  cbps::Rng rng(0x5eed);
  // Each event re-arms itself at a random future time, so the heap
  // holds `depth` events throughout.
  struct Chain {
    sim::Simulator* s;
    cbps::Rng* rng;
    void fire() {
      s->schedule_after(1 + rng->next() % sim::sec(1), [this] { fire(); });
    }
  } chain{&s, &rng};
  for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i) {
    s.schedule_at(1 + rng.next() % sim::sec(1), [&chain] { chain.fire(); });
  }
  const Clock::time_point t0 = Clock::now();
  std::uint64_t events = 0;
  double elapsed = 0;
  do {
    events += s.run(4096);
    elapsed = seconds_since(t0);
  } while (elapsed < budget_s);
  return elapsed * 1e9 / static_cast<double>(events);
}

MappingCost mapping_cost(const RecordedInputs& in,
                         const pubsub::AkMapping& mapping, double budget_s) {
  std::vector<const pubsub::Subscription*> subs;
  std::vector<const pubsub::Event*> events;
  for (const RecordedInputs::Op& op : in.ops) {
    if (op.sub) subs.push_back(op.sub.get());
    if (op.event) events.push_back(op.event.get());
  }
  MappingCost c;
  c.sk_ns = ns_per_call(subs.size(), budget_s / 2, [&](std::size_t i) {
    keep(mapping.subscription_keys(*subs[i]));
  });
  c.ek_ns = ns_per_call(events.size(), budget_s / 2, [&](std::size_t i) {
    keep(mapping.event_keys(*events[i]));
  });
  return c;
}

OverlayCost overlay_cost(const WorkloadSpec& spec, const RecordedInputs& in,
                         double sim_ns, double budget_s) {
  OverlayCost c;
  c.route_ns_per_hop = send_cost(spec, in, sim_ns, budget_s / 2, false);
  c.mcast_ns_per_msg = send_cost(spec, in, sim_ns, budget_s / 2, true);
  return c;
}

MatchCost match_cost(const WorkloadSpec& spec, const RecordedInputs& in,
                     const pubsub::AkMapping& mapping,
                     const std::vector<Key>& node_ids, double budget_s) {
  const pubsub::Schema schema =
      pubsub::Schema::uniform(spec.dimensions, spec.attr_max);
  const bool unicast_sub = spec.sys.pubsub.sub_transport ==
                           pubsub::PubSubConfig::Transport::kUnicast;
  const bool unicast_pub = spec.sys.pubsub.pub_transport ==
                           pubsub::PubSubConfig::Transport::kUnicast;
  const sim::SimTime ttl = spec.driver.sub_ttl;
  const sim::SimTime end = in.ops.empty() ? 1 : in.ops.back().op->at + 1;

  std::map<Key, pubsub::SubscriptionStore> stores;
  auto store_at = [&](Key node) -> pubsub::SubscriptionStore& {
    auto [it, fresh] = stores.try_emplace(node);
    if (fresh) it->second.use_engine(spec.sys.pubsub.match_engine, schema);
    return it->second;
  };

  MatchCost c;
  double insert_s = 0, match_s = 0, expire_s = 0;
  std::uint64_t inserts = 0, matches = 0, hits = 0, expired = 0;
  auto sweep = [&](sim::SimTime now) {
    for (auto& [node, store] : stores) {
      if (store.next_expiry() > now) continue;
      const Clock::time_point t = Clock::now();
      expired += store.sweep_expired(now);
      expire_s += seconds_since(t);
    }
  };

  const Clock::time_point t0 = Clock::now();
  for (const RecordedInputs::Op& op : in.ops) {
    const bool is_sub = op.sub != nullptr;
    const std::vector<Key> targets =
        rendezvous(node_ids, op.keys, is_sub ? unicast_sub : unicast_pub);
    // Calls the run makes, counted over every op; the timing below
    // stops when the budget is spent.
    (is_sub ? c.inserts : c.matches) += targets.size();
    if (seconds_since(t0) >= budget_s) continue;

    const sim::SimTime at = op.op->at;
    if (ttl != sim::kSimTimeNever) sweep(at);
    if (is_sub) {
      const pubsub::SubscriptionStore::Record rec{
          op.sub, ttl == sim::kSimTimeNever ? end : at + ttl,
          mapping.subscription_ranges(*op.sub), /*replica=*/false};
      for (const Key node : targets) {
        pubsub::SubscriptionStore& store = store_at(node);
        const Clock::time_point t = Clock::now();
        store.insert(rec);
        insert_s += seconds_since(t);
        ++inserts;
      }
    } else {
      for (const Key node : targets) {
        pubsub::SubscriptionStore& store = store_at(node);
        const Clock::time_point t = Clock::now();
        const auto found = store.match(*op.event, at);
        match_s += seconds_since(t);
        ++matches;
        hits += found.empty() ? 0 : 1;
      }
    }
  }
  // Records without a TTL were given one ending after the last op.
  sweep(sim::kSimTimeNever - 1);

  auto per = [](double s, std::uint64_t n) {
    return n > 0 ? s * 1e9 / static_cast<double>(n) : 0.0;
  };
  c.insert_ns = per(insert_s, inserts);
  c.match_ns_per_call = per(match_s, matches);
  c.expire_ns = per(expire_s, expired);
  c.hit_ratio = matches > 0 ? static_cast<double>(hits) /
                                  static_cast<double>(matches)
                            : 0.0;
  return c;
}

MetricsCost metrics_cost(const std::vector<double>& samples,
                         const RecordedInputs& in, double budget_s) {
  std::vector<Key> keys;
  for (const RecordedInputs::Op& op : in.ops) {
    if (op.sub) keys.insert(keys.end(), op.keys.begin(), op.keys.end());
  }
  MetricsCost c;
  cbps::metrics::Histogram hist;
  c.hist_add_ns = ns_per_call(samples.size(), budget_s / 2,
                              [&](std::size_t i) { hist.add(samples[i]); });
  keep(hist.count());
  cbps::metrics::TopK topk;
  c.topk_offer_ns = ns_per_call(keys.size(), budget_s / 2,
                                [&](std::size_t i) { topk.offer(keys[i]); });
  keep(topk.total());
  return c;
}

double active_view_ns(workload::Driver& driver, double budget_s) {
  return ns_per_call(1, budget_s, [&](std::size_t) {
    keep(driver.active_subscriptions().size());
  });
}

}  // namespace perfbench
