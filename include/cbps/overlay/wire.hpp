// The overlay wire every structured overlay shares: the application
// messages a node transmits and their approximate sizes, the registry
// handles both networks count under, the per-sender wire streams, and
// NetworkCore — the simulation container plumbing around them.
//
// An overlay's wire variant is these five messages plus whatever
// membership and control messages the overlay adds (Chord: chord/wire.hpp;
// Pastry's static rings add none). Its network derives from NetworkCore
// and adds its routing-state construction, its transmit and its
// membership operations.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cbps/common/assert.hpp"
#include "cbps/common/exec_context.hpp"
#include "cbps/common/hash.hpp"
#include "cbps/common/ring.hpp"
#include "cbps/common/rng.hpp"
#include "cbps/common/types.hpp"
#include "cbps/metrics/registry.hpp"
#include "cbps/metrics/trace.hpp"
#include "cbps/overlay/payload.hpp"
#include "cbps/overlay/reliable_link.hpp"
#include "cbps/sim/latency.hpp"
#include "cbps/sim/loss.hpp"
#include "cbps/sim/simulator.hpp"

namespace cbps::overlay {

/// Application unicast being routed to the node covering `target`
/// (paper's send(m, k)).
struct RouteMsg {
  Key target = 0;
  PayloadPtr payload;
  std::uint32_t hops = 0;  // transmissions so far
  Key origin = 0;          // node that issued the send()
  std::uint64_t seq = 0;   // reliability sequence id (0 = no ack wanted)
  std::uint64_t parent_span = 0;  // trace: span of the previous hop
};

/// Native multicast (paper §4.3.1, Figure 4). `targets` is the subset of
/// the original key set delegated to the recipient, sorted by ring
/// distance from the original sender.
struct McastMsg {
  std::vector<Key> targets;
  PayloadPtr payload;
  std::uint32_t hops = 0;  // delegation depth guard
  std::uint64_t seq = 0;   // reliability sequence id (0 = no ack wanted)
  std::uint64_t parent_span = 0;  // trace: span of the delegating split
};

/// Conservative unicast-based one-to-many baseline: the remaining keys
/// are visited in ring order, hopping successor-by-successor.
struct ChainMsg {
  std::vector<Key> targets;  // sorted in ring order from targets.front()
  PayloadPtr payload;
  std::uint32_t hops = 0;
  std::uint64_t seq = 0;     // reliability sequence id (0 = no ack wanted)
  std::uint64_t parent_span = 0;  // trace: span of the previous hop
};

/// Direct one-hop application message to a ring neighbor (§4.3.2
/// collecting uses these).
struct NeighborMsg {
  PayloadPtr payload;
  std::uint64_t seq = 0;  // reliability sequence id (0 = no ack wanted)
};

/// Hop-level acknowledgment of a reliable application message. The
/// field is deliberately not named `seq` so acks never look like
/// ack-requesting traffic themselves.
struct AckMsg {
  std::uint64_t acked_seq = 0;
};

/// Approximate wire size of a message: the application payload plus
/// 8 bytes per carried key; an ack is a small fixed-size message.
inline std::size_t wire_size_bytes(const RouteMsg& m) {
  return m.payload->size_bytes() + 8;
}
inline std::size_t wire_size_bytes(const McastMsg& m) {
  return m.payload->size_bytes() + 8 * m.targets.size();
}
inline std::size_t wire_size_bytes(const ChainMsg& m) {
  return m.payload->size_bytes() + 8 * m.targets.size();
}
inline std::size_t wire_size_bytes(const NeighborMsg& m) {
  return m.payload->size_bytes();
}
inline std::size_t wire_size_bytes(const AckMsg&) { return 16; }

/// Registry handles resolved once per network under the overlay's
/// counter prefix ("chord.", "pastry.") so per-message code never does a
/// std::map string lookup (see Registry's cached-handle API). Shared by
/// the network's wire and every node.
struct OverlayStats {
  OverlayStats(metrics::Registry& reg, std::string_view prefix)
      : link(reg, prefix) {
    const std::string p(prefix);
    send_to_dead = reg.counter_handle(p + "send_to_dead");
    route_dropped = reg.counter_handle(p + "route_dropped");
    route_no_candidate = reg.counter_handle(p + "route_no_candidate");
    mcast_dropped_keys = reg.counter_handle(p + "mcast_dropped_keys");
    chain_dropped = reg.counter_handle(p + "chain_dropped");
    chain_no_candidate = reg.counter_handle(p + "chain_no_candidate");
    net_lost = reg.counter_handle(p + "net.lost");
    for (std::size_t c = 0; c < kMessageClassCount; ++c) {
      net_lost_by_class[c] = reg.counter_handle(
          p + "net.lost." +
          std::string(to_string(static_cast<MessageClass>(c))));
    }
    route_hops = reg.histogram_handle(p + "route_hops");
    mcast_fanout = reg.histogram_handle(p + "mcast_fanout");
  }

  metrics::Counter* send_to_dead;
  metrics::Counter* route_dropped;
  metrics::Counter* route_no_candidate;
  metrics::Counter* mcast_dropped_keys;
  metrics::Counter* chain_dropped;
  metrics::Counter* chain_no_candidate;
  metrics::Counter* net_lost;
  std::array<metrics::Counter*, kMessageClassCount> net_lost_by_class;
  metrics::Histogram* route_hops;    // hops of completed app routes
  metrics::Histogram* mcast_fanout;  // branches per m-cast split
  LinkStats link;  // the nodes' ack/retry layer
};

/// Per-sender wire state: every node draws its latency and loss
/// decisions from its own RNG streams (seeded from the run seed and the
/// node id) and owns a clone of the loss-model prototype. This makes
/// every wire draw a pure function of the sender's own transmission
/// history: traffic on one node never shifts another node's draws. The
/// streams do not depend on registration order, and the loss stream is
/// dedicated, so enabling loss never perturbs latency.
struct WireState {
  /// `loss_prototype` null = lossless channel.
  WireState(common::Domain domain, std::uint64_t seed, Key id,
            const sim::LossModel* loss_prototype)
      : domain(domain),
        latency_rng(mix64(seed ^ mix64(id))),
        loss_rng(mix64(seed ^ mix64(id) ^ 0x9e3779b97f4a7c15ull)),
        loss(loss_prototype ? loss_prototype->clone() : nullptr) {}

  /// The loss draw of one transmission by this sender. A lost message
  /// hit the wire (the caller already recorded its hop and bytes) but
  /// never arrives; it is counted in `net.lost` and `net.lost.<class>`.
  bool lost(const OverlayStats& stats, MessageClass cls) {
    if (loss == nullptr || !loss->drop(loss_rng)) return false;
    stats.net_lost->inc();
    stats.net_lost_by_class[static_cast<std::size_t>(cls)]->inc();
    return true;
  }

  common::Domain domain = common::kGlobalDomain;
  Rng latency_rng;
  Rng loss_rng;
  std::unique_ptr<sim::LossModel> loss;  // null = lossless channel
};

/// `Derived` is the overlay's network: nodes are constructed as
/// Node(Derived&, id, name, domain) and provide cancel_pending_sends().
/// `Stats` extends OverlayStats and is constructed from (registry,
/// counter prefix). `Config` has `ring` and `loss_rate`.
template <class Derived, class Node, class Config, class Stats>
class NetworkCore {
 public:
  NetworkCore(const NetworkCore&) = delete;
  NetworkCore& operator=(const NetworkCore&) = delete;

  /// Create a node whose identifier is the consistent hash of `name`
  /// (salted on the rare id collision). The node is alive but not wired
  /// into the ring until the overlay builds or joins it.
  Node& add_node(const std::string& name) {
    Key id = consistent_hash(name, cfg_.ring);
    int salt = 0;
    while (nodes_.contains(id)) {
      id = consistent_hash(name + "#" + std::to_string(salt++), cfg_.ring);
    }
    return add_node_with_id(id, name);
  }

  /// Create a node with an explicit identifier (tests).
  Node& add_node_with_id(Key id, std::string name) {
    CBPS_ASSERT_MSG(!nodes_.contains(id), "duplicate node id");
    CBPS_ASSERT(id <= cfg_.ring.max_key());
    WireState ws(sim_.register_domain(), seed_, id, loss_.get());
    auto node = std::make_unique<Node>(static_cast<Derived&>(*this), id,
                                       std::move(name), ws.domain);
    Node& ref = *node;
    nodes_.emplace(id, std::move(node));
    wire_.emplace(id, std::move(ws));
    alive_.insert(std::lower_bound(alive_.begin(), alive_.end(), id), id);
    return ref;
  }

  bool is_alive(Key id) const {
    return std::binary_search(alive_.begin(), alive_.end(), id);
  }
  std::size_t alive_count() const { return alive_.size(); }
  /// Sorted identifiers of alive nodes.
  std::vector<Key> alive_ids() const { return alive_; }
  /// Alive node by dense index (0 <= i < alive_count()), in id order.
  /// O(1): the alive set is kept as a sorted vector (workload drivers
  /// call this on their random-node-pick hot path).
  Node& alive_node(std::size_t i) {
    CBPS_ASSERT(i < alive_.size());
    return *nodes_.at(alive_[i]);
  }
  Node* node(Key id) {
    auto it = nodes_.find(id);
    return it == nodes_.end() ? nullptr : it->second.get();
  }
  const Node* node(Key id) const {
    auto it = nodes_.find(id);
    return it == nodes_.end() ? nullptr : it->second.get();
  }

  /// Ground truth: the node that covers `key` (the successor of `key`
  /// among alive ring members).
  Key oracle_successor(Key key) const {
    CBPS_ASSERT_MSG(!alive_.empty(), "no alive nodes");
    auto it = std::lower_bound(alive_.begin(), alive_.end(), key);
    return it == alive_.end() ? alive_.front() : *it;
  }

  /// Schedule a zero-latency local action (self-deliveries are
  /// asynchronous but free).
  void self_deliver(std::function<void()> action) {
    sim_.schedule_after(0, std::move(action));
  }

  sim::Simulator& sim() { return sim_; }
  TrafficStats& traffic() { return traffic_; }
  const TrafficStats& traffic() const { return traffic_; }
  metrics::Registry& registry() { return registry_; }
  const Config& config() const { return cfg_; }
  RingParams ring() const { return cfg_.ring; }

  /// Install a per-run trace sink (nullptr = tracing off, the default).
  /// Not owned; must outlive the network.
  void set_trace_sink(metrics::TraceSink* sink) { trace_sink_ = sink; }
  metrics::TraceSink* trace_sink() const { return trace_sink_; }

  /// Registry handles resolved once at construction, shared by the wire
  /// and every node.
  Stats& hot() { return hot_; }

 protected:
  /// A non-zero `cfg.loss_rate` installs uniform loss; null `latency`
  /// means sim::default_latency().
  NetworkCore(sim::Simulator& sim, Config cfg, std::uint64_t seed,
              std::unique_ptr<sim::LatencyModel> latency,
              std::string_view prefix)
      : sim_(sim),
        cfg_(cfg),
        seed_(seed),
        latency_(latency ? std::move(latency) : sim::default_latency()),
        hot_(registry_, prefix) {
    if (cfg_.loss_rate > 0.0) {
      loss_ = std::make_unique<sim::UniformLoss>(cfg_.loss_rate);
    }
  }

  ~NetworkCore() {
    // Retry timers reference the simulator and capture node pointers;
    // cancel them while the nodes still exist.
    for (auto& [_, n] : nodes_) n->cancel_pending_sends();
  }

  sim::Simulator& sim_;
  Config cfg_;
  std::uint64_t seed_;
  std::unique_ptr<sim::LatencyModel> latency_;
  std::unique_ptr<sim::LossModel> loss_;  // prototype; null = lossless
  std::unordered_map<Key, WireState> wire_;
  TrafficStats traffic_;
  metrics::Registry registry_;
  Stats hot_;
  metrics::TraceSink* trace_sink_ = nullptr;
  std::map<Key, std::unique_ptr<Node>> nodes_;  // includes dead nodes
  std::vector<Key> alive_;  // sorted; O(1) dense indexing for benches
};

}  // namespace cbps::overlay
