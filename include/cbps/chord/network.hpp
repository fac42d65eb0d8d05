// Simulation-side container for a Chord ring.
//
// Owns the nodes, the clock's view of the "wire" (latency + hop
// accounting), liveness, and a ground-truth key->node oracle used both to
// build static topologies and to verify routing in tests.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cbps/chord/config.hpp"
#include "cbps/chord/node.hpp"
#include "cbps/chord/wire.hpp"
#include "cbps/metrics/registry.hpp"
#include "cbps/metrics/trace.hpp"
#include "cbps/overlay/payload.hpp"
#include "cbps/sim/latency.hpp"
#include "cbps/sim/loss.hpp"
#include "cbps/sim/simulator.hpp"

namespace cbps::chord {

class ChordNetwork {
 public:
  ChordNetwork(sim::SimulatorBase& sim, ChordConfig cfg, std::uint64_t seed,
               std::unique_ptr<sim::LatencyModel> latency = nullptr);
  ~ChordNetwork();

  ChordNetwork(const ChordNetwork&) = delete;
  ChordNetwork& operator=(const ChordNetwork&) = delete;

  // --- membership -------------------------------------------------------
  /// Create a node whose identifier is the consistent hash of `name`
  /// (salted on the rare id collision). The node is alive but not wired
  /// into the ring until build_static_ring() or begin_join().
  ChordNode& add_node(const std::string& name);

  /// Create a node with an explicit identifier (tests).
  ChordNode& add_node_with_id(Key id, std::string name);

  /// Install exact predecessor/successor/finger state on every alive
  /// node (equivalent to running the join + stabilization protocols to
  /// quiescence; what benches use).
  void build_static_ring();

  /// Dynamically join a new node through `bootstrap` using the message
  /// protocol. Returns the joining node.
  ChordNode& join_node(const std::string& name, Key bootstrap);

  /// Graceful departure with state handover.
  void leave_gracefully(Key id);

  /// Abrupt failure: the node simply stops responding.
  void crash(Key id);

  // --- fault injection ----------------------------------------------------
  /// Split the network: nodes in different groups cannot exchange
  /// messages (sends fail like a connection to a dead peer; in-flight
  /// messages are dropped at the cut). Nodes absent from every group —
  /// including nodes that join later — form an implicit remainder
  /// group, so set_partition({minority}) cuts `minority` off from
  /// everyone else.
  void set_partition(const std::vector<std::vector<Key>>& groups);

  /// Remove the partition. Ring re-merge is the nodes' job (remembered-
  /// contact probing + stabilization); the wire just works again.
  void heal_partition();

  bool partitioned() const { return partitioned_; }

  /// True when `a` and `b` can currently exchange messages.
  bool reachable(Key a, Key b) const;

  /// Gray failure: multiply every transmission delay touching `id` (as
  /// sender or receiver) by `factor` (>= 1). factor == 1 clears.
  void set_slow_factor(Key id, double factor);
  void clear_slow_factors();
  double slow_factor(Key id) const;

  /// Swap the in-flight loss model at runtime (nullptr = lossless).
  /// The model is a *prototype*: every node keeps its own clone as its
  /// sender-side channel, drawn from its own loss RNG stream, so loss
  /// decisions are a function of the sender's transmission history alone
  /// — independent of the engine's shard count. Installing and later
  /// removing a model never perturbs latency or topology sampling.
  void set_loss_model(std::unique_ptr<sim::LossModel> model);
  sim::LossModel* loss_model() { return loss_.get(); }

  /// Number of alive senders whose Gilbert–Elliott channel is currently
  /// in the Bad state (0 when another/no loss model is installed).
  std::size_t loss_bad_state_count() const;

  // --- lookup / iteration ------------------------------------------------
  bool is_alive(Key id) const;
  ChordNode* node(Key id);
  const ChordNode* node(Key id) const;

  std::size_t alive_count() const { return alive_.size(); }
  /// Sorted identifiers of alive nodes.
  std::vector<Key> alive_ids() const { return alive_; }
  /// Alive node by dense index (0 <= i < alive_count()), in id order.
  /// O(1): the alive set is kept as a sorted vector (workload drivers
  /// call this on their random-node-pick hot path).
  ChordNode& alive_node(std::size_t i);

  /// Ground truth: the node that covers `key` (the successor of `key`
  /// among alive ring members).
  Key oracle_successor(Key key) const;

  /// Start periodic maintenance on every alive node.
  void start_maintenance_all();
  /// Stop periodic maintenance on every alive node (lets a simulation
  /// drain to quiescence after a fault scenario).
  void stop_maintenance_all();

  // --- wire ---------------------------------------------------------------
  /// Deliver `msg` from `from` to `to` after one network latency sample.
  /// Returns false without sending if `to` is not alive (models a failed
  /// connection attempt; the caller should evict the peer and retry).
  bool transmit(Key from, Key to, WireMessage msg,
                overlay::MessageClass cls);

  /// Schedule a zero-latency local action (self-deliveries are
  /// asynchronous but free).
  void self_deliver(std::function<void()> action);

  // --- environment ---------------------------------------------------------
  sim::SimulatorBase& sim() { return sim_; }
  Rng& rng() { return rng_; }
  overlay::TrafficStats& traffic() { return traffic_; }
  const overlay::TrafficStats& traffic() const { return traffic_; }
  metrics::Registry& registry() { return registry_; }
  const ChordConfig& config() const { return cfg_; }
  RingParams ring() const { return cfg_.ring; }

  // --- observability ------------------------------------------------------
  /// Install a per-run trace sink (nullptr = tracing off, the default).
  /// Not owned; must outlive the network.
  void set_trace_sink(metrics::TraceSink* sink) { trace_sink_ = sink; }
  metrics::TraceSink* trace_sink() const { return trace_sink_; }

  /// Registry handles resolved once at construction so per-message code
  /// never does a std::map string lookup (see Registry's cached-handle
  /// API). Shared by the network's wire and every ChordNode.
  struct HotStats {
    explicit HotStats(metrics::Registry& reg);

    metrics::Counter* send_to_dead;
    metrics::Counter* route_dropped;
    metrics::Counter* route_no_candidate;
    metrics::Counter* mcast_dropped_keys;
    metrics::Counter* chain_dropped;
    metrics::Counter* chain_no_candidate;
    metrics::Counter* lookup_dropped;
    metrics::Counter* lookup_no_candidate;
    metrics::Counter* net_partition_refused;
    metrics::Counter* net_partition_dropped;
    metrics::Counter* net_lost;
    metrics::Counter* join_retry;
    std::array<metrics::Counter*, overlay::kMessageClassCount>
        net_lost_by_class;
    // Per-message-class wire service time (sampled latency incl. the
    // gray-failure slowdown, microseconds): the load observatory's
    // per-class service-time profile ("chord.net.delay_us.<class>").
    std::array<metrics::Histogram*, overlay::kMessageClassCount>
        delay_us_by_class;
    metrics::Histogram* route_hops;       // hops of completed app routes
    metrics::Histogram* mcast_fanout;     // branches per m-cast split
    overlay::LinkStats link;  // the nodes' ack/retry layer
  };
  HotStats& hot() { return hot_; }

 private:
  // Per-sender wire state: every node draws its latency and loss
  // decisions from its own RNG streams (seeded from the run seed and the
  // node id) and owns a clone of the loss-model prototype. This makes
  // every wire draw a pure function of the sender's own transmission
  // history, which is what lets the parallel engine transmit from many
  // shards concurrently while staying bit-identical to the serial run:
  // a single shared stream would be consumed in wall-clock order.
  struct WireState {
    common::Domain domain = common::kGlobalDomain;
    Rng latency_rng;
    Rng loss_rng;
    std::unique_ptr<sim::LossModel> loss;  // null = lossless channel
  };

  sim::SimulatorBase& sim_;
  ChordConfig cfg_;
  std::uint64_t seed_;
  Rng rng_;
  std::unique_ptr<sim::LatencyModel> latency_;
  std::unique_ptr<sim::LossModel> loss_;  // prototype; null = lossless
  std::unordered_map<Key, WireState> wire_;
  overlay::TrafficStats traffic_;
  metrics::Registry registry_;
  HotStats hot_{registry_};
  metrics::TraceSink* trace_sink_ = nullptr;

  std::map<Key, std::unique_ptr<ChordNode>> nodes_;  // includes dead nodes
  std::vector<Key> alive_;  // sorted; O(1) dense indexing for benches
  // Gracefully-departed (not crashed) nodes: lame ducks that may still
  // receive acks while their pending reliable sends drain.
  std::unordered_set<Key> departed_;

  // Fault state. partition_group_ maps node -> group id while a
  // partition is active (unlisted nodes are group 0); slow_factors_
  // holds the gray-failure latency multipliers (> 1 only).
  bool partitioned_ = false;
  std::unordered_map<Key, int> partition_group_;
  std::unordered_map<Key, double> slow_factors_;
};

}  // namespace cbps::chord
