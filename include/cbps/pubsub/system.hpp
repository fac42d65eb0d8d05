// End-to-end assembly: simulator + Chord ring + one CB-pub/sub node per
// overlay node. This is the public entry point examples and benches use.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "cbps/chord/network.hpp"
#include "cbps/metrics/timeseries.hpp"
#include "cbps/metrics/trace.hpp"
#include "cbps/pubsub/mapping.hpp"
#include "cbps/pubsub/node.hpp"
#include "cbps/sim/simulator.hpp"

namespace cbps::pubsub {

struct SystemConfig {
  std::size_t nodes = 500;             // paper default (§5.1)
  /// Virtual overlay nodes per physical host (Chord's own load-balancing
  /// mechanism; the paper's §4.2 points at "techniques at the level of
  /// KN-mapping" for fighting load imbalance). `nodes` then counts
  /// virtual nodes; hosts = nodes / virtual_nodes_per_host.
  std::size_t virtual_nodes_per_host = 1;
  std::uint64_t seed = 42;
  chord::ChordConfig chord;            // key space 2^13 by default
  PubSubConfig pubsub;
  MappingKind mapping = MappingKind::kSelectiveAttribute;
  MappingOptions mapping_options;
  sim::SimTime message_delay = sim::ms(50);  // paper default (§5.1)
  /// Fraction of publish/subscribe roots that start a causal trace
  /// (0 = tracing off; the sink is then never even allocated).
  double trace_sample_rate = 0.0;
  /// Must be 1: the simulator is single-threaded. Kept only because the
  /// standalone perfbench build sets it; PubSubSystem asserts the value.
  std::size_t sim_threads = 1;
};

/// A complete simulated deployment of the paper's architecture.
class PubSubSystem {
 public:
  /// All-notifications sink: subscriber's overlay key + the notification.
  using NotifySink = PubSubNode::NotifySink;

  PubSubSystem(SystemConfig cfg, Schema schema);
  ~PubSubSystem();

  PubSubSystem(const PubSubSystem&) = delete;
  PubSubSystem& operator=(const PubSubSystem&) = delete;

  // --- topology ----------------------------------------------------------
  std::size_t node_count() const { return node_ids_.size(); }
  /// Overlay key of the i-th node (nodes ordered by ring id).
  Key node_id(std::size_t i) const { return node_ids_[i]; }
  PubSubNode& pubsub_node(std::size_t i);
  chord::ChordNode& chord_node(std::size_t i);
  chord::ChordNetwork& network() { return *network_; }
  const AkMapping& mapping() const { return *mapping_; }
  const Schema& schema() const { return mapping_->schema(); }
  const SystemConfig& config() const { return cfg_; }

  // --- membership ------------------------------------------------------------
  /// Join a brand-new node through the overlay's join protocol, with the
  /// CB-pub/sub layer attached from the start (so state handover and
  /// deliveries reach the application). Requires Chord maintenance to be
  /// running for the ring to converge. Returns the node's dense index.
  std::size_t join_node(const std::string& name);

  /// Graceful departure / crash of node i. The node's pub/sub layer
  /// stays allocated (in-flight shared state) but it no longer counts in
  /// storage statistics. Crashing also halts the pub/sub layer: a dead
  /// rendezvous must not keep flushing buffered notifications.
  void leave_node(std::size_t i);
  void crash_node(std::size_t i);

  /// Dense index of the node with overlay key `id` (asserts on unknown).
  std::size_t index_of(Key id) const;

  /// Ask every alive node to rebuild the replica chains of its owned
  /// subscriptions along the current ring. Run after a partition heals;
  /// returns the number of records re-replicated.
  std::size_t re_replicate_all();

  /// Ask every alive node to re-issue its live subscriptions toward their
  /// current rendezvous (soft-state refresh). Recovers records whose
  /// entire owner+replica chain crashed; returns subscriptions re-issued.
  std::size_t refresh_all_subscriptions();

  // --- application operations ---------------------------------------------
  /// Issue a subscription from node `node_idx`; returns the registered
  /// subscription (its id is sub->id).
  SubscriptionPtr subscribe(std::size_t node_idx,
                            std::vector<Constraint> constraints,
                            sim::SimTime ttl = sim::kSimTimeNever);
  void unsubscribe(std::size_t node_idx, SubscriptionId id);

  /// Disjunction support (§3.2: "disjunctive constraints can be treated
  /// as separate subscriptions"): registers one subscription per clause.
  /// An event matching several clauses yields one notification per
  /// matching clause; deduplicate by event id at the application if
  /// at-most-once across the disjunction is required.
  std::vector<SubscriptionPtr> subscribe_disjunction(
      std::size_t node_idx, std::vector<std::vector<Constraint>> clauses,
      sim::SimTime ttl = sim::kSimTimeNever);
  /// Publish an event from node `node_idx`; returns its id.
  EventId publish(std::size_t node_idx, std::vector<Value> values);

  /// Invoked for every notification delivered anywhere in the system (in
  /// addition to any per-node sink behavior).
  void set_notify_sink(NotifySink sink);

  // --- execution ------------------------------------------------------------
  sim::Simulator& sim() { return sim_; }
  /// Advance simulated time by `d`, processing all due events.
  void run_for(sim::SimTime d) { sim_.run_until(sim_.now() + d); }
  /// Drain every pending event (terminates: no periodic idle timers are
  /// armed unless Chord maintenance is on).
  void quiesce() { sim_.run(); }

  // --- measurements -----------------------------------------------------------
  overlay::TrafficStats& traffic() { return network_->traffic(); }

  struct StorageStats {
    std::size_t max_owned = 0;     // max over nodes, current
    double avg_owned = 0.0;        // mean over nodes, current
    std::size_t max_peak = 0;      // max over nodes, lifetime peak
    double avg_peak = 0.0;
    std::size_t total_owned = 0;   // system-wide stored subscriptions
    std::size_t total_replicas = 0;
  };
  StorageStats storage_stats() const;

  /// Storage aggregated per physical host (sums each host's virtual
  /// nodes; identical to storage_stats() when virtual_nodes_per_host
  /// is 1). Host peaks are the sums of per-virtual peaks — exact for
  /// monotonically growing stores.
  StorageStats host_storage_stats() const;

  std::size_t host_count() const;
  /// The physical host owning node i.
  std::size_t host_of(std::size_t i) const { return host_of_[i]; }

  std::uint64_t subscriptions_issued() const { return subs_issued_; }
  std::uint64_t publications_issued() const { return pubs_issued_; }
  std::uint64_t notifications_delivered() const;
  /// Notifications dropped by the end-to-end duplicate filter (lossy runs).
  std::uint64_t duplicates_suppressed() const;
  /// Gossip-backend counters summed over all nodes (all zero unless
  /// pubsub.dissemination == kGossip).
  PubSubNode::GossipStats gossip_stats() const;

  /// Publish-to-notify latency across all subscribers (seconds).
  RunningStat notification_delay() const;

  /// Publish-to-notify latency distribution (seconds, percentiles),
  /// merged across all subscribers.
  metrics::Histogram delay_histogram() const;
  /// Rendezvous-key fan-out per publish, merged across all publishers.
  metrics::Histogram fanout_histogram() const;

  /// Per-rendezvous-key load sketches folded over every node in ring
  /// order (the canonical domain order; TopK::merge is permutation-
  /// invariant, so the fold order cannot change the result).
  /// Crashed/departed nodes are included: load they served before dying
  /// is still load the ring carried.
  KeyLoad key_load() const;

  /// Ring-wide load-imbalance coefficients over the alive nodes'
  /// per-node KeyLoad totals.
  struct LoadImbalance {
    std::uint64_t max_load = 0;   // hottest node's load units
    double mean_load = 0.0;       // mean over alive nodes
    double max_over_mean = 0.0;   // 1.0 = perfectly balanced
    double gini = 0.0;            // 0 = equal, -> 1 = one node does all
  };
  LoadImbalance load_imbalance() const;

  // --- observability ---------------------------------------------------------
  /// Per-run causal-trace sink; null unless cfg.trace_sample_rate > 0.
  /// Wired into the overlay network and every pub/sub node (joins too).
  metrics::TraceSink* trace_sink() { return trace_sink_.get(); }

  /// Arm the periodic time-series sampler (one row every `period`,
  /// plus a baseline row now). Call stop_sampler() before quiesce():
  /// the periodic timer otherwise keeps the event queue alive forever.
  void start_sampler(sim::SimTime period);
  void stop_sampler();
  bool sampler_running() const { return sampler_timer_ != 0; }
  const metrics::TimeSeries& timeseries() const { return series_; }

 private:
  void sample_once();

  SystemConfig cfg_;
  sim::Simulator sim_;
  std::unique_ptr<AkMapping> mapping_;
  std::unique_ptr<chord::ChordNetwork> network_;
  std::vector<Key> node_ids_;  // ring order
  std::vector<std::unique_ptr<PubSubNode>> nodes_;  // parallel to node_ids_
  std::vector<std::size_t> host_of_;                // parallel to node_ids_
  std::size_t hosts_ = 0;

  std::unique_ptr<metrics::TraceSink> trace_sink_;
  metrics::TimeSeries series_{{"in_flight_events", "pending_retries",
                               "owned_subs_max", "owned_subs_avg",
                               "alive_nodes", "notifications_delivered",
                               "ge_bad_state", "load_max_over_mean",
                               "load_gini"}};
  sim::Simulator::TimerId sampler_timer_ = 0;

  NotifySink sink_;
  SubscriptionId next_sub_id_ = 1;
  EventId next_event_id_ = 1;
  std::uint64_t subs_issued_ = 0;
  std::uint64_t pubs_issued_ = 0;
};

}  // namespace cbps::pubsub
