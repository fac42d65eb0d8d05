// Simulation-side container for a Chord ring.
//
// Owns the nodes, the clock's view of the "wire" (latency + hop
// accounting), liveness, and a ground-truth key->node oracle used both to
// build static topologies and to verify routing in tests. The plumbing
// shared with Pastry lives in overlay::NetworkCore (overlay/wire.hpp);
// this adds membership dynamics, fault injection and the Envelope wire.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cbps/chord/config.hpp"
#include "cbps/chord/node.hpp"
#include "cbps/chord/wire.hpp"
#include "cbps/metrics/registry.hpp"
#include "cbps/overlay/wire.hpp"
#include "cbps/sim/latency.hpp"
#include "cbps/sim/loss.hpp"
#include "cbps/sim/simulator.hpp"

namespace cbps::chord {

/// The shared overlay handles ("chord." prefix) plus Chord's own:
/// lookups, partitions, join retries and per-class wire delay.
struct HotStats : overlay::OverlayStats {
  HotStats(metrics::Registry& reg, std::string_view prefix);

  metrics::Counter* lookup_dropped;
  metrics::Counter* lookup_no_candidate;
  metrics::Counter* net_partition_refused;
  metrics::Counter* net_partition_dropped;
  metrics::Counter* join_retry;
  // Per-message-class wire service time (sampled latency incl. the
  // gray-failure slowdown, microseconds): the load observatory's
  // per-class service-time profile ("chord.net.delay_us.<class>").
  std::array<metrics::Histogram*, overlay::kMessageClassCount>
      delay_us_by_class;
};

class ChordNetwork final
    : public overlay::NetworkCore<ChordNetwork, ChordNode, ChordConfig,
                                  HotStats> {
 public:
  ChordNetwork(sim::Simulator& sim, ChordConfig cfg, std::uint64_t seed,
               std::unique_ptr<sim::LatencyModel> latency = nullptr);
  ~ChordNetwork();

  // --- membership -------------------------------------------------------
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
  /// — independent of other senders' traffic. Installing and later
  /// removing a model never perturbs latency or topology sampling.
  void set_loss_model(std::unique_ptr<sim::LossModel> model);
  sim::LossModel* loss_model() { return loss_.get(); }

  /// Number of alive senders whose Gilbert–Elliott channel is currently
  /// in the Bad state (0 when another/no loss model is installed).
  std::size_t loss_bad_state_count() const;

  // --- maintenance ---------------------------------------------------------
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

 private:
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
