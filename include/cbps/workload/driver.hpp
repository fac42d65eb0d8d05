// Replays the paper's workload against a PubSubSystem (§5.1):
// subscriptions injected at a regular rate from random nodes,
// publications as a Poisson process, randomly interleaved.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "cbps/pubsub/delivery_checker.hpp"
#include "cbps/pubsub/system.hpp"
#include "cbps/workload/generator.hpp"
#include "cbps/workload/trace.hpp"

namespace cbps::workload {

struct DriverParams {
  /// Interval between subscription injections (paper: one each 5 s).
  sim::SimTime sub_interval = sim::sec(5);
  /// Mean of the exponential inter-publication time (paper: 5 s).
  double pub_mean_interval_s = 5.0;
  /// Lifetime of injected subscriptions (simulated unsubscription).
  sim::SimTime sub_ttl = sim::kSimTimeNever;
  /// Stop issuing after these many operations.
  std::uint64_t max_subscriptions = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_publications = std::numeric_limits<std::uint64_t>::max();

  /// Temporal locality of the event stream (§4.3.2: "consecutive events
  /// exhibit temporal locality, i.e., have close attribute values"):
  /// probability that a publication stays in the region of the previous
  /// one (drawing a fresh point inside the same matched subscription)
  /// instead of re-anchoring. 0 = independent events.
  double event_locality = 0.0;
};

class Driver {
 public:
  /// The checker, when given, is fed every subscribe/publish and is wired
  /// as the system's notification sink. The trace, when given, records
  /// every injected operation for later replay.
  Driver(pubsub::PubSubSystem& system, WorkloadGenerator& gen,
         DriverParams params, pubsub::DeliveryChecker* checker = nullptr,
         Trace* record = nullptr);

  /// Arm the injection processes. Call once, then run the simulator.
  void start();

  /// True when both processes reached their operation budgets.
  bool finished() const {
    return subs_issued_ >= params_.max_subscriptions &&
           pubs_issued_ >= params_.max_publications;
  }

  /// Run the system until both budgets are exhausted and the network has
  /// drained (requires finite budgets).
  void run_to_completion();

  std::uint64_t subscriptions_issued() const { return subs_issued_; }
  std::uint64_t publications_issued() const { return pubs_issued_; }

  /// Subscriptions not yet expired at the current simulated time.
  const std::vector<pubsub::SubscriptionPtr>& active_subscriptions();

 private:
  void inject_subscription();
  void inject_publication();
  void schedule_next_subscription();
  void schedule_next_publication();
  std::size_t random_node();
  void prune_expired();

  pubsub::PubSubSystem& system_;
  WorkloadGenerator& gen_;
  DriverParams params_;
  pubsub::DeliveryChecker* checker_;
  Trace* record_;

  // Subscriptions not yet pruned, in injection order, and their expiry
  // times. sub_ttl is fixed, so expiries never decrease along the vector
  // and pruning drops a prefix.
  std::vector<pubsub::SubscriptionPtr> active_;
  std::vector<sim::SimTime> expires_at_;
  pubsub::SubscriptionPtr locality_anchor_;  // last matched subscription
  std::vector<Value> anchor_values_;         // last non-matching point

  std::uint64_t subs_issued_ = 0;
  std::uint64_t pubs_issued_ = 0;
};

}  // namespace cbps::workload
