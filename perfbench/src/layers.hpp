// Per-layer unit costs for the traced run. Each function calls one
// layer's public functions on inputs recorded from the run (the
// workload::Trace of a driver run) and returns host nanoseconds per
// unit of work, timed from the benchmark's side of the layer boundary.
// Every measurement is time-boxed by `budget_s`.
#pragma once

#include <cstdint>
#include <vector>

#include "experiment.hpp"

namespace perfbench {

/// The recorded operations, with each subscription's SK keys and each
/// publication's EK keys already mapped.
struct RecordedInputs {
  struct Op {
    const workload::TraceOp* op = nullptr;
    pubsub::SubscriptionPtr sub;  // subscriptions
    pubsub::EventPtr event;       // publications
    std::vector<cbps::Key> keys;  // SK or EK keys
  };
  std::vector<Op> ops;
  std::uint64_t sk_keys = 0;
  std::uint64_t ek_keys = 0;
};

RecordedInputs record_inputs(const workload::Trace& trace,
                             const pubsub::AkMapping& mapping);

/// Simulator dispatch of a no-op event chain holding `depth` events
/// pending: ns per event.
double sim_ns_per_event(std::size_t depth, double budget_s);

/// AkMapping::subscription_keys / event_keys on the recorded inputs:
/// ns per call.
struct MappingCost {
  double sk_ns = 0;
  double ek_ns = 0;
};
MappingCost mapping_cost(const RecordedInputs& in,
                         const pubsub::AkMapping& mapping, double budget_s);

/// The recorded key sets sent from their recorded origin nodes on a
/// standalone static Chord ring of the workload's size, with a
/// benchmark-owned OverlayApp. ns per one-hop message with the
/// simulator's share (`sim_ns` per event) taken out.
struct OverlayCost {
  double route_ns_per_hop = 0;  // ChordNode::send per key
  double mcast_ns_per_msg = 0;  // ChordNode::m_cast per key set
};
OverlayCost overlay_cost(const WorkloadSpec& spec, const RecordedInputs& in,
                         double sim_ns, double budget_s);

/// Per-rendezvous SubscriptionStores rebuilt from the recorded inputs
/// in time order: the rendezvous of each key is its owner on the
/// static ring; unicast transports insert/match once per key, m-cast
/// once per owner node.
struct MatchCost {
  double insert_ns = 0;
  double match_ns_per_call = 0;
  double expire_ns = 0;      // per record removed by sweep_expired
  double hit_ratio = 0;      // matches returning >= 1 record / calls
  std::uint64_t inserts = 0;  // calls the run makes (static ring)
  std::uint64_t matches = 0;
};
MatchCost match_cost(const WorkloadSpec& spec, const RecordedInputs& in,
                     const pubsub::AkMapping& mapping,
                     const std::vector<cbps::Key>& node_ids, double budget_s);

/// metrics::Histogram::add on the run's notification delays and
/// metrics::TopK::offer on its SK keys: ns per call.
struct MetricsCost {
  double hist_add_ns = 0;
  double topk_offer_ns = 0;
};
MetricsCost metrics_cost(const std::vector<double>& samples,
                         const RecordedInputs& in, double budget_s);

/// Driver::active_subscriptions() at the driver's end state: ns per call.
double active_view_ns(workload::Driver& driver, double budget_s);

}  // namespace perfbench
