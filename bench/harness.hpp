// Shared experiment harness for the paper-reproduction benches.
//
// Each figure binary builds an ExperimentConfig (defaults = §5.1), calls
// run_experiment, and prints one table row per sweep point. All the
// figures' metrics come from the same instrumented run: per-class hop
// counts, per-request averages and stored-subscription statistics.
#pragma once

#include <cstdint>
#include <string>

#include "cbps/pubsub/system.hpp"
#include "cbps/workload/driver.hpp"
#include "cbps/workload/generator.hpp"

namespace cbps::bench {

/// The §5.1 event space: 4 integer attributes in [0, 10^6].
inline constexpr std::size_t kDimensions = 4;
inline constexpr Value kAttrMax = 1'000'000;

struct ExperimentConfig {
  /// The paper's evaluation setup (§5.1). It takes every library default
  /// except these:
  ///  - seed 1;
  ///  - the counting index at the rendezvous nodes: it returns exactly
  ///    the brute-force match set (the differential tests enforce this)
  ///    at a per-event cost proportional to satisfied constraints
  ///    instead of stored subscriptions;
  ///  - Zipf exponent 0.7 for selective-attribute centers. The paper
  ///    does not state its value; 0.7 reproduces the reported Figure 6/8
  ///    shape (with s=1 a single rank-1 hotspot dominates every
  ///    mapping's max);
  ///  - 1000 subscriptions and 1000 publications.
  ExperimentConfig() {
    sys.seed = 1;
    sys.pubsub.match_engine = pubsub::MatchEngine::kCountingIndex;
    workload.zipf_exponent = 0.7;
    driver.max_subscriptions = 1000;
    driver.max_publications = 1000;
  }

  /// The simulated deployment. `sys.seed` also seeds the workload and
  /// the fault script. With a trace_path set, a zero
  /// `sys.trace_sample_rate` means "trace everything" (rate 1).
  pubsub::SystemConfig sys;
  /// Constraint shapes, selective attributes and matching probability.
  workload::WorkloadParams workload;
  /// Injection rates, budgets, subscription TTL and event locality.
  workload::DriverParams driver;

  /// Track every operation in a DeliveryChecker and verify completeness /
  /// exactly-once at the end of the run (slower; O(subs x pubs)). When a
  /// fault_script is set, the check is windowed to publications issued
  /// after the script's last fault cleared: mid-fault misses to cut-off
  /// subscribers are the scenario under test, not a protocol bug.
  bool verify = false;

  /// Scripted fault scenario (workload::FaultScript text; empty = none).
  /// A non-empty script starts overlay maintenance, arms the reliable
  /// transport when the script needs it (partition/loss/crash_burst),
  /// and drives the directives against the live system.
  std::string fault_script;

  /// Record the generated workload to this file (empty = off).
  std::string trace_save_path;
  /// Replay a previously saved workload instead of generating one
  /// (empty = generate). Overrides the driver's operation budgets.
  std::string trace_replay_path;

  // --- observability -------------------------------------------------------
  /// Write the run's causal trace here (empty = off). A ".jsonl" suffix
  /// selects the line-per-span format; anything else gets Chrome
  /// trace_event JSON (loadable in chrome://tracing / Perfetto).
  std::string trace_path;
  /// Dump the metrics registry (counters, histograms with percentiles)
  /// plus the per-key hot-key tables and the time-series samples to
  /// this JSON file (empty = off).
  std::string metrics_json_path;
  /// Period of the time-series sampler. 0 = off, unless
  /// metrics_json_path is set (then it defaults to 1 simulated second).
  sim::SimTime sample_period = 0;
};

struct ExperimentResult {
  // Per-request network cost (one-hop messages, §5 metric (a)).
  double hops_per_subscription = 0;
  double hops_per_publication = 0;
  double hops_per_notification = 0;  // (notify + collect) / delivered
  double notify_hops_per_publication = 0;

  // Raw class totals.
  std::uint64_t subscribe_hops = 0;
  std::uint64_t publish_hops = 0;
  std::uint64_t notify_hops = 0;
  std::uint64_t collect_hops = 0;
  std::uint64_t control_hops = 0;
  std::uint64_t gossip_hops = 0;   // epidemic + anti-entropy traffic
  std::uint64_t notify_bytes = 0;  // notify + collect classes
  std::uint64_t subscribe_bytes = 0;
  std::uint64_t gossip_bytes = 0;

  // Gossip-backend protocol counters (0 unless dissemination==gossip).
  std::uint64_t gossip_pushes = 0;
  std::uint64_t gossip_duplicates = 0;
  std::uint64_t gossip_digests = 0;
  std::uint64_t gossip_repairs = 0;       // records pulled back by repair
  std::uint64_t gossip_subs_learned = 0;  // owned subs learned via repair

  // Stored subscriptions (§5 metric (b)); peaks over the run.
  std::size_t max_subs_per_node = 0;
  double avg_subs_per_node = 0;

  // Sanity.
  std::uint64_t subscriptions_issued = 0;
  std::uint64_t publications_issued = 0;
  std::uint64_t notifications_delivered = 0;
  double avg_route_hops = 0;  // mean end-to-end hops of unicast routes
  double avg_notification_delay_s = 0;  // publish-to-notify latency
  double max_notification_delay_s = 0;

  // Distribution metrics (log-scale histograms; §5 reports averages only,
  // the percentiles expose the tail the averages hide).
  double delay_p50_s = 0;  // publish-to-notify latency percentiles
  double delay_p90_s = 0;
  double delay_p99_s = 0;
  double delay_max_s = 0;
  double hops_p50 = 0;     // end-to-end unicast route length
  double hops_p90 = 0;
  double hops_p99 = 0;
  double hops_max = 0;
  double fanout_p50 = 0;   // rendezvous keys per publish
  double fanout_p99 = 0;
  double retries_p99 = 0;  // retransmits per reliable send

  // Load observatory: ring-wide imbalance over per-node load units and
  // the hot-key concentration (top-1 share of per-key match calls).
  double load_max_over_mean = 0;
  double load_gini = 0;
  std::uint64_t hot_key_top1 = 0;      // hottest rendezvous key id
  double hot_key_top1_share = 0;       // its share of all match calls

  // Causal tracing (0 unless tracing was on).
  std::uint64_t traces_started = 0;
  std::uint64_t trace_spans = 0;

  // Populated when ExperimentConfig::verify is set.
  bool verified = false;
  std::uint64_t expected_deliveries = 0;
  std::uint64_t missing = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t spurious = 0;

  // Fault-injection / reliability accounting (all 0 at zero loss).
  std::uint64_t messages_lost = 0;       // dropped in flight by the wire
  std::uint64_t retransmits = 0;         // timer-driven resends
  std::uint64_t sends_failed = 0;        // retry budget exhausted
  std::uint64_t duplicates_suppressed = 0;  // end-to-end filter drops

  // Fault-scenario accounting (0 unless cfg.fault_script ran).
  std::uint64_t partition_cut = 0;   // messages refused/dropped at a cut
  std::uint64_t fault_crashes = 0;   // nodes crashed by the script

  // Simulator events processed over the run (the sweep runner divides by
  // wall time for the simulated-events/sec throughput trajectory).
  std::uint64_t sim_events = 0;

  // Engine health: lazy-deleted heap entries skipped at pop, and full
  // heap rebuilds triggered.
  std::uint64_t sim_stale_entries_skipped = 0;
  std::uint64_t sim_heap_compactions = 0;
};

/// Run one simulated experiment to completion (all operations issued,
/// network drained).
ExperimentResult run_experiment(const ExperimentConfig& cfg);

/// "attribute-split" -> "M1 attr-split", etc. (row labels).
std::string mapping_label(pubsub::MappingKind kind);
std::string transport_label(pubsub::PubSubConfig::Transport t);
std::string dissemination_label(pubsub::PubSubConfig::Dissemination d);

}  // namespace cbps::bench
