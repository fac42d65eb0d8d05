// cbps_sim — run a custom simulated experiment from the command line.
//
// Exposes every knob of the paper's evaluation (§5) so a user can design
// their own parameter sweep without writing C++:
//
//   $ cbps_sim --nodes=500 --mapping=m3 --transport=mcast
//              --subs=1000 --pubs=1000 --match-prob=0.5 --verify
//
// Prints the configuration, the per-request hop costs, storage stats and
// (with --verify) the delivery-correctness ledger.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>

#include "cbps/common/flags.hpp"
#include "cbps/workload/fault_script.hpp"
#include "harness.hpp"
#include "sweep.hpp"

using namespace cbps;
using namespace cbps::bench;

namespace {

/// Flag spellings of one enum knob. The first spelling of a value is the
/// one --help prints as its default.
template <typename E>
struct Spelling {
  const char* name;
  E value;
};

constexpr Spelling<pubsub::MappingKind> kMappings[] = {
    {"m1", pubsub::MappingKind::kAttributeSplit},
    {"attribute-split", pubsub::MappingKind::kAttributeSplit},
    {"m2", pubsub::MappingKind::kKeySpaceSplit},
    {"key-space-split", pubsub::MappingKind::kKeySpaceSplit},
    {"m3", pubsub::MappingKind::kSelectiveAttribute},
    {"selective-attribute", pubsub::MappingKind::kSelectiveAttribute},
};

constexpr Spelling<pubsub::PubSubConfig::Transport> kTransports[] = {
    {"unicast", pubsub::PubSubConfig::Transport::kUnicast},
    {"mcast", pubsub::PubSubConfig::Transport::kMulticast},
    {"multicast", pubsub::PubSubConfig::Transport::kMulticast},
    {"chain", pubsub::PubSubConfig::Transport::kChain},
};

constexpr Spelling<pubsub::PubSubConfig::Dissemination> kDisseminations[] = {
    {"unicast", pubsub::PubSubConfig::Dissemination::kUnicast},
    {"mcast", pubsub::PubSubConfig::Dissemination::kMcast},
    {"multicast", pubsub::PubSubConfig::Dissemination::kMcast},
    {"gossip", pubsub::PubSubConfig::Dissemination::kGossip},
};

template <typename E, std::size_t N>
bool parse_spelling(const Spelling<E> (&table)[N], const std::string& s,
                    E* out) {
  for (const auto& [name, value] : table) {
    if (s == name) {
      *out = value;
      return true;
    }
  }
  return false;
}

template <typename E, std::size_t N>
std::string spelling_of(const Spelling<E> (&table)[N], E v) {
  for (const auto& [name, value] : table) {
    if (value == v) return name;
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentConfig cfg;
  // The CLI's one departure from the bench defaults: it matches with the
  // brute-force scan, the oracle the counting index is tested against.
  // At the ring sizes a hand-run experiment uses, the index saves no time
  // and costs memory (500 nodes, 5000 subscriptions: 44.9 MB peak RSS
  // against 17.9 MB).
  cfg.sys.pubsub.match_engine = pubsub::MatchEngine::kBruteForce;

  // Every default below is read from `cfg`. Knobs whose type or unit the
  // flag parser does not speak go through a local; the rest bind to
  // their config field directly.
  auto nodes = static_cast<std::int64_t>(cfg.sys.nodes);
  auto ring_bits = static_cast<std::int64_t>(cfg.sys.chord.ring.bits());
  auto seed = static_cast<std::int64_t>(cfg.sys.seed);
  std::string mapping = spelling_of(kMappings, cfg.sys.mapping);
  std::string transport =
      spelling_of(kTransports, cfg.sys.pubsub.sub_transport);
  std::string dissemination =
      spelling_of(kDisseminations, cfg.sys.pubsub.dissemination);
  auto gossip_fanout = static_cast<std::int64_t>(cfg.sys.pubsub.gossip_fanout);
  double anti_entropy_s = sim::to_seconds(cfg.sys.pubsub.anti_entropy_period);
  double gossip_window_s = sim::to_seconds(cfg.sys.pubsub.gossip_window);
  auto subs = static_cast<std::int64_t>(cfg.driver.max_subscriptions);
  auto pubs = static_cast<std::int64_t>(cfg.driver.max_publications);
  auto selective = static_cast<std::int64_t>(
      std::ranges::count(cfg.workload.selective, true));
  double buffer_period_s = sim::to_seconds(cfg.sys.pubsub.buffer_period);
  auto replication =
      static_cast<std::int64_t>(cfg.sys.pubsub.replication_factor);
  double ttl_s = cfg.driver.sub_ttl == sim::kSimTimeNever
                     ? 0.0  // never expire
                     : sim::to_seconds(cfg.driver.sub_ttl);
  std::string match_engine = pubsub::to_string(cfg.sys.pubsub.match_engine);
  auto max_retries = static_cast<std::int64_t>(cfg.sys.chord.max_retries);
  double retry_base_ms = sim::to_seconds(cfg.sys.chord.retry_base) * 1000.0;
  double sample_period_s = sim::to_seconds(cfg.sample_period);
  // Sweep-runner flags (not experiment knobs).
  std::int64_t seeds = 1;
  std::int64_t jobs = 0;
  std::string json_path;

  FlagParser parser(
      "cbps_sim — content-based pub/sub over a simulated Chord overlay\n"
      "(Baldoni et al., ICDCS 2005). Runs one experiment and prints the\n"
      "measured per-request costs.");
  parser.add("nodes", "number of overlay nodes", &nodes);
  parser.add("ring-bits", "key space is 2^bits", &ring_bits);
  parser.add("seed", "PRNG seed (runs are deterministic)", &seed);
  parser.add("mapping", "m1|m2|m3 (attribute-split, key-space-split, "
             "selective-attribute)", &mapping);
  parser.add("transport", "unicast|mcast|chain", &transport);
  parser.add("dissemination", "notify-leg backend: unicast|mcast|gossip",
             &dissemination);
  parser.add("gossip-fanout", "peers each infected node pushes to",
             &gossip_fanout);
  parser.add("anti-entropy-s", "gossip anti-entropy period in seconds "
             "(0 = repair off)", &anti_entropy_s);
  parser.add("gossip-window-s", "gossip repair retention window in seconds",
             &gossip_window_s);
  parser.add("subs", "subscriptions to inject (1 per 5s)", &subs);
  parser.add("pubs", "publications to inject (Poisson, mean 5s)", &pubs);
  parser.add("selective", "number of selective attributes (of 4)",
             &selective);
  parser.add("match-prob", "publication matching probability",
             &cfg.workload.matching_probability);
  parser.add("locality", "temporal locality of the event stream [0,1)",
             &cfg.driver.event_locality);
  parser.add("zipf", "Zipf exponent for selective centers",
             &cfg.workload.zipf_exponent);
  parser.add("discretization", "mapping interval width in values (1=off)",
             &cfg.sys.mapping_options.discretization);
  parser.add("buffering", "buffer notifications (periodic batches)",
             &cfg.sys.pubsub.buffering);
  parser.add("collecting", "aggregate matches toward range agents",
             &cfg.sys.pubsub.collecting);
  parser.add("buffer-period-s", "buffering/collecting period in seconds",
             &buffer_period_s);
  parser.add("replication", "replicas per stored subscription",
             &replication);
  parser.add("ttl-s", "subscription expiration in seconds (0 = never)",
             &ttl_s);
  parser.add("match-engine",
             "rendezvous matching engine: brute | counting",
             &match_engine);
  parser.add("verify", "check exactly-once delivery at the end",
             &cfg.verify);
  parser.add("save-trace", "record the workload to this file",
             &cfg.trace_save_path);
  parser.add("replay-trace", "replay a recorded workload from this file",
             &cfg.trace_replay_path);
  parser.add("loss-rate", "per-message drop probability [0,1); non-zero "
             "arms ack/retry reliability", &cfg.sys.chord.loss_rate);
  parser.add("max-retries", "retransmissions per reliable message",
             &max_retries);
  parser.add("retry-base-ms", "first ack timeout in ms (doubles per retry)",
             &retry_base_ms);
  parser.add("fault-script",
             "scripted fault scenario, e.g. 'partition at=100 heal=400 "
             "frac=0.4; loss at=50 until=300 model=ge p=0.02 q=0.2 "
             "good=0.005 bad=0.7; slow at=10 nodes=3 factor=8; crash_burst "
             "at=200 count=5 correlation=0.7'",
             &cfg.fault_script);
  parser.add("seeds", "sweep over this many consecutive seeds (one "
             "independent run each, starting at --seed)", &seeds);
  parser.add("jobs", "worker threads for --seeds sweeps (0 = all hardware "
             "threads)", &jobs);
  parser.add("json", "dump per-run timings+metrics to this file",
             &json_path);
  parser.add("trace", "write the causal message trace here (.jsonl = one "
             "span per line; anything else = Chrome trace_event JSON for "
             "Perfetto)", &cfg.trace_path);
  parser.add("trace-sample-rate", "fraction of pub/sub roots traced "
             "(default: 1.0 when --trace is set, else off)",
             &cfg.sys.trace_sample_rate);
  parser.add("metrics-json", "dump counters, latency/hop histograms "
             "(p50/p90/p99) and the time-series samples to this file",
             &cfg.metrics_json_path);
  parser.add("sample-period-s", "time-series sampler period in simulated "
             "seconds (default: 1 when --metrics-json is set, else off)",
             &sample_period_s);
  if (!parser.parse(argc, argv, std::cout, std::cerr)) return 1;
  if (cfg.verify && !cfg.trace_replay_path.empty()) {
    std::fprintf(stderr, "--verify cannot be combined with --replay-trace\n");
    return 1;
  }
  if (!cfg.fault_script.empty() && !cfg.trace_replay_path.empty()) {
    std::fprintf(stderr,
                 "--fault-script cannot be combined with --replay-trace\n");
    return 1;
  }
  if (seeds < 1 || jobs < 0) {
    std::fprintf(stderr, "bad --seeds/--jobs\n");
    return 1;
  }
  if (seeds > 1 &&
      !(cfg.trace_save_path.empty() && cfg.trace_replay_path.empty())) {
    std::fprintf(stderr,
                 "--seeds > 1 cannot be combined with trace save/replay\n");
    return 1;
  }
  if (seeds > 1 && !(cfg.trace_path.empty() && cfg.metrics_json_path.empty())) {
    // Every run would clobber the same output file.
    std::fprintf(stderr,
                 "--seeds > 1 cannot be combined with --trace/--metrics-json\n");
    return 1;
  }
  if (cfg.sys.trace_sample_rate < 0.0 || cfg.sys.trace_sample_rate > 1.0) {
    std::fprintf(stderr, "bad --trace-sample-rate: %g (want [0,1])\n",
                 cfg.sys.trace_sample_rate);
    return 1;
  }

  if (!parse_spelling(kMappings, mapping, &cfg.sys.mapping)) {
    std::fprintf(stderr, "bad --mapping: %s\n", mapping.c_str());
    return 1;
  }
  pubsub::PubSubConfig::Transport t;
  if (!parse_spelling(kTransports, transport, &t)) {
    std::fprintf(stderr, "bad --transport: %s\n", transport.c_str());
    return 1;
  }
  cfg.sys.pubsub.sub_transport = t;
  cfg.sys.pubsub.pub_transport = t;
  if (!parse_spelling(kDisseminations, dissemination,
                      &cfg.sys.pubsub.dissemination)) {
    std::fprintf(stderr, "bad --dissemination: %s\n", dissemination.c_str());
    return 1;
  }
  if (gossip_fanout < 1 || anti_entropy_s < 0.0 || gossip_window_s <= 0.0) {
    std::fprintf(stderr, "bad gossip knobs (want fanout >= 1, "
                         "anti-entropy >= 0, window > 0)\n");
    return 1;
  }
  cfg.sys.pubsub.gossip_fanout = static_cast<std::size_t>(gossip_fanout);
  cfg.sys.pubsub.anti_entropy_period =
      anti_entropy_s > 0 ? sim::from_seconds(anti_entropy_s) : 0;
  cfg.sys.pubsub.gossip_window = sim::from_seconds(gossip_window_s);
  cfg.sys.nodes = static_cast<std::size_t>(nodes);
  cfg.sys.chord.ring = RingParams{static_cast<unsigned>(ring_bits)};
  cfg.sys.seed = static_cast<std::uint64_t>(seed);
  cfg.driver.max_subscriptions = static_cast<std::uint64_t>(subs);
  cfg.driver.max_publications = static_cast<std::uint64_t>(pubs);
  // The first `selective` attributes are selective.
  cfg.workload.selective.assign(
      static_cast<std::size_t>(std::clamp<std::int64_t>(
          selective, 0, static_cast<std::int64_t>(kDimensions))),
      true);
  cfg.sys.pubsub.buffer_period = sim::from_seconds(buffer_period_s);
  cfg.sys.pubsub.replication_factor = static_cast<std::size_t>(replication);
  cfg.driver.sub_ttl =
      ttl_s > 0 ? sim::from_seconds(ttl_s) : sim::kSimTimeNever;
  const auto engine = pubsub::match_engine_from_string(match_engine);
  if (!engine) {
    std::fprintf(stderr,
                 "bad --match-engine: %s (want brute|counting)\n",
                 match_engine.c_str());
    return 1;
  }
  cfg.sys.pubsub.match_engine = *engine;
  cfg.sample_period = sample_period_s > 0
                          ? sim::from_seconds(sample_period_s)
                          : 0;
  if (cfg.sys.chord.loss_rate < 0.0 || cfg.sys.chord.loss_rate >= 1.0) {
    std::fprintf(stderr, "bad --loss-rate: %g (want [0,1))\n",
                 cfg.sys.chord.loss_rate);
    return 1;
  }
  cfg.sys.chord.max_retries = static_cast<std::uint32_t>(max_retries);
  cfg.sys.chord.retry_base = sim::from_seconds(retry_base_ms / 1000.0);
  if (!cfg.fault_script.empty()) {
    std::string fs_error;
    if (!workload::FaultScript::parse(cfg.fault_script, &fs_error)) {
      std::fprintf(stderr, "bad --fault-script: %s\n", fs_error.c_str());
      return 1;
    }
  }

  std::printf("config: n=%zu ring=2^%u mapping=%s transport=%s "
              "dissemination=%s subs=%llu "
              "pubs=%llu selective=%d p=%.2f disc=%lld buf=%d collect=%d "
              "repl=%zu ttl=%s seed=%llu%s\n\n",
              cfg.sys.nodes, cfg.sys.chord.ring.bits(),
              mapping_label(cfg.sys.mapping).c_str(),
              transport_label(t).c_str(),
              dissemination_label(cfg.sys.pubsub.dissemination).c_str(),
              static_cast<unsigned long long>(cfg.driver.max_subscriptions),
              static_cast<unsigned long long>(cfg.driver.max_publications),
              static_cast<int>(selective), cfg.workload.matching_probability,
              static_cast<long long>(cfg.sys.mapping_options.discretization),
              cfg.sys.pubsub.buffering ? 1 : 0,
              cfg.sys.pubsub.collecting ? 1 : 0,
              cfg.sys.pubsub.replication_factor,
              ttl_s > 0 ? (std::to_string(ttl_s) + "s").c_str() : "never",
              static_cast<unsigned long long>(cfg.sys.seed),
              seeds > 1 ? (" (+" + std::to_string(seeds - 1) +
                           " consecutive seeds)").c_str()
                        : "");

  bench::Sweep<> sweep("cbps_sim");
  bench::SweepOptions so;
  so.jobs = static_cast<std::size_t>(jobs);
  so.json_path = json_path;
  sweep.set_options(so);
  for (std::int64_t i = 0; i < seeds; ++i) {
    ExperimentConfig point = cfg;
    point.sys.seed = cfg.sys.seed + static_cast<std::uint64_t>(i);
    sweep.add("seed=" + std::to_string(point.sys.seed), point);
  }

  if (seeds > 1) {
    // Multi-seed sweep: one compact row per run plus a verify tally.
    std::printf("%-12s %10s %10s %12s %10s%s\n", "seed", "hops/sub",
                "hops/pub", "hops/notif", "delivered",
                cfg.verify ? "   verify" : "");
    std::uint64_t failed = 0;
    sweep.run([&](std::size_t i, const ExperimentResult& r) {
      std::printf("%-12s %10.2f %10.2f %12.2f %10llu",
                  sweep.label(i).c_str(), r.hops_per_subscription,
                  r.hops_per_publication, r.hops_per_notification,
                  static_cast<unsigned long long>(
                      r.notifications_delivered));
      if (cfg.verify) {
        std::printf("   %s", r.verified ? "OK" : "FAILED");
        if (!r.verified) ++failed;
      }
      std::puts("");
    });
    if (cfg.verify && failed > 0) {
      std::printf("\n%llu of %lld runs FAILED verification\n",
                  static_cast<unsigned long long>(failed),
                  static_cast<long long>(seeds));
      return 2;
    }
    return 0;
  }

  const ExperimentResult r = sweep.run().front();

  std::printf("network cost (one-hop messages):\n");
  std::printf("  hops per subscription        %10.2f\n",
              r.hops_per_subscription);
  std::printf("  hops per publication         %10.2f\n",
              r.hops_per_publication);
  std::printf("  hops per notification        %10.2f\n",
              r.hops_per_notification);
  std::printf("  notify+collect hops per pub  %10.2f\n",
              r.notify_hops_per_publication);
  std::printf("  avg unicast route length     %10.2f\n", r.avg_route_hops);
  std::printf("storage:\n");
  std::printf("  max subscriptions per node   %10zu\n", r.max_subs_per_node);
  std::printf("  avg subscriptions per node   %10.1f\n", r.avg_subs_per_node);
  std::printf("deliveries:\n");
  std::printf("  notifications delivered      %10llu\n",
              static_cast<unsigned long long>(r.notifications_delivered));
  std::printf("  avg notification delay       %9.2fs\n",
              r.avg_notification_delay_s);
  std::printf("  delay p50/p99/max            %.2fs / %.2fs / %.2fs\n",
              r.delay_p50_s, r.delay_p99_s, r.delay_max_s);
  std::printf("  route hops p50/p99           %.1f / %.1f\n", r.hops_p50,
              r.hops_p99);
  if (!cfg.trace_path.empty()) {
    std::printf("trace: %llu traces, %llu spans -> %s\n",
                static_cast<unsigned long long>(r.traces_started),
                static_cast<unsigned long long>(r.trace_spans),
                cfg.trace_path.c_str());
  }
  if (!cfg.metrics_json_path.empty()) {
    std::printf("metrics: %s\n", cfg.metrics_json_path.c_str());
  }
  if (cfg.sys.chord.loss_rate > 0.0) {
    std::printf("reliability (loss-rate %.3f, %u retries, base %.0fms):\n",
                cfg.sys.chord.loss_rate, cfg.sys.chord.max_retries,
                retry_base_ms);
    std::printf("  messages lost in flight      %10llu\n",
                static_cast<unsigned long long>(r.messages_lost));
    std::printf("  retransmissions              %10llu\n",
                static_cast<unsigned long long>(r.retransmits));
    std::printf("  sends failed (budget spent)  %10llu\n",
                static_cast<unsigned long long>(r.sends_failed));
    std::printf("  duplicates suppressed        %10llu\n",
                static_cast<unsigned long long>(r.duplicates_suppressed));
  }
  if (cfg.sys.pubsub.dissemination ==
      pubsub::PubSubConfig::Dissemination::kGossip) {
    std::printf("gossip backend (fanout %zu, auto rounds, anti-entropy "
                "%.0fs):\n",
                cfg.sys.pubsub.gossip_fanout, anti_entropy_s);
    std::printf("  epidemic pushes sent         %10llu\n",
                static_cast<unsigned long long>(r.gossip_pushes));
    std::printf("  duplicate records dropped    %10llu\n",
                static_cast<unsigned long long>(r.gossip_duplicates));
    std::printf("  anti-entropy digests         %10llu\n",
                static_cast<unsigned long long>(r.gossip_digests));
    std::printf("  records pulled by repair     %10llu\n",
                static_cast<unsigned long long>(r.gossip_repairs));
    std::printf("  subscriptions learned        %10llu\n",
                static_cast<unsigned long long>(r.gossip_subs_learned));
  }
  if (!cfg.fault_script.empty()) {
    std::printf("fault scenario:\n");
    std::printf("  messages cut by partitions   %10llu\n",
                static_cast<unsigned long long>(r.partition_cut));
    std::printf("  nodes crashed by script      %10llu\n",
                static_cast<unsigned long long>(r.fault_crashes));
    std::printf("  retransmissions              %10llu\n",
                static_cast<unsigned long long>(r.retransmits));
    std::printf("  duplicates suppressed        %10llu\n",
                static_cast<unsigned long long>(r.duplicates_suppressed));
  }
  if (cfg.verify) {
    if (!cfg.fault_script.empty()) {
      // The harness windows the check to post-fault publications (see
      // ExperimentConfig::verify); say so next to the verdict.
      std::printf("verification window: publications after all faults "
                  "cleared\n");
    }
    std::printf("verification: %s (%llu expected, %llu missing, "
                "%llu duplicate, %llu spurious)\n",
                r.verified ? "OK" : "FAILED",
                static_cast<unsigned long long>(r.expected_deliveries),
                static_cast<unsigned long long>(r.missing),
                static_cast<unsigned long long>(r.duplicates),
                static_cast<unsigned long long>(r.spurious));
    return r.verified ? 0 : 2;
  }
  return 0;
}
