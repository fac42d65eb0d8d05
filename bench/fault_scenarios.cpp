// Extension experiment — delivery under dynamic change: membership
// churn, message loss, scripted faults and alternative notify backends.
//
// The paper claims self-configuration (§1) but evaluates a stable ring.
// Every row here runs one chain — 64 Chord nodes under the paper
// workload, subscribers protected, a FaultScript plus optional Poisson
// churn, a drain, then the windowed delivery oracle — and differs only
// in the plain data of its Scenario. Rows are "<table>/<point>":
//   churn_resilience   Poisson churn (or crash bursts) x replication (§4.1)
//   loss_resilience    uniform wire loss x churn: what ack/retry buys back
//   fault_matrix       partition, GE loss, gray, crash bursts x {M1, M3},
//                      with a ring-recovery probe and the invariant audit
//   gossip_resilience  fault regimes x {unicast, m-cast, gossip f/ae}
// Each table emits a fixed field set per row; ctest fault_scenarios_gate
// diffs every row against bench/baselines/ at zero default tolerance.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "cbps/common/assert.hpp"
#include "cbps/pubsub/audit.hpp"
#include "cbps/pubsub/delivery_checker.hpp"
#include "cbps/workload/churn.hpp"
#include "cbps/workload/driver.hpp"
#include "cbps/workload/fault_script.hpp"
#include "sweep.hpp"

using namespace cbps;

namespace {

using Dissemination = pubsub::PubSubConfig::Dissemination;

enum class Table { kChurn, kLoss, kMatrix, kGossip };

/// One row of a table, as plain data.
struct Scenario {
  Table table = Table::kChurn;
  std::string label{};
  std::string script{};          // FaultScript text ("" = none)
  double churn_interval_s = 0;   // Poisson churn mean interval (0 = off)
  double crash_fraction = 0.5;   // of churn removals
  std::size_t replication = 2;
  pubsub::MappingKind mapping = pubsub::MappingKind::kSelectiveAttribute;
  Dissemination dissemination = Dissemination::kUnicast;
  std::size_t gossip_fanout = 0;
  double anti_entropy_s = 0;
  std::uint64_t publications = 300;
  double run_s = 2'000;
  double drain_s = 200;          // after churn stops: retries + repairs
  double grace_s = 15;           // oracle grace around sub lifetimes
  double window_from_s = 0;      // post-fault window start (0 = whole run)
  bool probe = false;            // ring-recovery probe + invariant audit
};

/// Every metric a run measures; each table emits its own subset.
struct Row {
  Table table = Table::kChurn;
  std::uint64_t sim_events = 0;
  bench::JsonFields fields;
};

/// Per table: how many leading --json fields the stdout table shows,
/// and the --json and --metrics-json field names in emission order.
struct TableInfo {
  std::size_t shown;
  const char* title;
  std::vector<std::string> json, metrics;
};

const TableInfo kTables[] = {
    {5, "60 subs + 400 pubs, M3 m-cast; Poisson joins/leaves/crashes",
     {"churn_events", "expected", "missing", "duplicates", "delivery_rate",
      "delay_p50_s", "delay_p99_s", "hops_p50", "hops_p99"},
     {"delay_p50_s", "delay_p99_s", "hops_p50", "hops_p99", "delivery_rate"}},
    {9, "60 subs + 300 pubs, M3 m-cast; uniform loss x Poisson(45s) churn",
     {"expected", "missing", "duplicates", "dups_suppressed", "lost",
      "retransmits", "sends_failed", "total_hops", "delivery_rate",
      "delay_p50_s", "delay_p99_s", "hops_p50", "hops_p99", "retries_p99"},
     {"delay_p50_s", "delay_p99_s", "hops_p50", "hops_p99", "retries_p99",
      "delivery_rate"}},
    {11, "repl=2, 60 subs + 300 pubs; scripted faults x AK mapping",
     {"expected", "missing", "duplicates", "delivery_rate", "post_heal_rate",
      "retransmits", "partition_cut", "crashes", "recovery_s", "ring_ok",
      "audit_violations", "delay_p50_s", "delay_p99_s", "hops_p50",
      "hops_p99"},
     {"delay_p50_s", "delay_p99_s", "hops_p50", "hops_p99", "delivery_rate",
      "post_heal_rate"}},
    {12, "repl=2, M3, 60 subs + 300 pubs; fault regime x notify backend",
     {"expected", "missing", "duplicates", "delivery_rate",
      "post_clear_rate", "retransmits", "notify_hops", "notify_kb",
      "kb_per_delivery", "gossip_pushes", "gossip_digests", "gossip_repairs",
      "gossip_duplicates", "misdirected", "crashes", "delay_p50_s",
      "delay_p99_s"},
     {"delay_p50_s", "delay_p99_s", "delivery_rate", "post_clear_rate",
      "kb_per_delivery"}},
};

const TableInfo& info(const Row& r) {
  return kTables[static_cast<std::size_t>(r.table)];
}

bench::JsonFields pick(const Row& r, const std::vector<std::string>& names) {
  bench::JsonFields out;
  for (const std::string& name : names) {
    for (const auto& field : r.fields) {
      if (field.first == name) out.push_back(field);
    }
  }
  return out;
}

bench::JsonFields json_fields(const Row& r) { return pick(r, info(r).json); }
bench::JsonFields metrics_fields(const Row& r) {
  return pick(r, info(r).metrics);
}

// --- the four tables: each row applies two axis entries to a base row ------

// churn_resilience: Poisson churn interval x replication {0, 2}. The
// last case trades the Poisson process for two scripted crash bursts
// correlated along the ring — the regime replication is for.
const Scenario kChurnCases[] = {
    {.label = "none"},
    {.label = "120s", .churn_interval_s = 120},
    {.label = "60s", .churn_interval_s = 60},
    {.label = "30s", .churn_interval_s = 30},
    {.label = "15s", .churn_interval_s = 15},
    {.label = "burst",
     .script = "crash_burst at=600 count=5 correlation=0.7\n"
               "crash_burst at=1400 count=5 correlation=0.7"},
};

// loss_resilience: uniform loss rate x Poisson(45 s) churn kind.
const double kLossRates[] = {0.0, 0.01, 0.02, 0.05};
const Scenario kLossChurn[] = {
    {.label = "none"},
    {.label = "graceful", .churn_interval_s = 45, .crash_fraction = 0},
    {.label = "crashes", .churn_interval_s = 45, .crash_fraction = 1},
};

// fault_matrix: fault scenario x AK mapping. Faults start after the 60
// subscriptions have registered (t = 300 s) and clear with enough run
// left (~1500 s of publications) to observe recovery.
const Scenario kMatrixCases[] = {
    {.label = "baseline"},
    {.label = "partition",
     .script = "partition at=400 heal=700 frac=0.4",
     .window_from_s = 760},
    {.label = "burst_loss",
     .script = "loss at=300 until=1200 model=ge p=0.02 q=0.2 good=0.005 "
               "bad=0.7",
     .window_from_s = 1260},
    {.label = "gray", .script = "slow at=300 until=1200 nodes=6 factor=8"},
    {.label = "crash_burst",
     .script = "crash_burst at=700 count=6 correlation=0.7",
     .window_from_s = 760},
    {.label = "combined",
     .script = "loss at=300 until=1200 model=ge p=0.02 q=0.2 good=0.005 "
               "bad=0.7\n"
               "slow at=300 until=1200 nodes=4 factor=6\n"
               "partition at=400 heal=700 frac=0.3\n"
               "crash_burst at=900 count=4 correlation=0.5",
     .window_from_s = 1260},
};

// gossip_resilience: fault regime x notify backend (gossip fan-out f,
// anti-entropy period ae). The GE loss is ~18% long-run: p/(p+q) = 0.25
// of the time in the bad state at 70% drop, else 1% drop.
const Scenario kGossipCases[] = {
    {.label = "baseline"},
    {.label = "ge_loss",
     .script = "loss at=300 until=1500 model=ge p=0.05 q=0.15 good=0.01 "
               "bad=0.7",
     .window_from_s = 1560},
    {.label = "crash_burst",
     .script = "crash_burst at=700 count=6 correlation=0.7",
     .window_from_s = 760},
    {.label = "ge_loss_crash",
     .script = "loss at=300 until=1500 model=ge p=0.05 q=0.15 good=0.01 "
               "bad=0.7\n"
               "crash_burst at=700 count=6 correlation=0.7",
     .window_from_s = 1560},
};
const Scenario kBackends[] = {
    {.label = "unicast", .dissemination = Dissemination::kUnicast},
    {.label = "mcast", .dissemination = Dissemination::kMcast},
    {.label = "gossip/f2", .dissemination = Dissemination::kGossip,
     .gossip_fanout = 2, .anti_entropy_s = 10},
    {.label = "gossip/f4", .dissemination = Dissemination::kGossip,
     .gossip_fanout = 4, .anti_entropy_s = 10},
    {.label = "gossip/ae5", .dissemination = Dissemination::kGossip,
     .gossip_fanout = 3, .anti_entropy_s = 5},
    {.label = "gossip/ae20", .dissemination = Dissemination::kGossip,
     .gossip_fanout = 3, .anti_entropy_s = 20},
};

std::vector<Scenario> all_scenarios() {
  std::vector<Scenario> out;
  for (const std::size_t repl : {0, 2}) {
    for (Scenario s : kChurnCases) {
      s.table = Table::kChurn;
      s.label = "churn_resilience/churn=" + s.label +
                "/repl=" + std::to_string(repl);
      s.replication = repl;
      s.publications = 400;
      s.run_s = 2'600;
      s.drain_s = 120;
      s.grace_s = 10;
      out.push_back(s);
    }
  }
  for (const double loss : kLossRates) {
    for (Scenario s : kLossChurn) {
      s.table = Table::kLoss;
      s.label = "loss_resilience/loss=" + std::to_string(loss) +
                "/churn=" + s.label;
      if (loss > 0) {
        s.script = "loss at=0 model=uniform rate=" + std::to_string(loss);
      }
      s.replication = 0;
      s.drain_s = 120;
      s.grace_s = 10;
      out.push_back(s);
    }
  }
  for (Scenario s : kMatrixCases) {
    const std::string label = s.label;
    for (const auto mapping : {pubsub::MappingKind::kAttributeSplit,
                               pubsub::MappingKind::kSelectiveAttribute}) {
      s.table = Table::kMatrix;
      s.label = "fault_matrix/" + label +
                (mapping == pubsub::MappingKind::kAttributeSplit ? "/m1"
                                                                 : "/m3");
      s.mapping = mapping;
      s.probe = true;
      out.push_back(s);
    }
  }
  for (Scenario s : kGossipCases) {
    const std::string label = s.label;
    for (const Scenario& be : kBackends) {
      s.table = Table::kGossip;
      s.label = "gossip_resilience/" + label + "/" + be.label;
      s.dissemination = be.dissemination;
      s.gossip_fanout = be.gossip_fanout;
      s.anti_entropy_s = be.anti_entropy_s;
      out.push_back(s);
    }
  }
  return out;
}

/// After a partition heals, poll the ring audit every 5 simulated
/// seconds and record in *recovery_s how long the re-merge took. A
/// pending tick holds only references to objects that outlive the run.
void probe_recovery(pubsub::PubSubSystem& system,
                    const workload::FaultScriptRunner& runner,
                    double* recovery_s) {
  system.sim().schedule_after(sim::sec(5), [&system, &runner, recovery_s] {
    if (runner.last_heal_at() != sim::kSimTimeNever &&
        !system.network().partitioned() &&
        pubsub::audit_ring(system.network()).ok()) {
      *recovery_s = sim::to_seconds(system.sim().now() - runner.last_heal_at());
    } else {
      probe_recovery(system, runner, recovery_s);
    }
  });
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 1.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

Row run(const Scenario& sc) {
  std::string error;
  const auto script = workload::FaultScript::parse(sc.script, &error);
  CBPS_ASSERT_MSG(script.has_value(), "bad scenario script");

  pubsub::SystemConfig cfg;
  cfg.nodes = 64;
  cfg.seed = 4242;
  cfg.chord.ring = RingParams{12};
  cfg.chord.stabilize_period = sim::sec(5);
  cfg.chord.force_reliable = script->needs_reliable_transport();
  cfg.mapping = sc.mapping;
  cfg.pubsub.sub_transport = pubsub::PubSubConfig::Transport::kMulticast;
  cfg.pubsub.replication_factor = sc.replication;
  cfg.pubsub.dissemination = sc.dissemination;
  if (sc.dissemination == Dissemination::kGossip) {
    cfg.pubsub.gossip_fanout = sc.gossip_fanout;
    cfg.pubsub.anti_entropy_period = sim::from_seconds(sc.anti_entropy_s);
    // Retention must hold enough digest rounds to out-wait a loss burst.
    cfg.pubsub.gossip_window = sim::sec(120);
  }
  pubsub::PubSubSystem system(cfg, pubsub::Schema::uniform(3, 99'999));
  system.network().start_maintenance_all();

  pubsub::DeliveryChecker checker;
  workload::WorkloadParams wp;
  wp.matching_probability = 0.8;
  workload::WorkloadGenerator gen(system.schema(), wp, 17);
  workload::DriverParams dp;
  dp.max_subscriptions = 60;
  dp.max_publications = sc.publications;
  dp.sub_interval = sim::sec(5);
  workload::Driver driver(system, gen, dp, &checker);

  // Subscribers survive: the rows measure rendezvous-state, wire and
  // notify-leg resilience, not subscriber death.
  const auto is_subscriber = [&driver](Key id) {
    for (const auto& sub : driver.active_subscriptions()) {
      if (sub->subscriber == id) return true;
    }
    return false;
  };
  workload::FaultScriptRunner runner(system, *script, cfg.seed,
                                     is_subscriber);
  runner.set_delivery_checker(&checker);
  workload::ChurnParams cp;
  cp.mean_interval_s = sc.churn_interval_s;
  cp.crash_fraction = sc.crash_fraction;
  cp.min_nodes = 32;
  workload::ChurnDriver churn(system, cp, 99, is_subscriber);
  churn.set_delivery_checker(&checker);

  // Loss rows start their faults first: `loss at=0` ties with the
  // driver's t=0 events, and that order is part of the committed rows.
  if (sc.table == Table::kLoss) runner.start();
  driver.start();
  if (sc.churn_interval_s > 0) churn.start();
  if (sc.table != Table::kLoss) runner.start();
  double recovery_s = -1.0;
  if (sc.probe) probe_recovery(system, runner, &recovery_s);

  system.run_for(sim::from_seconds(sc.run_s));
  churn.stop();
  system.run_for(sim::from_seconds(sc.drain_s));

  const sim::SimTime grace = sim::from_seconds(sc.grace_s);
  const auto report = checker.verify(grace);
  const auto window =
      checker.verify(grace, sim::from_seconds(sc.window_from_s));
  pubsub::SystemAuditReport audit;
  if (sc.probe) audit = pubsub::audit_system(system);
  metrics::Registry& reg = system.network().registry();
  const overlay::TrafficStats& traffic = system.traffic();
  std::uint64_t total_hops = 0;
  for (std::size_t c = 0; c < overlay::kMessageClassCount; ++c) {
    total_hops += traffic.hops(static_cast<overlay::MessageClass>(c));
  }
  const double notify_kb =
      static_cast<double>(traffic.bytes(overlay::MessageClass::kNotify) +
                          traffic.bytes(overlay::MessageClass::kGossip)) /
      1024.0;
  const auto gossip = system.gossip_stats();
  const metrics::Histogram delay = system.delay_histogram();
  const metrics::Histogram& hops = reg.histogram("chord.route_hops");
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double window_rate = ratio(window.delivered, window.expected);

  Row row{sc.table, system.sim().events_processed(), {}};
  row.fields = {
      {"churn_events", d(churn.events() + runner.crashes())},
      {"expected", d(report.expected)},
      {"missing", d(report.missing)},
      {"duplicates", d(report.duplicates)},  // surfaced past the filter
      {"dups_suppressed", d(system.duplicates_suppressed())},
      {"lost", d(reg.counter_value("chord.net.lost"))},
      {"retransmits", d(reg.counter_value("chord.retransmits"))},
      {"sends_failed", d(reg.counter_value("chord.send_failed"))},
      {"total_hops", d(total_hops)},
      {"delivery_rate", ratio(report.delivered, report.expected)},
      {"post_heal_rate", window_rate},
      {"post_clear_rate", window_rate},
      {"partition_cut", d(reg.counter_value("chord.net.partition_refused") +
                          reg.counter_value("chord.net.partition_dropped"))},
      {"crashes", d(runner.crashes())},
      {"recovery_s", recovery_s},
      {"ring_ok", audit.ring.ok() ? 1.0 : 0.0},
      {"audit_violations", d(audit.misplaced_records +
                             audit.under_replicated +
                             audit.unstored_subscriptions)},
      {"notify_hops", d(traffic.hops(overlay::MessageClass::kNotify) +
                        traffic.hops(overlay::MessageClass::kGossip))},
      {"notify_kb", notify_kb},
      {"kb_per_delivery",
       report.delivered == 0 ? 0 : notify_kb / d(report.delivered)},
      {"gossip_pushes", d(gossip.pushes_sent)},
      {"gossip_digests", d(gossip.digests_sent)},
      {"gossip_repairs", d(gossip.repair_records)},
      {"gossip_duplicates", d(gossip.duplicates)},
      {"misdirected", d(gossip.misdirected)},
      {"delay_p50_s", delay.p50()},
      {"delay_p99_s", delay.p99()},
      {"hops_p50", hops.p50()},
      {"hops_p99", hops.p99()},
      {"retries_p99", reg.histogram("chord.retries_per_send").p99()},
  };
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Sweep<Row> sweep("fault_scenarios");
  if (!sweep.parse_args(argc, argv)) return 1;

  const std::vector<Scenario> scenarios = all_scenarios();
  for (const Scenario& sc : scenarios) {
    sweep.add(sc.label, [&sc] { return run(sc); });
  }

  std::puts("=== Fault scenarios: delivery under churn, loss and faults ===");
  std::puts("64 nodes, ring 2^12, stabilize 5 s, subscribers protected");
  sweep.run([&](std::size_t i, const Row& r) {
    const TableInfo& t = info(r);
    bench::JsonFields shown = json_fields(r);
    shown.resize(t.shown);
    const auto width = [](const std::string& name) {
      return std::max(9, static_cast<int>(name.size()));
    };
    const std::string& label = scenarios[i].label;
    const std::size_t slash = label.find('/');
    if (i == 0 || scenarios[i - 1].table != r.table) {
      std::printf("\n%s: %s\n%-28s", label.substr(0, slash).c_str(),
                  t.title, "point");
      for (const auto& [name, value] : shown) {
        std::printf(" %*s", width(name), name.c_str());
      }
      std::puts("");
    }
    std::printf("%-28s", label.substr(slash + 1).c_str());
    for (const auto& [name, value] : shown) {
      std::printf(" %*.6g", width(name), value);
    }
    std::puts("");
  });
  std::puts("\npost_heal/post_clear_rate: delivery ratio after the faults");
  std::puts("cleared; recovery_s: partition heal to a clean ring audit.");
  return 0;
}
