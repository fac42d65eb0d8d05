// Tests for the fault-scenario engine: Gilbert–Elliott bursty loss,
// FaultScript parsing, adaptive (Jacobson/Karn) retransmission timeouts,
// scripted partition/heal with the post-heal invariant auditor, the
// ghost-delivery regression, membership-guard death tests and the
// determinism of churn + fault runs across sweep worker counts.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cbps/chord/network.hpp"
#include "cbps/chord/node.hpp"
#include "cbps/common/rng.hpp"
#include "cbps/pubsub/audit.hpp"
#include "cbps/pubsub/delivery_checker.hpp"
#include "cbps/sim/loss.hpp"
#include "cbps/workload/churn.hpp"
#include "cbps/workload/driver.hpp"
#include "cbps/workload/fault_script.hpp"
#include "sweep.hpp"

namespace cbps {
namespace {

using workload::FaultDirective;
using workload::FaultScript;
using workload::FaultScriptRunner;

// ---------------------------------------------------------------------------
// Gilbert–Elliott loss model
// ---------------------------------------------------------------------------

TEST(GilbertElliottLossTest, StationaryStatisticsMatchTheory) {
  const double p = 0.05, q = 0.25, good = 0.01, bad = 0.8;
  sim::GilbertElliottLoss loss(p, q, good, bad);
  EXPECT_DOUBLE_EQ(loss.stationary_bad(), p / (p + q));
  EXPECT_DOUBLE_EQ(loss.mean_rate(),
                   loss.stationary_bad() * bad +
                       (1.0 - loss.stationary_bad()) * good);

  Rng rng(31);
  const int kDraws = 300'000;
  int dropped = 0;
  for (int i = 0; i < kDraws; ++i) dropped += loss.drop(rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(dropped) / kDraws, loss.mean_rate(),
              0.01);
}

TEST(GilbertElliottLossTest, DropsAreBurstyComparedToUniform) {
  // With bad_loss = 1, a drop run lasts as long as the Bad state:
  // geometric with mean 1/q messages. A uniform model at the same mean
  // rate produces runs of mean 1/(1-rate) ~= 1.
  const double p = 0.01, q = 0.25;
  sim::GilbertElliottLoss ge(p, q, 0.0, 1.0);
  sim::UniformLoss uniform(ge.mean_rate());

  const auto mean_drop_run = [](sim::LossModel& m, std::uint64_t seed) {
    Rng rng(seed);
    int runs = 0, drops = 0;
    bool in_run = false;
    for (int i = 0; i < 300'000; ++i) {
      if (m.drop(rng)) {
        ++drops;
        if (!in_run) ++runs;
        in_run = true;
      } else {
        in_run = false;
      }
    }
    return runs == 0 ? 0.0 : static_cast<double>(drops) / runs;
  };

  const double ge_run = mean_drop_run(ge, 33);
  const double uniform_run = mean_drop_run(uniform, 34);
  EXPECT_NEAR(ge_run, 1.0 / q, 1.0);
  EXPECT_LT(uniform_run, 1.5);
  EXPECT_GT(ge_run, 2.0 * uniform_run);
}

// ---------------------------------------------------------------------------
// FaultScript parsing
// ---------------------------------------------------------------------------

TEST(FaultScriptTest, ParsesEveryDirectiveKind) {
  const char* text =
      "# robustness scenario\n"
      "partition at=10 heal=40 frac=0.4\n"
      "loss at=5 until=35 model=ge p=0.05 q=0.25 good=0.01 bad=0.8\n"
      "slow at=10 until=50 nodes=3 factor=8; crash_burst at=20 count=5 "
      "correlation=0.7\n"
      "checkpoint at=60 label=post-heal\n";
  std::string error;
  const auto script = FaultScript::parse(text, &error);
  ASSERT_TRUE(script.has_value()) << error;
  ASSERT_EQ(script->directives.size(), 5u);

  const FaultDirective& part = script->directives[0];
  EXPECT_EQ(part.kind, FaultDirective::Kind::kPartition);
  EXPECT_EQ(part.at, sim::sec(10));
  EXPECT_EQ(part.until, sim::sec(40));
  EXPECT_DOUBLE_EQ(part.frac, 0.4);

  const FaultDirective& loss = script->directives[1];
  EXPECT_EQ(loss.kind, FaultDirective::Kind::kLoss);
  EXPECT_EQ(loss.loss_kind, FaultDirective::LossKind::kGilbertElliott);
  EXPECT_DOUBLE_EQ(loss.ge_p, 0.05);
  EXPECT_DOUBLE_EQ(loss.ge_q, 0.25);
  EXPECT_DOUBLE_EQ(loss.ge_good, 0.01);
  EXPECT_DOUBLE_EQ(loss.ge_bad, 0.8);

  const FaultDirective& slow = script->directives[2];
  EXPECT_EQ(slow.kind, FaultDirective::Kind::kSlow);
  EXPECT_EQ(slow.nodes, 3u);
  EXPECT_DOUBLE_EQ(slow.factor, 8.0);

  const FaultDirective& burst = script->directives[3];
  EXPECT_EQ(burst.kind, FaultDirective::Kind::kCrashBurst);
  EXPECT_EQ(burst.count, 5u);
  EXPECT_DOUBLE_EQ(burst.correlation, 0.7);
  EXPECT_EQ(burst.until, sim::kSimTimeNever);

  const FaultDirective& cp = script->directives[4];
  EXPECT_EQ(cp.kind, FaultDirective::Kind::kCheckpoint);
  EXPECT_EQ(cp.label, "post-heal");
}

TEST(FaultScriptTest, EmptyAndCommentOnlyInputsParseToEmptyScripts) {
  EXPECT_TRUE(FaultScript::parse("")->empty());
  EXPECT_TRUE(FaultScript::parse("  # nothing\n\n;;\n")->empty());
}

TEST(FaultScriptTest, RejectsMalformedInput) {
  const char* bad_inputs[] = {
      "explode at=3",                  // unknown directive
      "partition heal=40 frac=0.4",    // missing at
      "partition at=50 heal=40",       // heal before start
      "loss at=0 model=weird",         // unknown loss model
      "loss at=0 rate=1.5",            // probability out of range
      "partition at=1 foo=2",          // unknown key
      "partition at=1 frac",           // not key=value
      "slow at=2 factor=0.5",          // slowdown below 1 is a speedup
      "crash_burst at=1 count=0",      // empty burst
      "partition at=1 frac=1.0",       // cutting everyone is no partition
  };
  for (const char* text : bad_inputs) {
    std::string error;
    EXPECT_FALSE(FaultScript::parse(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(FaultScriptTest, ReliableTransportOnlyWhenMessagesCanBeLost) {
  EXPECT_FALSE(FaultScript::parse("slow at=1 nodes=2 factor=4; "
                                  "checkpoint at=9")
                   ->needs_reliable_transport());
  EXPECT_TRUE(FaultScript::parse("partition at=1 heal=5 frac=0.3")
                  ->needs_reliable_transport());
  EXPECT_TRUE(FaultScript::parse("loss at=1 rate=0.1")
                  ->needs_reliable_transport());
  EXPECT_TRUE(FaultScript::parse("crash_burst at=1 count=2")
                  ->needs_reliable_transport());
}

TEST(FaultScriptTest, AllClearTracksTheLatestFault) {
  EXPECT_EQ(FaultScript{}.all_clear_at(), 0u);
  const auto script = FaultScript::parse(
      "partition at=10 heal=40\n"
      "slow at=50 until=60 nodes=1\n"
      "crash_burst at=100 count=2\n");  // one-shot: clears at its start
  ASSERT_TRUE(script.has_value());
  EXPECT_EQ(script->all_clear_at(), sim::sec(100));
  // A persistent fault (no until) counts from its start; nothing later
  // ever clears it.
  EXPECT_EQ(FaultScript::parse("loss at=30 rate=0.1")->all_clear_at(),
            sim::sec(30));
}

// ---------------------------------------------------------------------------
// Adaptive retransmission (Jacobson/Karn RTO)
// ---------------------------------------------------------------------------

struct PingPayload final : overlay::Payload {
  overlay::MessageClass message_class() const override {
    return overlay::MessageClass::kPublish;
  }
};

class NullApp final : public overlay::OverlayApp {
 public:
  void on_deliver(Key, const overlay::PayloadPtr&) override { ++delivered; }
  void on_deliver_mcast(std::span<const Key>,
                        const overlay::PayloadPtr&) override {}
  overlay::PayloadPtr export_state(Key, Key, bool) override {
    return nullptr;
  }
  void import_state(const overlay::PayloadPtr&) override {}
  int delivered = 0;
};

struct RtoHarness {
  explicit RtoHarness(chord::ChordConfig cfg) {
    net = std::make_unique<chord::ChordNetwork>(sim, cfg, 17);
    net->add_node("a");
    net->add_node("b");
    net->build_static_ring();
    for (Key id : net->alive_ids()) net->node(id)->set_app(&app);
  }

  sim::Simulator sim;
  std::unique_ptr<chord::ChordNetwork> net;
  NullApp app;
};

TEST(AdaptiveRtoTest, ConvergesFromRetryBaseToTheLinkRtt) {
  chord::ChordConfig cfg;
  cfg.force_reliable = true;  // lossless, but acked: RTT samples flow
  RtoHarness h(cfg);
  const std::vector<Key> ids = h.net->alive_ids();

  // No traffic yet: the estimator has no sample, so the configured
  // retry_base is the timeout.
  EXPECT_EQ(h.net->node(ids[0])->current_rto(ids[1]), cfg.retry_base);

  // The default wire is a fixed 50 ms each way, so every clean sample is
  // a 100 ms RTT; SRTT locks to it and RTTVAR decays to ~0. The RTO must
  // leave retry_base and settle just above the true RTT (clamped below
  // by kRtoMin).
  for (int i = 0; i < 20; ++i) {
    h.net->node(ids[0])->send(ids[1], std::make_shared<PingPayload>());
    h.sim.run();
  }
  const sim::SimTime rto = h.net->node(ids[0])->current_rto(ids[1]);
  EXPECT_NE(rto, cfg.retry_base);
  EXPECT_GE(rto, chord::kRtoMin);
  EXPECT_LT(rto, sim::ms(150));
  EXPECT_EQ(h.app.delivered, 20);
}

TEST(AdaptiveRtoTest, KarnRuleIgnoresAcksOfRetransmittedSends) {
  // Drop exactly the first transmission: the message is delivered by its
  // retransmit, whose ack is ambiguous (which copy does it answer?), so
  // it must NOT feed the estimator — the RTO stays at retry_base.
  // Clones (the per-sender channels) share the counter so exactly the
  // first N transmissions anywhere are dropped, not N per sender.
  struct DropFirstN final : sim::LossModel {
    explicit DropFirstN(int n) : left(std::make_shared<int>(n)) {}
    bool drop(Rng&) override { return (*left)-- > 0; }
    std::unique_ptr<sim::LossModel> clone() const override {
      auto copy = std::make_unique<DropFirstN>(0);
      copy->left = left;
      return copy;
    }
    std::shared_ptr<int> left;
  };

  chord::ChordConfig cfg;
  cfg.force_reliable = true;
  RtoHarness h(cfg);
  const std::vector<Key> ids = h.net->alive_ids();
  h.net->set_loss_model(std::make_unique<DropFirstN>(1));

  h.net->node(ids[0])->send(ids[1], std::make_shared<PingPayload>());
  h.sim.run();

  EXPECT_EQ(h.app.delivered, 1);
  EXPECT_EQ(h.net->registry().counter_value("chord.retransmits"), 1u);
  EXPECT_EQ(h.net->node(ids[0])->current_rto(ids[1]), cfg.retry_base);
}

TEST(AdaptiveRtoTest, DisabledEstimatorAlwaysUsesRetryBase) {
  chord::ChordConfig cfg;
  cfg.force_reliable = true;
  cfg.adaptive_rto = false;
  RtoHarness h(cfg);
  const std::vector<Key> ids = h.net->alive_ids();
  for (int i = 0; i < 10; ++i) {
    h.net->node(ids[0])->send(ids[1], std::make_shared<PingPayload>());
    h.sim.run();
  }
  EXPECT_EQ(h.net->node(ids[0])->current_rto(ids[1]), cfg.retry_base);
}

// ---------------------------------------------------------------------------
// Scripted partition / heal + invariant audit
// ---------------------------------------------------------------------------

pubsub::SystemConfig fault_config(std::size_t nodes,
                                  const FaultScript& script,
                                  std::size_t replication = 0) {
  pubsub::SystemConfig cfg;
  cfg.nodes = nodes;
  cfg.seed = 5;
  cfg.chord.ring = RingParams{11};
  cfg.chord.stabilize_period = sim::sec(5);
  cfg.chord.force_reliable = script.needs_reliable_transport();
  cfg.mapping = pubsub::MappingKind::kSelectiveAttribute;
  cfg.pubsub.sub_transport = pubsub::PubSubConfig::Transport::kMulticast;
  cfg.pubsub.replication_factor = replication;
  return cfg;
}

TEST(FaultScenarioTest, PartitionSplitsTheRingAndHealRemergesIt) {
  const auto script = FaultScript::parse("partition at=20 heal=120 frac=0.4");
  ASSERT_TRUE(script.has_value());
  pubsub::PubSubSystem system(fault_config(32, *script),
                              pubsub::Schema::uniform(2, 999));
  system.network().start_maintenance_all();
  FaultScriptRunner runner(system, *script, 5);
  runner.start();

  // Mid-partition the two arcs have stabilized into separate sub-rings,
  // both of which disagree with the global membership oracle.
  system.run_for(sim::sec(80));
  EXPECT_EQ(runner.partitions_applied(), 1u);
  EXPECT_FALSE(pubsub::audit_ring(system.network()).ok());

  // After the heal, remembered-contact probing and stabilization must
  // re-merge the arcs into one oracle-consistent ring.
  system.run_for(sim::sec(50));  // now 10 s past the heal
  for (int i = 0; i < 40 && !pubsub::audit_ring(system.network()).ok();
       ++i) {
    system.run_for(sim::sec(10));
  }
  const pubsub::RingAuditReport report = pubsub::audit_ring(system.network());
  EXPECT_TRUE(report.ok()) << (report.issues.empty() ? ""
                                                     : report.issues[0]);
  EXPECT_EQ(report.nodes_audited, 32u);
}

TEST(FaultScenarioTest, PostHealDeliveryIsCompleteAndAuditClean) {
  // The acceptance scenario: subscribe (some mid-partition), cut 40% of
  // the ring off for 200 s while publishing through it, heal, and
  // require a clean system audit plus a post-heal delivery ratio of 1
  // with bounded duplicates.
  const auto script = FaultScript::parse("partition at=100 heal=300 frac=0.4");
  ASSERT_TRUE(script.has_value());
  pubsub::PubSubSystem system(fault_config(48, *script, /*replication=*/2),
                              pubsub::Schema::uniform(3, 99'999));
  system.network().start_maintenance_all();

  pubsub::DeliveryChecker checker;
  FaultScriptRunner runner(system, *script, 5);
  runner.set_delivery_checker(&checker);
  runner.start();

  workload::WorkloadParams wp;
  wp.matching_probability = 0.8;
  workload::WorkloadGenerator gen(system.schema(), wp, 19);
  workload::DriverParams dp;
  dp.max_subscriptions = 30;
  dp.max_publications = 120;
  workload::Driver driver(system, gen, dp, &checker);
  driver.start();

  while (!driver.finished()) system.run_for(sim::sec(60));
  system.run_for(sim::sec(120));
  system.network().stop_maintenance_all();
  system.quiesce();

  const pubsub::SystemAuditReport audit = pubsub::audit_system(system);
  EXPECT_TRUE(audit.ok()) << (audit.issues.empty() ? "" : audit.issues[0]);

  // Post-heal window: publications after the script's last fault cleared
  // plus a few stabilization rounds must all deliver, exactly once.
  const sim::SimTime window =
      script->all_clear_at() + 8 * system.config().chord.stabilize_period;
  const auto report = checker.verify(sim::sec(15), window);
  ASSERT_GT(report.expected, 20u);
  EXPECT_EQ(report.missing, 0u)
      << (report.issues.empty() ? "" : report.issues[0]);
  EXPECT_EQ(report.duplicates, 0u);
  EXPECT_EQ(report.spurious, 0u);
}

// ---------------------------------------------------------------------------
// Ghost-delivery regression
// ---------------------------------------------------------------------------

TEST(FaultScenarioTest, CrashedSubscriberReceivesNoGhostNotifications) {
  // Regression: a crashed rendezvous with buffering enabled used to keep
  // flushing its buffered notifications, so a subscriber could hear from
  // beyond the grave. The pub/sub layer is halted on crash; nothing may
  // surface at the dead node after the crash instant.
  pubsub::SystemConfig cfg;
  cfg.nodes = 24;
  cfg.seed = 7;
  cfg.chord.ring = RingParams{11};
  cfg.mapping = pubsub::MappingKind::kSelectiveAttribute;
  cfg.pubsub.sub_transport = pubsub::PubSubConfig::Transport::kMulticast;
  cfg.pubsub.buffering = true;
  cfg.pubsub.buffer_period = sim::sec(5);
  pubsub::PubSubSystem system(cfg, pubsub::Schema::uniform(2, 999));

  pubsub::DeliveryChecker checker;
  struct SinkEntry {
    Key subscriber;
    sim::SimTime when;
  };
  std::vector<SinkEntry> sink;
  system.set_notify_sink([&](Key subscriber, const pubsub::Notification& n) {
    sink.push_back({subscriber, system.sim().now()});
    checker.on_notify(subscriber, n, system.sim().now());
  });

  // Everyone subscribes to everything, so every node is both a
  // subscriber and (for some key) a rendezvous.
  for (std::size_t i = 0; i < system.node_count(); ++i) {
    checker.on_subscribe(system.subscribe(i, {{0, {0, 999}}}),
                         system.sim().now(), sim::kSimTimeNever);
  }
  system.quiesce();
  system.run_for(sim::sec(10));  // clear the checker's grace window

  auto event = std::make_shared<pubsub::Event>();
  event->values = {123, 456};
  event->id = system.publish(0, event->values);
  checker.on_publish(event, system.sim().now());
  const std::size_t victim = 7;
  const Key victim_key = system.node_id(victim);
  const sim::SimTime crash_at = system.sim().now();
  system.crash_node(victim);
  checker.on_node_crashed(victim_key, crash_at);
  system.quiesce();

  std::size_t live_deliveries = 0;
  for (const SinkEntry& e : sink) {
    EXPECT_FALSE(e.subscriber == victim_key && e.when >= crash_at)
        << "ghost delivery at crashed node " << victim_key;
    if (e.subscriber != victim_key) ++live_deliveries;
  }
  // The event itself did flow to the survivors.
  EXPECT_GE(live_deliveries, 20u);

  // The oracle must not count the crashed subscriber as expected (its
  // subscription ends at the crash), and nothing it saw was a ghost.
  const auto report = checker.verify();
  EXPECT_TRUE(report.ok()) << (report.issues.empty() ? ""
                                                     : report.issues[0]);
  EXPECT_EQ(report.expected, 23u);  // 24 subscribers minus the victim
}

// ---------------------------------------------------------------------------
// Membership guard death tests
// ---------------------------------------------------------------------------

using FaultGuardDeathTest = ::testing::Test;

TEST(FaultGuardDeathTest, DoubleRemovalIsRejected) {
  sim::Simulator sim;
  chord::ChordNetwork net(sim, chord::ChordConfig{}, 3);
  for (int i = 0; i < 3; ++i) net.add_node("n" + std::to_string(i));
  net.build_static_ring();
  const Key victim = net.alive_ids()[0];
  net.crash(victim);
  EXPECT_DEATH(net.crash(victim), "not alive");
  EXPECT_DEATH(net.leave_gracefully(victim), "not alive");
}

TEST(FaultGuardDeathTest, LastAliveNodeCannotBeRemoved) {
  sim::Simulator sim;
  chord::ChordNetwork net(sim, chord::ChordConfig{}, 3);
  net.add_node("only");
  net.build_static_ring();
  const Key only = net.alive_ids()[0];
  EXPECT_DEATH(net.crash(only), "last alive");
  EXPECT_DEATH(net.leave_gracefully(only), "last alive");
}

// ---------------------------------------------------------------------------
// Determinism of churn + fault runs across sweep workers
// ---------------------------------------------------------------------------

struct ChurnFingerprint {
  std::vector<workload::ChurnDriver::ChurnEvent> log;
  std::uint64_t script_crashes = 0;
  std::uint64_t total_hops = 0;
};

bench::JsonFields json_fields(const ChurnFingerprint& r) {
  return {{"events", static_cast<double>(r.log.size())},
          {"total_hops", static_cast<double>(r.total_hops)}};
}

std::vector<ChurnFingerprint> run_churn_sweep(std::size_t jobs) {
  bench::Sweep<ChurnFingerprint> sweep("fault_determinism_test");
  bench::SweepOptions opts;
  opts.jobs = jobs;
  sweep.set_options(opts);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    sweep.add("seed=" + std::to_string(seed), [seed] {
      const auto script = FaultScript::parse(
          "slow at=50 until=250 nodes=2 factor=4\n"
          "crash_burst at=150 count=2 correlation=0.5");
      pubsub::SystemConfig cfg;
      cfg.nodes = 24;
      cfg.seed = seed;
      cfg.chord.ring = RingParams{11};
      cfg.chord.stabilize_period = sim::sec(5);
      cfg.chord.force_reliable = script->needs_reliable_transport();
      cfg.mapping = pubsub::MappingKind::kSelectiveAttribute;
      pubsub::PubSubSystem system(cfg, pubsub::Schema::uniform(2, 999));
      system.network().start_maintenance_all();

      FaultScriptRunner runner(system, *script, seed);
      runner.start();
      workload::ChurnParams cp;
      cp.mean_interval_s = 30.0;
      cp.min_nodes = 12;
      workload::ChurnDriver churn(system, cp, seed * 31 + 7);
      churn.start();

      system.run_for(sim::sec(600));
      churn.stop();
      system.run_for(sim::sec(60));
      return ChurnFingerprint{churn.event_log(), runner.crashes(),
                              system.traffic().total_hops()};
    });
  }
  return sweep.run();
}

TEST(ChurnDeterminismTest, SameSeedIsIdenticalAcrossWorkerCounts) {
  const auto serial = run_churn_sweep(1);
  const auto parallel = run_churn_sweep(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_GT(serial[i].log.size(), 4u);
    EXPECT_EQ(serial[i].script_crashes, parallel[i].script_crashes);
    EXPECT_EQ(serial[i].total_hops, parallel[i].total_hops);
    ASSERT_EQ(serial[i].log.size(), parallel[i].log.size());
    for (std::size_t e = 0; e < serial[i].log.size(); ++e) {
      EXPECT_EQ(serial[i].log[e].kind, parallel[i].log[e].kind);
      EXPECT_EQ(serial[i].log[e].node, parallel[i].log[e].node);
      EXPECT_EQ(serial[i].log[e].at, parallel[i].log[e].at);
    }
  }
}

}  // namespace
}  // namespace cbps
