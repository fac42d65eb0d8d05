// White-box unit tests of the CB-pub/sub node against a scripted fake
// overlay: exercises the notification paths (immediate / buffered /
// collect direction), replication chains, state export/import and the
// gossip repair handlers without any real routing. Also unit-tests the
// DeliveryChecker oracle itself.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cbps/pubsub/delivery_checker.hpp"
#include "cbps/pubsub/gossip.hpp"
#include "cbps/pubsub/node.hpp"
#include "cbps/sim/simulator.hpp"

namespace cbps::pubsub {
namespace {

// A controllable overlay: records every primitive invocation.
class FakeOverlay final : public overlay::OverlayNode {
 public:
  struct Sent {
    enum class Kind { kSend, kMcast, kChain, kToSucc, kToPred } kind;
    Key key = 0;                 // for kSend
    std::vector<Key> keys;       // for kMcast / kChain
    overlay::PayloadPtr payload;
  };

  FakeOverlay(RingParams ring, Key id, Key pred, Key succ)
      : ring_(ring), id_(id), pred_(pred), succ_(succ) {}

  Key id() const override { return id_; }
  RingParams ring() const override { return ring_; }
  void send(Key key, overlay::PayloadPtr payload) override {
    sent.push_back({Sent::Kind::kSend, key, {}, std::move(payload)});
  }
  void m_cast(std::vector<Key> keys, overlay::PayloadPtr payload) override {
    sent.push_back({Sent::Kind::kMcast, 0, std::move(keys),
                    std::move(payload)});
  }
  void chain_cast(std::vector<Key> keys,
                  overlay::PayloadPtr payload) override {
    sent.push_back({Sent::Kind::kChain, 0, std::move(keys),
                    std::move(payload)});
  }
  void send_to_successor(overlay::PayloadPtr payload) override {
    sent.push_back({Sent::Kind::kToSucc, 0, {}, std::move(payload)});
  }
  void send_to_predecessor(overlay::PayloadPtr payload) override {
    sent.push_back({Sent::Kind::kToPred, 0, {}, std::move(payload)});
  }
  Key successor_id() const override { return succ_; }
  Key predecessor_id() const override { return pred_; }
  void set_app(overlay::OverlayApp* app) override { app_ = app; }

  overlay::OverlayApp* app() const { return app_; }

  std::vector<Sent> sent;

 private:
  RingParams ring_;
  Key id_;
  Key pred_;
  Key succ_;
  overlay::OverlayApp* app_ = nullptr;
};

// Minimal single-attribute world: domain 0..255 on an 8-bit ring, so the
// identity-ish scaling hash makes rendezvous geometry easy to reason
// about.
class PubSubNodeUnitTest : public ::testing::Test {
 protected:
  PubSubNodeUnitTest()
      : schema_({{"a", {0, 255}}}),
        mapping_(make_mapping(MappingKind::kSelectiveAttribute, schema_,
                              RingParams{8})) {}

  std::unique_ptr<PubSubNode> make_node(FakeOverlay& overlay,
                                        PubSubConfig cfg = {}) {
    return std::make_unique<PubSubNode>(overlay, sim_, *mapping_, cfg);
  }

  SubscriptionPtr make_sub(SubscriptionId id, Key subscriber, Value lo,
                           Value hi) {
    auto s = std::make_shared<Subscription>();
    s->id = id;
    s->subscriber = subscriber;
    s->constraints = {{0, {lo, hi}}};
    return s;
  }

  // Deliver a subscription to the node as if routed there.
  void deliver_sub(PubSubNode& node, const SubscriptionPtr& sub,
                   sim::SimTime expiry = sim::kSimTimeNever) {
    const auto ranges = mapping_->subscription_ranges(*sub);
    node.on_deliver(ranges.front().lo,
                    std::make_shared<SubscribeMsg>(sub, expiry, ranges));
  }

  void deliver_pub(PubSubNode& node, Key key, Value value, EventId id) {
    auto e = std::make_shared<Event>();
    e->id = id;
    e->values = {value};
    node.on_deliver(key, std::make_shared<PublishMsg>(std::move(e), 0,
                                                      sim_.now()));
  }

  sim::Simulator sim_;
  Schema schema_;
  std::unique_ptr<AkMapping> mapping_;
};

TEST_F(PubSubNodeUnitTest, ImmediateNotificationGoesStraightOut) {
  FakeOverlay overlay(RingParams{8}, /*id=*/100, /*pred=*/50, /*succ=*/150);
  auto node = make_node(overlay);
  const auto sub = make_sub(1, /*subscriber=*/200, 60, 100);
  deliver_sub(*node, sub);
  deliver_pub(*node, mapping_->event_keys(Event{1, {80}}).front(), 80, 1);

  ASSERT_EQ(overlay.sent.size(), 1u);
  EXPECT_EQ(overlay.sent[0].kind, FakeOverlay::Sent::Kind::kSend);
  EXPECT_EQ(overlay.sent[0].key, 200u);  // routed to the subscriber key
  const auto* notify =
      dynamic_cast<const NotifyMsg*>(overlay.sent[0].payload.get());
  ASSERT_NE(notify, nullptr);
  ASSERT_EQ(notify->batch.size(), 1u);
  EXPECT_EQ(notify->batch[0].subscription, 1u);
}

TEST_F(PubSubNodeUnitTest, BufferingBatchesBySubscriber) {
  FakeOverlay overlay(RingParams{8}, 100, 50, 150);
  PubSubConfig cfg;
  cfg.buffering = true;
  cfg.buffer_period = sim::sec(5);
  auto node = make_node(overlay, cfg);
  deliver_sub(*node, make_sub(1, 200, 60, 100));
  deliver_sub(*node, make_sub(2, 210, 60, 100));

  for (EventId i = 1; i <= 3; ++i) {
    // Domain 0..255 on a 2^8 ring: h is the identity, so the event key
    // equals the attribute value.
    deliver_pub(*node, static_cast<Key>(60 + i), static_cast<Value>(60 + i),
                i);
  }
  EXPECT_TRUE(overlay.sent.empty());  // still buffered
  sim_.run();

  // One batch per subscriber, three notifications each.
  ASSERT_EQ(overlay.sent.size(), 2u);
  for (const auto& s : overlay.sent) {
    const auto* notify = dynamic_cast<const NotifyMsg*>(s.payload.get());
    ASSERT_NE(notify, nullptr);
    EXPECT_EQ(notify->batch.size(), 3u);
  }
  EXPECT_EQ(node->notify_batches_sent(), 2u);
  EXPECT_EQ(node->notifications_sent(), 6u);
}

TEST_F(PubSubNodeUnitTest, CollectingForwardsTowardAgent) {
  // Subscription range [0, 200] on the key ring; its agent is the node
  // covering key 100. Our node covers (0, 40]: it sits before the
  // midpoint, so collect traffic must flow to the successor.
  FakeOverlay overlay(RingParams{8}, /*id=*/40, /*pred=*/0, /*succ=*/80);
  PubSubConfig cfg;
  cfg.collecting = true;
  cfg.buffer_period = sim::sec(2);
  auto node = make_node(overlay, cfg);

  const auto sub = make_sub(1, 220, 0, 200);  // SK covers keys 0..200
  deliver_sub(*node, sub);
  deliver_pub(*node, 30, 30, 1);
  sim_.run();

  ASSERT_EQ(overlay.sent.size(), 1u);
  EXPECT_EQ(overlay.sent[0].kind, FakeOverlay::Sent::Kind::kToSucc);
  const auto* collect =
      dynamic_cast<const CollectMsg*>(overlay.sent[0].payload.get());
  ASSERT_NE(collect, nullptr);
  ASSERT_EQ(collect->items.size(), 1u);
  EXPECT_EQ(collect->items[0].subscriber, 220u);
}

TEST_F(PubSubNodeUnitTest, CollectingAfterAgentFlowsBackward) {
  // Node covering (150, 180] is past the midpoint 100: collect traffic
  // must flow to the predecessor.
  FakeOverlay overlay(RingParams{8}, /*id=*/180, /*pred=*/150, /*succ=*/210);
  PubSubConfig cfg;
  cfg.collecting = true;
  cfg.buffer_period = sim::sec(2);
  auto node = make_node(overlay, cfg);
  deliver_sub(*node, make_sub(1, 220, 0, 200));
  deliver_pub(*node, 160, 160, 1);
  sim_.run();
  ASSERT_EQ(overlay.sent.size(), 1u);
  EXPECT_EQ(overlay.sent[0].kind, FakeOverlay::Sent::Kind::kToPred);
}

TEST_F(PubSubNodeUnitTest, AgentSendsBatchToSubscriber) {
  // Node covering (90, 120] contains the midpoint 100: it is the agent
  // and must notify the subscriber directly (as a routed batch).
  FakeOverlay overlay(RingParams{8}, /*id=*/120, /*pred=*/90, /*succ=*/140);
  PubSubConfig cfg;
  cfg.collecting = true;
  cfg.buffer_period = sim::sec(2);
  auto node = make_node(overlay, cfg);
  deliver_sub(*node, make_sub(1, 220, 0, 200));
  deliver_pub(*node, 100, 100, 1);

  // Also receive a collect item from a neighbor for the same range.
  auto e2 = std::make_shared<Event>();
  e2->id = 2;
  e2->values = {95};
  const Notification n2{e2, 1, /*published_at=*/0, /*trace=*/{}};
  node->on_deliver(120, std::make_shared<CollectMsg>(std::vector<CollectItem>{
                            {KeyRange{0, 200}, 220, n2}}));
  sim_.run();

  ASSERT_EQ(overlay.sent.size(), 1u);
  EXPECT_EQ(overlay.sent[0].kind, FakeOverlay::Sent::Kind::kSend);
  EXPECT_EQ(overlay.sent[0].key, 220u);
  const auto* notify =
      dynamic_cast<const NotifyMsg*>(overlay.sent[0].payload.get());
  ASSERT_NE(notify, nullptr);
  EXPECT_EQ(notify->batch.size(), 2u);  // own match + collected item
}

TEST_F(PubSubNodeUnitTest, ReplicationChainsAlongSuccessors) {
  FakeOverlay overlay(RingParams{8}, 100, 50, 150);
  PubSubConfig cfg;
  cfg.replication_factor = 3;
  auto node = make_node(overlay, cfg);
  deliver_sub(*node, make_sub(1, 200, 60, 100));

  ASSERT_EQ(overlay.sent.size(), 1u);
  const auto* rep =
      dynamic_cast<const ReplicaMsg*>(overlay.sent[0].payload.get());
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->remaining_hops, 3u);
  EXPECT_FALSE(rep->record.replica);

  // Receiving a replica with remaining hops forwards a decremented copy.
  // Copy before clear(): `rep` points into the payload that clear() frees.
  auto replica = std::make_shared<ReplicaMsg>(*rep);
  overlay.sent.clear();
  node->on_deliver(100, std::move(replica));
  ASSERT_EQ(overlay.sent.size(), 1u);
  const auto* fwd =
      dynamic_cast<const ReplicaMsg*>(overlay.sent[0].payload.get());
  ASSERT_NE(fwd, nullptr);
  EXPECT_EQ(fwd->remaining_hops, 2u);
  EXPECT_EQ(node->store().size(), 1u);  // the sub was already owned here
}

TEST_F(PubSubNodeUnitTest, ExportStateSplitsByRange) {
  FakeOverlay overlay(RingParams{8}, 100, 20, 150);
  auto node = make_node(overlay);
  deliver_sub(*node, make_sub(1, 200, 30, 40));   // keys ~30..40
  deliver_sub(*node, make_sub(2, 200, 80, 95));   // keys ~80..95
  ASSERT_EQ(node->store().owned_size(), 2u);

  // Hand away (20, 60]: only sub 1's range intersects.
  const auto st = node->export_state(20, 60, /*remove=*/true);
  const auto* msg = dynamic_cast<const StateMsg*>(st.get());
  ASSERT_NE(msg, nullptr);
  ASSERT_EQ(msg->records.size(), 1u);
  EXPECT_EQ(msg->records[0].sub->id, 1u);
  EXPECT_EQ(node->store().owned_size(), 1u);  // sub 1 dropped
  EXPECT_NE(node->store().find(2), nullptr);
}

TEST_F(PubSubNodeUnitTest, ImportStateRestoresRecords) {
  FakeOverlay a(RingParams{8}, 100, 20, 150);
  FakeOverlay b(RingParams{8}, 60, 20, 100);
  auto exporter = make_node(a);
  auto importer = make_node(b);
  deliver_sub(*exporter, make_sub(1, 200, 30, 40));
  const auto st = exporter->export_state(20, 60, true);
  importer->import_state(st);
  EXPECT_EQ(importer->store().owned_size(), 1u);
  EXPECT_NE(importer->store().find(1), nullptr);
}

TEST_F(PubSubNodeUnitTest, UnsubscribeUsesSameKeysAsSubscribe) {
  FakeOverlay overlay(RingParams{8}, 100, 50, 150);
  PubSubConfig cfg;
  cfg.sub_transport = PubSubConfig::Transport::kMulticast;
  auto node = make_node(overlay, cfg);
  auto sub = make_sub(1, 100, 60, 100);
  node->subscribe(sub);
  node->unsubscribe(1);
  ASSERT_EQ(overlay.sent.size(), 2u);
  EXPECT_EQ(overlay.sent[0].kind, FakeOverlay::Sent::Kind::kMcast);
  EXPECT_EQ(overlay.sent[1].kind, FakeOverlay::Sent::Kind::kMcast);
  EXPECT_EQ(overlay.sent[0].keys, overlay.sent[1].keys);
}

TEST_F(PubSubNodeUnitTest, UnknownUnsubscribeIsNoOp) {
  FakeOverlay overlay(RingParams{8}, 100, 50, 150);
  auto node = make_node(overlay);
  node->unsubscribe(999);
  EXPECT_TRUE(overlay.sent.empty());
}

// ---------------------------------------------------------------------------
// Gossip repair handlers (anti-entropy rendezvous-state legs)
// ---------------------------------------------------------------------------

TEST_F(PubSubNodeUnitTest, GossipSubRepairLearnsOwnedRecordAndReplicates) {
  FakeOverlay overlay(RingParams{8}, 100, 50, 150);
  PubSubConfig cfg;
  cfg.dissemination = PubSubConfig::Dissemination::kGossip;
  cfg.replication_factor = 2;
  auto node = make_node(overlay, cfg);

  const auto sub = make_sub(1, 200, 0, 255);
  auto repair = std::make_shared<GossipSubRepairMsg>(/*target=*/100);
  repair->records.push_back({sub, sim::kSimTimeNever,
                             mapping_->subscription_ranges(*sub),
                             /*replica=*/false});
  node->on_deliver(100, repair);

  const auto* rec = node->store().find(1);
  ASSERT_NE(rec, nullptr);
  EXPECT_FALSE(rec->replica);  // learned as owned, not as a backup copy
  EXPECT_EQ(node->gossip_stats().subs_learned, 1u);

  // Learning the record rebuilds its replica chain immediately...
  ASSERT_EQ(overlay.sent.size(), 1u);
  const auto* rep =
      dynamic_cast<const ReplicaMsg*>(overlay.sent[0].payload.get());
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->remaining_hops, 2u);
  EXPECT_EQ(rep->record.sub->id, 1u);

  // ...and re_replicate refreshes it like any other owned record, so a
  // post-heal sweep also re-homes gossip-learned state.
  overlay.sent.clear();
  EXPECT_EQ(node->re_replicate(), 1u);
  ASSERT_EQ(overlay.sent.size(), 1u);
  EXPECT_NE(dynamic_cast<const ReplicaMsg*>(overlay.sent[0].payload.get()),
            nullptr);
}

TEST_F(PubSubNodeUnitTest, GossipSubRepairUpgradesAReplicaToOwned) {
  FakeOverlay overlay(RingParams{8}, 100, 50, 150);
  PubSubConfig cfg;
  cfg.dissemination = PubSubConfig::Dissemination::kGossip;
  cfg.replication_factor = 2;
  auto node = make_node(overlay, cfg);

  const auto sub = make_sub(1, 200, 0, 255);
  const auto ranges = mapping_->subscription_ranges(*sub);
  // Held as a neighbor's backup first (terminal hop: nothing forwarded).
  node->on_deliver(100, std::make_shared<ReplicaMsg>(
                            StoredSubRecord{sub, sim::kSimTimeNever, ranges},
                            /*hops=*/1));
  ASSERT_TRUE(node->store().find(1)->replica);
  overlay.sent.clear();

  auto repair = std::make_shared<GossipSubRepairMsg>(/*target=*/100);
  repair->records.push_back({sub, sim::kSimTimeNever, ranges, false});
  node->on_deliver(100, repair);

  EXPECT_FALSE(node->store().find(1)->replica);
  EXPECT_EQ(node->gossip_stats().subs_learned, 1u);
  ASSERT_EQ(overlay.sent.size(), 1u);  // fresh ownership, fresh chain
  EXPECT_NE(dynamic_cast<const ReplicaMsg*>(overlay.sent[0].payload.get()),
            nullptr);
}

TEST_F(PubSubNodeUnitTest, GossipSubRepairForAnotherTargetIsGhostDropped) {
  FakeOverlay overlay(RingParams{8}, 100, 50, 150);
  PubSubConfig cfg;
  cfg.dissemination = PubSubConfig::Dissemination::kGossip;
  auto node = make_node(overlay, cfg);
  const auto sub = make_sub(1, 200, 0, 255);
  auto repair = std::make_shared<GossipSubRepairMsg>(/*target=*/130);
  repair->records.push_back({sub, sim::kSimTimeNever,
                             mapping_->subscription_ranges(*sub), false});
  node->on_deliver(100, repair);  // key-routed here, addressed elsewhere
  EXPECT_EQ(node->store().find(1), nullptr);
  EXPECT_EQ(node->gossip_stats().misdirected, 1u);
}

TEST_F(PubSubNodeUnitTest, ReplicaRecordsAreNeverAdvertisedOrRepaired) {
  FakeOverlay overlay(RingParams{8}, 100, 50, 150);
  PubSubConfig cfg;
  cfg.dissemination = PubSubConfig::Dissemination::kGossip;
  auto node = make_node(overlay, cfg);

  // A replica-held record whose range covers the digesting peer: if the
  // replica guard were missing, the node would push it as repair and
  // every chain member would act like an owner.
  const auto backup = make_sub(1, 210, 0, 255);
  node->on_deliver(
      100, std::make_shared<ReplicaMsg>(
               StoredSubRecord{backup, sim::kSimTimeNever,
                               mapping_->subscription_ranges(*backup)},
               /*hops=*/1));
  overlay.sent.clear();

  node->on_deliver(100, std::make_shared<GossipDigestMsg>(
                            /*from=*/200, /*target=*/100, /*reply=*/false));

  // Only the return digest goes out — no sub repair for the replica, and
  // the digest advertises nothing.
  ASSERT_EQ(overlay.sent.size(), 1u);
  const auto* digest =
      dynamic_cast<const GossipDigestMsg*>(overlay.sent[0].payload.get());
  ASSERT_NE(digest, nullptr);
  EXPECT_TRUE(digest->reply);
  EXPECT_TRUE(digest->subs.empty());

  // Contrast: an owned record with the same coverage is both pushed as
  // repair and advertised in the return digest.
  const auto owned = make_sub(2, 210, 0, 255);
  deliver_sub(*node, owned);
  overlay.sent.clear();
  node->on_deliver(100, std::make_shared<GossipDigestMsg>(
                            /*from=*/200, /*target=*/100, /*reply=*/false));

  const GossipSubRepairMsg* repair = nullptr;
  const GossipDigestMsg* reply = nullptr;
  for (const auto& s : overlay.sent) {
    if (const auto* r =
            dynamic_cast<const GossipSubRepairMsg*>(s.payload.get())) {
      repair = r;
    }
    if (const auto* d =
            dynamic_cast<const GossipDigestMsg*>(s.payload.get())) {
      reply = d;
    }
  }
  ASSERT_NE(repair, nullptr);
  ASSERT_EQ(repair->records.size(), 1u);
  EXPECT_EQ(repair->records[0].sub->id, 2u);  // the owned one, only
  ASSERT_NE(reply, nullptr);
  ASSERT_EQ(reply->subs.size(), 1u);
  EXPECT_EQ(reply->subs[0].id, 2u);
}

// Regression (duplicate-delivery accounting): the same notification
// replayed at a node — the overlay's ack/retry layer can do exactly that
// — must surface to the application and the oracle once, whichever
// backend carries it: a unicast NotifyMsg, an m-cast MultiNotifyMsg, or
// a GossipMsg (a re-seeded record has a fresh gossip id, so only the
// delivery step's filter can catch it).
TEST_F(PubSubNodeUnitTest, ReplayedNotifyMsgSurfacesOnce) {
  enum class Carrier { kNotify, kMultiNotify, kGossip };
  // The `copy`-th carrier of notification `n` for subscriber 100.
  const auto carry = [](Carrier carrier, const Notification& n,
                        std::uint64_t copy) -> overlay::PayloadPtr {
    switch (carrier) {
      case Carrier::kNotify:
        return std::make_shared<NotifyMsg>(100, std::vector<Notification>{n});
      case Carrier::kMultiNotify: {
        auto mn = std::make_shared<MultiNotifyMsg>();
        mn->entries = {GossipEntry{100, n}};
        return mn;
      }
      case Carrier::kGossip: {
        auto rec = std::make_shared<GossipRecord>();
        rec->id = GossipId{/*origin=*/7, /*seq=*/copy};
        rec->group = {100};
        rec->entries = {GossipEntry{100, n}};
        return std::make_shared<GossipMsg>(100, std::move(rec), 0);
      }
    }
    return nullptr;
  };
  for (const Carrier carrier :
       {Carrier::kNotify, Carrier::kMultiNotify, Carrier::kGossip}) {
    SCOPED_TRACE(static_cast<int>(carrier));
    FakeOverlay overlay(RingParams{8}, 100, 50, 150);
    PubSubConfig cfg;
    cfg.duplicate_suppression = true;
    auto node = make_node(overlay, cfg);

    DeliveryChecker checker;
    const auto sub = make_sub(1, /*subscriber=*/100, 0, 100);
    checker.on_subscribe(sub, sim::sec(0), sim::kSimTimeNever);
    int sink_calls = 0;
    node->set_notify_sink([&](Key s, const Notification& n) {
      ++sink_calls;
      checker.on_notify(s, n, sim_.now());
    });

    auto e = std::make_shared<Event>();
    e->id = 1;
    e->values = {50};
    checker.on_publish(e, sim::sec(100));
    const Notification n{e, 1, sim::sec(100), {}};
    node->on_deliver(100, carry(carrier, n, 1));
    node->on_deliver(100, carry(carrier, n, 2));  // replay

    EXPECT_EQ(sink_calls, 1);
    EXPECT_EQ(node->notifications_received(), 1u);
    EXPECT_EQ(node->duplicates_suppressed(), 1u);
    const auto report = checker.verify();
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.delivered, 1u);
    EXPECT_EQ(report.duplicates, 0u);
  }
}

// Ghost guard: a notification key-routed onto the node that now covers
// a crashed subscriber's key is dropped there — counted as misdirected,
// never surfaced, one kDrop/kMisdirected span per sampled notification.
TEST_F(PubSubNodeUnitTest, MisdirectedNotificationsAreGhostDropped) {
  FakeOverlay overlay(RingParams{8}, /*id=*/100, /*pred=*/50, /*succ=*/150);
  auto node = make_node(overlay);
  metrics::TraceSink traces(1.0);
  node->set_trace_sink(&traces);
  int sink_calls = 0;
  node->set_notify_sink([&](Key, const Notification&) { ++sink_calls; });

  auto e = std::make_shared<Event>();
  e->id = 1;
  e->values = {50};
  const metrics::TraceRef sampled{traces.maybe_start_trace(), 0};
  ASSERT_TRUE(sampled.sampled());

  // A NotifyMsg for subscriber 90 (covered here, but not this node): one
  // sampled and one unsampled notification.
  node->on_deliver(90, std::make_shared<NotifyMsg>(
                           90, std::vector<Notification>{
                                   {e, 1, 0, sampled}, {e, 2, 0, {}}}));
  EXPECT_EQ(node->misdirected_notifies(), 2u);

  // A MultiNotifyMsg whose entry for subscriber 80 lands here as the
  // cover of key 80; the entry for 200 is another member's business.
  auto mn = std::make_shared<MultiNotifyMsg>();
  mn->entries = {GossipEntry{80, {e, 3, 0, sampled}},
                 GossipEntry{200, {e, 4, 0, sampled}}};
  const Key covered[] = {80};
  node->on_deliver_mcast(covered, mn);
  EXPECT_EQ(node->misdirected_notifies(), 3u);

  EXPECT_EQ(sink_calls, 0);
  EXPECT_EQ(node->notifications_received(), 0u);
  std::size_t drops = 0;
  for (const metrics::Span& s : traces.spans()) {
    ASSERT_EQ(s.kind, metrics::SpanKind::kDrop);
    EXPECT_EQ(s.a,
              static_cast<std::uint64_t>(metrics::DropReason::kMisdirected));
    EXPECT_EQ(s.node, 100u);
    ++drops;
  }
  EXPECT_EQ(drops, 2u);  // one per sampled misdirected notification
}

// ---------------------------------------------------------------------------
// DeliveryChecker oracle self-tests
// ---------------------------------------------------------------------------

class DeliveryCheckerTest : public ::testing::Test {
 protected:
  SubscriptionPtr sub(SubscriptionId id, Value lo, Value hi) {
    auto s = std::make_shared<Subscription>();
    s->id = id;
    s->subscriber = 42;
    s->constraints = {{0, {lo, hi}}};
    return s;
  }
  EventPtr event(EventId id, Value v) {
    auto e = std::make_shared<Event>();
    e->id = id;
    e->values = {v};
    return e;
  }
  // The notification of `e` for subscription 1.
  static Notification notification(EventPtr e) {
    return Notification{std::move(e), 1, /*published_at=*/0, /*trace=*/{}};
  }
};

TEST_F(DeliveryCheckerTest, DetectsMissingDelivery) {
  DeliveryChecker checker;
  checker.on_subscribe(sub(1, 0, 100), sim::sec(0), sim::kSimTimeNever);
  checker.on_publish(event(1, 50), sim::sec(100));
  const auto report = checker.verify();
  EXPECT_EQ(report.expected, 1u);
  EXPECT_EQ(report.missing, 1u);
  EXPECT_FALSE(report.ok());
}

TEST_F(DeliveryCheckerTest, AcceptsCorrectDelivery) {
  DeliveryChecker checker;
  const auto s = sub(1, 0, 100);
  const auto e = event(1, 50);
  checker.on_subscribe(s, sim::sec(0), sim::kSimTimeNever);
  checker.on_publish(e, sim::sec(100));
  checker.on_notify(42, notification(e), sim::sec(101));
  const auto report = checker.verify();
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.delivered, 1u);
}

TEST_F(DeliveryCheckerTest, DetectsDuplicates) {
  DeliveryChecker checker;
  const auto s = sub(1, 0, 100);
  const auto e = event(1, 50);
  checker.on_subscribe(s, sim::sec(0), sim::kSimTimeNever);
  checker.on_publish(e, sim::sec(100));
  checker.on_notify(42, notification(e), sim::sec(101));
  checker.on_notify(42, notification(e), sim::sec(102));
  EXPECT_EQ(checker.verify().duplicates, 1u);
}

TEST_F(DeliveryCheckerTest, DetectsSpuriousDelivery) {
  DeliveryChecker checker;
  const auto s = sub(1, 0, 100);
  const auto e = event(1, 200);  // does not match
  checker.on_subscribe(s, sim::sec(0), sim::kSimTimeNever);
  checker.on_publish(e, sim::sec(100));
  checker.on_notify(42, notification(e), sim::sec(101));
  EXPECT_EQ(checker.verify().spurious, 1u);
}

TEST_F(DeliveryCheckerTest, DetectsWrongSubscriber) {
  DeliveryChecker checker;
  const auto s = sub(1, 0, 100);
  const auto e = event(1, 50);
  checker.on_subscribe(s, sim::sec(0), sim::kSimTimeNever);
  checker.on_publish(e, sim::sec(100));
  checker.on_notify(/*subscriber=*/7, notification(e), sim::sec(101));
  EXPECT_EQ(checker.verify().wrong_subscriber, 1u);
}

TEST_F(DeliveryCheckerTest, DuplicateAtTheSameNodeIsOnlyADuplicate) {
  // A replayed notification at the right node: the pair counts once as
  // delivered, the extra copy as a duplicate — never as wrong-subscriber.
  DeliveryChecker checker;
  const auto s = sub(1, 0, 100);
  const auto e = event(1, 50);
  checker.on_subscribe(s, sim::sec(0), sim::kSimTimeNever);
  checker.on_publish(e, sim::sec(100));
  checker.on_notify(42, notification(e), sim::sec(101));
  checker.on_notify(42, notification(e), sim::sec(102));
  const auto report = checker.verify();
  EXPECT_EQ(report.delivered, 1u);
  EXPECT_EQ(report.duplicates, 1u);
  EXPECT_EQ(report.wrong_subscriber, 0u);
}

TEST_F(DeliveryCheckerTest, LateDuplicateCannotMaskAWrongFirstDelivery) {
  // Regression: the oracle used to overwrite the recorded subscriber on
  // every notify, so a ghost delivery at node 7 followed by a correct
  // duplicate at node 42 looked clean. The first delivery's identity is
  // authoritative now.
  DeliveryChecker checker;
  const auto s = sub(1, 0, 100);
  const auto e = event(1, 50);
  checker.on_subscribe(s, sim::sec(0), sim::kSimTimeNever);
  checker.on_publish(e, sim::sec(100));
  checker.on_notify(/*subscriber=*/7, notification(e), sim::sec(101));
  checker.on_notify(/*subscriber=*/42, notification(e), sim::sec(102));
  EXPECT_EQ(checker.verify().wrong_subscriber, 1u);
}

TEST_F(DeliveryCheckerTest, DuplicateAtAnotherNodeFlagsTheMismatch) {
  // Symmetric case: correct first delivery, duplicate surfacing at a
  // different node. The mismatch flag catches it even though the
  // recorded (first) subscriber is the right one.
  DeliveryChecker checker;
  const auto s = sub(1, 0, 100);
  const auto e = event(1, 50);
  checker.on_subscribe(s, sim::sec(0), sim::kSimTimeNever);
  checker.on_publish(e, sim::sec(100));
  checker.on_notify(/*subscriber=*/42, notification(e), sim::sec(101));
  checker.on_notify(/*subscriber=*/7, notification(e), sim::sec(102));
  EXPECT_EQ(checker.verify().wrong_subscriber, 1u);
}

TEST_F(DeliveryCheckerTest, GraceWindowExemptsBoundaryPublishes) {
  DeliveryChecker checker;
  const auto s = sub(1, 0, 100);
  checker.on_subscribe(s, sim::sec(100), sim::kSimTimeNever);
  // Published 1 s after subscribing: within the grace window.
  checker.on_publish(event(1, 50), sim::sec(101));
  const auto report = checker.verify(/*grace=*/sim::sec(2));
  EXPECT_EQ(report.expected, 0u);
  EXPECT_TRUE(report.ok());
}

TEST_F(DeliveryCheckerTest, SubscribeGraceBoundaryIsInclusive) {
  // A publish at exactly subscribed_at + grace is clearly active (the
  // window is closed on this edge); one microtick earlier is still in
  // the grace region and demands nothing.
  DeliveryChecker checker;
  checker.on_subscribe(sub(1, 0, 100), sim::sec(100), sim::kSimTimeNever);
  checker.on_publish(event(1, 50), sim::sec(102));      // == +grace
  checker.on_publish(event(2, 50), sim::sec(102) - 1);  // just inside grace
  const auto report = checker.verify(/*grace=*/sim::sec(2));
  EXPECT_EQ(report.expected, 1u);  // only event 1
  EXPECT_EQ(report.missing, 1u);
}

TEST_F(DeliveryCheckerTest, UnsubscribeGraceBoundaryIsInclusive) {
  // Symmetric at the tail: a publish whose grace window ends exactly at
  // the unsubscribe time is still clearly active; one microtick later
  // the window straddles the boundary and the publish is exempt.
  DeliveryChecker checker;
  checker.on_subscribe(sub(1, 0, 100), sim::sec(0), sim::kSimTimeNever);
  checker.on_unsubscribe(1, sim::sec(100));
  checker.on_publish(event(1, 50), sim::sec(98));      // 98 + 2 == 100
  checker.on_publish(event(2, 50), sim::sec(98) + 1);  // straddles the end
  const auto report = checker.verify(/*grace=*/sim::sec(2));
  EXPECT_EQ(report.expected, 1u);  // only event 1
  EXPECT_EQ(report.missing, 1u);
}

TEST_F(DeliveryCheckerTest, ExpiryActsLikeUnsubscribeForGrace) {
  DeliveryChecker checker;
  checker.on_subscribe(sub(1, 0, 100), sim::sec(0),
                       /*expires_at=*/sim::sec(100));
  checker.on_publish(event(1, 50), sim::sec(98));  // clearly active
  checker.on_publish(event(2, 50), sim::sec(99));  // grace region
  checker.on_publish(event(3, 50), sim::sec(150));  // clearly expired
  const auto report = checker.verify(/*grace=*/sim::sec(2));
  EXPECT_EQ(report.expected, 1u);
  EXPECT_EQ(report.missing, 1u);
}

TEST_F(DeliveryCheckerTest, DeliveryWithinGraceRegionIsTolerated) {
  // In-flight at subscribe time: the delivery may or may not happen,
  // and neither outcome is an error.
  DeliveryChecker checker;
  const auto s = sub(1, 0, 100);
  const auto e = event(1, 50);
  checker.on_subscribe(s, sim::sec(100), sim::kSimTimeNever);
  checker.on_publish(e, sim::sec(101));  // inside the grace region
  checker.on_notify(42, notification(e), sim::sec(103));
  const auto report = checker.verify(/*grace=*/sim::sec(2));
  EXPECT_EQ(report.expected, 0u);
  EXPECT_EQ(report.spurious, 0u);
  EXPECT_TRUE(report.ok());
}

TEST_F(DeliveryCheckerTest, DeliveryAfterUnsubscribeIsNotSpurious) {
  // Matched before the unsubscribe propagated: tolerated, unlike a
  // delivery from before the subscription existed.
  DeliveryChecker checker;
  const auto s = sub(1, 0, 100);
  const auto e = event(1, 50);
  checker.on_subscribe(s, sim::sec(0), sim::kSimTimeNever);
  checker.on_unsubscribe(1, sim::sec(50));
  checker.on_publish(e, sim::sec(60));
  checker.on_notify(42, notification(e), sim::sec(61));
  const auto report = checker.verify();
  EXPECT_EQ(report.expected, 0u);
  EXPECT_EQ(report.spurious, 0u);
  EXPECT_TRUE(report.ok());
}

TEST_F(DeliveryCheckerTest, UnsubscribeEndsActivity) {
  DeliveryChecker checker;
  const auto s = sub(1, 0, 100);
  checker.on_subscribe(s, sim::sec(0), sim::kSimTimeNever);
  checker.on_unsubscribe(1, sim::sec(50));
  checker.on_publish(event(1, 50), sim::sec(60));
  const auto report = checker.verify();
  EXPECT_EQ(report.expected, 0u);
  EXPECT_TRUE(report.ok());
}

TEST_F(DeliveryCheckerTest, DeliveryBeforeSubscribeIsSpurious) {
  DeliveryChecker checker;
  const auto s = sub(1, 0, 100);
  const auto e = event(1, 50);
  checker.on_publish(e, sim::sec(10));
  checker.on_subscribe(s, sim::sec(100), sim::kSimTimeNever);
  checker.on_notify(42, notification(e), sim::sec(11));
  EXPECT_GT(checker.verify().spurious, 0u);
}

}  // namespace
}  // namespace cbps::pubsub
