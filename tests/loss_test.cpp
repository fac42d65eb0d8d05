// Tests for message-loss fault injection (sim::LossModel) and the
// hop-by-hop ack/retry reliability layer: the loss model itself, the
// shared transport mechanics on both overlays (retransmission, duplicate
// suppression, retry-budget exhaustion, zero-overhead gating), the
// shared m-cast split accounting, and end-to-end exactly-once pub/sub
// delivery under loss and churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cbps/chord/network.hpp"
#include "cbps/chord/node.hpp"
#include "cbps/common/rng.hpp"
#include "cbps/metrics/trace.hpp"
#include "cbps/pastry/pastry.hpp"
#include "cbps/pubsub/delivery_checker.hpp"
#include "cbps/sim/loss.hpp"
#include "cbps/workload/churn.hpp"
#include "cbps/workload/driver.hpp"

namespace cbps {
namespace {

using overlay::MessageClass;
using overlay::PayloadPtr;

// ---------------------------------------------------------------------------
// LossModel unit behavior
// ---------------------------------------------------------------------------

TEST(UniformLossTest, BoundaryRatesAreDeterministic) {
  Rng rng(11);
  sim::UniformLoss never(0.0);
  sim::UniformLoss always(1.0);
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_FALSE(never.drop(rng));
    EXPECT_TRUE(always.drop(rng));
  }
}

TEST(UniformLossTest, RateIsHonoredStatistically) {
  Rng rng(12);
  sim::UniformLoss loss(0.3);
  const int kDraws = 100'000;
  int dropped = 0;
  for (int i = 0; i < kDraws; ++i) dropped += loss.drop(rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(dropped) / kDraws, 0.3, 0.01);
}

// ---------------------------------------------------------------------------
// Chord transport scaffolding
// ---------------------------------------------------------------------------

struct TagPayload final : overlay::Payload {
  explicit TagPayload(int t) : tag(t) {}
  MessageClass message_class() const override {
    return MessageClass::kPublish;
  }
  int tag;
};

struct TagDelivery {
  Key node;
  std::vector<Key> keys;  // one entry for unicast, the segment for m-cast
  int tag;
  sim::SimTime at = 0;  // upcall time
};

class TagApp final : public overlay::OverlayApp {
 public:
  TagApp(Key node, std::vector<TagDelivery>& sink,
         const sim::Simulator& clock)
      : node_(node), sink_(sink), clock_(clock) {}

  void on_deliver(Key key, const PayloadPtr& payload) override {
    const auto* p = dynamic_cast<const TagPayload*>(payload.get());
    ASSERT_NE(p, nullptr);
    sink_.push_back({node_, {key}, p->tag, clock_.now()});
  }
  void on_deliver_mcast(std::span<const Key> covered,
                        const PayloadPtr& payload) override {
    const auto* p = dynamic_cast<const TagPayload*>(payload.get());
    ASSERT_NE(p, nullptr);
    sink_.push_back(
        {node_, {covered.begin(), covered.end()}, p->tag, clock_.now()});
  }
  PayloadPtr export_state(Key, Key, bool) override { return nullptr; }
  void import_state(const PayloadPtr&) override {}

 private:

  Key node_;
  std::vector<TagDelivery>& sink_;
  const sim::Simulator& clock_;
};

class ChordLossHarness {
 public:
  explicit ChordLossHarness(std::size_t n, chord::ChordConfig cfg,
                            std::uint64_t seed = 1) {
    net = std::make_unique<chord::ChordNetwork>(sim, cfg, seed);
    for (std::size_t i = 0; i < n; ++i) {
      net->add_node("n" + std::to_string(i));
    }
    net->build_static_ring();
    for (Key id : net->alive_ids()) {
      apps.push_back(std::make_unique<TagApp>(id, deliveries, sim));
      net->node(id)->set_app(apps.back().get());
    }
  }

  std::uint64_t counter(const std::string& name) const {
    return net->registry().counter_value(name);
  }

  std::size_t pending_total() const {
    std::size_t total = 0;
    for (Key id : net->alive_ids()) total += net->node(id)->pending_send_count();
    return total;
  }

  sim::Simulator sim;
  std::unique_ptr<chord::ChordNetwork> net;
  std::vector<TagDelivery> deliveries;
  std::vector<std::unique_ptr<TagApp>> apps;
};

// ---------------------------------------------------------------------------
// Chord ack/retry mechanics
// ---------------------------------------------------------------------------

TEST(ChordLossTest, DropsAreCountedPerMessageClass) {
  chord::ChordConfig cfg;
  cfg.loss_rate = 0.5;
  ChordLossHarness h(16, cfg, 2);
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const Key key = static_cast<Key>(rng.uniform_int(
        0, static_cast<std::int64_t>(h.net->ring().max_key())));
    h.net->alive_node(static_cast<std::size_t>(rng.uniform_int(0, 15)))
        .send(key, std::make_shared<TagPayload>(i));
  }
  h.sim.run();

  const std::uint64_t lost = h.counter("chord.net.lost");
  EXPECT_GT(lost, 0u);
  EXPECT_GT(h.counter("chord.net.lost.publish"), 0u);
  // Only application routes (publish) and their acks (control) hit the
  // wire here; the per-class counters must account for every drop.
  EXPECT_EQ(lost, h.counter("chord.net.lost.publish") +
                      h.counter("chord.net.lost.control"));
  EXPECT_GT(h.counter("chord.retransmits"), 0u);
  EXPECT_EQ(h.pending_total(), 0u);
}

TEST(ChordLossTest, AckRetryRecoversEveryUnicastAtModerateLoss) {
  chord::ChordConfig cfg;
  cfg.loss_rate = 0.05;
  ChordLossHarness h(64, cfg, 4);
  Rng rng(5);
  const int kSends = 200;
  std::vector<Key> targets;
  for (int i = 0; i < kSends; ++i) {
    const Key key = static_cast<Key>(rng.uniform_int(
        0, static_cast<std::int64_t>(h.net->ring().max_key())));
    targets.push_back(key);
    h.net->alive_node(static_cast<std::size_t>(rng.uniform_int(0, 63)))
        .send(key, std::make_shared<TagPayload>(i));
  }
  h.sim.run();

  // Exactly-once: every send arrives despite drops (retries recover
  // them), and no retransmit surfaces twice (receiver-side dedup).
  ASSERT_EQ(h.deliveries.size(), static_cast<std::size_t>(kSends));
  std::set<int> tags;
  for (const TagDelivery& d : h.deliveries) {
    EXPECT_TRUE(tags.insert(d.tag).second) << "tag " << d.tag << " twice";
    ASSERT_EQ(d.keys.size(), 1u);
    EXPECT_EQ(d.node, h.net->oracle_successor(d.keys[0]));
    EXPECT_EQ(d.keys[0], targets[static_cast<std::size_t>(d.tag)]);
  }
  EXPECT_GT(h.counter("chord.net.lost"), 0u);
  EXPECT_GT(h.counter("chord.retransmits"), 0u);
  // A lost ack forces a retransmit of an already-delivered message; the
  // receiver must swallow it (and re-ack) rather than re-deliver.
  EXPECT_GT(h.counter("chord.dup_suppressed"), 0u);
  EXPECT_EQ(h.counter("chord.send_failed"), 0u);
  EXPECT_EQ(h.pending_total(), 0u);
}

TEST(ChordLossTest, McastUnderLossCoversEveryTargetExactlyOnce) {
  chord::ChordConfig cfg;
  cfg.loss_rate = 0.05;
  ChordLossHarness h(32, cfg, 6);
  const RingParams ring = h.net->ring();
  std::vector<Key> targets;
  for (std::uint64_t i = 0; i < 500; ++i) targets.push_back(ring.wrap(i * 11));
  h.net->alive_node(3).m_cast(targets, std::make_shared<TagPayload>(1));
  h.sim.run();

  std::map<Key, std::set<Key>> expected;
  for (Key k : targets) expected[h.net->oracle_successor(k)].insert(k);

  std::set<Key> seen;
  std::size_t total = 0;
  for (const TagDelivery& d : h.deliveries) {
    EXPECT_TRUE(seen.insert(d.node).second)
        << "node " << d.node << " received the m-cast twice";
    EXPECT_EQ(std::set<Key>(d.keys.begin(), d.keys.end()), expected[d.node]);
    total += d.keys.size();
  }
  EXPECT_EQ(seen.size(), expected.size());
  EXPECT_EQ(total, targets.size());
  EXPECT_GT(h.counter("chord.net.lost"), 0u);
  EXPECT_EQ(h.counter("chord.send_failed"), 0u);
  EXPECT_EQ(h.pending_total(), 0u);
}

// App with actual state, for exercising the graceful-leave handover.
struct IntBagPayload final : overlay::Payload {
  explicit IntBagPayload(std::vector<int> i) : items(std::move(i)) {}
  MessageClass message_class() const override {
    return MessageClass::kStateTransfer;
  }
  std::vector<int> items;
};

class IntBagApp final : public overlay::OverlayApp {
 public:
  void on_deliver(Key, const PayloadPtr&) override {}
  void on_deliver_mcast(std::span<const Key>, const PayloadPtr&) override {}
  PayloadPtr export_state(Key, Key, bool remove) override {
    std::vector<int> out = state;
    if (remove) state.clear();
    return std::make_shared<IntBagPayload>(std::move(out));
  }
  void import_state(const PayloadPtr& payload) override {
    const auto* bag = dynamic_cast<const IntBagPayload*>(payload.get());
    ASSERT_NE(bag, nullptr);
    state.insert(state.end(), bag->items.begin(), bag->items.end());
  }
  std::vector<int> state;
};

TEST(ChordLossTest, GracefulLeaveHandsOverStateDespiteHeavyLoss) {
  // Regression: the leave handover (PredLeaveMsg) used to be fire-and-
  // forget, so one dropped message silently destroyed the leaver's
  // whole rendezvous state. It is now ack-eligible, and the leaver
  // lingers as a lame duck retransmitting it until acked.
  sim::Simulator sim;
  chord::ChordConfig cfg;
  cfg.loss_rate = 0.6;
  cfg.max_retries = 20;
  chord::ChordNetwork net(sim, cfg, 13);
  for (int i = 0; i < 8; ++i) net.add_node("n" + std::to_string(i));
  net.build_static_ring();
  std::map<Key, IntBagApp> apps;
  for (Key id : net.alive_ids()) net.node(id)->set_app(&apps[id]);

  const std::vector<Key> ids = net.alive_ids();
  const Key leaver = ids[2];
  const Key heir = ids[3];
  apps[leaver].state = {1, 2, 3};
  net.leave_gracefully(leaver);
  sim.run();

  EXPECT_EQ(apps[heir].state, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(net.node(leaver)->pending_send_count(), 0u);  // drained
  EXPECT_EQ(net.registry().counter_value("chord.send_failed"), 0u);
}

TEST(ChordLossTest, DuplicateSuppressionEmitsOneDropSpanEach) {
  // Regression: Chord used to swallow duplicates silently while Pastry
  // traced them; the shared link emits a kDrop/kDuplicate span for every
  // suppressed retransmit of a sampled message.
  chord::ChordConfig cfg;
  cfg.loss_rate = 0.05;
  ChordLossHarness h(64, cfg, 4);
  metrics::TraceSink sink(1.0);
  h.net->set_trace_sink(&sink);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const Key key = static_cast<Key>(rng.uniform_int(
        0, static_cast<std::int64_t>(h.net->ring().max_key())));
    auto payload = std::make_shared<TagPayload>(i);
    payload->trace = {sink.maybe_start_trace(), 0};
    h.net->alive_node(static_cast<std::size_t>(rng.uniform_int(0, 63)))
        .send(key, std::move(payload));
  }
  h.sim.run();

  const auto dup_spans = std::count_if(
      sink.spans().begin(), sink.spans().end(), [](const metrics::Span& s) {
        return s.kind == metrics::SpanKind::kDrop &&
               s.a == static_cast<std::uint64_t>(
                          metrics::DropReason::kDuplicate);
      });
  EXPECT_GT(h.counter("chord.dup_suppressed"), 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(dup_spans),
            h.counter("chord.dup_suppressed"));
}

// ---------------------------------------------------------------------------
// Shared ack/retry mechanics (overlay::ReliableLink), run on both overlays
// ---------------------------------------------------------------------------

enum class Overlay { kChord, kPastry };

void PrintTo(Overlay o, std::ostream* os) {
  *os << (o == Overlay::kChord ? "chord" : "pastry");
}

// A static ring of either overlay with one TagApp per node.
class LossyRing {
 public:
  virtual ~LossyRing() = default;
  virtual overlay::OverlayNode& node(Key id) = 0;
  /// Registry counter `stat` under the overlay's prefix.
  virtual std::uint64_t counter(const std::string& stat) = 0;
  virtual std::size_t pending_total() = 0;
  virtual std::uint64_t total_hops() = 0;
  virtual RingParams ring() = 0;
  virtual metrics::Histogram& histogram(const std::string& stat) = 0;
  virtual void set_trace_sink(metrics::TraceSink* sink) = 0;

  sim::Simulator sim;
  std::vector<Key> ids;  // ring order
  std::vector<TagDelivery> deliveries;
};

template <class Net>
class LossyRingOf final : public LossyRing {
 public:
  template <class Cfg>
  LossyRingOf(std::string prefix, std::size_t n, const Cfg& cfg,
              std::uint64_t seed)
      : prefix_(std::move(prefix)), net_(sim, cfg, seed) {
    for (std::size_t i = 0; i < n; ++i) {
      ids.push_back(net_.add_node("n" + std::to_string(i)).id());
    }
    std::sort(ids.begin(), ids.end());
    net_.build_static_ring();
    for (Key id : ids) {
      apps_.push_back(std::make_unique<TagApp>(id, deliveries, sim));
      net_.node(id)->set_app(apps_.back().get());
    }
  }

  overlay::OverlayNode& node(Key id) override { return *net_.node(id); }
  std::uint64_t counter(const std::string& stat) override {
    return net_.registry().counter_value(prefix_ + stat);
  }
  std::size_t pending_total() override {
    std::size_t total = 0;
    for (Key id : ids) total += net_.node(id)->pending_send_count();
    return total;
  }
  std::uint64_t total_hops() override { return net_.traffic().total_hops(); }
  RingParams ring() override { return net_.ring(); }
  metrics::Histogram& histogram(const std::string& stat) override {
    return net_.registry().histogram(prefix_ + stat);
  }
  void set_trace_sink(metrics::TraceSink* sink) override {
    net_.set_trace_sink(sink);
  }

 private:
  std::string prefix_;
  Net net_;
  std::vector<std::unique_ptr<TagApp>> apps_;
};

struct LinkKnobs {
  double loss_rate = 0.0;
  std::uint32_t max_retries = 5;
  sim::SimTime retry_base = sim::ms(250);
};

std::unique_ptr<LossyRing> make_ring(Overlay overlay, std::size_t n,
                                     const LinkKnobs& knobs,
                                     std::uint64_t seed) {
  const auto tune = [&](auto cfg) {
    cfg.loss_rate = knobs.loss_rate;
    cfg.max_retries = knobs.max_retries;
    cfg.retry_base = knobs.retry_base;
    return cfg;
  };
  if (overlay == Overlay::kChord) {
    return std::make_unique<LossyRingOf<chord::ChordNetwork>>(
        "chord.", n, tune(chord::ChordConfig{}), seed);
  }
  return std::make_unique<LossyRingOf<pastry::PastryNetwork>>(
      "pastry.", n, tune(pastry::PastryConfig{}), seed);
}

class ReliableLinkTest : public ::testing::TestWithParam<Overlay> {};

TEST_P(ReliableLinkTest, RetryBudgetExhaustionCountsFailedSend) {
  const auto h = make_ring(GetParam(), 2,
                           {.loss_rate = 1.0,  // black hole: nothing arrives
                            .max_retries = 3},
                           7);
  // Key owned by the peer, so the send must cross the (dead) wire.
  h->node(h->ids[0]).send(h->ids[1], std::make_shared<TagPayload>(1));
  h->sim.run();

  EXPECT_TRUE(h->deliveries.empty());
  EXPECT_EQ(h->counter("retransmits"), 3u);
  EXPECT_EQ(h->counter("send_failed"), 1u);
  EXPECT_EQ(h->counter("net.lost"), 4u);  // original + 3 retries
  EXPECT_EQ(h->pending_total(), 0u);  // budget spent => entry dropped
}

TEST_P(ReliableLinkTest, ZeroLossRateKeepsReliabilityLayerDisarmed) {
  // At loss 0 the reliability machinery must be completely inert: no
  // acks, no timers, no parked sends — and therefore the retry knobs
  // must not change a single transmitted message.
  auto run = [this](const LinkKnobs& knobs) {
    const auto h = make_ring(GetParam(), 24, knobs, 8);
    Rng rng(9);
    for (int i = 0; i < 100; ++i) {
      const Key key = static_cast<Key>(rng.uniform_int(
          0, static_cast<std::int64_t>(h->ring().max_key())));
      h->node(h->ids[static_cast<std::size_t>(rng.uniform_int(0, 23))])
          .send(key, std::make_shared<TagPayload>(i));
    }
    h->sim.run();
    EXPECT_EQ(h->counter("net.lost"), 0u);
    EXPECT_EQ(h->counter("retransmits"), 0u);
    EXPECT_EQ(h->counter("dup_suppressed"), 0u);
    EXPECT_EQ(h->pending_total(), 0u);
    std::vector<std::pair<Key, int>> log;
    for (const TagDelivery& d : h->deliveries) log.emplace_back(d.node, d.tag);
    return std::make_pair(log, h->total_hops());
  };

  const auto a = run({});
  const auto b = run({.max_retries = 50, .retry_base = sim::ms(1)});
  EXPECT_EQ(a.first, b.first);    // identical deliveries, in order
  EXPECT_EQ(a.second, b.second);  // identical wire traffic
}

INSTANTIATE_TEST_SUITE_P(
    Overlays, ReliableLinkTest,
    ::testing::Values(Overlay::kChord, Overlay::kPastry),
    [](const ::testing::TestParamInfo<Overlay>& info) {
      return info.param == Overlay::kChord ? "chord" : "pastry";
    });

// ---------------------------------------------------------------------------
// The shared Figure-4 m-cast step (overlay::split_mcast), on both overlays
// ---------------------------------------------------------------------------

class McastSplitTest : public ::testing::TestWithParam<Overlay> {};

TEST_P(McastSplitTest, SplitSpansMatchFanoutAndEveryKeyArrivesOnce) {
  const auto h = make_ring(GetParam(), 32, {}, 3);
  metrics::TraceSink sink(1.0);
  h->set_trace_sink(&sink);

  Rng rng(4);
  const auto random_key = [&] {
    return static_cast<Key>(rng.uniform_int(
        0, static_cast<std::int64_t>(h->ring().max_key())));
  };
  std::vector<std::set<Key>> targets;  // by tag
  std::map<std::uint64_t, int> tag_of_trace;
  for (int i = 0; i < 24; ++i) {
    std::vector<Key> keys;
    for (int j = 0; j < 1 + i % 12; ++j) keys.push_back(random_key());
    targets.emplace_back(keys.begin(), keys.end());
    auto p = std::make_shared<TagPayload>(i);
    p->trace = {sink.maybe_start_trace(), 0};
    tag_of_trace[p->trace.trace_id] = i;
    h->node(h->ids[static_cast<std::size_t>(rng.uniform_int(0, 31))])
        .m_cast(std::move(keys), p);
  }
  h->sim.run();

  // Every target key arrives exactly once, at the node covering it.
  const auto owner = [&](Key k) {
    const auto it = std::lower_bound(h->ids.begin(), h->ids.end(), k);
    return it == h->ids.end() ? h->ids.front() : *it;
  };
  std::vector<std::multiset<Key>> got(targets.size());
  // Upcalls by (tag, node, time) -> keys. A relay's local upcall runs in
  // the event that emits its split span; the initiator's is a zero-delay
  // self-delivery at the same sim time.
  std::map<std::tuple<int, Key, sim::SimTime>, std::uint64_t> upcalls;
  for (const TagDelivery& d : h->deliveries) {
    for (Key k : d.keys) {
      EXPECT_EQ(d.node, owner(k)) << "key " << k << " tag " << d.tag;
      got[static_cast<std::size_t>(d.tag)].insert(k);
    }
    EXPECT_TRUE(upcalls.emplace(std::tuple(d.tag, d.node, d.at),
                                d.keys.size()).second);
  }
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(got[i], std::multiset<Key>(targets[i].begin(),
                                         targets[i].end()))
        << "tag " << i;
  }

  // Split accounting: b = branches, a = local keys + delegated keys. A
  // delegated batch lands at a node that either splits again (a child
  // span, whose a is the batch size) or delivers the whole batch (a leaf
  // upcall that matches no split). So each split's a - local - (child
  // splits' a) is the key count of its b - (child splits) leaf batches,
  // and per m-cast those add up to exactly the leaf upcalls.
  std::map<std::uint64_t, const metrics::Span*> splits;
  std::uint64_t branches = 0;
  for (const metrics::Span& s : sink.spans()) {
    if (s.kind != metrics::SpanKind::kMcastSplit) continue;
    splits[s.span_id] = &s;
    branches += s.b;
  }
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
      children;  // split -> (child splits, their keys)
  for (const auto& [id, s] : splits) {
    if (!splits.contains(s->parent_span)) continue;
    ++children[s->parent_span].first;
    children[s->parent_span].second += s->a;
  }
  std::map<int, std::pair<std::uint64_t, std::uint64_t>> leaf_batches;
  for (const auto& [id, s] : splits) {
    const int tag = tag_of_trace.at(s->trace_id);
    std::uint64_t local = 0;
    if (const auto it = upcalls.find({tag, s->node, s->start_us});
        it != upcalls.end()) {
      local = it->second;
      upcalls.erase(it);
    }
    const auto [n_child, child_keys] = children[id];
    ASSERT_GE(s->b, n_child);
    const std::uint64_t leaves = s->b - n_child;
    ASSERT_GE(s->a, local + child_keys + leaves) << "split " << id;
    leaf_batches[tag].first += leaves;
    leaf_batches[tag].second += s->a - local - child_keys;
  }
  std::map<int, std::pair<std::uint64_t, std::uint64_t>> leaf_upcalls;
  for (const auto& [tnt, keys] : upcalls) {
    const int tag = std::get<0>(tnt);
    if (!leaf_batches.contains(tag)) continue;  // initiator kept it all
    ++leaf_upcalls[tag].first;
    leaf_upcalls[tag].second += keys;
  }
  EXPECT_EQ(leaf_batches, leaf_upcalls);

  const metrics::Histogram& fanout = h->histogram("mcast_fanout");
  EXPECT_GT(branches, 0u);
  EXPECT_EQ(fanout.count(), splits.size());
  EXPECT_EQ(fanout.sum(), static_cast<double>(branches));
}

INSTANTIATE_TEST_SUITE_P(
    Overlays, McastSplitTest,
    ::testing::Values(Overlay::kChord, Overlay::kPastry),
    [](const ::testing::TestParamInfo<Overlay>& info) {
      return info.param == Overlay::kChord ? "chord" : "pastry";
    });

// ---------------------------------------------------------------------------
// Pastry ack/retry
// ---------------------------------------------------------------------------

TEST(PastryLossTest, AckRetryRecoversEveryUnicastAtModerateLoss) {
  sim::Simulator sim;
  pastry::PastryConfig cfg;
  cfg.loss_rate = 0.05;
  pastry::PastryNetwork net(sim, cfg, 5);
  for (int i = 0; i < 32; ++i) net.add_node("p" + std::to_string(i));
  net.build_static_ring();
  std::vector<TagDelivery> deliveries;
  std::vector<std::unique_ptr<TagApp>> apps;
  for (Key id : net.alive_ids()) {
    apps.push_back(std::make_unique<TagApp>(id, deliveries, sim));
    net.node(id)->set_app(apps.back().get());
  }

  Rng rng(6);
  const int kSends = 150;
  for (int i = 0; i < kSends; ++i) {
    const Key key = static_cast<Key>(rng.uniform_int(
        0, static_cast<std::int64_t>(net.ring().max_key())));
    net.alive_node(static_cast<std::size_t>(rng.uniform_int(0, 31)))
        .send(key, std::make_shared<TagPayload>(i));
  }
  sim.run();

  ASSERT_EQ(deliveries.size(), static_cast<std::size_t>(kSends));
  std::set<int> tags;
  for (const TagDelivery& d : deliveries) {
    EXPECT_TRUE(tags.insert(d.tag).second) << "tag " << d.tag << " twice";
    ASSERT_EQ(d.keys.size(), 1u);
    EXPECT_EQ(d.node, net.oracle_successor(d.keys[0]));
  }
  EXPECT_GT(net.registry().counter_value("pastry.net.lost"), 0u);
  EXPECT_GT(net.registry().counter_value("pastry.retransmits"), 0u);
  EXPECT_EQ(net.registry().counter_value("pastry.send_failed"), 0u);
  // A lost ack forces a retransmit of an already-delivered message: the
  // receiver re-acks it and swallows it rather than re-delivering. Acks
  // are the only control traffic here, so "every arriving copy is
  // acked" reads off the wire counts.
  EXPECT_GT(net.registry().counter_value("pastry.net.lost.control"), 0u);
  EXPECT_GT(net.registry().counter_value("pastry.dup_suppressed"), 0u);
  EXPECT_EQ(net.traffic().hops(MessageClass::kControl),
            net.traffic().hops(MessageClass::kPublish) -
                net.registry().counter_value("pastry.net.lost.publish"));
  std::size_t pending = 0;
  for (Key id : net.alive_ids()) pending += net.node(id)->pending_send_count();
  EXPECT_EQ(pending, 0u);
}

// ---------------------------------------------------------------------------
// End-to-end pub/sub under loss (and churn)
// ---------------------------------------------------------------------------

pubsub::SystemConfig lossy_config(std::size_t nodes, double loss_rate) {
  pubsub::SystemConfig cfg;
  cfg.nodes = nodes;
  cfg.seed = 3;
  cfg.chord.ring = RingParams{11};
  cfg.chord.stabilize_period = sim::sec(5);
  cfg.chord.loss_rate = loss_rate;
  cfg.mapping = pubsub::MappingKind::kSelectiveAttribute;
  cfg.pubsub.sub_transport = pubsub::PubSubConfig::Transport::kMulticast;
  return cfg;
}

TEST(LossIntegrationTest, StaticRingFivePercentLossIsExactlyOnce) {
  pubsub::PubSubSystem system(lossy_config(48, 0.05),
                              pubsub::Schema::uniform(3, 99'999));

  pubsub::DeliveryChecker checker;
  workload::WorkloadParams wp;
  wp.matching_probability = 0.8;
  workload::WorkloadGenerator gen(system.schema(), wp, 19);
  workload::DriverParams dp;
  dp.max_subscriptions = 30;
  dp.max_publications = 150;
  workload::Driver driver(system, gen, dp, &checker);
  driver.start();
  driver.run_to_completion();

  const auto report = checker.verify();
  ASSERT_GT(report.expected, 50u);
  EXPECT_TRUE(report.ok())
      << "missing=" << report.missing << " dup=" << report.duplicates
      << " spurious=" << report.spurious
      << (report.issues.empty() ? "" : "\n  " + report.issues[0]);

  const metrics::Registry& reg = system.network().registry();
  EXPECT_GT(reg.counter_value("chord.net.lost"), 0u);
  EXPECT_GT(reg.counter_value("chord.retransmits"), 0u);
  EXPECT_EQ(reg.counter_value("chord.send_failed"), 0u);
}

TEST(LossIntegrationTest, LossUnderChurnStaysExactlyOnce) {
  pubsub::PubSubSystem system(lossy_config(48, 0.05),
                              pubsub::Schema::uniform(3, 99'999));
  system.network().start_maintenance_all();

  pubsub::DeliveryChecker checker;
  workload::WorkloadParams wp;
  wp.matching_probability = 0.8;
  workload::WorkloadGenerator gen(system.schema(), wp, 19);
  workload::DriverParams dp;
  dp.max_subscriptions = 30;
  dp.max_publications = 150;
  workload::Driver driver(system, gen, dp, &checker);
  driver.start();

  workload::ChurnParams cp;
  cp.mean_interval_s = 40.0;
  cp.crash_fraction = 0.0;  // graceful only
  cp.min_nodes = 24;
  workload::ChurnDriver churn(system, cp, 21, [&driver](Key id) {
    for (const auto& sub : driver.active_subscriptions()) {
      if (sub->subscriber == id) return true;
    }
    return false;
  });
  churn.start();

  system.run_for(sim::sec(1'200));
  churn.stop();
  system.run_for(sim::sec(120));

  const auto report = checker.verify(sim::sec(10));
  ASSERT_GT(report.expected, 50u);
  EXPECT_EQ(report.missing, 0u)
      << (report.issues.empty() ? "" : report.issues[0]);
  EXPECT_EQ(report.duplicates, 0u);
  EXPECT_EQ(report.spurious, 0u);
  EXPECT_GT(churn.events(), 10u);

  const metrics::Registry& reg = system.network().registry();
  EXPECT_GT(reg.counter_value("chord.net.lost"), 0u);
  EXPECT_GT(reg.counter_value("chord.retransmits"), 0u);
}

}  // namespace
}  // namespace cbps
