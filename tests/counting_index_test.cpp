// Tests for the rendezvous matching engines: counting-index unit
// behaviour, engine names, and differential properties driving the
// counting index against the brute-force oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "cbps/pubsub/counting_index.hpp"
#include "cbps/pubsub/store.hpp"
#include "cbps/workload/generator.hpp"

namespace cbps::pubsub {
namespace {

SubscriptionPtr make_sub(SubscriptionId id, std::vector<Constraint> cs) {
  auto s = std::make_shared<Subscription>();
  s->id = id;
  s->subscriber = 1;
  s->constraints = std::move(cs);
  return s;
}

Event make_event(std::vector<Value> values, EventId id = 1) {
  Event e;
  e.id = id;
  e.values = std::move(values);
  return e;
}

TEST(CountingIndexTest, SingleConstraintMatch) {
  const Schema schema = Schema::uniform(2, 999);
  CountingIndex index(schema, 16);
  EXPECT_TRUE(index.insert(make_sub(1, {{0, {100, 200}}})));
  EXPECT_EQ(index.match(make_event({150, 0})),
            std::vector<SubscriptionId>{1});
  EXPECT_TRUE(index.match(make_event({201, 0})).empty());
  EXPECT_TRUE(index.match(make_event({99, 999})).empty());
}

TEST(CountingIndexTest, ConjunctionRequiresAllConstraints) {
  const Schema schema = Schema::uniform(3, 999);
  CountingIndex index(schema, 16);
  index.insert(make_sub(1, {{0, {0, 499}}, {2, {500, 999}}}));
  EXPECT_EQ(index.match(make_event({100, 7, 600})).size(), 1u);
  EXPECT_TRUE(index.match(make_event({100, 7, 499})).empty());
  EXPECT_TRUE(index.match(make_event({500, 7, 600})).empty());
}

TEST(CountingIndexTest, EmptyConstraintsMatchEverything) {
  const Schema schema = Schema::uniform(2, 999);
  CountingIndex index(schema, 16);
  index.insert(make_sub(7, {}));
  EXPECT_EQ(index.match(make_event({0, 999})),
            std::vector<SubscriptionId>{7});
  EXPECT_TRUE(index.remove(7));
  EXPECT_TRUE(index.match(make_event({0, 999})).empty());
}

TEST(CountingIndexTest, DuplicateInsertRejected) {
  const Schema schema = Schema::uniform(1, 99);
  CountingIndex index(schema, 4);
  EXPECT_TRUE(index.insert(make_sub(1, {{0, {0, 50}}})));
  EXPECT_FALSE(index.insert(make_sub(1, {{0, {0, 50}}})));
  EXPECT_EQ(index.match(make_event({25})).size(), 1u);  // no double count
}

TEST(CountingIndexTest, RemoveUnknownReturnsFalse) {
  const Schema schema = Schema::uniform(1, 99);
  CountingIndex index(schema, 4);
  EXPECT_FALSE(index.remove(42));
}

TEST(CountingIndexTest, DomainBoundaryValues) {
  const Schema schema = Schema::uniform(1, 999);
  CountingIndex index(schema, 7);  // non-divisible bucket count
  index.insert(make_sub(1, {{0, {0, 0}}}));
  index.insert(make_sub(2, {{0, {999, 999}}}));
  index.insert(make_sub(3, {{0, {0, 999}}}));
  const auto at_lo = index.match(make_event({0}));
  EXPECT_EQ(std::set<SubscriptionId>(at_lo.begin(), at_lo.end()),
            (std::set<SubscriptionId>{1, 3}));
  const auto at_hi = index.match(make_event({999}));
  EXPECT_EQ(std::set<SubscriptionId>(at_hi.begin(), at_hi.end()),
            (std::set<SubscriptionId>{2, 3}));
}

TEST(CountingIndexTest, ShiftedDomain) {
  const Schema schema({{"t", {-100, 100}}});
  CountingIndex index(schema, 8);
  index.insert(make_sub(1, {{0, {-50, -10}}}));
  EXPECT_EQ(index.match(make_event({-30})).size(), 1u);
  EXPECT_TRUE(index.match(make_event({0})).empty());
}

TEST(CountingIndexTest, EquivalentToBruteForceOnRandomWorkload) {
  const Schema schema = Schema::uniform(4, 1'000'000);
  CountingIndex index(schema, 256);
  workload::WorkloadParams wp;
  wp.nonselective_range_frac = 0.10;
  workload::WorkloadGenerator gen(schema, wp, 31337);

  std::vector<SubscriptionPtr> subs;
  for (int i = 0; i < 400; ++i) {
    auto cs = gen.make_constraints();
    // Drop random constraints to cover partial subscriptions.
    while (cs.size() > 1 && gen.rng().bernoulli(0.3)) cs.pop_back();
    auto s = make_sub(static_cast<SubscriptionId>(i + 1), std::move(cs));
    index.insert(s);
    subs.push_back(std::move(s));
  }
  // Interleave removals.
  for (int i = 0; i < 100; ++i) {
    const auto pick = static_cast<std::size_t>(
        gen.rng().uniform_int(0, static_cast<std::int64_t>(subs.size()) - 1));
    index.remove(subs[pick]->id);
    subs.erase(subs.begin() + static_cast<std::ptrdiff_t>(pick));
  }

  for (int trial = 0; trial < 300; ++trial) {
    Event e;
    e.id = static_cast<EventId>(trial + 1);
    if (trial % 2 == 0 && !subs.empty()) {
      const auto pick = static_cast<std::size_t>(gen.rng().uniform_int(
          0, static_cast<std::int64_t>(subs.size()) - 1));
      e.values = gen.make_matching_values(*subs[pick]);
    } else {
      e.values = gen.make_random_values();
    }

    std::set<SubscriptionId> expected;
    for (const auto& s : subs) {
      if (s->matches(e)) expected.insert(s->id);
    }
    const auto got_vec = index.match(e);
    const std::set<SubscriptionId> got(got_vec.begin(), got_vec.end());
    ASSERT_EQ(got, expected) << "trial " << trial;
    ASSERT_EQ(got_vec.size(), got.size()) << "duplicate ids reported";
  }
}

// Regression: a constraint range disjoint from the schema domain used to
// dereference an empty std::optional in CountingIndex::insert. The
// subscription is unsatisfiable — the index must hold it inert (never
// match, still removable) exactly like brute force never matches it.
TEST(CountingIndexTest, DomainDisjointConstraintIsInert) {
  const Schema schema({{"t", {0, 999}}, {"u", {0, 999}}});
  CountingIndex index(schema, 8);
  // Disjoint on attr 0 and valid on attr 1: no event can satisfy it.
  EXPECT_TRUE(index.insert(make_sub(1, {{0, {2000, 3000}}, {1, {0, 999}}})));
  EXPECT_EQ(index.size(), 1u);
  EXPECT_TRUE(index.match(make_event({500, 500})).empty());
  EXPECT_FALSE(index.insert(make_sub(1, {{0, {2000, 3000}}})));
  EXPECT_TRUE(index.remove(1));
  EXPECT_EQ(index.size(), 0u);
}

// Regression: a refresh (same id, new constraints) used to leave stale
// index entries and a stale stored pointer, so the counting index kept
// matching the old filter while brute force matched the new one.
TEST(StoreWithIndexTest, RefreshWithChangedConstraintsReindexes) {
  const Schema schema = Schema::uniform(1, 999);
  for (const MatchEngine engine :
       {MatchEngine::kBruteForce, MatchEngine::kCountingIndex}) {
    SubscriptionStore store;
    store.use_engine(engine, schema);
    store.insert({make_sub(1, {{0, {0, 100}}}), sim::kSimTimeNever, {},
                  false});
    // Re-subscription under the same id with a different filter.
    store.insert({make_sub(1, {{0, {500, 600}}}), sim::kSimTimeNever, {},
                  false});
    EXPECT_TRUE(store.match(make_event({50}), 0).empty())
        << "engine " << to_string(engine) << " matched stale constraints";
    const auto hits = store.match(make_event({550}), 0);
    ASSERT_EQ(hits.size(), 1u) << "engine " << to_string(engine);
    // The stored pointer must be the refreshed subscription, not the
    // original (a stale pointer reports the wrong constraint set to
    // collectors/state handover even when the id matches).
    EXPECT_EQ(hits[0]->sub->constraints[0].range, (ClosedInterval{500, 600}));
  }
}

TEST(MatchEngineTest, NamesRoundTripAndRejectUnknown) {
  for (const MatchEngine engine :
       {MatchEngine::kBruteForce, MatchEngine::kCountingIndex}) {
    EXPECT_EQ(match_engine_from_string(to_string(engine)), engine);
  }
  EXPECT_EQ(match_engine_from_string("covering"), std::nullopt);
  EXPECT_EQ(match_engine_from_string(""), std::nullopt);
  EXPECT_EQ(match_engine_from_string("Counting"), std::nullopt);
}

TEST(StoreWithIndexTest, MatchesLikeBruteForceStore) {
  const Schema schema = Schema::uniform(3, 9'999);
  workload::WorkloadGenerator gen(schema, {}, 5);

  SubscriptionStore brute;
  SubscriptionStore indexed;
  indexed.use_counting_index(schema, 64);
  EXPECT_EQ(brute.engine(), MatchEngine::kBruteForce);
  EXPECT_EQ(indexed.engine(), MatchEngine::kCountingIndex);

  for (int i = 0; i < 200; ++i) {
    auto s = make_sub(static_cast<SubscriptionId>(i + 1),
                      gen.make_constraints());
    const sim::SimTime expiry =
        (i % 3 == 0) ? sim::sec(static_cast<std::uint64_t>(i)) :
                       sim::kSimTimeNever;
    brute.insert({s, expiry, {}, false});
    indexed.insert({s, expiry, {}, false});
  }
  brute.sweep_expired(sim::sec(100));
  indexed.sweep_expired(sim::sec(100));
  ASSERT_EQ(brute.size(), indexed.size());

  for (int trial = 0; trial < 200; ++trial) {
    Event e;
    e.id = static_cast<EventId>(trial + 1);
    e.values = gen.make_random_values();
    auto ids_of = [](const std::vector<const SubscriptionStore::Record*>&
                         recs) {
      std::set<SubscriptionId> ids;
      for (const auto* r : recs) ids.insert(r->sub->id);
      return ids;
    };
    ASSERT_EQ(ids_of(brute.match(e, sim::sec(150))),
              ids_of(indexed.match(e, sim::sec(150))));
  }
}

// Differential property: drive random insert / refresh / remove /
// sweep_expired sequences through both engines and assert they report
// identical match sets throughout. Brute force is the oracle; the
// counting index must never diverge from it (this is the test that pins
// both fixed divergence bugs: refresh re-indexing and domain-disjoint
// constraints).
TEST(MatchEngineDifferentialTest, EnginesAgreeUnderRandomChurn) {
  const Schema schema = Schema::uniform(3, 99'999);
  for (const std::uint64_t seed : {11u, 23u, 47u, 101u}) {
    workload::WorkloadParams wp;
    wp.nonselective_range_frac = 0.15;
    workload::WorkloadGenerator gen(schema, wp, seed);
    Rng& rng = gen.rng();

    SubscriptionStore brute;
    SubscriptionStore counting;
    counting.use_counting_index(schema, 64);
    SubscriptionStore* stores[] = {&brute, &counting};

    std::vector<SubscriptionPtr> live;
    sim::SimTime now = 0;
    SubscriptionId next_id = 1;

    auto random_constraints = [&] {
      auto cs = gen.make_constraints();
      while (cs.size() > 1 && rng.bernoulli(0.35)) cs.pop_back();
      if (rng.bernoulli(0.05)) {
        // Occasionally unsatisfiable: range disjoint from the domain.
        std::erase_if(cs,
                      [](const Constraint& c) { return c.attribute == 2; });
        cs.push_back({2, {200'000, 200'100}});
      }
      return cs;
    };

    for (int step = 0; step < 600; ++step) {
      now += sim::ms(100);
      const double roll = rng.uniform01();
      if (roll < 0.45 || live.empty()) {
        auto s = make_sub(next_id++, random_constraints());
        const sim::SimTime expiry = rng.bernoulli(0.3)
                                        ? now + sim::sec(5)
                                        : sim::kSimTimeNever;
        for (auto* st : stores) st->insert({s, expiry, {}, false});
        live.push_back(std::move(s));
      } else if (roll < 0.60) {
        // Refresh an existing id, usually with changed constraints.
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1));
        auto s = std::make_shared<Subscription>();
        s->id = live[pick]->id;
        s->subscriber = live[pick]->subscriber;
        s->constraints = rng.bernoulli(0.8) ? random_constraints()
                                            : live[pick]->constraints;
        const sim::SimTime expiry = rng.bernoulli(0.5)
                                        ? now + sim::sec(5)
                                        : sim::kSimTimeNever;
        for (auto* st : stores) st->insert({s, expiry, {}, false});
        live[pick] = std::move(s);
      } else if (roll < 0.75) {
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1));
        for (auto* st : stores) st->remove(live[pick]->id);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else if (roll < 0.80) {
        const std::size_t swept = brute.sweep_expired(now);
        ASSERT_EQ(counting.sweep_expired(now), swept);
      }

      Event e;
      e.id = static_cast<EventId>(step + 1);
      if (!live.empty() && rng.bernoulli(0.5)) {
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1));
        if (live[pick]->satisfiable_for(schema)) {
          e.values = gen.make_matching_values(*live[pick]);
        } else {
          e.values = gen.make_random_values();
        }
      } else {
        e.values = gen.make_random_values();
      }

      auto ids_of = [](const std::vector<const SubscriptionStore::Record*>&
                           recs) {
        std::set<SubscriptionId> ids;
        for (const auto* r : recs) ids.insert(r->sub->id);
        return ids;
      };
      const auto expected = ids_of(brute.match(e, now));
      ASSERT_EQ(ids_of(counting.match(e, now)), expected)
          << "counting diverged at seed " << seed << " step " << step;
    }
    // The engines' bookkeeping must agree on the logical population too.
    ASSERT_EQ(brute.size(), counting.size());
  }
}

}  // namespace
}  // namespace cbps::pubsub
