#include "cbps/workload/driver.hpp"

#include <algorithm>

namespace cbps::workload {

using pubsub::SubscriptionPtr;

Driver::Driver(pubsub::PubSubSystem& system, WorkloadGenerator& gen,
               DriverParams params, pubsub::DeliveryChecker* checker,
               Trace* record)
    : system_(system),
      gen_(gen),
      params_(params),
      checker_(checker),
      record_(record) {
  if (checker_ != nullptr) {
    system_.set_notify_sink([this](Key subscriber,
                                   const pubsub::Notification& n) {
      checker_->on_notify(subscriber, n, system_.sim().now());
    });
  }
}

void Driver::start() {
  if (params_.max_subscriptions > 0) schedule_next_subscription();
  if (params_.max_publications > 0) schedule_next_publication();
}

void Driver::run_to_completion() {
  CBPS_ASSERT_MSG(
      params_.max_subscriptions !=
              std::numeric_limits<std::uint64_t>::max() &&
          params_.max_publications !=
              std::numeric_limits<std::uint64_t>::max(),
      "run_to_completion needs finite budgets");
  system_.quiesce();
  CBPS_ASSERT(finished());
}

std::size_t Driver::random_node() {
  // Only alive nodes issue operations (relevant under membership churn).
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto idx = static_cast<std::size_t>(gen_.rng().uniform_int(
        0, static_cast<std::int64_t>(system_.node_count()) - 1));
    if (system_.network().is_alive(system_.node_id(idx))) return idx;
  }
  // Degenerate fallback: scan for any alive node.
  for (std::size_t i = 0; i < system_.node_count(); ++i) {
    if (system_.network().is_alive(system_.node_id(i))) return i;
  }
  CBPS_ASSERT_MSG(false, "no alive nodes left");
  return 0;
}

void Driver::schedule_next_subscription() {
  system_.sim().schedule_after(params_.sub_interval,
                               [this] { inject_subscription(); });
}

void Driver::schedule_next_publication() {
  const double wait_s = gen_.rng().exponential(params_.pub_mean_interval_s);
  system_.sim().schedule_after(sim::from_seconds(wait_s),
                               [this] { inject_publication(); });
}

void Driver::inject_subscription() {
  const std::size_t node = random_node();
  const sim::SimTime now = system_.sim().now();
  const SubscriptionPtr sub =
      system_.subscribe(node, gen_.make_constraints(), params_.sub_ttl);

  const sim::SimTime expires_at = params_.sub_ttl == sim::kSimTimeNever
                                      ? sim::kSimTimeNever
                                      : now + params_.sub_ttl;
  CBPS_ASSERT(expires_at_.empty() || expires_at_.back() <= expires_at);
  active_.push_back(sub);
  expires_at_.push_back(expires_at);
  if (checker_ != nullptr) checker_->on_subscribe(sub, now, expires_at);
  if (record_ != nullptr) {
    TraceOp op;
    op.kind = TraceOp::Kind::kSubscribe;
    op.at = now;
    op.node = node;
    op.sub_id = sub->id;
    op.ttl = params_.sub_ttl;
    op.constraints = sub->constraints;
    record_->add(std::move(op));
  }

  ++subs_issued_;
  if (subs_issued_ < params_.max_subscriptions) {
    schedule_next_subscription();
  }
}

void Driver::inject_publication() {
  const std::vector<SubscriptionPtr>& view = active_subscriptions();

  std::vector<Value> values;
  Rng& rng = gen_.rng();
  const bool stay_local =
      params_.event_locality > 0.0 &&
      (locality_anchor_ != nullptr || !anchor_values_.empty()) &&
      rng.bernoulli(params_.event_locality);
  if (stay_local && locality_anchor_ != nullptr) {
    // Temporally local run of matching events: stay inside the previous
    // event's subscription region.
    values = gen_.make_matching_values(*locality_anchor_);
  } else if (stay_local) {
    // Local run of non-matching events: small random walk around the
    // previous point (keeps the configured matching probability intact).
    values = anchor_values_;
    const pubsub::Schema& schema = gen_.schema();
    for (std::size_t i = 0; i < values.size(); ++i) {
      const ClosedInterval dom = schema.domain(i);
      const Value step = std::max<Value>(
          1, static_cast<Value>(dom.width() / 1000));
      values[i] = std::clamp(values[i] + rng.uniform_int(-step, step),
                             dom.lo, dom.hi);
    }
  } else if (!view.empty() &&
             rng.bernoulli(gen_.params().matching_probability)) {
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(view.size()) - 1));
    locality_anchor_ = view[pick];
    anchor_values_.clear();
    values = gen_.make_matching_values(*locality_anchor_);
  } else {
    locality_anchor_ = nullptr;
    values = gen_.make_random_values();
    anchor_values_ = values;
  }
  const std::size_t node = random_node();
  const EventId id = system_.publish(node, values);
  if (record_ != nullptr) {
    TraceOp op;
    op.kind = TraceOp::Kind::kPublish;
    op.at = system_.sim().now();
    op.node = node;
    op.values = values;
    record_->add(std::move(op));
  }
  if (checker_ != nullptr) {
    auto event = std::make_shared<pubsub::Event>();
    event->id = id;
    event->values = values;
    checker_->on_publish(std::move(event), system_.sim().now());
  }
  ++pubs_issued_;
  if (pubs_issued_ < params_.max_publications) {
    schedule_next_publication();
  }
}

void Driver::prune_expired() {
  // kSimTimeNever is the largest SimTime, so the never-expiring tail is
  // never pruned.
  const auto live = std::upper_bound(expires_at_.begin(), expires_at_.end(),
                                     system_.sim().now());
  const auto expired = live - expires_at_.begin();
  expires_at_.erase(expires_at_.begin(), live);
  active_.erase(active_.begin(), active_.begin() + expired);
}

const std::vector<SubscriptionPtr>& Driver::active_subscriptions() {
  prune_expired();
  return active_;
}

}  // namespace cbps::workload
