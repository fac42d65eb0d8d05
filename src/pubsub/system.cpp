#include "cbps/pubsub/system.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "cbps/sim/latency.hpp"
#include "cbps/sim/loss.hpp"

namespace cbps::pubsub {

PubSubSystem::PubSubSystem(SystemConfig cfg, Schema schema) : cfg_(cfg) {
  // A reliable (ack/retry) wire can deliver an application message twice
  // (retransmit re-routed around a crashed hop); arm the end-to-end
  // safety net whenever that layer is on — configured loss or the
  // fault-scenario engine's force_reliable.
  if (cfg_.chord.reliable_transport()) {
    cfg_.pubsub.duplicate_suppression = true;
  }
  // The epidemic deliberately delivers the same record many times; the
  // end-to-end filter is what turns that redundancy back into at-most-
  // once application delivery. Derive the per-node gossip streams from
  // the system seed so two seeds give two independent epidemics.
  if (cfg_.pubsub.dissemination == PubSubConfig::Dissemination::kGossip) {
    cfg_.pubsub.duplicate_suppression = true;
  }
  cfg_.pubsub.gossip_seed = cfg_.seed * 0x9e3779b97f4a7c15ull + 0x6a09e667f3bcc909ull;
  mapping_ = make_mapping(cfg.mapping, std::move(schema), cfg.chord.ring,
                          cfg.mapping_options);
  CBPS_ASSERT_MSG(cfg.sim_threads == 1, "the simulator is single-threaded");
  network_ = std::make_unique<chord::ChordNetwork>(
      sim_, cfg.chord, cfg.seed,
      std::make_unique<sim::FixedLatency>(cfg.message_delay));
  if (cfg_.trace_sample_rate > 0.0) {
    trace_sink_ =
        std::make_unique<metrics::TraceSink>(cfg_.trace_sample_rate);
    network_->set_trace_sink(trace_sink_.get());
  }

  const std::size_t vppn = std::max<std::size_t>(1, cfg.virtual_nodes_per_host);
  hosts_ = std::max<std::size_t>(1, cfg.nodes / vppn);
  std::map<Key, std::size_t> host_by_id;
  std::size_t created = 0;
  for (std::size_t h = 0; h < hosts_ && created < cfg.nodes; ++h) {
    for (std::size_t v = 0; v < vppn && created < cfg.nodes; ++v) {
      const std::string name =
          vppn == 1 ? "node-" + std::to_string(h)
                    : "node-" + std::to_string(h) + "#v" + std::to_string(v);
      host_by_id[network_->add_node(name).id()] = h;
      ++created;
    }
  }
  network_->build_static_ring();

  node_ids_ = network_->alive_ids();
  nodes_.reserve(node_ids_.size());
  host_of_.reserve(node_ids_.size());
  for (Key id : node_ids_) {
    nodes_.push_back(std::make_unique<PubSubNode>(
        *network_->node(id), sim_, *mapping_, cfg_.pubsub));
    nodes_.back()->set_trace_sink(trace_sink_.get());
    host_of_.push_back(host_by_id.at(id));
  }
}

std::size_t PubSubSystem::host_count() const { return hosts_; }

PubSubSystem::StorageStats PubSubSystem::host_storage_stats() const {
  StorageStats s;
  std::vector<std::size_t> owned(hosts_, 0);
  std::vector<std::size_t> peak(hosts_, 0);
  std::vector<std::size_t> replicas(hosts_, 0);
  std::vector<bool> alive(hosts_, false);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!network_->is_alive(node_ids_[i])) continue;
    const std::size_t h = host_of_[i];
    alive[h] = true;
    const SubscriptionStore& store = nodes_[i]->store();
    owned[h] += store.owned_size();
    peak[h] += store.peak_owned_size();
    replicas[h] += store.size() - store.owned_size();
  }
  std::size_t alive_hosts = 0;
  std::size_t sum_owned = 0;
  std::size_t sum_peak = 0;
  for (std::size_t h = 0; h < hosts_; ++h) {
    if (!alive[h]) continue;
    ++alive_hosts;
    sum_owned += owned[h];
    sum_peak += peak[h];
    s.max_owned = std::max(s.max_owned, owned[h]);
    s.max_peak = std::max(s.max_peak, peak[h]);
    s.total_replicas += replicas[h];
  }
  if (alive_hosts == 0) return s;
  s.total_owned = sum_owned;
  s.avg_owned =
      static_cast<double>(sum_owned) / static_cast<double>(alive_hosts);
  s.avg_peak =
      static_cast<double>(sum_peak) / static_cast<double>(alive_hosts);
  return s;
}

PubSubSystem::~PubSubSystem() { stop_sampler(); }

std::size_t PubSubSystem::join_node(const std::string& name) {
  // Bootstrap from any alive member.
  Key bootstrap = 0;
  bool found = false;
  for (Key id : node_ids_) {
    if (network_->is_alive(id)) {
      bootstrap = id;
      found = true;
      break;
    }
  }
  CBPS_ASSERT_MSG(found, "need an alive node to bootstrap a join");
  chord::ChordNode& cn = network_->join_node(name, bootstrap);
  auto app = std::make_unique<PubSubNode>(cn, sim_, *mapping_, cfg_.pubsub);
  app->set_trace_sink(trace_sink_.get());
  if (sink_) app->set_notify_sink(sink_);
  const auto pos = static_cast<std::size_t>(
      std::lower_bound(node_ids_.begin(), node_ids_.end(), cn.id()) -
      node_ids_.begin());
  node_ids_.insert(node_ids_.begin() + static_cast<std::ptrdiff_t>(pos),
                   cn.id());
  nodes_.insert(nodes_.begin() + static_cast<std::ptrdiff_t>(pos),
                std::move(app));
  host_of_.insert(host_of_.begin() + static_cast<std::ptrdiff_t>(pos),
                  hosts_++);
  return pos;
}

void PubSubSystem::leave_node(std::size_t i) {
  network_->leave_gracefully(node_id(i));
}

void PubSubSystem::crash_node(std::size_t i) {
  // Order matters: halt the application layer first so nothing it does
  // during the chord-level teardown (or from an already-armed timer)
  // escapes the crash.
  pubsub_node(i).halt();
  network_->crash(node_id(i));
}

std::size_t PubSubSystem::index_of(Key id) const {
  const auto it = std::lower_bound(node_ids_.begin(), node_ids_.end(), id);
  CBPS_ASSERT_MSG(it != node_ids_.end() && *it == id, "unknown node id");
  return static_cast<std::size_t>(it - node_ids_.begin());
}

std::size_t PubSubSystem::re_replicate_all() {
  std::size_t n = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!network_->is_alive(node_ids_[i])) continue;
    n += nodes_[i]->re_replicate();
  }
  return n;
}

std::size_t PubSubSystem::refresh_all_subscriptions() {
  std::size_t n = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!network_->is_alive(node_ids_[i])) continue;
    n += nodes_[i]->refresh_subscriptions();
  }
  return n;
}

PubSubNode& PubSubSystem::pubsub_node(std::size_t i) {
  CBPS_ASSERT(i < nodes_.size());
  return *nodes_[i];
}

chord::ChordNode& PubSubSystem::chord_node(std::size_t i) {
  CBPS_ASSERT(i < node_ids_.size());
  return *network_->node(node_ids_[i]);
}

SubscriptionPtr PubSubSystem::subscribe(std::size_t node_idx,
                                        std::vector<Constraint> constraints,
                                        sim::SimTime ttl) {
  auto sub = std::make_shared<Subscription>();
  sub->id = next_sub_id_++;
  sub->subscriber = node_id(node_idx);
  sub->constraints = std::move(constraints);
  CBPS_ASSERT_MSG(sub->valid_for(schema()), "invalid subscription");
  ++subs_issued_;
  pubsub_node(node_idx).subscribe(sub, ttl);
  return sub;
}

void PubSubSystem::unsubscribe(std::size_t node_idx, SubscriptionId id) {
  pubsub_node(node_idx).unsubscribe(id);
}

std::vector<SubscriptionPtr> PubSubSystem::subscribe_disjunction(
    std::size_t node_idx, std::vector<std::vector<Constraint>> clauses,
    sim::SimTime ttl) {
  std::vector<SubscriptionPtr> subs;
  subs.reserve(clauses.size());
  for (auto& clause : clauses) {
    subs.push_back(subscribe(node_idx, std::move(clause), ttl));
  }
  return subs;
}

EventId PubSubSystem::publish(std::size_t node_idx,
                              std::vector<Value> values) {
  auto event = std::make_shared<Event>();
  event->id = next_event_id_++;
  event->values = std::move(values);
  CBPS_ASSERT_MSG(event->valid_for(schema()), "invalid event");
  ++pubs_issued_;
  pubsub_node(node_idx).publish(std::move(event));
  return next_event_id_ - 1;
}

void PubSubSystem::set_notify_sink(NotifySink sink) {
  sink_ = std::move(sink);
  for (auto& node : nodes_) node->set_notify_sink(sink_);
}

PubSubSystem::StorageStats PubSubSystem::storage_stats() const {
  StorageStats s;
  std::size_t sum_owned = 0;
  std::size_t sum_peak = 0;
  std::size_t alive = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!network_->is_alive(node_ids_[i])) continue;  // departed/crashed
    ++alive;
    const SubscriptionStore& store = nodes_[i]->store();
    const std::size_t owned = store.owned_size();
    const std::size_t peak = store.peak_owned_size();
    sum_owned += owned;
    sum_peak += peak;
    s.max_owned = std::max(s.max_owned, owned);
    s.max_peak = std::max(s.max_peak, peak);
    s.total_replicas += store.size() - owned;
  }
  if (alive == 0) return s;
  s.total_owned = sum_owned;
  s.avg_owned =
      static_cast<double>(sum_owned) / static_cast<double>(alive);
  s.avg_peak = static_cast<double>(sum_peak) / static_cast<double>(alive);
  return s;
}

std::uint64_t PubSubSystem::notifications_delivered() const {
  std::uint64_t n = 0;
  for (const auto& node : nodes_) n += node->notifications_received();
  return n;
}

std::uint64_t PubSubSystem::duplicates_suppressed() const {
  std::uint64_t n = 0;
  for (const auto& node : nodes_) n += node->duplicates_suppressed();
  return n;
}

PubSubNode::GossipStats PubSubSystem::gossip_stats() const {
  PubSubNode::GossipStats total;
  for (const auto& node : nodes_) total += node->gossip_stats();
  return total;
}

RunningStat PubSubSystem::notification_delay() const {
  RunningStat total;
  for (const auto& node : nodes_) total.merge(node->notification_delay());
  return total;
}

metrics::Histogram PubSubSystem::delay_histogram() const {
  metrics::Histogram total;
  for (const auto& node : nodes_) total.merge(node->delay_histogram());
  return total;
}

metrics::Histogram PubSubSystem::fanout_histogram() const {
  metrics::Histogram total;
  for (const auto& node : nodes_) total.merge(node->fanout_histogram());
  return total;
}

KeyLoad PubSubSystem::key_load() const {
  // nodes_ parallels node_ids_, which is kept sorted by ring id — the
  // canonical domain order. The merge is permutation-invariant anyway
  // (union-sum, no eviction), but folding in a fixed order keeps the
  // walk itself D1-clean.
  KeyLoad total(cfg_.pubsub.key_topk_capacity);
  for (const auto& node : nodes_) total.merge(node->key_load());
  return total;
}

PubSubSystem::LoadImbalance PubSubSystem::load_imbalance() const {
  LoadImbalance out;
  std::vector<std::uint64_t> loads;
  loads.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!network_->is_alive(node_ids_[i])) continue;
    loads.push_back(nodes_[i]->key_load().total());
  }
  if (loads.empty()) return out;
  std::sort(loads.begin(), loads.end());
  std::uint64_t sum = 0;
  double weighted = 0.0;  // sum of rank_i * load_(i), ranks 1..n
  for (std::size_t i = 0; i < loads.size(); ++i) {
    sum += loads[i];
    weighted += static_cast<double>(i + 1) * static_cast<double>(loads[i]);
  }
  out.max_load = loads.back();
  const double n = static_cast<double>(loads.size());
  out.mean_load = static_cast<double>(sum) / n;
  if (sum == 0) return out;  // no load at all: balanced by definition
  out.max_over_mean = static_cast<double>(out.max_load) / out.mean_load;
  // Gini over the sorted loads: G = 2*sum(i*x_i)/(n*sum(x)) - (n+1)/n.
  out.gini = 2.0 * weighted / (n * static_cast<double>(sum)) - (n + 1.0) / n;
  return out;
}

// ---------------------------------------------------------------------------
// Time-series sampler
// ---------------------------------------------------------------------------

void PubSubSystem::sample_once() {
  std::size_t pending_retries = 0;
  std::size_t owned_max = 0;
  std::size_t owned_sum = 0;
  std::size_t alive = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!network_->is_alive(node_ids_[i])) continue;
    ++alive;
    pending_retries += network_->node(node_ids_[i])->pending_send_count();
    const std::size_t owned = nodes_[i]->store().owned_size();
    owned_sum += owned;
    owned_max = std::max(owned_max, owned);
  }
  // Per-sender channels each carry their own Gilbert-Elliott state;
  // report how many alive senders currently sit in the bad state.
  const double ge_bad =
      static_cast<double>(network_->loss_bad_state_count());
  const LoadImbalance imbalance = load_imbalance();
  series_.append(
      sim_.now(),
      {static_cast<double>(sim_.pending_events()),
       static_cast<double>(pending_retries),
       static_cast<double>(owned_max),
       alive == 0 ? 0.0
                  : static_cast<double>(owned_sum) /
                        static_cast<double>(alive),
       static_cast<double>(alive),
       static_cast<double>(notifications_delivered()),
       ge_bad, imbalance.max_over_mean, imbalance.gini});
}

void PubSubSystem::start_sampler(sim::SimTime period) {
  if (sampler_timer_ != 0) return;
  sample_once();  // baseline row at the current time
  sampler_timer_ = sim_.add_timer(period, [this] { sample_once(); });
}

void PubSubSystem::stop_sampler() {
  if (sampler_timer_ == 0) return;
  sim_.cancel_timer(sampler_timer_);
  sampler_timer_ = 0;
}

}  // namespace cbps::pubsub
