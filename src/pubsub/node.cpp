#include "cbps/pubsub/node.hpp"

#include <algorithm>
#include <iterator>
#include <set>
#include <utility>

#include "cbps/common/hash.hpp"
#include "cbps/common/logging.hpp"
#include "cbps/common/sorted_view.hpp"

namespace cbps::pubsub {

using metrics::DropReason;
using metrics::SpanKind;
using overlay::PayloadPtr;

namespace {

const metrics::TraceRef& trace_of(const Notification& n) { return n.trace; }
const metrics::TraceRef& trace_of(const GossipEntry& e) {
  return e.notification.trace;
}
const metrics::TraceRef& trace_of(const CollectItem& i) {
  return i.notification.trace;
}

/// The first sampled trace of a batch ({} when none is): the overlay's
/// hop spans of a batched payload attach to one of its notifications.
template <typename T>
metrics::TraceRef first_sampled(const std::vector<T>& batch) {
  for (const T& item : batch) {
    if (trace_of(item).sampled()) return trace_of(item);
  }
  return {};
}

/// The distinct subscribers of entries sorted by subscriber: the match
/// group an m-cast tree or an epidemic runs over.
std::vector<Key> group_of(const std::vector<GossipEntry>& entries) {
  std::vector<Key> group;
  for (const GossipEntry& e : entries) {
    if (group.empty() || group.back() != e.subscriber) {
      group.push_back(e.subscriber);
    }
  }
  return group;
}

/// Push rounds before a gossip record dies (infect-and-die counter).
/// Push epidemics infect the group w.h.p. in O(log n) rounds; two extra
/// rounds of slack absorb unlucky fan-out collisions.
std::uint32_t gossip_rounds_for(std::size_t group_size) {
  std::uint32_t r = 0;
  while ((std::size_t{1} << r) < group_size) ++r;
  return r + 2;
}

/// Whether the arc (lo, hi] and the closed run [r.lo, r.hi] intersect:
/// they do iff either contains the other's first element.
bool arc_intersects(const RingParams& ring, Key lo, Key hi,
                    const KeyRange& r) {
  return ring.in_open_closed(lo, hi, r.lo) ||
         ring.in_closed_closed(r.lo, r.hi, ring.add(lo, 1));
}

}  // namespace

PubSubNode::PubSubNode(overlay::OverlayNode& overlay,
                       sim::Simulator& sim, const AkMapping& mapping,
                       PubSubConfig cfg)
    : overlay_(overlay), sim_(sim), mapping_(mapping), cfg_(cfg),
      gossip_rng_(mix64(cfg.gossip_seed ^ mix64(overlay.id()))),
      key_load_(cfg.key_topk_capacity) {
  store_.use_engine(cfg_.match_engine, mapping_.schema());
  overlay_.set_app(this);
}

PubSubNode::~PubSubNode() = default;

// ---------------------------------------------------------------------------
// Application API
// ---------------------------------------------------------------------------

void PubSubNode::send_to_keys(const std::vector<Key>& keys,
                              PayloadPtr payload,
                              PubSubConfig::Transport transport) {
  if (keys.empty()) return;
  switch (transport) {
    case PubSubConfig::Transport::kUnicast:
      for (Key k : keys) overlay_.send(k, payload);
      break;
    case PubSubConfig::Transport::kMulticast:
      overlay_.m_cast(keys, std::move(payload));
      break;
    case PubSubConfig::Transport::kChain:
      overlay_.chain_cast(keys, std::move(payload));
      break;
  }
}

void PubSubNode::subscribe(SubscriptionPtr sub, sim::SimTime ttl) {
  CBPS_ASSERT(sub != nullptr && sub->id != 0);
  CBPS_ASSERT_MSG(sub->subscriber == overlay_.id(),
                  "subscription's subscriber key must be this node");
  const std::vector<Key> keys = mapping_.subscription_keys(*sub);
  const sim::SimTime expiry =
      ttl == sim::kSimTimeNever ? sim::kSimTimeNever : sim_.now() + ttl;
  own_subs_[sub->id] = OwnSub{sub, expiry};
  auto msg = std::make_shared<SubscribeMsg>(
      sub, expiry, mapping_.subscription_ranges(*sub));
  msg->trace = start_trace(SpanKind::kSubscribe, sub->id, keys.size());
  send_to_keys(keys, std::move(msg), cfg_.sub_transport);
}

std::size_t PubSubNode::refresh_subscriptions() {
  if (halted_) return 0;
  std::size_t n = 0;
  // Refresh sends draw wire randomness per message, so emission order
  // must be a function of the subscription set, not hash layout (D1).
  for (const auto* entry : sorted_view(own_subs_)) {
    const OwnSub& own = entry->second;
    if (own.expires_at != sim::kSimTimeNever &&
        own.expires_at <= sim_.now()) {
      continue;  // already expired; a refresh must not resurrect it
    }
    reissue(own.sub, own.expires_at, mapping_.subscription_ranges(*own.sub));
    ++n;
  }
  return n;
}

void PubSubNode::unsubscribe(SubscriptionId id) {
  auto it = own_subs_.find(id);
  if (it == own_subs_.end()) return;
  const std::vector<Key> keys =
      mapping_.subscription_keys(*it->second.sub);
  send_to_keys(keys, std::make_shared<UnsubscribeMsg>(id),
               cfg_.sub_transport);
  own_subs_.erase(it);
}

void PubSubNode::publish(EventPtr event) {
  CBPS_ASSERT(event != nullptr && event->id != 0);
  const std::vector<Key> keys = mapping_.event_keys(*event);
  fanout_hist_.add(static_cast<double>(keys.size()));
  auto msg =
      std::make_shared<PublishMsg>(event, overlay_.id(), sim_.now());
  msg->trace = start_trace(SpanKind::kPublish, event->id, keys.size());
  send_to_keys(keys, std::move(msg), cfg_.pub_transport);
}

metrics::TraceRef PubSubNode::start_trace(SpanKind root_kind,
                                          std::uint64_t id,
                                          std::size_t keys) {
  if (trace_ == nullptr || !trace_->enabled()) return {};
  const std::uint64_t tid = trace_->maybe_start_trace();
  if (tid == 0) return {};
  const auto now = sim_.now();
  const std::uint64_t root =
      trace_->emit(metrics::TraceRef{tid, 0}, root_kind, overlay_.id(), now,
                   now, id, keys);
  const std::uint64_t map_span =
      trace_->emit(metrics::TraceRef{tid, root}, SpanKind::kMap,
                   overlay_.id(), now, now, keys);
  return metrics::TraceRef{tid, map_span};
}

void PubSubNode::reissue(const SubscriptionPtr& sub, sim::SimTime expires_at,
                         std::vector<KeyRange> ranges) {
  send_to_keys(mapping_.subscription_keys(*sub),
               std::make_shared<SubscribeMsg>(sub, expires_at,
                                              std::move(ranges)),
               cfg_.sub_transport);
}

void PubSubNode::replicate(const SubscriptionPtr& sub,
                           sim::SimTime expires_at,
                           const std::vector<KeyRange>& ranges) {
  if (cfg_.replication_factor == 0) return;
  overlay_.send_to_successor(std::make_shared<ReplicaMsg>(
      StoredSubRecord{sub, expires_at, ranges}, cfg_.replication_factor));
}

// ---------------------------------------------------------------------------
// Delivery dispatch
// ---------------------------------------------------------------------------

void PubSubNode::on_deliver(Key key, const PayloadPtr& payload) {
  const Key covered[] = {key};
  dispatch(covered, payload);
}

void PubSubNode::on_deliver_mcast(std::span<const Key> covered,
                                  const PayloadPtr& payload) {
  dispatch(covered, payload);
}

void PubSubNode::halt() {
  halted_ = true;
  // A crashed process loses its volatile buffers; the armed one-shot
  // timers see halted_ and do nothing when they fire.
  notify_buffer_.clear();
  collect_to_succ_.clear();
  collect_to_pred_.clear();
  gossip_seen_.clear();
}

std::size_t PubSubNode::re_replicate() {
  if (cfg_.replication_factor == 0 || halted_) return 0;
  // Re-own first: a replica whose owner crashed leaves this node covering
  // its range while still holding only the passive copy — with no owner,
  // nothing would ever rebuild the chain and a second crash loses the
  // record. Collect before upgrading (no mutation during for_each).
  std::vector<SubscriptionStore::Record> adopt;
  store_.for_each([&](const SubscriptionStore::Record& rec) {
    if (rec.replica && first_covered_range(rec.ranges) != nullptr) {
      adopt.push_back({rec.sub, rec.expires_at, rec.ranges, /*replica=*/false});
    }
  });
  for (const SubscriptionStore::Record& rec : adopt) store_.insert(rec);
  // Re-home second: an owned record none of whose ranges intersect our
  // coverage is stranded here (accepted while our predecessor was
  // unknown mid-repair, so our believed coverage was transiently huge).
  // Re-issue it toward its current rendezvous and drop our copy.
  std::vector<StoredSubRecord> stranded;
  store_.for_each([&](const SubscriptionStore::Record& rec) {
    if (!rec.replica && first_covered_range(rec.ranges) == nullptr) {
      stranded.push_back({rec.sub, rec.expires_at, rec.ranges, false});
    }
  });
  for (StoredSubRecord& rec : stranded) {
    store_.remove(rec.sub->id);
    ++reissued_imports_;
    reissue(rec.sub, rec.expires_at, std::move(rec.ranges));
  }
  std::size_t n = 0;
  store_.for_each([&](const SubscriptionStore::Record& rec) {
    if (rec.replica) return;
    replicate(rec.sub, rec.expires_at, rec.ranges);
    ++n;
  });
  return n;
}

void PubSubNode::dispatch(std::span<const Key> covered,
                          const PayloadPtr& payload) {
  if (halted_) return;
  if (auto* pub = dynamic_cast<const PublishMsg*>(payload.get())) {
    handle_publish(*pub, covered);
  } else if (auto* sub = dynamic_cast<const SubscribeMsg*>(payload.get())) {
    handle_subscribe(*sub, covered);
  } else if (auto* notify = dynamic_cast<const NotifyMsg*>(payload.get())) {
    handle_notify(*notify);
  } else if (auto* collect =
                 dynamic_cast<const CollectMsg*>(payload.get())) {
    handle_collect(*collect);
  } else if (auto* mn = dynamic_cast<const MultiNotifyMsg*>(payload.get())) {
    handle_multi_notify(*mn, covered);
  } else if (auto* gp = dynamic_cast<const GossipMsg*>(payload.get())) {
    handle_gossip(*gp);
  } else if (auto* gd = dynamic_cast<const GossipDigestMsg*>(payload.get())) {
    handle_gossip_digest(*gd);
  } else if (auto* gr = dynamic_cast<const GossipRepairMsg*>(payload.get())) {
    handle_gossip_repair(*gr);
  } else if (auto* gsr =
                 dynamic_cast<const GossipSubRepairMsg*>(payload.get())) {
    handle_gossip_sub_repair(*gsr);
  } else if (auto* unsub =
                 dynamic_cast<const UnsubscribeMsg*>(payload.get())) {
    handle_unsubscribe(*unsub);
  } else if (auto* rep = dynamic_cast<const ReplicaMsg*>(payload.get())) {
    handle_replica(*rep);
  } else if (auto* rrm =
                 dynamic_cast<const ReplicaRemoveMsg*>(payload.get())) {
    handle_replica_remove(*rrm);
  } else if (dynamic_cast<const StateMsg*>(payload.get()) != nullptr) {
    import_state(payload);
  } else {
    CBPS_LOG_WARN << "pubsub node " << overlay_.id()
                  << ": unknown payload type dropped";
  }
}

// ---------------------------------------------------------------------------
// Rendezvous-side handling
// ---------------------------------------------------------------------------

void PubSubNode::handle_subscribe(const SubscribeMsg& msg,
                                  std::span<const Key> covered) {
  // Load attribution: one store op per rendezvous key this delivery
  // covers (an m-cast delivery stores under several keys at once).
  for (const Key k : covered) key_load_.subs_stored.offer(k);
  SubscriptionStore::Record rec{msg.sub, msg.expires_at, msg.ranges,
                                /*replica=*/false};
  const bool fresh = store_.insert(rec);
  if (msg.expires_at != sim::kSimTimeNever) schedule_sweep();
  if (fresh) replicate(msg.sub, msg.expires_at, msg.ranges);
}

void PubSubNode::handle_unsubscribe(const UnsubscribeMsg& msg) {
  const bool removed = store_.remove(msg.sub_id);
  if (removed && cfg_.replication_factor > 0) {
    overlay_.send_to_successor(std::make_shared<ReplicaRemoveMsg>(
        msg.sub_id, cfg_.replication_factor));
  }
}

void PubSubNode::handle_replica(const ReplicaMsg& msg) {
  store_.insert(SubscriptionStore::Record{msg.record.sub,
                                          msg.record.expires_at,
                                          msg.record.ranges,
                                          /*replica=*/true});
  if (msg.record.expires_at != sim::kSimTimeNever) schedule_sweep();
  if (msg.remaining_hops > 1) {
    overlay_.send_to_successor(
        std::make_shared<ReplicaMsg>(msg.record, msg.remaining_hops - 1));
  }
}

void PubSubNode::handle_replica_remove(const ReplicaRemoveMsg& msg) {
  store_.remove(msg.sub_id);
  if (msg.remaining_hops > 1) {
    overlay_.send_to_successor(std::make_shared<ReplicaRemoveMsg>(
        msg.sub_id, msg.remaining_hops - 1));
  }
}

// ---------------------------------------------------------------------------
// The notify leg's shared steps: match, deliver, notify-send — one copy
// each, whichever backend carries the notifications
// ---------------------------------------------------------------------------

template <typename OnMatch>
void PubSubNode::for_each_match(const PublishMsg& msg,
                                std::span<const Key> covered,
                                OnMatch&& on_match) {
  const auto matches = store_.match(*msg.event, sim_.now());
  std::vector<std::uint64_t> per_key_notifies(covered.size(), 0);
  for (const SubscriptionStore::Record* rec : matches) {
    // Mapping-level exactly-once filter: with multi-key EK mappings
    // (Selective-Attribute) only the rendezvous holding the
    // subscription's own selective key notifies. The first responsible
    // covered key takes the load attribution, so each notification is
    // charged exactly once.
    std::size_t ki = 0;
    while (ki < covered.size() &&
           !mapping_.should_notify(*rec->sub, *msg.event, covered[ki])) {
      ++ki;
    }
    if (ki == covered.size()) continue;
    ++per_key_notifies[ki];
    key_load_.notify_fanout.offer(covered[ki]);
    on_match(*rec);
  }
  const sim::SimTime now = sim_.now();
  for (std::size_t i = 0; i < covered.size(); ++i) {
    key_load_.match_calls.offer(covered[i]);
    key_load_.match_units.offer(covered[i], matches.size());
    if (trace_ != nullptr && msg.trace.sampled()) {
      trace_->emit(msg.trace, SpanKind::kHotKey, overlay_.id(), now, now,
                   covered[i], per_key_notifies[i]);
    }
  }
}

void PubSubNode::handle_publish(const PublishMsg& msg,
                                std::span<const Key> covered) {
  switch (cfg_.dissemination) {
    case PubSubConfig::Dissemination::kUnicast:
      for_each_match(msg, covered, [&](const SubscriptionStore::Record& rec) {
        route_match(rec, msg);
      });
      return;
    case PubSubConfig::Dissemination::kMcast:
      disseminate_mcast(msg, covered);
      return;
    case PubSubConfig::Dissemination::kGossip:
      disseminate_gossip(msg, covered);
      return;
  }
}

void PubSubNode::handle_notify(const NotifyMsg& msg) {
  if (msg.subscriber != overlay_.id()) {
    // Notifications are routed by the subscriber's key, so when the
    // addressee is gone (crashed, or the ring moved mid-route) the
    // message lands on whoever now owns that key. Surfacing it here
    // would be a ghost delivery under the dead subscriber's identity.
    for (const Notification& n : msg.batch) {
      drop(misdirected_notifies_, n.trace, DropReason::kMisdirected);
    }
    return;
  }
  const sim::SimTime now = sim_.now();
  for (const Notification& n : msg.batch) deliver(msg.subscriber, n, now);
}

void PubSubNode::deliver(Key subscriber, const Notification& n,
                         sim::SimTime now) {
  if (cfg_.duplicate_suppression &&
      !delivered_.emplace(n.event->id, n.subscription).second) {
    drop(duplicates_suppressed_, n.trace, DropReason::kDuplicate);
    return;
  }
  ++notifications_received_;
  const double delay_s = sim::to_seconds(now - n.published_at);
  notification_delay_.add(delay_s);
  delay_hist_.add(delay_s);
  if (trace_ != nullptr && n.trace.sampled()) {
    // Instant at arrival — a span must not start before its parent
    // (the notify send); the end-to-end latency is the distance to the
    // trace's publish root (and lives in the delay histogram anyway).
    trace_->emit(n.trace, SpanKind::kDeliver, overlay_.id(), now, now,
                 n.subscription, n.event->id);
  }
  if (sink_) sink_(subscriber, n);
}

void PubSubNode::drop(std::uint64_t& counter, const metrics::TraceRef& t,
                      DropReason why) {
  ++counter;
  if (trace_ == nullptr || !t.sampled()) return;
  const sim::SimTime now = sim_.now();
  trace_->emit(t, SpanKind::kDrop, overlay_.id(), now, now,
               static_cast<std::uint64_t>(why));
}

void PubSubNode::chain_span(metrics::TraceRef& t, SpanKind kind,
                            std::uint64_t a, std::uint64_t b) {
  if (trace_ == nullptr || !t.sampled()) return;
  const sim::SimTime now = sim_.now();
  const std::uint64_t span =
      trace_->emit(t, kind, overlay_.id(), now, now, a, b);
  if (span != 0) t.parent_span = span;
}

void PubSubNode::arm_once(bool& armed, sim::SimTime after,
                          void (PubSubNode::*fire)()) {
  if (armed) return;
  armed = true;
  // A one-shot timer is this node's own event: key it on this node's
  // overlay domain, like the rest of its events.
  const common::ActorScope as(overlay_.domain());
  sim_.schedule_after(after, [this, &armed, fire] {
    armed = false;
    if (!halted_) (this->*fire)();
  });
}

// ---------------------------------------------------------------------------
// Group dissemination backends: m-cast and gossip (extensions; the
// paper's unicast notify leg stays the default)
// ---------------------------------------------------------------------------

std::vector<GossipEntry> PubSubNode::collect_entries(
    const PublishMsg& msg, std::span<const Key> covered) {
  std::vector<GossipEntry> entries;
  for_each_match(msg, covered, [&](const SubscriptionStore::Record& rec) {
    entries.push_back(GossipEntry{
        rec.sub->subscriber,
        Notification{msg.event, rec.sub->id, msg.published_at, msg.trace}});
  });
  // Canonical entry order: the record/payload is wire content, so its
  // layout must not depend on the match engine's internal order (D1).
  std::sort(entries.begin(), entries.end(),
            [](const GossipEntry& a, const GossipEntry& b) {
              if (a.subscriber != b.subscriber) {
                return a.subscriber < b.subscriber;
              }
              return a.notification.subscription < b.notification.subscription;
            });
  return entries;
}

void PubSubNode::surface_own_entries(const std::vector<GossipEntry>& entries) {
  const sim::SimTime now = sim_.now();
  for (const GossipEntry& e : entries) {
    if (e.subscriber == overlay_.id()) {
      deliver(e.subscriber, e.notification, now);
    }
  }
}

void PubSubNode::disseminate_mcast(const PublishMsg& msg,
                                   std::span<const Key> covered) {
  auto out = std::make_shared<MultiNotifyMsg>();
  out->entries = collect_entries(msg, covered);
  if (out->entries.empty()) return;
  std::vector<Key> group = group_of(out->entries);
  for (GossipEntry& e : out->entries) {
    chain_span(e.notification.trace, SpanKind::kNotify, e.subscriber,
               out->entries.size());
  }
  ++notify_batches_sent_;
  notifications_sent_ += out->entries.size();
  out->trace = first_sampled(out->entries);
  overlay_.m_cast(std::move(group), std::move(out));
}

void PubSubNode::handle_multi_notify(const MultiNotifyMsg& msg,
                                     std::span<const Key> covered) {
  for (const GossipEntry& e : msg.entries) {
    // We cover this entry's subscriber key but are not that subscriber:
    // the addressee crashed (or the ring moved). Ghost-drop, as in
    // handle_notify.
    if (e.subscriber != overlay_.id() &&
        std::find(covered.begin(), covered.end(), e.subscriber) !=
            covered.end()) {
      drop(misdirected_notifies_, e.notification.trace,
           DropReason::kMisdirected);
    }
  }
  surface_own_entries(msg.entries);
}

void PubSubNode::disseminate_gossip(const PublishMsg& msg,
                                    std::span<const Key> covered) {
  auto rec = std::make_shared<GossipRecord>();
  rec->entries = collect_entries(msg, covered);
  if (rec->entries.empty()) return;
  rec->id = GossipId{overlay_.id(), next_gossip_seq_++};
  rec->seeded_at = sim_.now();
  rec->group = group_of(rec->entries);
  ++notify_batches_sent_;
  notifications_sent_ += rec->entries.size();
  const GossipRecordPtr ptr = rec;  // immutable from here on
  absorb_gossip_record(ptr);  // the seed surfaces its own entries too
  gossip_push(ptr, gossip_rounds_for(ptr->group.size()));
}

void PubSubNode::gossip_push(const GossipRecordPtr& rec,
                             std::uint32_t rounds) {
  if (rounds == 0) return;
  std::vector<Key> cand;
  cand.reserve(rec->group.size());
  for (Key k : rec->group) {
    if (k != overlay_.id()) cand.push_back(k);
  }
  if (cand.empty()) return;
  const metrics::TraceRef rtrace = first_sampled(rec->entries);
  const sim::SimTime now = sim_.now();
  // Partial Fisher-Yates over the group: fanout distinct peers, drawn
  // from this node's own gossip stream (never the overlay's or the
  // workload's — backends must not perturb each other's runs).
  const std::size_t n = std::min(cfg_.gossip_fanout, cand.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = static_cast<std::size_t>(gossip_rng_.uniform_int(
        static_cast<std::int64_t>(i),
        static_cast<std::int64_t>(cand.size() - 1)));
    std::swap(cand[i], cand[j]);
    auto out = std::make_shared<GossipMsg>(cand[i], rec, rounds - 1);
    out->trace = rtrace;
    ++gossip_stats_.pushes_sent;
    if (trace_ != nullptr && rtrace.sampled()) {
      trace_->emit(rtrace, SpanKind::kGossipPush, overlay_.id(), now, now,
                   rounds - 1, cand[i]);
    }
    overlay_.send(cand[i], std::move(out));
  }
}

bool PubSubNode::absorb_gossip_record(const GossipRecordPtr& rec) {
  // Past its retention deadline the record is dead system-wide; taking
  // it (from a repair racing the sender's prune) would restart its
  // retention here and feed it back into anti-entropy.
  if (rec->seeded_at + cfg_.gossip_window <= sim_.now()) return false;
  const auto [it, fresh] = gossip_seen_.try_emplace(rec->id, rec);
  if (!fresh) return false;
  surface_own_entries(rec->entries);
  schedule_anti_entropy();
  return true;
}

void PubSubNode::handle_gossip(const GossipMsg& msg) {
  if (msg.target != overlay_.id()) {
    // Pushes are key-routed, so a crashed member's share lands on its
    // key's new owner. Ghost-drop; anti-entropy is what recovers the
    // member if it comes back.
    drop(gossip_stats_.misdirected, msg.trace, DropReason::kMisdirected);
    return;
  }
  if (!absorb_gossip_record(msg.rec)) {
    ++gossip_stats_.duplicates;
    return;
  }
  // Infect-and-die: forward only on first receipt, with one round spent.
  gossip_push(msg.rec, msg.rounds_left);
}

void PubSubNode::schedule_anti_entropy() {
  if (cfg_.anti_entropy_period == 0 || gossip_seen_.empty()) return;
  arm_once(anti_entropy_scheduled_, cfg_.anti_entropy_period,
           &PubSubNode::anti_entropy_tick);
}

std::shared_ptr<GossipDigestMsg> PubSubNode::build_digest(Key to,
                                                          bool reply) {
  auto digest = std::make_shared<GossipDigestMsg>(overlay_.id(), to, reply);
  digest->have.reserve(gossip_seen_.size());
  for (const auto& [id, rec] : gossip_seen_) digest->have.push_back(id);
  // Owned records only: a replica advertised here would make every chain
  // member look like an owner and re-gossip its backup copy.
  store_.for_each([&](const SubscriptionStore::Record& rec) {
    if (rec.replica) return;
    digest->subs.push_back(GossipSubDigest{rec.sub->id, rec.expires_at});
  });
  std::sort(digest->subs.begin(), digest->subs.end(),
            [](const GossipSubDigest& a, const GossipSubDigest& b) {
              return a.id < b.id;
            });
  return digest;
}

void PubSubNode::anti_entropy_tick() {
  const sim::SimTime now = sim_.now();
  // Retention prune: once the record's system-wide deadline passes it
  // leaves the repair inventory — and when the cache drains, the timer
  // disarms, so an idle system quiesces.
  for (auto it = gossip_seen_.begin(); it != gossip_seen_.end();) {
    if (it->second->seeded_at + cfg_.gossip_window <= now) {
      it = gossip_seen_.erase(it);
    } else {
      ++it;
    }
  }
  if (gossip_seen_.empty()) return;
  // Partners: up to fanout uniform picks over every member of every
  // cached group — the nodes that could be missing one of our records —
  // plus each record's origin. The origin is never a group member, but
  // it is the authoritative holder: digesting it lets a member pull
  // records it lost without waiting for the rendezvous to pick it,
  // doubling the repair paths per tick. One partner per tick gives too
  // few exchange attempts inside the retention window when many groups
  // share a rendezvous; fanout picks keep the repair probability in
  // step with the push phase.
  const std::set<Key> peer_set = [&] {
    std::set<Key> s;
    for (const auto& [id, rec] : gossip_seen_) {
      s.insert(rec->group.begin(), rec->group.end());
      s.insert(id.origin);
    }
    s.erase(overlay_.id());
    return s;
  }();
  std::vector<Key> peers(peer_set.begin(), peer_set.end());
  const std::size_t n = std::min(cfg_.gossip_fanout, peers.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = static_cast<std::size_t>(gossip_rng_.uniform_int(
        static_cast<std::int64_t>(i),
        static_cast<std::int64_t>(peers.size() - 1)));
    std::swap(peers[i], peers[j]);
    ++gossip_stats_.digests_sent;
    overlay_.send(peers[i], build_digest(peers[i], /*reply=*/false));
  }
  schedule_anti_entropy();
}

void PubSubNode::handle_gossip_digest(const GossipDigestMsg& msg) {
  if (msg.target != overlay_.id()) {
    ++gossip_stats_.misdirected;
    return;
  }
  // Event repair: every cached record the digest's have-list lacks —
  // but only records whose group contains the peer. A record the peer
  // is not a member of is not the peer's business: pushing it would
  // spread state beyond the match group and inflate every later digest.
  // Both sides are sorted, so this is one set-difference walk.
  auto rep = std::make_shared<GossipRepairMsg>(overlay_.id(), msg.from);
  auto have_it = msg.have.begin();
  for (const auto& [id, rec] : gossip_seen_) {
    while (have_it != msg.have.end() && *have_it < id) ++have_it;
    if (have_it != msg.have.end() && *have_it == id) continue;
    if (!std::binary_search(rec->group.begin(), rec->group.end(),
                            msg.from)) {
      continue;
    }
    rep->records.push_back(rec);
  }
  if (!rep->records.empty()) {
    overlay_.send(msg.from, std::move(rep));
  }
  // Rendezvous-state repair: owned records whose SK ranges contain the
  // peer's own key — the peer covers that key, so it should be holding
  // the record as an owner — that its digest does not list. Replica
  // copies are never offered (see build_digest).
  std::vector<StoredSubRecord> missing;
  const RingParams ring = overlay_.ring();
  store_.for_each([&](const SubscriptionStore::Record& rec) {
    if (rec.replica) return;
    const bool relevant = std::any_of(
        rec.ranges.begin(), rec.ranges.end(), [&](const KeyRange& r) {
          return ring.in_closed_closed(r.lo, r.hi, msg.from);
        });
    if (!relevant) return;
    const auto it = std::lower_bound(
        msg.subs.begin(), msg.subs.end(), rec.sub->id,
        [](const GossipSubDigest& d, SubscriptionId id) { return d.id < id; });
    if (it != msg.subs.end() && it->id == rec.sub->id) return;
    missing.push_back({rec.sub, rec.expires_at, rec.ranges, false});
  });
  if (!missing.empty()) {
    // Store iteration order is hash-layout dependent; the wire payload
    // must not be (D1).
    std::sort(missing.begin(), missing.end(),
              [](const StoredSubRecord& a, const StoredSubRecord& b) {
                return a.sub->id < b.sub->id;
              });
    auto subrep = std::make_shared<GossipSubRepairMsg>(msg.from);
    subrep->records = std::move(missing);
    overlay_.send(msg.from, std::move(subrep));
  }
  if (!msg.reply) {
    ++gossip_stats_.digests_sent;
    overlay_.send(msg.from, build_digest(msg.from, /*reply=*/true));
  }
}

void PubSubNode::handle_gossip_repair(const GossipRepairMsg& msg) {
  if (msg.target != overlay_.id()) {
    ++gossip_stats_.misdirected;
    return;
  }
  for (const GossipRecordPtr& rec : msg.records) {
    // Repaired records do not re-enter the push phase (no gossip_push):
    // anti-entropy converges, it does not re-ignite the epidemic.
    if (!absorb_gossip_record(rec)) continue;
    ++gossip_stats_.repair_records;
    if (trace_ == nullptr) continue;
    if (const metrics::TraceRef t = first_sampled(rec->entries);
        t.sampled()) {
      const sim::SimTime now = sim_.now();
      trace_->emit(t, SpanKind::kGossipRepair, overlay_.id(), now, now,
                   rec->entries.size());
    }
  }
}

void PubSubNode::handle_gossip_sub_repair(const GossipSubRepairMsg& msg) {
  if (msg.target != overlay_.id()) {
    ++gossip_stats_.misdirected;
    return;
  }
  bool any_expiring = false;
  for (const StoredSubRecord& rec : msg.records) {
    if (rec.expires_at != sim::kSimTimeNever && rec.expires_at <= sim_.now()) {
      continue;  // repair must not resurrect an expired subscription
    }
    // Coverage check, as on state import: the sender's view of our
    // responsibility may be stale.
    if (first_covered_range(rec.ranges) == nullptr) continue;
    const bool fresh = store_.insert(SubscriptionStore::Record{
        rec.sub, rec.expires_at, rec.ranges, /*replica=*/false});
    any_expiring |= rec.expires_at != sim::kSimTimeNever;
    if (!fresh) continue;
    ++gossip_stats_.subs_learned;
    // A record learned (or upgraded from a replica) this way needs a
    // replica chain along the *current* successors.
    replicate(rec.sub, rec.expires_at, rec.ranges);
  }
  if (any_expiring) schedule_sweep();
}

// ---------------------------------------------------------------------------
// Notification paths: immediate, buffered, collected (§4.3.2)
// ---------------------------------------------------------------------------

void PubSubNode::route_match(const SubscriptionStore::Record& rec,
                             const PublishMsg& msg) {
  Notification n{msg.event, rec.sub->id, msg.published_at, msg.trace};
  const Key subscriber = rec.sub->subscriber;
  if (cfg_.collecting) {
    const KeyRange* range = first_covered_range(rec.ranges);
    if (range != nullptr && range->size(overlay_.ring()) > 1 &&
        !is_agent_for(*range)) {
      enqueue_collect(CollectItem{*range, subscriber, std::move(n)});
      return;
    }
  }
  if (cfg_.buffering || cfg_.collecting) {
    // Periodic per-subscriber batches; with collecting, we are the agent
    // (or the range is degenerate).
    buffer_notification(subscriber, std::move(n));
    return;
  }
  send_notify(subscriber, std::vector<Notification>{std::move(n)});
}

void PubSubNode::send_notify(Key subscriber,
                             std::vector<Notification> batch) {
  ++notify_batches_sent_;
  notifications_sent_ += batch.size();
  for (Notification& n : batch) {
    chain_span(n.trace, SpanKind::kNotify, subscriber, batch.size());
  }
  auto out = std::make_shared<NotifyMsg>(subscriber, std::move(batch));
  out->trace = first_sampled(out->batch);
  overlay_.send(subscriber, std::move(out));
}

void PubSubNode::buffer_notification(Key subscriber, Notification n) {
  chain_span(n.trace, SpanKind::kBuffer, subscriber);
  notify_buffer_[subscriber].push_back(std::move(n));
  arm_once(flush_scheduled_, cfg_.buffer_period,
           &PubSubNode::flush_notify_buffer);
}

void PubSubNode::flush_notify_buffer() {
  // One NotifyMsg per subscriber, in subscriber-key order: send order
  // decides wire RNG draws and event keys downstream, so it must not
  // depend on the buffer's bucket layout (D1).
  for (auto* entry : sorted_view(notify_buffer_)) {
    if (!entry->second.empty()) {
      send_notify(entry->first, std::move(entry->second));
    }
  }
  notify_buffer_.clear();
}

void PubSubNode::enqueue_collect(CollectItem item) {
  chain_span(item.notification.trace, SpanKind::kCollect, item.subscriber);
  auto& queue =
      agent_toward_successor(item.range) ? collect_to_succ_ : collect_to_pred_;
  queue.push_back(std::move(item));
  arm_once(collect_scheduled_, cfg_.buffer_period,
           &PubSubNode::flush_collect_buffers);
}

void PubSubNode::flush_collect_buffers() {
  // One message per direction regardless of how many subscriptions are
  // involved: "the cost of exchanging notifications between neighbor
  // nodes is amortized across all stored subscriptions" (§4.3.2).
  const auto send_batch = [this](std::vector<CollectItem>& items,
                                 bool to_successor) {
    if (items.empty()) return;
    auto out = std::make_shared<CollectMsg>(std::move(items));
    items.clear();
    out->trace = first_sampled(out->items);
    if (to_successor) {
      overlay_.send_to_successor(std::move(out));
    } else {
      overlay_.send_to_predecessor(std::move(out));
    }
  };
  send_batch(collect_to_succ_, /*to_successor=*/true);
  send_batch(collect_to_pred_, /*to_successor=*/false);
}

void PubSubNode::handle_collect(const CollectMsg& msg) {
  for (const CollectItem& item : msg.items) {
    if (is_agent_for(item.range)) {
      buffer_notification(item.subscriber, item.notification);
    } else {
      // Keep moving toward the agent; re-batched with our own pending
      // items on the next flush.
      enqueue_collect(item);
    }
  }
}

// ---------------------------------------------------------------------------
// Expiration (simulated unsubscriptions, §5.1)
// ---------------------------------------------------------------------------

void PubSubNode::schedule_sweep() {
  const sim::SimTime next = store_.next_expiry();
  if (next == sim::kSimTimeNever) return;
  const sim::SimTime at = std::max(next, sim_.now());
  if (sweep_scheduled_ && sweep_at_ <= at) return;
  sweep_scheduled_ = true;
  sweep_at_ = at;
  const common::ActorScope as(overlay_.domain());
  sim_.schedule_at(at, [this, at] {
    if (sweep_at_ != at) return;  // superseded by an earlier sweep
    sweep_scheduled_ = false;
    sweep_at_ = sim::kSimTimeNever;
    if (!halted_) sweep_expired();
  });
}

void PubSubNode::sweep_expired() {
  store_.sweep_expired(sim_.now());
  schedule_sweep();  // re-arm for the next earliest expiry, if any
}

// ---------------------------------------------------------------------------
// Collecting geometry
// ---------------------------------------------------------------------------

bool PubSubNode::covers_key(Key k) const {
  const RingParams ring = overlay_.ring();
  const Key pred = overlay_.predecessor_id();
  if (pred == overlay_.id()) return true;  // whole ring
  return ring.in_open_closed(pred, overlay_.id(), k);
}

const KeyRange* PubSubNode::first_covered_range(
    const std::vector<KeyRange>& ranges) const {
  const RingParams ring = overlay_.ring();
  const Key self = overlay_.id();
  const Key pred = overlay_.predecessor_id();
  for (const KeyRange& r : ranges) {
    // A lone node covers the whole ring.
    if (pred == self || arc_intersects(ring, pred, self, r)) return &r;
  }
  return nullptr;
}

bool PubSubNode::is_agent_for(const KeyRange& r) const {
  return covers_key(overlay_.ring().midpoint(r.lo, r.hi));
}

bool PubSubNode::agent_toward_successor(const KeyRange& r) const {
  const RingParams ring = overlay_.ring();
  const Key mid = ring.midpoint(r.lo, r.hi);
  const Key pos =
      ring.in_closed_closed(r.lo, r.hi, overlay_.id()) ? overlay_.id() : r.hi;
  return ring.distance(r.lo, pos) < ring.distance(r.lo, mid);
}

// ---------------------------------------------------------------------------
// State handover (joins / leaves, §4.1)
// ---------------------------------------------------------------------------

overlay::PayloadPtr PubSubNode::export_state(Key range_lo, Key range_hi,
                                             bool remove) {
  const RingParams ring = overlay_.ring();
  const auto in_handed_range = [&](const KeyRange& r) {
    return arc_intersects(ring, range_lo, range_hi, r);
  };

  std::vector<StoredSubRecord> out;
  store_.for_each([&](const SubscriptionStore::Record& rec) {
    if (rec.replica) {
      // The receiver is taking over (part of) our ring position, which
      // makes it a better-placed holder for every replica chain we
      // participate in; hand replicas over as replicas. We keep our own
      // copies too (extra copies are harmless: a replica only ever
      // matches events once its holder legitimately covers their keys).
      out.push_back({rec.sub, rec.expires_at, rec.ranges, true});
      return;
    }
    if (std::any_of(rec.ranges.begin(), rec.ranges.end(), in_handed_range)) {
      out.push_back({rec.sub, rec.expires_at, rec.ranges, false});
    }
  });

  if (remove) {
    // Keep records that still intersect our remaining coverage
    // (range_hi, id]; when the whole range is handed away (leave),
    // nothing remains.
    const bool nothing_left = range_hi == overlay_.id();
    store_.remove_if([&](const SubscriptionStore::Record& rec) {
      if (rec.replica) return false;
      if (!std::any_of(rec.ranges.begin(), rec.ranges.end(),
                       in_handed_range)) {
        return false;
      }
      if (nothing_left) return true;
      const auto in_remaining = [&](const KeyRange& r) {
        return arc_intersects(ring, range_hi, overlay_.id(), r);
      };
      return !std::any_of(rec.ranges.begin(), rec.ranges.end(),
                          in_remaining);
    });
  }
  return std::make_shared<StateMsg>(std::move(out));
}

void PubSubNode::import_state(const overlay::PayloadPtr& state) {
  const auto* msg = dynamic_cast<const StateMsg*>(state.get());
  if (msg == nullptr) {
    CBPS_LOG_WARN << "pubsub node " << overlay_.id()
                  << ": unexpected state payload";
    return;
  }
  if (halted_) return;
  bool any_expiring = false;
  for (const StoredSubRecord& rec : msg->records) {
    // Ownership check: after a partition heals, state transfers can land
    // on a node the re-merged ring no longer makes responsible for any
    // of the record's ranges. Storing it here would strand it — re-issue
    // it as a fresh subscription toward the current rendezvous instead.
    if (!rec.replica && first_covered_range(rec.ranges) == nullptr) {
      ++reissued_imports_;
      reissue(rec.sub, rec.expires_at, rec.ranges);
      continue;
    }
    const bool fresh = store_.insert(SubscriptionStore::Record{
        rec.sub, rec.expires_at, rec.ranges, rec.replica});
    // A freshly learned owned record needs its replica chain built along
    // the *current* successors (the exporter's chain predates the move).
    if (fresh && !rec.replica) replicate(rec.sub, rec.expires_at, rec.ranges);
    any_expiring |= rec.expires_at != sim::kSimTimeNever;
  }
  if (any_expiring) schedule_sweep();
}

}  // namespace cbps::pubsub
