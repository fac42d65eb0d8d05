// The CB-pub/sub layer of one node (paper Figure 2, §4.1).
//
// Responsibilities, quoting the paper: computing the SK/EK mappings,
// forwarding subscriptions and events to their rendezvous keys, storing
// subscriptions, matching events, forwarding notifications, and managing
// the application state across node joins and departures. The buffering
// and collecting optimizations of §4.3.2 live here as well.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cbps/common/rng.hpp"
#include "cbps/metrics/histogram.hpp"
#include "cbps/metrics/topk.hpp"
#include "cbps/metrics/trace.hpp"
#include "cbps/overlay/node.hpp"
#include "cbps/pubsub/gossip.hpp"
#include "cbps/pubsub/mapping.hpp"
#include "cbps/pubsub/messages.hpp"
#include "cbps/pubsub/store.hpp"
#include "cbps/sim/simulator.hpp"

namespace cbps::pubsub {

struct PubSubConfig {
  /// How one-to-many propagation is realized on the overlay (§4.3.1).
  enum class Transport {
    kUnicast,    // aggressive: one send() per key, in parallel
    kMulticast,  // the paper's native m-cast extension
    kChain,      // conservative: ring-order walk (baseline)
  };

  Transport sub_transport = Transport::kUnicast;
  Transport pub_transport = Transport::kUnicast;

  /// How matched notifications travel from the rendezvous to the match
  /// group (the notify leg; `Transport` above governs the sub/pub legs).
  enum class Dissemination {
    kUnicast,  // the paper's default: one NotifyMsg per subscriber
    kMcast,    // one MultiNotifyMsg through the overlay's m-cast tree
    kGossip,   // epidemic push + anti-entropy repair (see gossip.hpp)
  };

  Dissemination dissemination = Dissemination::kUnicast;

  /// Gossip backend knobs (ignored unless dissemination == kGossip).
  /// Fan-out: random group members each infected node pushes to. A
  /// record dies after ceil(log2(group size)) + 2 push rounds.
  std::size_t gossip_fanout = 3;
  /// Anti-entropy digest-exchange period (0 disables repair).
  sim::SimTime anti_entropy_period = sim::sec(10);
  /// Recent-record retention for anti-entropy repair; older records are
  /// pruned from the seen cache and can no longer be pulled.
  sim::SimTime gossip_window = sim::sec(60);
  /// Base seed of the per-node gossip RNG streams (each node derives an
  /// independent stream from this and its own overlay id, so one node's
  /// gossip never shifts another's draws). PubSubSystem sets it from the
  /// system seed.
  std::uint64_t gossip_seed = 0x9e3779b97f4a7c15ull;

  /// Buffer matched notifications and send them in periodic per-
  /// subscriber batches (§4.3.2).
  bool buffering = false;
  sim::SimTime buffer_period = sim::sec(5);

  /// Aggregate matches along each stored key range toward the range's
  /// agent node before notifying (§4.3.2). Implies periodic (buffered)
  /// agent flushes with the same period.
  bool collecting = false;

  /// Push each stored subscription to this many ring successors so a
  /// crashed rendezvous' state survives (§4.1). 0 disables.
  std::size_t replication_factor = 0;

  /// Matching engine at the rendezvous (brute-force scan or the
  /// counting index of Fabret et al., the paper's [6]).
  MatchEngine match_engine = MatchEngine::kBruteForce;

  /// Drop notifications for an (event, subscription) pair already seen
  /// here. The overlay's ack/retry layer can deliver an application
  /// message twice when a retransmit is re-routed around a crashed hop,
  /// so lossy runs need this end-to-end safety net (PubSubSystem turns
  /// it on automatically whenever the network injects loss).
  bool duplicate_suppression = false;

  /// Capacity of the per-node per-rendezvous-key heavy-hitter sketches
  /// (the load observatory). With total per-node load N the sketch's
  /// count error is bounded by N / capacity; a capacity at least the
  /// number of distinct keys a node serves makes the counts exact.
  std::size_t key_topk_capacity = metrics::TopK::kDefaultCapacity;
};

/// Per-rendezvous-key load attribution: one sketch set per node, updated
/// only from that node's own events, which execute in canonical
/// (time, key) order. PubSubSystem::key_load()
/// folds them in ring (canonical domain) order; TopK::merge is
/// permutation-invariant, so the folded table is deterministic too.
struct KeyLoad {
  metrics::TopK subs_stored;    // subscription store ops per covered key
  metrics::TopK match_calls;    // match invocations per covered key
  metrics::TopK match_units;    // matched records scanned per covered key
  metrics::TopK notify_fanout;  // notifications attributed per key

  explicit KeyLoad(std::size_t capacity = metrics::TopK::kDefaultCapacity)
      : subs_stored(capacity), match_calls(capacity),
        match_units(capacity), notify_fanout(capacity) {}

  void merge(const KeyLoad& o) {
    subs_stored.merge(o.subs_stored);
    match_calls.merge(o.match_calls);
    match_units.merge(o.match_units);
    notify_fanout.merge(o.notify_fanout);
  }

  /// Total load units this node performed as a rendezvous (the scalar
  /// the ring-imbalance coefficients are computed over).
  std::uint64_t total() const {
    return subs_stored.total() + match_calls.total() +
           match_units.total() + notify_fanout.total();
  }
};

class PubSubNode final : public overlay::OverlayApp {
 public:
  /// Receives every notification delivered to this node's application.
  using NotifySink =
      std::function<void(Key subscriber, const Notification&)>;

  PubSubNode(overlay::OverlayNode& overlay, sim::Simulator& sim,
             const AkMapping& mapping, PubSubConfig cfg);
  ~PubSubNode() override;

  PubSubNode(const PubSubNode&) = delete;
  PubSubNode& operator=(const PubSubNode&) = delete;

  void set_notify_sink(NotifySink sink) { sink_ = std::move(sink); }

  /// Install a per-run trace sink (nullptr = tracing off, the default).
  /// Samples new traces at publish/subscribe and emits pub/sub-layer
  /// spans (publish, map, buffer, collect, notify, deliver, drop).
  void set_trace_sink(metrics::TraceSink* sink) { trace_ = sink; }

  // --- application API: the paper's sub() / pub() ----------------------
  /// Register `sub` (id and subscriber key must be filled in) for `ttl`.
  void subscribe(SubscriptionPtr sub, sim::SimTime ttl);
  /// Register `sub` with no expiration.
  void subscribe(SubscriptionPtr sub) {
    subscribe(std::move(sub), sim::kSimTimeNever);
  }

  /// Withdraw a previously issued subscription.
  void unsubscribe(SubscriptionId id);

  /// Publish an event (id must be filled in).
  void publish(EventPtr event);

  /// Crash hygiene: stop behaving like a live process. Pending batches
  /// are dropped and the armed one-shot timers become no-ops — a
  /// crashed rendezvous must not keep flushing notifications.
  void halt();
  bool halted() const { return halted_; }

  /// Re-push every owned (non-replica) subscription down the current
  /// successor chain. Run after a partition heals (or any event that
  /// reshuffles ring ownership): the replica chains recorded before the
  /// fault may point at nodes that are no longer this node's
  /// successors. Returns the number of records re-replicated; no-op
  /// when replication is off.
  std::size_t re_replicate();

  // --- overlay::OverlayApp ----------------------------------------------
  void on_deliver(Key key, const overlay::PayloadPtr& payload) override;
  void on_deliver_mcast(std::span<const Key> covered,
                        const overlay::PayloadPtr& payload) override;
  overlay::PayloadPtr export_state(Key range_lo, Key range_hi,
                                   bool remove) override;
  void import_state(const overlay::PayloadPtr& state) override;

  // --- introspection ------------------------------------------------------
  const SubscriptionStore& store() const { return store_; }
  overlay::OverlayNode& overlay() { return overlay_; }
  std::uint64_t notifications_received() const {
    return notifications_received_;
  }
  std::uint64_t duplicates_suppressed() const {
    return duplicates_suppressed_;
  }
  /// Notifications addressed to a different node that key-routing landed
  /// here (the addressee crashed, or the ring moved mid-route). Dropped,
  /// never surfaced: they would be ghost deliveries under a dead
  /// subscriber's identity.
  std::uint64_t misdirected_notifies() const {
    return misdirected_notifies_;
  }
  /// Publish-to-notify latency (seconds) of notifications received here.
  const RunningStat& notification_delay() const {
    return notification_delay_;
  }
  /// Publish-to-notify latency distribution (seconds): same samples as
  /// notification_delay(), but with percentiles.
  const metrics::Histogram& delay_histogram() const { return delay_hist_; }
  /// Rendezvous-key fan-out per publish issued from this node.
  const metrics::Histogram& fanout_histogram() const { return fanout_hist_; }
  std::uint64_t notify_batches_sent() const { return notify_batches_sent_; }
  std::uint64_t notifications_sent() const { return notifications_sent_; }
  /// Per-rendezvous-key load sketches of this node (see KeyLoad).
  const KeyLoad& key_load() const { return key_load_; }

  /// Gossip-backend accounting (all zero unless dissemination==kGossip).
  struct GossipStats {
    std::uint64_t pushes_sent = 0;      // epidemic GossipMsg transmissions
    std::uint64_t duplicates = 0;       // records received more than once
    std::uint64_t misdirected = 0;      // pushes/digests for a dead member
    std::uint64_t digests_sent = 0;     // anti-entropy digests (both legs)
    std::uint64_t repair_records = 0;   // records resurfaced by pull repair
    std::uint64_t subs_learned = 0;     // owned subs learned via repair

    GossipStats& operator+=(const GossipStats& o) {
      pushes_sent += o.pushes_sent;
      duplicates += o.duplicates;
      misdirected += o.misdirected;
      digests_sent += o.digests_sent;
      repair_records += o.repair_records;
      subs_learned += o.subs_learned;
      return *this;
    }
  };
  const GossipStats& gossip_stats() const { return gossip_stats_; }
  std::size_t gossip_seen_size() const { return gossip_seen_.size(); }
  /// Imported records that were not ours to keep and were re-issued as
  /// fresh subscriptions toward their current rendezvous (post-heal
  /// ownership repair).
  std::uint64_t reissued_imports() const { return reissued_imports_; }
  /// A subscription this node issued: the pointer plus the expiry it was
  /// registered with (needed to re-issue it verbatim on refresh).
  struct OwnSub {
    SubscriptionPtr sub;
    sim::SimTime expires_at = sim::kSimTimeNever;
  };

  /// Subscriptions this node issued and has not withdrawn.
  const std::unordered_map<SubscriptionId, OwnSub>& own_subscriptions()
      const {
    return own_subs_;
  }

  /// Soft-state refresh: re-issue every live subscription this node owns
  /// toward its current rendezvous nodes. Recovers records whose entire
  /// owner+replica chain crashed (the one loss replication cannot mask).
  /// Idempotent where records survived: a refresh of an existing record
  /// updates it in place without re-building replica chains. Returns the
  /// number of subscriptions re-issued.
  std::size_t refresh_subscriptions();

 private:
  // Rendezvous-side handlers.
  void handle_subscribe(const SubscribeMsg& msg,
                        std::span<const Key> covered);
  void handle_unsubscribe(const UnsubscribeMsg& msg);
  void handle_publish(const PublishMsg& msg, std::span<const Key> covered);
  void handle_notify(const NotifyMsg& msg);
  void handle_collect(const CollectMsg& msg);
  void handle_replica(const ReplicaMsg& msg);
  void handle_replica_remove(const ReplicaRemoveMsg& msg);
  void handle_multi_notify(const MultiNotifyMsg& msg,
                           std::span<const Key> covered);
  void handle_gossip(const GossipMsg& msg);
  /// One repair leg: push records + owned subs `msg.from` lacks per its
  /// digest, then (unless the digest is itself a reply) answer with our
  /// own digest.
  void handle_gossip_digest(const GossipDigestMsg& msg);
  void handle_gossip_repair(const GossipRepairMsg& msg);
  void handle_gossip_sub_repair(const GossipSubRepairMsg& msg);
  void dispatch(std::span<const Key> covered,
                const overlay::PayloadPtr& payload);

  // The single steps every notify backend shares.
  /// The match step (§4.1): `on_match(record)` for each match this
  /// delivery is responsible for (the mapping's exactly-once filter),
  /// then the per-covered-key load attribution and kHotKey spans.
  template <typename OnMatch>
  void for_each_match(const PublishMsg& msg, std::span<const Key> covered,
                      OnMatch&& on_match);
  /// The delivery step: dedup, count, delay, kDeliver span, sink — the
  /// same whichever backend carried `n` here. `now` is the arrival time.
  void deliver(Key subscriber, const Notification& n, sim::SimTime now);
  /// The notify send: one NotifyMsg carrying `batch` to `subscriber`
  /// (a batch of one on the immediate path).
  void send_notify(Key subscriber, std::vector<Notification> batch);
  /// Count one dropped notification in `counter` and emit its kDrop span.
  void drop(std::uint64_t& counter, const metrics::TraceRef& t,
            metrics::DropReason why);
  /// Emit a pub/sub step span under `t` and re-parent `t` on it.
  void chain_span(metrics::TraceRef& t, metrics::SpanKind kind,
                  std::uint64_t a, std::uint64_t b = 0);
  /// Arm a one-shot timer running `fire` after `after` unless `armed`
  /// already is; the firing clears `armed` and is a no-op once halted.
  void arm_once(bool& armed, sim::SimTime after, void (PubSubNode::*fire)());
  /// Root + kMap spans of a publish/subscribe; the payload's context
  /// ({} when the root is not sampled).
  metrics::TraceRef start_trace(metrics::SpanKind root_kind,
                                std::uint64_t id, std::size_t keys);
  /// Re-send a subscription toward its current rendezvous keys.
  void reissue(const SubscriptionPtr& sub, sim::SimTime expires_at,
               std::vector<KeyRange> ranges);
  /// Push an owned record down the successor replica chain (no-op when
  /// replication is off).
  void replicate(const SubscriptionPtr& sub, sim::SimTime expires_at,
                 const std::vector<KeyRange>& ranges);

  // Gossip internals.
  /// Group-wide dissemination (m-cast and gossip backends): collect the
  /// responsible matches of one publish into sorted (subscriber,
  /// notification) entries.
  std::vector<GossipEntry> collect_entries(const PublishMsg& msg,
                                           std::span<const Key> covered);
  void disseminate_mcast(const PublishMsg& msg, std::span<const Key> covered);
  void disseminate_gossip(const PublishMsg& msg,
                          std::span<const Key> covered);
  /// Surface every entry addressed to this node (dedup'd, kDeliver
  /// spans — delivery looks the same whatever backend carried it).
  void surface_own_entries(const std::vector<GossipEntry>& entries);
  /// Push `rec` to up to gossip_fanout random group members (never
  /// self), spending one round. No-op when rounds == 0.
  void gossip_push(const GossipRecordPtr& rec, std::uint32_t rounds);
  /// First sight of `rec` (push or repair): cache it, surface own
  /// entries, arm anti-entropy. Returns false when already seen.
  bool absorb_gossip_record(const GossipRecordPtr& rec);
  void schedule_anti_entropy();
  void anti_entropy_tick();
  std::shared_ptr<GossipDigestMsg> build_digest(Key to, bool reply);

  /// Route one match of `msg` to its subscriber through the configured
  /// path (immediate / buffered / collected). The notification inherits
  /// the publish payload's trace context.
  void route_match(const SubscriptionStore::Record& rec,
                   const PublishMsg& msg);

  void buffer_notification(Key subscriber, Notification n);
  void enqueue_collect(CollectItem item);
  void flush_notify_buffer();
  void flush_collect_buffers();
  void schedule_sweep();
  void sweep_expired();

  void send_to_keys(const std::vector<Key>& keys,
                    overlay::PayloadPtr payload,
                    PubSubConfig::Transport transport);

  // Ring geometry helpers for collecting (§4.3.2).
  bool covers_key(Key k) const;
  /// The first of `ranges` that intersects this node's coverage
  /// (pred, id], or nullptr when none does.
  const KeyRange* first_covered_range(
      const std::vector<KeyRange>& ranges) const;
  bool is_agent_for(const KeyRange& r) const;
  bool agent_toward_successor(const KeyRange& r) const;

  overlay::OverlayNode& overlay_;
  sim::Simulator& sim_;
  const AkMapping& mapping_;
  PubSubConfig cfg_;

  SubscriptionStore store_;
  std::unordered_map<SubscriptionId, OwnSub> own_subs_;
  NotifySink sink_;
  metrics::TraceSink* trace_ = nullptr;

  // Pending per-subscriber notification batches (buffering + agent role).
  std::unordered_map<Key, std::vector<Notification>> notify_buffer_;
  // Pending collect items by ring direction.
  std::vector<CollectItem> collect_to_succ_;
  std::vector<CollectItem> collect_to_pred_;

  // One-shot timers, armed only while there is pending work.
  bool flush_scheduled_ = false;
  bool collect_scheduled_ = false;
  bool sweep_scheduled_ = false;
  sim::SimTime sweep_at_ = sim::kSimTimeNever;

  // --- gossip backend state (empty unless dissemination == kGossip) ----
  /// Per-node RNG stream: peer picks must not consume the overlay or
  /// workload streams, or the backends would perturb each other's runs.
  Rng gossip_rng_;
  /// Recently seen records: dedup for the epidemic and the pull-repair
  /// inventory for anti-entropy. Ordered (D1): digests iterate it.
  /// Retention follows each record's seeded_at (one absolute deadline
  /// for the whole system), so the cache provably drains and the
  /// anti-entropy timer disarms.
  std::map<GossipId, GossipRecordPtr> gossip_seen_;
  bool anti_entropy_scheduled_ = false;
  std::uint64_t next_gossip_seq_ = 1;
  GossipStats gossip_stats_;

  bool halted_ = false;

  std::uint64_t notifications_received_ = 0;
  std::uint64_t notify_batches_sent_ = 0;
  std::uint64_t notifications_sent_ = 0;
  std::uint64_t duplicates_suppressed_ = 0;
  std::uint64_t misdirected_notifies_ = 0;
  std::uint64_t reissued_imports_ = 0;
  KeyLoad key_load_;
  RunningStat notification_delay_;
  metrics::Histogram delay_hist_;
  metrics::Histogram fanout_hist_;
  // (event, subscription) pairs already surfaced to the sink; only
  // populated when cfg_.duplicate_suppression is on.
  std::set<std::pair<EventId, SubscriptionId>> delivered_;
};

}  // namespace cbps::pubsub
