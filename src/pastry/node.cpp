#include <algorithm>

#include "cbps/common/exec_context.hpp"
#include "cbps/common/logging.hpp"
#include "cbps/overlay/mcast_partition.hpp"
#include "cbps/pastry/pastry.hpp"

namespace cbps::pastry {

using metrics::DropReason;
using overlay::emit_drop;
using overlay::emit_route_hop;
using overlay::hop_ref;
using overlay::MessageClass;
using overlay::PayloadPtr;

PastryNode::PastryNode(PastryNetwork& net, Key id, std::string name,
                       common::Domain domain)
    : net_(net),
      id_(id),
      name_(std::move(name)),
      domain_(domain),
      // Fixed RTO: Pastry has no adaptive estimator. A peer found dead
      // mid-retry (only possible if it was removed out-of-band: the
      // harness has no membership dynamics) is a counted failed send.
      link_(net, id, domain, net.hot().link,
            {.armed = net.config().reliable_transport(),
             .max_retries = net.config().max_retries,
             .retry_base = net.config().retry_base},
            [](Key, WireMessage) { return false; }) {
  table_.resize(net_.ring().bits());
}

RingParams PastryNode::ring() const { return net_.ring(); }

Key PastryNode::successor_id() const {
  return leaf_succ_.empty() ? id_ : leaf_succ_.front();
}

Key PastryNode::predecessor_id() const {
  return leaf_pred_.empty() ? id_ : leaf_pred_.front();
}

bool PastryNode::covers(Key k) const {
  if (leaf_pred_.empty()) return true;  // alone in the overlay
  return ring().in_open_closed(leaf_pred_.front(), id_, k);
}

void PastryNode::install_state(std::vector<Key> leaf_pred,
                               std::vector<Key> leaf_succ,
                               std::vector<std::optional<Key>> table) {
  CBPS_ASSERT(table.size() == ring().bits());
  leaf_pred_ = std::move(leaf_pred);
  leaf_succ_ = std::move(leaf_succ);
  table_ = std::move(table);
}

bool PastryNode::transmit(Key to, WireMessage msg, MessageClass cls) {
  CBPS_ASSERT_MSG(to != id_, "self-transmit must be a local delivery");
  if (link_.send(to, std::move(msg), cls)) return true;
  net_.hot().send_to_dead->inc();
  return false;
}

unsigned PastryNode::shared_prefix_bits(Key key) const {
  const unsigned m = ring().bits();
  const Key diff = (key ^ id_) & ring().max_key();
  if (diff == 0) return m;
  unsigned shared = 0;
  for (unsigned bit = m; bit-- > 0;) {
    if ((diff >> bit) & 1) break;
    ++shared;
  }
  return shared;
}

std::vector<Key> PastryNode::known_nodes_by_distance() const {
  std::vector<Key> nodes;
  nodes.insert(nodes.end(), leaf_succ_.begin(), leaf_succ_.end());
  nodes.insert(nodes.end(), leaf_pred_.begin(), leaf_pred_.end());
  for (const auto& e : table_) {
    if (e) nodes.push_back(*e);
  }
  std::sort(nodes.begin(), nodes.end(), [this](Key a, Key b) {
    return ring().distance(id_, a) < ring().distance(id_, b);
  });
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  std::erase(nodes, id_);
  return nodes;
}

std::optional<Key> PastryNode::next_hop(Key key) const {
  if (covers(key)) return std::nullopt;

  // Leaf-set completion: if the key falls inside the leaf span, hand it
  // to the leaf that covers it (successor-of-key among the leaves).
  if (!leaf_succ_.empty() &&
      ring().in_open_closed(id_, leaf_succ_.back(), key)) {
    for (Key l : leaf_succ_) {
      if (ring().in_open_closed(id_, l, key)) return l;
    }
  }

  // Prefix routing: the row-r entry shares r bits with us and differs at
  // bit r; if `key` also differs from us exactly at bit r, that entry is
  // one prefix digit closer to key.
  const unsigned shared = shared_prefix_bits(key);
  if (shared < ring().bits() && table_[shared]) {
    return table_[shared];
  }

  // Rare case: no table entry — fall back to the closest known node
  // strictly preceding the key (guaranteed ring progress, like Chord).
  std::optional<Key> best;
  std::uint64_t best_dist = 0;
  for (Key c : known_nodes_by_distance()) {
    if (!ring().in_open_closed(id_, key, c)) continue;
    const std::uint64_t d = ring().distance(id_, c);
    if (!best || d > best_dist) {
      best = c;
      best_dist = d;
    }
  }
  if (best) return best;
  if (!leaf_succ_.empty()) return leaf_succ_.front();
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Unicast
// ---------------------------------------------------------------------------

void PastryNode::send(Key key, PayloadPtr payload) {
  RouteMsg msg{key, std::move(payload), 0, id_};
  if (covers(key)) {
    net_.self_deliver([this, msg = std::move(msg)] { deliver_route(msg); });
    return;
  }
  handle_route(std::move(msg));
}

void PastryNode::deliver_route(const RouteMsg& msg) {
  const MessageClass cls = msg.payload->message_class();
  net_.traffic().record_delivery(cls);
  net_.traffic().record_route_complete(cls, msg.hops);
  net_.hot().route_hops->add(msg.hops);
  if (app_ != nullptr) app_->on_deliver(msg.target, msg.payload);
}

void PastryNode::handle_route(RouteMsg msg) {
  if (covers(msg.target)) {
    deliver_route(msg);
    return;
  }
  if (msg.hops >= overlay::kMaxRouteHops) {
    net_.hot().route_dropped->inc();
    emit_drop(net_, id_, hop_ref(msg.payload, msg.parent_span),
              DropReason::kMaxHops, msg.hops);
    return;
  }
  const auto nh = next_hop(msg.target);
  if (!nh) {
    net_.hot().route_no_candidate->inc();
    emit_drop(net_, id_, hop_ref(msg.payload, msg.parent_span),
              DropReason::kNoCandidate, msg.hops);
    return;
  }
  const MessageClass cls = msg.payload->message_class();
  RouteMsg out = std::move(msg);
  ++out.hops;
  emit_route_hop(net_, id_, out, out.target);
  transmit(*nh, std::move(out), cls);
}

// ---------------------------------------------------------------------------
// m-cast / chain
// ---------------------------------------------------------------------------

void PastryNode::m_cast(std::vector<Key> keys, PayloadPtr payload) {
  if (keys.empty()) return;
  run_mcast(std::move(keys), payload, 0, /*initiator=*/true);
}

void PastryNode::run_mcast(std::vector<Key> keys, const PayloadPtr& payload,
                           std::uint32_t hops, bool initiator,
                           std::uint64_t parent_span) {
  if (hops >= overlay::kMaxRouteHops) {
    net_.hot().mcast_dropped_keys->inc(keys.size());
    emit_drop(net_, id_, hop_ref(payload, parent_span), DropReason::kMaxHops,
              keys.size());
    return;
  }
  const std::vector<Key> candidates = known_nodes_by_distance();
  const overlay::McastSplit split = overlay::split_mcast(
      net_, id_, [this](Key k) { return covers(k); }, std::move(keys),
      candidates, payload, parent_span,
      [&](const std::vector<Key>& local) {
        deliver_mcast_local(local, payload, initiator);
      });
  const MessageClass cls = payload->message_class();
  for (std::size_t j = 0; j < candidates.size(); ++j) {
    const std::vector<Key>& batch = split.part.delegated[j];
    if (batch.empty()) continue;
    transmit(candidates[j], McastMsg{batch, payload, hops + 1, 0, split.span},
             cls);
  }
}

void PastryNode::deliver_mcast_local(const std::vector<Key>& covered,
                                     const PayloadPtr& payload,
                                     bool initiator) {
  if (app_ == nullptr) return;
  net_.traffic().record_delivery(payload->message_class());
  if (initiator) {
    net_.self_deliver([this, keys = covered, p = payload] {
      app_->on_deliver_mcast(keys, p);
    });
  } else {
    app_->on_deliver_mcast(covered, payload);
  }
}

void PastryNode::chain_cast(std::vector<Key> keys, PayloadPtr payload) {
  if (keys.empty()) return;
  run_chain(std::move(keys), payload, 0, /*initiator=*/true);
}

void PastryNode::run_chain(std::vector<Key> keys, const PayloadPtr& payload,
                           std::uint32_t hops, bool initiator,
                           std::uint64_t parent_span) {
  std::sort(keys.begin(), keys.end(), [this](Key a, Key b) {
    return ring().distance(id_, a) < ring().distance(id_, b);
  });
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  std::vector<Key> covered;
  std::vector<Key> remaining;
  for (Key k : keys) (covers(k) ? covered : remaining).push_back(k);

  if (!covered.empty()) deliver_mcast_local(covered, payload, initiator);
  if (remaining.empty()) return;
  forward_chain(ChainMsg{std::move(remaining), payload, hops, 0, parent_span});
}

void PastryNode::forward_chain(ChainMsg msg) {
  if (msg.hops >= overlay::kMaxRouteHops) {
    net_.hot().chain_dropped->inc();
    emit_drop(net_, id_, hop_ref(msg.payload, msg.parent_span),
              DropReason::kMaxHops, msg.targets.size());
    return;
  }
  if (covers(msg.targets.front())) {
    run_chain(std::move(msg.targets), msg.payload, msg.hops,
              /*initiator=*/false, msg.parent_span);
    return;
  }
  const auto nh = next_hop(msg.targets.front());
  if (!nh) {
    net_.hot().chain_no_candidate->inc();
    emit_drop(net_, id_, hop_ref(msg.payload, msg.parent_span),
              DropReason::kNoCandidate, msg.targets.size());
    return;
  }
  const MessageClass cls = msg.payload->message_class();
  ChainMsg out = std::move(msg);
  ++out.hops;
  emit_route_hop(net_, id_, out, out.targets.front());
  transmit(*nh, std::move(out), cls);
}

// ---------------------------------------------------------------------------
// Neighbor sends
// ---------------------------------------------------------------------------

void PastryNode::send_to_successor(PayloadPtr payload) {
  send_to_neighbor(leaf_succ_, std::move(payload));
}

void PastryNode::send_to_predecessor(PayloadPtr payload) {
  send_to_neighbor(leaf_pred_, std::move(payload));
}

void PastryNode::send_to_neighbor(const std::vector<Key>& leaves,
                                  PayloadPtr payload) {
  if (!leaves.empty()) {
    const MessageClass cls = payload->message_class();
    transmit(leaves.front(), NeighborMsg{std::move(payload)}, cls);
  } else if (app_ != nullptr) {
    net_.self_deliver(
        [this, p = std::move(payload)] { app_->on_deliver(id_, p); });
  }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void PastryNode::receive(Key from, WireMessage msg) {
  const logctx::ScopedNode log_node(id_);
  // Reliability: the link consumes acks and duplicates.
  if (!link_.receive(from, msg, [&](std::uint64_t seq) {
        transmit(from, AckMsg{seq}, MessageClass::kControl);
      })) {
    return;
  }

  std::visit(
      [&](auto&& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, RouteMsg>) {
          handle_route(std::move(m));
        } else if constexpr (std::is_same_v<T, McastMsg>) {
          run_mcast(std::move(m.targets), m.payload, m.hops,
                    /*initiator=*/false, m.parent_span);
        } else if constexpr (std::is_same_v<T, ChainMsg>) {
          if (covers(m.targets.front())) {
            run_chain(std::move(m.targets), m.payload, m.hops,
                      /*initiator=*/false, m.parent_span);
          } else {
            forward_chain(std::move(m));
          }
        } else if constexpr (std::is_same_v<T, NeighborMsg>) {
          if (app_ != nullptr) app_->on_deliver(id_, m.payload);
        }
      },
      msg);
}

}  // namespace cbps::pastry
