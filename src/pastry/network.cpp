#include <algorithm>
#include <utility>

#include "cbps/common/hash.hpp"
#include "cbps/pastry/pastry.hpp"

namespace cbps::pastry {

PastryNetwork::HotStats::HotStats(metrics::Registry& reg)
    : send_to_dead(reg.counter_handle("pastry.send_to_dead")),
      route_dropped(reg.counter_handle("pastry.route_dropped")),
      route_no_candidate(reg.counter_handle("pastry.route_no_candidate")),
      mcast_dropped_keys(reg.counter_handle("pastry.mcast_dropped_keys")),
      chain_dropped(reg.counter_handle("pastry.chain_dropped")),
      chain_no_candidate(reg.counter_handle("pastry.chain_no_candidate")),
      net_lost(reg.counter_handle("pastry.net.lost")),
      route_hops(reg.histogram_handle("pastry.route_hops")),
      mcast_fanout(reg.histogram_handle("pastry.mcast_fanout")),
      link(reg, "pastry.") {
  for (std::size_t c = 0; c < overlay::kMessageClassCount; ++c) {
    net_lost_by_class[c] = reg.counter_handle(
        std::string("pastry.net.lost.") +
        std::string(overlay::to_string(static_cast<overlay::MessageClass>(c))));
  }
}

PastryNetwork::PastryNetwork(sim::SimulatorBase& sim, PastryConfig cfg,
                             std::uint64_t seed,
                             std::unique_ptr<sim::LatencyModel> latency)
    : sim_(sim),
      cfg_(cfg),
      seed_(seed),
      rng_(seed),
      latency_(latency ? std::move(latency) : sim::default_latency()) {
  if (cfg_.loss_rate > 0.0) {
    loss_ = std::make_unique<sim::UniformLoss>(cfg_.loss_rate);
  }
}

PastryNetwork::~PastryNetwork() {
  // Retry timers reference the simulator and capture node pointers;
  // cancel them while the nodes still exist.
  for (auto& [_, n] : nodes_) n->cancel_pending_sends();
}

PastryNode& PastryNetwork::add_node(const std::string& name) {
  Key id = consistent_hash(name, cfg_.ring);
  int salt = 0;
  while (nodes_.contains(id)) {
    id = consistent_hash(name + "#" + std::to_string(salt++), cfg_.ring);
  }
  return add_node_with_id(id, name);
}

PastryNode& PastryNetwork::add_node_with_id(Key id, std::string name) {
  CBPS_ASSERT(!nodes_.contains(id));
  // Wire streams are pure functions of (run seed, node id): identical
  // regardless of engine flavor or node-creation order.
  WireState ws{sim_.register_domain(),
               Rng(mix64(seed_ ^ mix64(id))),
               Rng(mix64(seed_ ^ mix64(id) ^ 0x9e3779b97f4a7c15ull)),
               loss_ ? loss_->clone() : nullptr};
  auto node =
      std::make_unique<PastryNode>(*this, id, std::move(name), ws.domain);
  PastryNode& ref = *node;
  nodes_.emplace(id, std::move(node));
  wire_.emplace(id, std::move(ws));
  ids_.insert(std::lower_bound(ids_.begin(), ids_.end(), id), id);
  return ref;
}

void PastryNetwork::build_static_ring() {
  const std::vector<Key>& sorted = ids_;
  const std::size_t n = sorted.size();
  CBPS_ASSERT(n > 0);
  const unsigned m = cfg_.ring.bits();

  for (std::size_t i = 0; i < n; ++i) {
    const Key id = sorted[i];

    std::vector<Key> pred;
    std::vector<Key> succ;
    for (std::size_t j = 1; j <= cfg_.leaf_set_size && j < n; ++j) {
      pred.push_back(sorted[(i + n - j) % n]);
      succ.push_back(sorted[(i + j) % n]);
    }

    // Routing table: row r holds some node sharing the top r bits with
    // `id` and differing at bit r (bit 0 = most significant). The id
    // subtree with that prefix is a contiguous key interval.
    std::vector<std::optional<Key>> table(m);
    for (unsigned r = 0; r < m; ++r) {
      const unsigned low_bits = m - r - 1;
      const Key prefix = id >> (low_bits + 1);
      const Key flipped_bit = ((id >> low_bits) & 1) ^ 1;
      const Key lo = ((prefix << 1) | flipped_bit) << low_bits;
      const Key hi = lo | ((Key{1} << low_bits) - 1);
      auto it = std::lower_bound(ids_.begin(), ids_.end(), lo);
      if (it != ids_.end() && *it <= hi) {
        table[r] = *it;
      }
    }
    nodes_.at(id)->install_state(std::move(pred), std::move(succ),
                                 std::move(table));
  }
}

PastryNode* PastryNetwork::node(Key id) {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

PastryNode& PastryNetwork::node_at(std::size_t i) {
  CBPS_ASSERT(i < ids_.size());
  return *nodes_.at(ids_[i]);
}

Key PastryNetwork::oracle_successor(Key key) const {
  CBPS_ASSERT(!ids_.empty());
  auto it = std::lower_bound(ids_.begin(), ids_.end(), key);
  return it == ids_.end() ? ids_.front() : *it;
}

namespace {

std::size_t wire_size_bytes(const WireMessage& msg) {
  return std::visit(
      [](const auto& m) -> std::size_t {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, RouteMsg>) {
          return m.payload->size_bytes() + 8;
        } else if constexpr (std::is_same_v<T, McastMsg> ||
                             std::is_same_v<T, ChainMsg>) {
          return m.payload->size_bytes() + 8 * m.targets.size();
        } else if constexpr (std::is_same_v<T, NeighborMsg>) {
          return m.payload->size_bytes();
        } else {
          return 16;  // AckMsg
        }
      },
      msg);
}

}  // namespace

bool PastryNetwork::transmit(Key from, Key to, WireMessage msg,
                             overlay::MessageClass cls) {
  if (!std::binary_search(ids_.begin(), ids_.end(), to)) return false;
  traffic_.record_hop(cls, wire_size_bytes(msg));

  // Only the sender's own streams are consulted, so a transmit issued
  // from node `from`'s event (or from exclusive global context) never
  // races with other shards.
  WireState& src_wire = wire_.at(from);
  if (src_wire.loss != nullptr && src_wire.loss->drop(src_wire.loss_rng)) {
    // The message hit the wire (hop/bytes recorded) but never arrives.
    hot_.net_lost->inc();
    hot_.net_lost_by_class[static_cast<std::size_t>(cls)]->inc();
    return true;
  }

  auto boxed = std::make_shared<WireMessage>(std::move(msg));
  const sim::SimTime delay = latency_->sample(src_wire.latency_rng);
  sim_.schedule_for(wire_.at(to).domain, sim_.now() + delay,
                    [this, from, to, boxed] {
                      if (!std::binary_search(ids_.begin(), ids_.end(), to))
                        return;
                      nodes_.at(to)->receive(from, std::move(*boxed));
                    });
  return true;
}

void PastryNetwork::self_deliver(std::function<void()> action) {
  sim_.schedule_after(0, std::move(action));
}

}  // namespace cbps::pastry
