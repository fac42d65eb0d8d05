#include "cbps/chord/network.hpp"

#include <algorithm>
#include <utility>

#include "cbps/common/logging.hpp"

namespace cbps::chord {

HotStats::HotStats(metrics::Registry& reg, std::string_view prefix)
    : OverlayStats(reg, prefix) {
  const std::string p(prefix);
  lookup_dropped = reg.counter_handle(p + "lookup_dropped");
  lookup_no_candidate = reg.counter_handle(p + "lookup_no_candidate");
  net_partition_refused = reg.counter_handle(p + "net.partition_refused");
  net_partition_dropped = reg.counter_handle(p + "net.partition_dropped");
  join_retry = reg.counter_handle(p + "join_retry");
  for (std::size_t c = 0; c < overlay::kMessageClassCount; ++c) {
    delay_us_by_class[c] = reg.histogram_handle(
        p + "net.delay_us." +
        std::string(overlay::to_string(static_cast<overlay::MessageClass>(c))));
  }
}

ChordNetwork::ChordNetwork(sim::Simulator& sim, ChordConfig cfg,
                           std::uint64_t seed,
                           std::unique_ptr<sim::LatencyModel> latency)
    : NetworkCore(sim, cfg, seed, std::move(latency), "chord.") {}

ChordNetwork::~ChordNetwork() {
  // Maintenance timers reference the simulator; stop them while the
  // nodes still exist (NetworkCore then cancels their pending sends).
  for (auto& [_, n] : nodes_) n->stop_maintenance();
}

void ChordNetwork::build_static_ring() {
  const std::vector<Key> ids = alive_ids();
  CBPS_ASSERT(!ids.empty());
  const std::size_t n = ids.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Key id = ids[i];
    ChordNode& node = *nodes_.at(id);

    std::optional<Key> pred;
    std::vector<Key> succs;
    if (n > 1) {
      pred = ids[(i + n - 1) % n];
      for (std::size_t j = 1; j <= cfg_.successor_list_size && j < n; ++j) {
        succs.push_back(ids[(i + j) % n]);
      }
    }

    std::vector<Key> fingers(cfg_.ring.bits());
    for (std::size_t f = 0; f < fingers.size(); ++f) {
      const Key start = cfg_.ring.add(id, std::uint64_t{1} << f);
      fingers[f] = oracle_successor(start);
    }
    node.install_state(pred, std::move(succs), std::move(fingers));
  }
}

ChordNode& ChordNetwork::join_node(const std::string& name, Key bootstrap) {
  CBPS_ASSERT_MSG(is_alive(bootstrap), "bootstrap node must be alive");
  ChordNode& node = add_node(name);
  node.begin_join(bootstrap);
  return node;
}

void ChordNetwork::leave_gracefully(Key id) {
  CBPS_ASSERT_MSG(is_alive(id),
                  "leave_gracefully: node is not alive (double removal?)");
  CBPS_ASSERT_MSG(alive_.size() > 1,
                  "leave_gracefully: cannot remove the last alive node");
  nodes_.at(id)->leave_gracefully();
  alive_.erase(std::lower_bound(alive_.begin(), alive_.end(), id));
  // The process is still up (lame duck): it keeps retransmitting its
  // pending reliable sends — the state handover above in particular —
  // and may receive the acks for them. See transmit().
  departed_.insert(id);
}

void ChordNetwork::crash(Key id) {
  CBPS_ASSERT_MSG(is_alive(id),
                  "crash: node is not alive (double removal?)");
  CBPS_ASSERT_MSG(alive_.size() > 1,
                  "crash: cannot remove the last alive node");
  nodes_.at(id)->go_offline();
  alive_.erase(std::lower_bound(alive_.begin(), alive_.end(), id));
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

void ChordNetwork::set_partition(const std::vector<std::vector<Key>>& groups) {
  partition_group_.clear();
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (Key id : groups[g]) partition_group_[id] = static_cast<int>(g);
  }
  partitioned_ = true;
}

void ChordNetwork::heal_partition() {
  partitioned_ = false;
  partition_group_.clear();
}

bool ChordNetwork::reachable(Key a, Key b) const {
  if (!partitioned_) return true;
  const auto group = [this](Key id) {
    const auto it = partition_group_.find(id);
    return it == partition_group_.end() ? -1 : it->second;
  };
  return group(a) == group(b);
}

void ChordNetwork::set_slow_factor(Key id, double factor) {
  CBPS_ASSERT_MSG(factor >= 1.0, "slow factor must be >= 1");
  if (factor == 1.0) {
    slow_factors_.erase(id);
  } else {
    slow_factors_[id] = factor;
  }
}

void ChordNetwork::clear_slow_factors() { slow_factors_.clear(); }

double ChordNetwork::slow_factor(Key id) const {
  const auto it = slow_factors_.find(id);
  return it == slow_factors_.end() ? 1.0 : it->second;
}

void ChordNetwork::set_loss_model(std::unique_ptr<sim::LossModel> model) {
  loss_ = std::move(model);
  // detlint: unordered-ok(every wire gets an identical fresh clone; commutative)
  for (auto& [_, ws] : wire_) {
    ws.loss = loss_ ? loss_->clone() : nullptr;
  }
}

std::size_t ChordNetwork::loss_bad_state_count() const {
  std::size_t n = 0;
  for (Key id : alive_) {
    const auto it = wire_.find(id);
    if (it == wire_.end()) continue;
    const auto* ge =
        dynamic_cast<const sim::GilbertElliottLoss*>(it->second.loss.get());
    if (ge != nullptr && ge->in_bad_state()) ++n;
  }
  return n;
}

void ChordNetwork::start_maintenance_all() {
  for (Key id : alive_) nodes_.at(id)->start_maintenance();
}

void ChordNetwork::stop_maintenance_all() {
  for (Key id : alive_) nodes_.at(id)->stop_maintenance();
}

namespace {

/// Approximate wire size of a message: the shared application messages
/// size themselves (overlay/wire.hpp); state transfers carry their state.
std::size_t wire_size_bytes(const WireMessage& msg) {
  return std::visit(
      [](const auto& m) -> std::size_t {
        using T = std::decay_t<decltype(m)>;
        if constexpr (requires { overlay::wire_size_bytes(m); }) {
          return overlay::wire_size_bytes(m);
        } else if constexpr (std::is_same_v<T, StateTransferMsg>) {
          return m.state ? m.state->size_bytes() : 0;
        } else if constexpr (std::is_same_v<T, PredLeaveMsg>) {
          return (m.state ? m.state->size_bytes() : 0) + 8;
        } else if constexpr (std::is_same_v<T, GetNeighborsReply>) {
          return 8 * (1 + m.successors.size());
        } else {
          return 16;  // small fixed-size control messages
        }
      },
      msg);
}

}  // namespace

bool ChordNetwork::transmit(Key from, Key to, WireMessage msg,
                            overlay::MessageClass cls) {
  if (!is_alive(to)) {
    // Lame-duck exception: a gracefully-departed node is still running
    // and listening for the acks of its draining sends. Everything
    // else bounces — it has left the ring.
    const bool ack_to_lame_duck =
        std::holds_alternative<AckMsg>(msg) && departed_.contains(to);
    if (!ack_to_lame_duck) return false;
  }
  if (!reachable(from, to)) {
    // Partitioned link: the connection attempt fails exactly like a
    // dead peer, so the caller evicts the peer and the successor-list /
    // finger repair machinery takes over inside each side of the cut.
    hot_.net_partition_refused->inc();
    return false;
  }
  traffic_.record_hop(cls, wire_size_bytes(msg));

  // All wire randomness comes from the *sender's* streams, so a node's
  // draws depend only on its own transmission history.
  overlay::WireState& src_wire = wire_.at(from);
  if (src_wire.lost(hot_, cls)) return true;

  const ChordNode& src = *nodes_.at(from);
  auto env = std::make_shared<Envelope>();
  env->from = from;
  env->from_has_pred = src.predecessor().has_value();
  env->from_pred = src.predecessor().value_or(0);
  env->msg = std::move(msg);

  sim::SimTime delay = latency_->sample(src_wire.latency_rng);
  // Gray failure: a slow node stretches every message it touches.
  const double slow = std::max(slow_factor(from), slow_factor(to));
  if (slow > 1.0) {
    delay = static_cast<sim::SimTime>(static_cast<double>(delay) * slow);
  }
  hot_.delay_us_by_class[static_cast<std::size_t>(cls)]->add(
      static_cast<double>(delay));
  // Deliver on the destination's scheduling domain: the receive callback
  // executes as the receiver.
  sim_.schedule_for(wire_.at(to).domain, sim_.now() + delay,
                    [this, from, to, env] {
    // Destination died in flight — except a lame-duck ack: the departed
    // process is still up, waiting for exactly this.
    if (!is_alive(to) && !(std::holds_alternative<AckMsg>(env->msg) &&
                           departed_.contains(to))) {
      return;
    }
    // A partition cut the link while the message was in flight: it is
    // silently lost, and the sender's ack/retry layer must recover it
    // (or fail the send and reroute).
    if (!reachable(from, to)) {
      hot_.net_partition_dropped->inc();
      return;
    }
    nodes_.at(to)->receive(std::move(*env));
  });
  return true;
}

}  // namespace cbps::chord
