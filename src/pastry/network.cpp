#include <algorithm>
#include <utility>

#include "cbps/pastry/pastry.hpp"

namespace cbps::pastry {

PastryNetwork::PastryNetwork(sim::Simulator& sim, PastryConfig cfg,
                             std::uint64_t seed,
                             std::unique_ptr<sim::LatencyModel> latency)
    : NetworkCore(sim, cfg, seed, std::move(latency), "pastry.") {}

void PastryNetwork::build_static_ring() {
  const std::vector<Key>& sorted = alive_;
  const std::size_t n = sorted.size();
  CBPS_ASSERT(n > 0);
  const unsigned m = cfg_.ring.bits();

  for (std::size_t i = 0; i < n; ++i) {
    const Key id = sorted[i];

    std::vector<Key> pred;
    std::vector<Key> succ;
    for (std::size_t j = 1; j <= kLeafSetSize && j < n; ++j) {
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
      auto it = std::lower_bound(alive_.begin(), alive_.end(), lo);
      if (it != alive_.end() && *it <= hi) {
        table[r] = *it;
      }
    }
    nodes_.at(id)->install_state(std::move(pred), std::move(succ),
                                 std::move(table));
  }
}

bool PastryNetwork::transmit(Key from, Key to, WireMessage msg,
                             overlay::MessageClass cls) {
  if (!is_alive(to)) return false;
  traffic_.record_hop(
      cls, std::visit([](const auto& m) { return overlay::wire_size_bytes(m); },
                      msg));

  // Only the sender's own streams are consulted, so a node's draws
  // depend only on its own transmission history.
  overlay::WireState& src_wire = wire_.at(from);
  if (src_wire.lost(hot_, cls)) return true;

  auto boxed = std::make_shared<WireMessage>(std::move(msg));
  const sim::SimTime delay = latency_->sample(src_wire.latency_rng);
  sim_.schedule_for(wire_.at(to).domain, sim_.now() + delay,
                    [this, from, to, boxed] {
                      if (!is_alive(to)) return;
                      nodes_.at(to)->receive(from, std::move(*boxed));
                    });
  return true;
}

}  // namespace cbps::pastry
