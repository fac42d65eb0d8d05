// A Pastry-style prefix-routing overlay (Rowstron & Druschel,
// Middleware '01) implementing the same overlay::OverlayNode interface
// as the Chord substrate.
//
// The paper claims its architecture "can use any overlay routing scheme"
// (§3.1 footnote 1); this module demonstrates that portability: the
// whole CB-pub/sub layer runs unchanged on top of prefix routing.
//
// Design notes:
//  - Node identifiers live on the same 2^m ring; a node covers
//    (predecessor, id], the successor convention the pub/sub layer
//    assumes, with the predecessor taken from the leaf set.
//  - The routing table has one row per identifier bit: row i points to a
//    node that shares the top i bits with this node and differs at bit
//    i (binary Plaxton routing, O(log N) hops).
//  - The leaf set holds the nearest ring neighbors on both sides and
//    finishes every route.
//  - m-cast reuses the shared Figure-4 step (overlay::split_mcast), with
//    routing-table + leaf nodes as delegation candidates — every node
//    still receives the multicast at most once.
//  - Everything else on the wire is shared with Chord and lives in
//    overlay/: the five application messages, the per-sender wire
//    streams, the registry handles (overlay::OverlayStats, "pastry."
//    prefix), the network container (overlay::NetworkCore) and the
//    ack/retry link. This module is the routing state (leaf set +
//    prefix table), its route/chain forwarding and the static ring
//    builder.
//  - The network supports statically built topologies (the membership
//    dynamics of the paper's evaluation run on Chord).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "cbps/common/ring.hpp"
#include "cbps/overlay/node.hpp"
#include "cbps/overlay/payload.hpp"
#include "cbps/overlay/reliable_link.hpp"
#include "cbps/overlay/wire.hpp"
#include "cbps/sim/latency.hpp"
#include "cbps/sim/simulator.hpp"

namespace cbps::pastry {

/// Leaf-set entries per side.
inline constexpr std::size_t kLeafSetSize = 4;

struct PastryConfig {
  RingParams ring{13};

  /// Fault injection + ack/retry reliability, mirroring ChordConfig:
  /// a non-zero loss rate drops transmissions uniformly at random and
  /// arms hop-by-hop acks for application traffic; 0 disables both.
  double loss_rate = 0.0;
  std::uint32_t max_retries = 5;
  sim::SimTime retry_base = sim::ms(250);
  bool reliable_transport() const { return loss_rate > 0.0; }
};

// Wire messages (static topology: application traffic only). A
// RouteMsg's `origin` is set but never read: Pastry sends no owner
// feedback.
using overlay::AckMsg;
using overlay::ChainMsg;
using overlay::McastMsg;
using overlay::NeighborMsg;
using overlay::RouteMsg;
using WireMessage =
    std::variant<RouteMsg, McastMsg, ChainMsg, NeighborMsg, AckMsg>;

class PastryNetwork;

class PastryNode final : public overlay::OverlayNode {
 public:
  /// `domain` is this node's scheduling domain, registered with the
  /// engine by PastryNetwork (see ChordNode for the contract).
  PastryNode(PastryNetwork& net, Key id, std::string name,
             common::Domain domain);

  PastryNode(const PastryNode&) = delete;
  PastryNode& operator=(const PastryNode&) = delete;

  // --- overlay::OverlayNode --------------------------------------------
  Key id() const override { return id_; }
  RingParams ring() const override;
  void send(Key key, overlay::PayloadPtr payload) override;
  void m_cast(std::vector<Key> keys, overlay::PayloadPtr payload) override;
  void chain_cast(std::vector<Key> keys,
                  overlay::PayloadPtr payload) override;
  void send_to_successor(overlay::PayloadPtr payload) override;
  void send_to_predecessor(overlay::PayloadPtr payload) override;
  Key successor_id() const override;
  Key predecessor_id() const override;
  void set_app(overlay::OverlayApp* app) override { app_ = app; }

  // --- introspection ------------------------------------------------------
  const std::string& name() const { return name_; }
  common::Domain domain() const override { return domain_; }
  bool covers(Key k) const;
  const std::vector<std::optional<Key>>& routing_table() const {
    return table_;
  }
  const std::vector<Key>& leaf_predecessors() const { return leaf_pred_; }
  const std::vector<Key>& leaf_successors() const { return leaf_succ_; }

  /// Install exact state (static topology construction). Leaves are
  /// nearest-first; table entry i shares i top bits and differs at bit i.
  void install_state(std::vector<Key> leaf_pred, std::vector<Key> leaf_succ,
                     std::vector<std::optional<Key>> table);

  void receive(Key from, WireMessage msg);

  /// Drop the pending-send (ack/retry) table and cancel its timers.
  void cancel_pending_sends() { link_.cancel_all(); }
  std::size_t pending_send_count() const { return link_.pending(); }

 private:
  bool transmit(Key to, WireMessage msg, overlay::MessageClass cls);

  /// Next hop toward `key`: leaf set if in range, else prefix routing,
  /// else the closest preceding known node (guaranteed progress).
  std::optional<Key> next_hop(Key key) const;
  /// Number of leading bits `key` shares with this node's id.
  unsigned shared_prefix_bits(Key key) const;
  std::vector<Key> known_nodes_by_distance() const;

  void handle_route(RouteMsg msg);
  void deliver_route(const RouteMsg& msg);
  void run_mcast(std::vector<Key> keys, const overlay::PayloadPtr& payload,
                 std::uint32_t hops, bool initiator,
                 std::uint64_t parent_span = 0);
  /// Hand the m-cast/chain targets this node covers to the app: inline
  /// at a relay, as a self-delivery at the initiator.
  void deliver_mcast_local(const std::vector<Key>& covered,
                           const overlay::PayloadPtr& payload,
                           bool initiator);
  void run_chain(std::vector<Key> keys, const overlay::PayloadPtr& payload,
                 std::uint32_t hops, bool initiator,
                 std::uint64_t parent_span = 0);
  void forward_chain(ChainMsg msg);
  /// Neighbor send to the nearest of `leaves`; alone, a local delivery.
  void send_to_neighbor(const std::vector<Key>& leaves,
                        overlay::PayloadPtr payload);

  PastryNetwork& net_;
  Key id_;
  std::string name_;
  common::Domain domain_ = common::kGlobalDomain;
  overlay::OverlayApp* app_ = nullptr;

  std::vector<Key> leaf_pred_;  // nearest first (counter-clockwise)
  std::vector<Key> leaf_succ_;  // nearest first (clockwise)
  std::vector<std::optional<Key>> table_;  // one row per identifier bit

  overlay::ReliableLink<PastryNetwork, WireMessage> link_;
};

/// Simulation container: owns the nodes, the wire and a routing oracle
/// (overlay::NetworkCore); every node is alive.
class PastryNetwork final
    : public overlay::NetworkCore<PastryNetwork, PastryNode, PastryConfig,
                                  overlay::OverlayStats> {
 public:
  PastryNetwork(sim::Simulator& sim, PastryConfig cfg,
                std::uint64_t seed,
                std::unique_ptr<sim::LatencyModel> latency = nullptr);

  /// Build exact leaf sets and routing tables for all nodes.
  void build_static_ring();

  bool transmit(Key from, Key to, WireMessage msg,
                overlay::MessageClass cls);
};

}  // namespace cbps::pastry
