// A Chord node: key routing, the m-cast primitive, maintenance protocols.
//
// Implements the overlay::OverlayNode interface the CB-pub/sub layer is
// written against. All inter-node communication goes through
// ChordNetwork::transmit, which applies latency and hop accounting.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cbps/chord/config.hpp"
#include "cbps/chord/finger_table.hpp"
#include "cbps/chord/location_cache.hpp"
#include "cbps/chord/wire.hpp"
#include "cbps/overlay/node.hpp"
#include "cbps/overlay/reliable_link.hpp"
#include "cbps/sim/simulator.hpp"

namespace cbps::chord {

class ChordNetwork;

class ChordNode final : public overlay::OverlayNode {
 public:
  /// `domain` is this node's scheduling domain, registered with the
  /// engine by ChordNetwork when the node is created. Every self-owned
  /// event the node schedules (retransmit timers, maintenance) is keyed
  /// by this domain.
  ChordNode(ChordNetwork& net, Key id, std::string name,
            common::Domain domain);

  ChordNode(const ChordNode&) = delete;
  ChordNode& operator=(const ChordNode&) = delete;

  // --- overlay::OverlayNode -------------------------------------------
  Key id() const override { return id_; }
  RingParams ring() const override;
  void send(Key key, overlay::PayloadPtr payload) override;
  void m_cast(std::vector<Key> keys, overlay::PayloadPtr payload) override;
  void chain_cast(std::vector<Key> keys,
                  overlay::PayloadPtr payload) override;
  void send_to_successor(overlay::PayloadPtr payload) override;
  void send_to_predecessor(overlay::PayloadPtr payload) override;
  Key successor_id() const override {
    return succs_.empty() ? id_ : succs_.front();
  }
  Key predecessor_id() const override { return has_pred_ ? pred_ : id_; }
  void set_app(overlay::OverlayApp* app) override { app_ = app; }

  // --- identity / introspection ---------------------------------------
  const std::string& name() const { return name_; }
  overlay::OverlayApp* app() const { return app_; }
  common::Domain domain() const override { return domain_; }

  /// Whether this node covers key `k`, i.e. k in (pred, id]. A node with
  /// no known predecessor accepts everything routed to it (routing is
  /// then authoritative).
  bool covers(Key k) const;

  std::optional<Key> predecessor() const {
    return has_pred_ ? std::optional<Key>(pred_) : std::nullopt;
  }
  const std::vector<Key>& successor_list() const { return succs_; }
  const FingerTable& finger_table() const { return fingers_; }
  const LocationCache& location_cache() const { return cache_; }

  // --- ring membership (driven by ChordNetwork) ------------------------
  /// Install exact routing state (static topology construction).
  void install_state(std::optional<Key> pred, std::vector<Key> succs,
                     std::vector<Key> finger_nodes);

  /// Start the dynamic join protocol via a bootstrap node.
  void begin_join(Key bootstrap);

  /// Hand state to the successor, tell neighbors, and go offline.
  void leave_gracefully();

  /// Abrupt crash: stop maintenance, drop pending sends, and refuse to
  /// run any still-scheduled callback (self-deliveries, join retries) —
  /// a dead process executes nothing.
  void go_offline();
  bool offline() const { return offline_; }

  /// Enable/disable the periodic stabilize/fix-fingers/check-pred loop.
  void start_maintenance();
  void stop_maintenance();

  /// Drop the pending-send (ack/retry) table and cancel its timers.
  /// Called when this node goes offline; retransmitting from a dead
  /// node would be physically wrong.
  void cancel_pending_sends() { link_.cancel_all(); }

  /// Reliable sends awaiting acknowledgment (introspection for tests).
  std::size_t pending_send_count() const { return link_.pending(); }

  /// Current retransmission timeout toward `peer`: the Jacobson
  /// SRTT + 4*RTTVAR estimate once a clean RTT sample exists, the
  /// configured retry_base before that (introspection for tests).
  sim::SimTime current_rto(Key peer) const { return link_.rto(peer); }

  /// Peers evicted as unreachable, kept for post-partition re-merge
  /// probing (introspection for tests).
  std::vector<Key> remembered_contacts() const {
    return {remembered_.begin(), remembered_.end()};
  }

  /// Entry point for messages arriving from the network.
  void receive(Envelope env);

 private:
  const ChordConfig& config() const;

  // Transmission helper: returns false (and evicts `to` from all local
  // state) when the peer is dead. When the reliability layer is armed
  // (config().reliable_transport()) and the message is ack-eligible,
  // the link tracks the send for timer-driven retransmission.
  bool transmit(Key to, WireMessage msg, overlay::MessageClass cls);
  // The link's failure policy: a reliable send's peer died mid-retry.
  bool on_send_dead(Key dead, WireMessage msg);
  void on_peer_dead(Key peer);

  /// Best next hop toward `key` among successors, fingers, predecessor
  /// and the location cache; nullopt when this node covers `key` or has
  /// no live candidate. Not const: a location-cache hit refreshes the
  /// entry's LRU position.
  std::optional<Key> next_hop(Key key);
  std::optional<Key> closest_preceding(Key key) const;

  // Message handlers.
  void handle_route(RouteMsg msg);
  void deliver_route(const RouteMsg& msg);
  void forward_route(RouteMsg msg);
  void run_mcast(std::vector<Key> keys, const overlay::PayloadPtr& payload,
                 std::uint32_t hops, bool initiator,
                 std::uint64_t parent_span = 0);
  /// Hand the m-cast/chain targets this node covers to the app: inline
  /// at a relay, as a self-delivery at the initiator.
  void deliver_mcast_local(const std::vector<Key>& covered,
                           const overlay::PayloadPtr& payload,
                           bool initiator);
  void handle_chain(ChainMsg msg);
  void run_chain(std::vector<Key> keys, const overlay::PayloadPtr& payload,
                 std::uint32_t hops, bool initiator,
                 std::uint64_t parent_span = 0);
  void forward_chain(ChainMsg msg);
  /// Neighbor-send fallback with no live neighbor: a local delivery.
  void deliver_to_self(overlay::PayloadPtr payload);
  void handle_find_successor(FindSuccessorReq msg);
  void handle_find_successor_reply(const FindSuccessorReply& msg);
  void handle_get_neighbors(const GetNeighborsReq& msg);
  void handle_get_neighbors_reply(const GetNeighborsReply& msg, Key from);
  void handle_notify_pred(Key candidate);
  void handle_pull_state(const PullStateReq& msg);
  void handle_pred_leave(const PredLeaveMsg& msg, Key from);
  void handle_succ_leave(const SuccLeaveMsg& msg, Key from);

  // Maintenance.
  void maintenance_tick();
  void stabilize();
  void fix_fingers();
  void check_predecessor();
  void adopt_predecessor(Key candidate);
  void set_successor_front(Key s);

  ChordNetwork& net_;
  Key id_;
  std::string name_;
  common::Domain domain_ = common::kGlobalDomain;
  overlay::OverlayApp* app_ = nullptr;

  bool has_pred_ = false;
  Key pred_ = 0;
  std::vector<Key> succs_;  // nearest first; never contains id_
  FingerTable fingers_;
  LocationCache cache_;

  bool joining_ = false;
  Key join_bootstrap_ = 0;
  sim::Simulator::TimerId maintenance_timer_ = 0;

  // fix_fingers bookkeeping: req_id -> finger index.
  std::uint64_t next_req_id_ = 1;
  std::unordered_map<std::uint64_t, std::size_t> pending_finger_fixes_;
  static constexpr std::uint64_t kJoinReqId = ~std::uint64_t{0};

  // Ack/retry reliability layer (armed only when the network injects
  // loss).
  overlay::ReliableLink<ChordNetwork, WireMessage> link_;

  // Peers this node evicted as unreachable. During a partition the far
  // side of the cut accumulates here; after heal, maintenance probes
  // each remembered contact (GetNeighborsReq) so the split rings find
  // each other again and stabilization re-merges them. Bounded; an
  // entry leaves when any envelope arrives from that peer.
  static constexpr std::size_t kMaxRemembered = 16;
  void remember_contact(Key peer);
  void probe_remembered();
  std::unordered_set<Key> remembered_;

  bool offline_ = false;
};

}  // namespace cbps::chord
