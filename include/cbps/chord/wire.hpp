// Wire-level messages exchanged between Chord nodes: the shared
// application messages (overlay/wire.hpp) plus Chord's own lookup,
// stabilization and membership messages.
//
// Everything a node sends travels as one of these variants inside an
// Envelope that also carries the sender's identity and (claimed) covered
// range — receivers learn ring structure passively from every message.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "cbps/common/types.hpp"
#include "cbps/overlay/payload.hpp"
#include "cbps/overlay/wire.hpp"

namespace cbps::chord {

// The application messages every overlay shares (overlay/wire.hpp).
using overlay::AckMsg;
using overlay::ChainMsg;
using overlay::McastMsg;
using overlay::NeighborMsg;
using overlay::RouteMsg;

/// Routing feedback: `owner` covers (owner_range_lo, owner] and delivered
/// a route for the origin; the origin caches this.
struct OwnerInfoMsg {
  Key owner = 0;
  Key owner_range_lo = 0;
};

/// Lookup request: find the node covering `target`; routed like a
/// RouteMsg, the owner replies directly to `reply_to`.
struct FindSuccessorReq {
  Key target = 0;
  Key reply_to = 0;
  std::uint64_t req_id = 0;
  std::uint32_t hops = 0;
};

struct FindSuccessorReply {
  Key target = 0;
  Key owner = 0;
  std::uint64_t req_id = 0;
};

/// Stabilization: ask a node for its predecessor and successor list.
struct GetNeighborsReq {
  Key reply_to = 0;
};

struct GetNeighborsReply {
  bool has_pred = false;
  Key pred = 0;
  std::vector<Key> successors;
};

/// Chord notify(): "I believe I am your predecessor."
struct NotifyPredMsg {};

/// Ask the recipient (our successor) for the application state of keys in
/// (range_lo, range_hi]; used when joining.
struct PullStateReq {
  Key range_lo = 0;
  Key range_hi = 0;
  Key reply_to = 0;
  std::uint64_t seq = 0;  // reliability sequence id (0 = no ack wanted)
};

/// Application state produced by OverlayApp::export_state.
struct StateTransferMsg {
  overlay::PayloadPtr state;
  std::uint64_t seq = 0;  // reliability sequence id (0 = no ack wanted)
};

/// Graceful leave: sent to the successor with the leaver's state.
struct PredLeaveMsg {
  bool has_new_pred = false;
  Key new_pred = 0;
  overlay::PayloadPtr state;
  std::uint64_t seq = 0;  // reliability sequence id (0 = no ack wanted)
};

/// Graceful leave: sent to the predecessor with the leaver's successor.
struct SuccLeaveMsg {
  Key new_succ = 0;
  std::uint64_t seq = 0;  // reliability sequence id (0 = no ack wanted)
};

using WireMessage =
    std::variant<RouteMsg, McastMsg, ChainMsg, NeighborMsg, AckMsg,
                 OwnerInfoMsg, FindSuccessorReq, FindSuccessorReply,
                 GetNeighborsReq, GetNeighborsReply, NotifyPredMsg,
                 PullStateReq, StateTransferMsg, PredLeaveMsg, SuccLeaveMsg>;

/// Sender identity attached to every transmission.
struct Envelope {
  Key from = 0;
  bool from_has_pred = false;
  Key from_pred = 0;  // sender's covered range is (from_pred, from]
  WireMessage msg;
};

}  // namespace cbps::chord
