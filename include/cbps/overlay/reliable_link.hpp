// Hop-by-hop ack/retry reliability, one implementation for every overlay.
//
// Armed only when the wire can lose messages (the overlay config's
// reliable_transport()). An ack-eligible send — a wire message type with
// a `seq` field, in any class but gossip — is stamped with a per-sender
// sequence id, parked, and retransmitted with exponential backoff until
// the next hop acks it or `max_retries` is spent. The receiver acks every
// stamped message and suppresses retransmits it already processed.
//
// The link never asks which overlay it serves. Three things stay with
// the node: the failure policy for a peer found dead mid-retry (the link
// hands the message back), the ack send itself (through the node's own
// transmit, so a dead sender is evicted the node's way), and the RTO
// inputs (LinkParams).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <variant>

#include "cbps/common/exec_context.hpp"
#include "cbps/common/types.hpp"
#include "cbps/metrics/registry.hpp"
#include "cbps/metrics/trace.hpp"
#include "cbps/overlay/payload.hpp"
#include "cbps/sim/simulator.hpp"

namespace cbps::overlay {

/// Trace context for the next span at this hop: the payload's sampled
/// trace, re-parented on the previous hop's span when one is carried on
/// the wire message.
inline metrics::TraceRef hop_ref(const PayloadPtr& payload,
                                 std::uint64_t parent_span) {
  metrics::TraceRef t = payload ? payload->trace : metrics::TraceRef{};
  if (parent_span != 0) t.parent_span = parent_span;
  return t;
}

/// Record an instant span of `kind` by `node` at the current sim time; a
/// no-op returning 0 when `net` has no trace sink or `t` is unsampled.
/// The returned span id parents the next hop's spans.
template <class Net>
std::uint64_t emit_span(Net& net, Key node, const metrics::TraceRef& t,
                        metrics::SpanKind kind, std::uint64_t a = 0,
                        std::uint64_t b = 0) {
  metrics::TraceSink* ts = net.trace_sink();
  if (ts == nullptr || !t.sampled()) return 0;
  const sim::SimTime now = net.sim().now();
  return ts->emit(t, kind, node, now, now, a, b);
}

/// A kDrop span: `node` abandoned `n` messages or keys for reason `why`.
template <class Net>
void emit_drop(Net& net, Key node, const metrics::TraceRef& t,
               metrics::DropReason why, std::uint64_t n = 0) {
  emit_span(net, node, t, metrics::SpanKind::kDrop,
            static_cast<std::uint64_t>(why), n);
}

/// A kRouteHop span (a = `target`, b = hops so far) for forwarding wire
/// message `msg`, re-parenting `msg` on it so the next hop's span chains
/// to this one.
template <class Net, class Msg>
void emit_route_hop(Net& net, Key node, Msg& msg, Key target) {
  if (const auto span =
          emit_span(net, node, hop_ref(msg.payload, msg.parent_span),
                    metrics::SpanKind::kRouteHop, target, msg.hops);
      span != 0) {
    msg.parent_span = span;
  }
}

/// Trace context of any wire message (unsampled for payload-free ones).
template <class... Ts>
metrics::TraceRef wire_ref(const std::variant<Ts...>& msg) {
  return std::visit(
      [](const auto& m) -> metrics::TraceRef {
        if constexpr (requires { m.payload; m.parent_span; }) {
          return hop_ref(m.payload, m.parent_span);
        } else if constexpr (requires { m.payload; }) {
          return m.payload ? m.payload->trace : metrics::TraceRef{};
        } else {
          return {};
        }
      },
      msg);
}

/// Pointer to the reliability sequence field of ack-eligible message
/// types, nullptr for everything else. An ack carries `acked_seq`, not
/// `seq`, so acks never look like ack-requesting traffic themselves.
template <class... Ts>
std::uint64_t* seq_field(std::variant<Ts...>& msg) {
  return std::visit(
      [](auto& m) -> std::uint64_t* {
        if constexpr (requires { m.seq; }) {
          return &m.seq;
        } else {
          return nullptr;
        }
      },
      msg);
}

/// Registry handles of the link's stats, resolved once per network under
/// the overlay's counter prefix ("chord.", "pastry.").
struct LinkStats {
  LinkStats(metrics::Registry& reg, std::string_view prefix)
      : retransmits(reg.counter_handle(std::string(prefix) + "retransmits")),
        send_failed(reg.counter_handle(std::string(prefix) + "send_failed")),
        dup_suppressed(
            reg.counter_handle(std::string(prefix) + "dup_suppressed")),
        retries_per_send(reg.histogram_handle(std::string(prefix) +
                                              "retries_per_send")) {}

  metrics::Counter* retransmits;
  metrics::Counter* send_failed;  // budget spent, or peer dead mid-retry
  metrics::Counter* dup_suppressed;
  metrics::Histogram* retries_per_send;
};

struct LinkParams {
  bool armed = false;  // the overlay config's reliable_transport()
  std::uint32_t max_retries = 5;
  /// First retry timeout (before any RTT sample toward the peer, or
  /// always without adaptive_rto); doubles after every retry.
  sim::SimTime retry_base = sim::ms(250);
  /// Jacobson/Karn: the first retry timeout becomes SRTT + 4*RTTVAR of
  /// the link, clamped to [rto_min, kRtoMax].
  bool adaptive_rto = false;
  sim::SimTime rto_min = 0;
};

/// `Net` provides transmit(from, to, Msg, MessageClass) -> bool (false:
/// `to` is dead, nothing sent), sim() and trace_sink(); `Msg` is its wire
/// variant.
template <class Net, class Msg>
class ReliableLink {
 public:
  /// Ceiling of the adaptive retransmission timeout.
  static constexpr sim::SimTime kRtoMax = sim::sec(30);

  /// Failure policy for a send whose peer died mid-retry. Gets the
  /// message with its seq cleared (a re-send is stamped afresh); returns
  /// false to have the link count a failed send.
  using DeadPeerFn = std::function<bool(Key dead, Msg msg)>;

  /// Retry timers are scheduled under the owning node's `domain`, so
  /// they are keyed by the node's own event history.
  ReliableLink(Net& net, Key self, common::Domain domain,
               const LinkStats& stats, LinkParams params,
               DeadPeerFn on_dead_peer)
      : net_(net), sim_(net.sim()), self_(self), domain_(domain),
        stats_(stats), params_(params),
        on_dead_peer_(std::move(on_dead_peer)) {}

  ReliableLink(const ReliableLink&) = delete;
  ReliableLink& operator=(const ReliableLink&) = delete;

  /// Transmit `msg`, reliably when armed and ack-eligible. Gossip rides
  /// best-effort even on a reliable wire: the epidemic's own redundancy
  /// (fan-out + anti-entropy repair) is its loss recovery, and per-hop
  /// acks would double-charge the overhead the benches compare. Returns
  /// false when `to` is dead (nothing parked).
  bool send(Key to, Msg msg, MessageClass cls) {
    std::uint64_t* seq = params_.armed && cls != MessageClass::kGossip
                             ? seq_field(msg)
                             : nullptr;
    if (seq == nullptr) return net_.transmit(self_, to, std::move(msg), cls);
    const std::uint64_t s = *seq = next_seq_++;
    if (!net_.transmit(self_, to, msg, cls)) return false;
    const sim::SimTime timeout = rto(to);
    // The parked message is the retransmission copy (payload shared).
    pending_.emplace(s, Pending{to, cls, timeout, sim_.now(), 0,
                                schedule_retry(s, timeout), std::move(msg)});
    return true;
  }

  /// Receiver side, before the node handles `msg`: consumes acks; acks a
  /// stamped message through `send_ack(seq)` — unconditionally, since a
  /// duplicate means our previous ack was lost — and suppresses it if
  /// already processed. Returns true when the node should handle `msg`.
  template <class SendAck>
  bool receive(Key from, const Msg& msg, SendAck&& send_ack) {
    return std::visit(
        [&](const auto& m) {
          if constexpr (requires { m.acked_seq; }) {
            on_ack(m.acked_seq);
            return false;
          } else if constexpr (requires { m.seq; }) {
            if (m.seq == 0) return true;
            send_ack(m.seq);
            if (seen_[from].insert(m.seq).second) return true;
            stats_.dup_suppressed->inc();
            emit_drop(net_, self_, wire_ref(msg),
                      metrics::DropReason::kDuplicate);
            return false;
          } else {
            return true;
          }
        },
        msg);
  }

  /// Drop every pending send and cancel its timer.
  void cancel_all() {
    // detlint: unordered-ok(cancel marks slots stale; commutative, no output)
    for (auto& [_, p] : pending_) sim_.cancel(p.timer);
    pending_.clear();
  }

  /// Reliable sends awaiting acknowledgment.
  std::size_t pending() const { return pending_.size(); }

  /// First retry timeout of the next reliable send toward `peer`.
  sim::SimTime rto(Key peer) const {
    const auto it = rtt_.find(peer);
    if (!params_.adaptive_rto || it == rtt_.end()) return params_.retry_base;
    const double rto = it->second.srtt_us + 4.0 * it->second.rttvar_us;
    return std::clamp(static_cast<sim::SimTime>(rto), params_.rto_min,
                      kRtoMax);
  }

 private:
  struct Pending {
    Key to;
    MessageClass cls;
    sim::SimTime timeout;  // current backoff; doubles per retry
    sim::SimTime sent_at;  // original transmission time (RTT sample)
    std::uint32_t retries;
    sim::Simulator::EventId timer;
    Msg msg;
  };

  sim::Simulator::EventId schedule_retry(std::uint64_t seq,
                                         sim::SimTime timeout) {
    // Keyed by the node even when the send was issued from a driver's
    // global-context callback.
    const common::ActorScope as(domain_);
    return sim_.schedule_after(timeout, [this, seq] { retransmit(seq); });
  }

  void retransmit(std::uint64_t seq) {
    auto it = pending_.find(seq);
    if (it == pending_.end()) return;  // acked since the timer fired
    Pending& p = it->second;
    if (p.retries >= params_.max_retries) {
      stats_.send_failed->inc();
      stats_.retries_per_send->add(p.retries);
      emit_drop(net_, self_, wire_ref(p.msg),
                metrics::DropReason::kRetryBudget, p.retries);
      pending_.erase(it);
      return;
    }
    ++p.retries;
    stats_.retransmits->inc();
    emit_span(net_, self_, wire_ref(p.msg), metrics::SpanKind::kRetry,
              p.retries);
    if (net_.transmit(self_, p.to, p.msg, p.cls)) {
      p.timeout *= 2;  // exponential backoff
      p.timer = schedule_retry(seq, p.timeout);
      return;
    }
    const Key dead = p.to;
    Msg msg = std::move(p.msg);
    pending_.erase(it);
    *seq_field(msg) = 0;
    if (!on_dead_peer_(dead, std::move(msg))) stats_.send_failed->inc();
  }

  void on_ack(std::uint64_t seq) {
    auto it = pending_.find(seq);
    if (it == pending_.end()) return;  // late ack of a retransmit
    const Pending& p = it->second;
    stats_.retries_per_send->add(p.retries);
    // Karn's rule: only never-retransmitted sends yield RTT samples — an
    // ack after a retransmission is ambiguous about which copy it answers.
    if (p.retries == 0 && params_.adaptive_rto) {
      const double r = static_cast<double>(sim_.now() - p.sent_at);
      // RFC 6298 initialization: SRTT = R, RTTVAR = R/2.
      const auto [rtt, first] = rtt_.try_emplace(p.to, Rtt{r, r / 2.0});
      if (!first) {
        // Jacobson's EWMA (alpha = 1/8, beta = 1/4), variance first.
        Rtt& s = rtt->second;
        const double err = r - s.srtt_us;
        s.rttvar_us += ((err < 0 ? -err : err) - s.rttvar_us) / 4.0;
        s.srtt_us += err / 8.0;
      }
    }
    sim_.cancel(p.timer);
    pending_.erase(it);
  }

  Net& net_;
  sim::Simulator& sim_;
  Key self_;
  common::Domain domain_;
  LinkStats stats_;
  LinkParams params_;
  DeadPeerFn on_dead_peer_;

  // Sender side: reliable sends parked by sequence id until acked or out
  // of retries, and the per-peer Jacobson/Karn RTT estimate.
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t next_seq_ = 1;
  struct Rtt {
    double srtt_us;
    double rttvar_us;
  };
  std::unordered_map<Key, Rtt> rtt_;
  // Receiver side: per-sender ids already processed (a retransmit whose
  // ack was lost must be re-acked, not re-processed).
  std::unordered_map<Key, std::unordered_set<std::uint64_t>> seen_;
};

}  // namespace cbps::overlay
