// Target-set partitioning for the m-cast primitive (paper §4.3.1,
// Figure 4), shared by every overlay implementation.
//
// Given the local node, its covered-range predicate and its routing
// candidates (finger/routing-table/leaf-set nodes) sorted by ring
// distance, the partition assigns:
//   - covered targets to local delivery,
//   - targets in (self, candidates[0]] to the first candidate (the ring
//     successor, which covers them),
//   - every other target to the farthest candidate *strictly* preceding
//     it, so a whole segment (c_i, c_{i+1}] travels in one message and
//     every node receives the multicast at most once.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "cbps/common/ring.hpp"
#include "cbps/common/types.hpp"
#include "cbps/metrics/trace.hpp"
#include "cbps/overlay/payload.hpp"
#include "cbps/overlay/reliable_link.hpp"

namespace cbps::overlay {

struct McastPartition {
  /// Targets this node covers (deliver locally), sorted by ring distance.
  std::vector<Key> local;
  /// Per-candidate delegated target batches; parallel to the candidate
  /// vector passed in (empty batches for unused candidates).
  std::vector<std::vector<Key>> delegated;
  /// Targets with no viable candidate (only when `candidates` is empty).
  std::vector<Key> undeliverable;
};

/// `candidates` must be sorted by increasing ring distance from `self`
/// and must not contain `self`. `covers` decides local delivery.
McastPartition partition_mcast_targets(
    RingParams ring, Key self, const std::function<bool(Key)>& covers,
    std::vector<Key> targets, const std::vector<Key>& candidates);

struct McastSplit {
  McastPartition part;
  /// Trace span the delegated McastMsgs chain to: the kMcastSplit span,
  /// or the incoming parent span when nothing was delegated or traced.
  std::uint64_t span = 0;
};

/// One m-cast step at `self`: partition `keys` over `candidates`, hand
/// the covered subset to `deliver_local` (when non-empty), count and
/// drop the undeliverable keys (kMcastDead), and account the split —
/// one `mcast_fanout` sample and one kMcastSplit span (a = local plus
/// delegated keys, b = non-empty branches) when anything is delegated.
/// The caller then transmits part.delegated[j] to candidates[j].
/// `Net` provides ring(), hot() (OverlayStats), sim() and trace_sink().
template <class Net, class Covers, class DeliverLocal>
McastSplit split_mcast(Net& net, Key self, Covers&& covers,
                       std::vector<Key> keys,
                       const std::vector<Key>& candidates,
                       const PayloadPtr& payload, std::uint64_t parent_span,
                       DeliverLocal&& deliver_local) {
  McastSplit out{partition_mcast_targets(net.ring(), self,
                                         std::forward<Covers>(covers),
                                         std::move(keys), candidates),
                 parent_span};
  const McastPartition& part = out.part;
  if (!part.local.empty()) deliver_local(part.local);
  if (!part.undeliverable.empty()) {
    net.hot().mcast_dropped_keys->inc(part.undeliverable.size());
    emit_drop(net, self, hop_ref(payload, parent_span),
              metrics::DropReason::kMcastDead, part.undeliverable.size());
  }
  std::size_t branches = 0;
  std::size_t delegated_keys = 0;
  for (const auto& d : part.delegated) {
    if (d.empty()) continue;
    ++branches;
    delegated_keys += d.size();
  }
  if (branches > 0) {
    net.hot().mcast_fanout->add(static_cast<double>(branches));
    if (const auto span = emit_span(net, self, hop_ref(payload, parent_span),
                                    metrics::SpanKind::kMcastSplit,
                                    delegated_keys + part.local.size(),
                                    branches);
        span != 0) {
      out.span = span;
    }
  }
  return out;
}

}  // namespace cbps::overlay
