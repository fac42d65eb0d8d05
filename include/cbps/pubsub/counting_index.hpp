// Counting-based matching index.
//
// The paper's rendezvous nodes "match e against the subscriptions they
// host" (§3.2); the straightforward scan is linear in the number of
// stored subscriptions. This index implements the classic counting
// algorithm of Fabret et al. (the paper's [6]): per attribute, constraint
// intervals are registered in coarse value buckets; matching an event
// stabs one bucket per attribute, counts satisfied constraints per
// subscription, and reports the subscriptions whose entire conjunction
// is satisfied. Expected cost is proportional to the number of
// *satisfied constraints*, not the number of subscriptions. The index is
// exact: it reports precisely the subscriptions the brute-force scan
// (SubscriptionStore's oracle engine) reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cbps/common/types.hpp"
#include "cbps/pubsub/event.hpp"
#include "cbps/pubsub/schema.hpp"
#include "cbps/pubsub/subscription.hpp"

namespace cbps::pubsub {

class CountingIndex {
 public:
  /// `buckets_per_attribute` trades insertion cost (an interval is
  /// registered in every bucket it overlaps) against stab precision.
  explicit CountingIndex(const Schema& schema,
                         std::size_t buckets_per_attribute = 256);

  /// Register a subscription. Duplicate ids are rejected (no-op, false).
  /// A subscription with a constraint range disjoint from its attribute
  /// domain can never match; it is registered (so remove() and duplicate
  /// detection behave) but gets no bucket entries — exactly the
  /// brute-force engine's behaviour of never reporting it.
  bool insert(const SubscriptionPtr& sub);

  /// Remove by id. Returns false if unknown.
  bool remove(SubscriptionId id);

  /// Ids of all registered subscriptions matching `e`, unordered.
  std::vector<SubscriptionId> match(const Event& e) const;

  /// Append the ids of all registered subscriptions matching `e` to
  /// `out` (unordered, no duplicates). `out` is not cleared.
  void match_into(const Event& e,
                  std::vector<SubscriptionId>& out) const;

  std::size_t size() const { return subs_.size(); }

  /// Heap footprint of the bucket/scratch structures in bytes (not the
  /// Subscription objects themselves, which the store owns).
  std::size_t memory_bytes() const;

 private:
  // Entries refer to subscriptions by a dense slot index so match() can
  // count into flat arrays instead of a per-event hash map.
  struct Entry {
    std::uint32_t dense;
    ClosedInterval range;
  };
  struct DenseInfo {
    SubscriptionId id = 0;
    std::uint32_t constraint_count = 0;
  };
  struct SubInfo {
    SubscriptionPtr sub;
    std::uint32_t dense;
  };

  std::size_t bucket_of(std::size_t attr, Value v) const;

  Schema schema_;
  std::size_t buckets_per_attribute_;
  // buckets_[attr][bucket] -> entries whose interval overlaps the bucket.
  std::vector<std::vector<std::vector<Entry>>> buckets_;
  // Subscriptions with no constraints match every event.
  std::vector<SubscriptionId> match_all_;
  std::unordered_map<SubscriptionId, SubInfo> subs_;
  std::vector<DenseInfo> dense_;        // slot -> threshold + id
  std::vector<std::uint32_t> free_dense_;
  // Epoch-stamped scratch: bumping epoch_ invalidates every count, so a
  // match never clears (or allocates) the buffers it counts into.
  mutable std::vector<std::uint32_t> scratch_count_;
  mutable std::vector<std::uint64_t> scratch_epoch_;
  mutable std::vector<std::uint32_t> scratch_touched_;
  mutable std::uint64_t epoch_ = 0;
};

}  // namespace cbps::pubsub
