// Per-rendezvous subscription storage and matching.
//
// A node stores each subscription at most once regardless of how many of
// its keys the node covers; records carry the expiry time and the SK key
// runs (needed for collecting-agent election and state handover). An
// ordered expiry index makes expiration sweeps O(log n) so the paper's
// 25k-subscription memory experiments stay cheap.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cbps/common/types.hpp"
#include "cbps/pubsub/counting_index.hpp"
#include "cbps/pubsub/messages.hpp"
#include "cbps/pubsub/subscription.hpp"
#include "cbps/sim/time.hpp"

namespace cbps::pubsub {

/// How a rendezvous matches incoming events against its stored
/// subscriptions.
enum class MatchEngine {
  kBruteForce,     // linear scan (simple, the correctness oracle)
  kCountingIndex,  // per-attribute interval buckets (Fabret et al. [6])
};

const char* to_string(MatchEngine engine);
/// Parse "brute" / "counting"; returns std::nullopt on anything else.
std::optional<MatchEngine> match_engine_from_string(std::string_view s);

class SubscriptionStore {
 public:
  struct Record {
    SubscriptionPtr sub;
    sim::SimTime expires_at = sim::kSimTimeNever;
    std::vector<KeyRange> ranges;  // full SK(sub) as contiguous runs
    bool replica = false;          // held for a neighbor's crash recovery
  };

  SubscriptionStore() = default;

  /// Switch matching to the counting index (call before any insert).
  void use_counting_index(const Schema& schema,
                          std::size_t buckets_per_attribute = 256) {
    CBPS_ASSERT_MSG(records_.empty(), "enable the index on an empty store");
    index_.emplace(schema, buckets_per_attribute);
  }

  /// Install `engine` (no-op for kBruteForce; call before any insert).
  void use_engine(MatchEngine engine, const Schema& schema) {
    if (engine == MatchEngine::kCountingIndex) use_counting_index(schema);
  }

  MatchEngine engine() const {
    return index_ ? MatchEngine::kCountingIndex : MatchEngine::kBruteForce;
  }

  /// Heap footprint of the match index in bytes (0 under brute force).
  std::size_t index_memory_bytes() const {
    return index_ ? index_->memory_bytes() : 0;
  }

  /// Insert or refresh. Returns true if the record is new — or if a
  /// non-replica insert upgraded an existing replica record to an owned
  /// one (fresh ownership needs a fresh replication chain).
  bool insert(const Record& record);

  /// Remove by id. Returns true if present.
  bool remove(SubscriptionId id);

  const Record* find(SubscriptionId id) const;

  /// Remove every record with expires_at <= now. Returns removed count.
  std::size_t sweep_expired(sim::SimTime now);

  /// Earliest finite expiry among stored records (kSimTimeNever if none).
  sim::SimTime next_expiry() const {
    return expiry_index_.empty() ? sim::kSimTimeNever
                                 : expiry_index_.begin()->first;
  }

  /// Matching records (non-expired) for `e` — owned and replica alike
  /// (replicas only ever see events when this node inherited the range).
  std::vector<const Record*> match(const Event& e, sim::SimTime now) const;

  /// Visit every record (e.g. for state export).
  void for_each(const std::function<void(const Record&)>& fn) const;

  /// Remove all records for which `pred` returns true; returns count.
  std::size_t remove_if(const std::function<bool(const Record&)>& pred);

  std::size_t size() const { return records_.size(); }
  /// Count of owned (non-replica) records — the quantity the paper's
  /// memory figures report.
  std::size_t owned_size() const { return owned_; }

  /// High-water mark of owned_size() over the store's lifetime.
  std::size_t peak_owned_size() const { return peak_owned_; }

 private:
  using RecordMap = std::unordered_map<SubscriptionId, Record>;

  void index_expiry(SubscriptionId id, sim::SimTime at);
  void unindex_expiry(SubscriptionId id, sim::SimTime at);
  RecordMap::iterator erase_record(RecordMap::iterator it);
  void note_owned_change();

  RecordMap records_;
  std::multimap<sim::SimTime, SubscriptionId> expiry_index_;
  std::optional<CountingIndex> index_;  // empty = brute force
  std::size_t owned_ = 0;
  std::size_t peak_owned_ = 0;
};

}  // namespace cbps::pubsub
