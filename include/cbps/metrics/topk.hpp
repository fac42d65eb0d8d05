// Deterministic space-saving heavy-hitter sketch (Metwally et al.,
// "Efficient Computation of Frequent and Top-k Elements in Data
// Streams"), specialized for per-rendezvous-key load attribution.
//
// The sketch tracks at most `capacity` keys. An offer() for a tracked
// key adds its weight exactly; an offer for an untracked key at
// capacity evicts the minimum-count entry and inherits its count as the
// new entry's error term. Standard guarantees with total offered
// weight N and capacity K:
//   * count - error <= true count <= count  for every tracked key,
//   * error <= N / K, and
//   * every key with true count > N / K is tracked.
//
// Determinism contract (the load observatory's fold depends on it):
//   * storage is an ordered std::map, so iteration and the min-count
//     eviction scan are layout-independent (detlint D1 by construction);
//   * eviction tie-breaks are total: minimum count first, then the
//     LARGEST key id among the minima is evicted (small key ids are the
//     stickier residents);
//   * merge() is a union-sum with NO eviction — it is associative and
//     commutative, so folding per-node sketches is invariant under the
//     fold order (only top() truncates). A fold accumulator therefore
//     grows to at most (#sketches x capacity) entries, which is the
//     price of permutation invariance.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

namespace cbps::metrics {

class TopK {
 public:
  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t count = 0;  // overestimate: true count <= count
    std::uint64_t error = 0;  // count - error <= true count

    bool operator==(const Entry&) const = default;
  };

  explicit TopK(std::size_t capacity = kDefaultCapacity);

  /// Account `weight` units of load against `key`.
  void offer(std::uint64_t key, std::uint64_t weight = 1);

  /// Union-sum fold of another sketch into this one (counts, errors and
  /// totals add; nothing is evicted). Permutation-invariant: any merge
  /// order of the same sketch set yields identical state.
  void merge(const TopK& other);

  /// The k heaviest tracked entries, ordered by count descending then
  /// key ascending (the stable tie-break the report tables rely on).
  std::vector<Entry> top(std::size_t k) const;

  /// Count/error for one key (count 0 when untracked).
  Entry find(std::uint64_t key) const;

  std::uint64_t total() const { return total_; }
  std::size_t size() const { return cells_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return cells_.empty(); }
  void reset();

  static constexpr std::size_t kDefaultCapacity = 32;

 private:
  struct Cell {
    std::uint64_t count = 0;
    std::uint64_t error = 0;
  };

  std::size_t capacity_;
  std::uint64_t total_ = 0;
  // Keyed by key id; ordered so every walk (eviction scan, top(), JSON
  // emission) is independent of insertion history and hash layout.
  std::map<std::uint64_t, Cell> cells_;
};

}  // namespace cbps::metrics
