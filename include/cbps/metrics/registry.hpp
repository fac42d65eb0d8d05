// Named counters, running summaries, and histograms for experiment
// instrumentation.
//
// Benches create one Registry per run, pass it down through the harness,
// and read it back to print a figure row. Nothing here is global: two
// concurrently-constructed simulations never share state.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "cbps/common/rng.hpp"
#include "cbps/metrics/histogram.hpp"

namespace cbps::metrics {

class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

class Registry {
 public:
  /// Find or create a counter.
  Counter& counter(const std::string& name) { return counters_[name]; }

  /// Find or create a running summary.
  RunningStat& stat(const std::string& name) { return stats_[name]; }

  /// Find or create a histogram.
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  // Cached-handle API: resolve the name once, hold the pointer, and
  // increment through it on hot paths (a std::map string lookup per
  // message is measurable). Pointers are stable for the Registry's
  // lifetime — std::map nodes never move and reset_all() resets entries
  // in place instead of erasing them.
  Counter* counter_handle(const std::string& name) { return &counters_[name]; }
  RunningStat* stat_handle(const std::string& name) { return &stats_[name]; }
  Histogram* histogram_handle(const std::string& name) {
    return &histograms_[name];
  }

  /// Counter value, 0 if never touched (does not create).
  std::uint64_t counter_value(const std::string& name) const;

  void reset_all();

  /// Human-readable dump: one table, deterministically sorted by name
  /// across counters, stats, and histograms (so bench output diffs are
  /// stable run to run).
  void print(std::ostream& os) const;

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, RunningStat>& stats() const { return stats_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, RunningStat> stats_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace cbps::metrics
