// Per-message network latency models.
//
// The paper fixes the message delay to 50 ms (§5.1); a jittered model is
// provided for robustness experiments.
#pragma once

#include <memory>

#include "cbps/common/rng.hpp"
#include "cbps/sim/time.hpp"

namespace cbps::sim {

/// Samples the one-hop delivery delay of a message.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;
  virtual SimTime sample(Rng& rng) = 0;
};

/// Constant delay (the paper's model: 50 ms).
class FixedLatency final : public LatencyModel {
 public:
  explicit FixedLatency(SimTime delay) : delay_(delay) {}
  SimTime sample(Rng&) override { return delay_; }

 private:
  SimTime delay_;
};

/// Uniform delay in [lo, hi].
class UniformLatency final : public LatencyModel {
 public:
  UniformLatency(SimTime lo, SimTime hi) : lo_(lo), hi_(hi) {
    CBPS_ASSERT(lo <= hi);
  }
  SimTime sample(Rng& rng) override {
    return static_cast<SimTime>(rng.uniform_int(
        static_cast<std::int64_t>(lo_), static_cast<std::int64_t>(hi_)));
  }

 private:
  SimTime lo_;
  SimTime hi_;
};

/// The paper's default.
inline std::unique_ptr<LatencyModel> default_latency() {
  return std::make_unique<FixedLatency>(ms(50));
}

}  // namespace cbps::sim
