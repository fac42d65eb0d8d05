// Message-loss fault injection for the simulated wire.
//
// A LossModel decides, per transmitted message, whether the network
// drops it in flight. Networks sample it after hop accounting (the
// message consumed bandwidth) and before scheduling delivery. The
// model draws from a dedicated Rng stream split off the run RNG, so
// enabling loss never perturbs latency sampling and a run with
// rate == 0 is bit-identical to one with no model installed.
#pragma once

#include <memory>

#include "cbps/common/assert.hpp"
#include "cbps/common/rng.hpp"

namespace cbps::sim {

class LossModel {
 public:
  virtual ~LossModel() = default;
  /// True if this transmission is lost.
  virtual bool drop(Rng& rng) = 0;

  /// Fresh copy with independent channel state. The network keeps one
  /// channel per *sender* so loss decisions ride the sender's own RNG
  /// stream: one sender's traffic never shifts another sender's loss
  /// draws.
  virtual std::unique_ptr<LossModel> clone() const = 0;
};

/// Drops every message independently with a fixed probability.
class UniformLoss final : public LossModel {
 public:
  explicit UniformLoss(double rate) : rate_(rate) {
    CBPS_ASSERT_MSG(rate >= 0.0 && rate <= 1.0,
                    "loss rate must be in [0, 1]");
  }

  bool drop(Rng& rng) override { return rng.uniform01() < rate_; }
  std::unique_ptr<LossModel> clone() const override {
    return std::make_unique<UniformLoss>(rate_);
  }
  double rate() const { return rate_; }

 private:
  double rate_;
};

/// Gilbert–Elliott bursty loss: a two-state Markov chain alternating
/// between a Good state (rare residual loss) and a Bad state (heavy
/// loss). Transitions are sampled per message, so consecutive messages
/// are correlated — mean burst length is 1/q messages. This is the
/// standard model for the correlated failures that break independence
/// assumptions in overlay repair.
class GilbertElliottLoss final : public LossModel {
 public:
  /// `p` = P(Good -> Bad) per message, `q` = P(Bad -> Good) per message,
  /// `good_loss` / `bad_loss` = drop probability in each state.
  GilbertElliottLoss(double p, double q, double good_loss, double bad_loss)
      : p_(p), q_(q), good_loss_(good_loss), bad_loss_(bad_loss) {
    CBPS_ASSERT_MSG(p >= 0.0 && p <= 1.0 && q >= 0.0 && q <= 1.0,
                    "transition probabilities must be in [0, 1]");
    CBPS_ASSERT_MSG(good_loss >= 0.0 && good_loss <= 1.0 &&
                        bad_loss >= 0.0 && bad_loss <= 1.0,
                    "loss rates must be in [0, 1]");
  }

  bool drop(Rng& rng) override {
    const bool lost = rng.uniform01() < (bad_ ? bad_loss_ : good_loss_);
    if (bad_) {
      if (rng.uniform01() < q_) bad_ = false;
    } else {
      if (rng.uniform01() < p_) bad_ = true;
    }
    return lost;
  }

  std::unique_ptr<LossModel> clone() const override {
    auto c = std::make_unique<GilbertElliottLoss>(p_, q_, good_loss_,
                                                 bad_loss_);
    c->bad_ = bad_;
    return c;
  }

  bool in_bad_state() const { return bad_; }
  /// Long-run fraction of time spent in the Bad state: p / (p + q).
  double stationary_bad() const {
    return p_ + q_ > 0 ? p_ / (p_ + q_) : 0.0;
  }
  /// Long-run average drop probability.
  double mean_rate() const {
    const double b = stationary_bad();
    return b * bad_loss_ + (1.0 - b) * good_loss_;
  }

 private:
  double p_;
  double q_;
  double good_loss_;
  double bad_loss_;
  bool bad_ = false;
};

}  // namespace cbps::sim
