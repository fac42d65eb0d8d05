// One benchmark experiment: a cbps-sim-shaped run driven through the
// public API (PubSubSystem + workload::Driver, advanced with run_for in
// fixed simulated-time slices, then quiesce), with the delivery oracle
// and the deterministic outputs the benchmark checks.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cbps/pubsub/delivery_checker.hpp"
#include "cbps/pubsub/system.hpp"
#include "cbps/workload/driver.hpp"
#include "cbps/workload/fault_script.hpp"
#include "cbps/workload/generator.hpp"
#include "cbps/workload/trace.hpp"

namespace perfbench {

namespace pubsub = cbps::pubsub;
namespace sim = cbps::sim;
namespace workload = cbps::workload;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A named workload: system, generator and driver settings plus the
/// run_for slice. Built from the benchmark seed only.
struct WorkloadSpec {
  std::string name;
  pubsub::SystemConfig sys;
  std::size_t dimensions = 4;
  cbps::Value attr_max = 1'000'000;
  workload::WorkloadParams params;
  workload::DriverParams driver;
  /// Non-empty: Chord maintenance runs and the script drives faults.
  std::string fault_script;
  /// Simulated time advanced per run_for call.
  sim::SimTime slice = sim::sec(5);
  /// Layers whose est_s may be the largest in the traced run.
  std::vector<std::string> heavy_layers;
};

/// The workload `name` at full or tiny (self-test) size; nullopt when
/// the name is unknown.
std::optional<WorkloadSpec> make_workload(const std::string& name,
                                          std::uint64_t seed, bool tiny);

/// Outputs that depend only on the inputs: they must repeat exactly for
/// a fixed seed, whatever the host does.
struct DetOutputs {
  double notify_delay_p50_s = 0;
  double notify_delay_p99_s = 0;
  double msgs_per_sub = 0;
  double msgs_per_pub = 0;
  std::uint64_t max_subs_per_node = 0;
  std::uint64_t sim_events = 0;
  /// subscribe, publish, notify, collect, control one-hop messages.
  std::array<std::uint64_t, 5> chord_msgs{};
  /// Notifications delivered, and a fold of (event, subscription,
  /// subscriber, time) over them in delivery order: equal digests mean
  /// equal deliveries, so the oracle verdict carries over.
  std::uint64_t notifications = 0;
  std::uint64_t delivery_digest = 0;

  bool operator==(const DetOutputs&) const = default;
};

/// Delivery-oracle verdict of a driver run.
struct OracleOutputs {
  std::uint64_t checked = 0;  // expected pairs + extra deliveries
  std::uint64_t failed = 0;   // missing + duplicate + spurious + wrong
};

/// How the operations are injected.
enum class Injection {
  kDriver,        // workload::Driver, the delivery oracle attached
  kRecord,        // as kDriver, also recording a workload::Trace
  kReplay,        // workload::TraceReplayer over a recorded trace
  kCausalTrace,   // as kDriver with the program's TraceSink at rate 1
};

class Experiment {
 public:
  /// Builds the system (timed: setup_s). `trace` is written for kRecord
  /// and read for kReplay; it must outlive the experiment.
  Experiment(const WorkloadSpec& spec, Injection injection,
             workload::Trace* trace = nullptr);
  ~Experiment();

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Injects the workload and advances the system slice by slice until
  /// every operation is issued, then drains it (timed: run_s).
  void run();

  DetOutputs outputs() const;
  /// Runs DeliveryChecker::verify (timed: verify_s); driver runs only.
  OracleOutputs verify();

  double setup_s() const { return setup_s_; }
  double run_s() const { return run_s_; }
  double verify_s() const { return verify_s_; }
  const std::vector<double>& slice_ms() const { return slice_ms_; }
  std::size_t pending_max() const { return pending_max_; }
  std::uint64_t ops() const;
  /// Publish-to-notify delays (simulated seconds) in delivery order.
  const std::vector<double>& delays() const { return delays_; }

  pubsub::PubSubSystem& system() { return *system_; }
  workload::Driver* driver() { return driver_.get(); }

 private:
  bool issued_all() const;
  void advance(sim::SimTime d);
  void on_delivery(cbps::Key subscriber, const pubsub::Notification& n);

  const WorkloadSpec& spec_;
  std::unique_ptr<pubsub::PubSubSystem> system_;
  std::unique_ptr<workload::WorkloadGenerator> gen_;
  pubsub::DeliveryChecker checker_;
  /// Publications the oracle judges (after faults cleared).
  sim::SimTime verify_after_ = 0;
  std::unique_ptr<workload::FaultScriptRunner> faults_;
  std::unique_ptr<workload::Driver> driver_;
  std::unique_ptr<workload::TraceReplayer> replayer_;
  sim::SimTime last_op_at_ = 0;

  double setup_s_ = 0;
  double run_s_ = 0;
  double verify_s_ = 0;
  std::vector<double> slice_ms_;
  std::size_t pending_max_ = 0;
  std::vector<double> delays_;
  std::uint64_t delivery_digest_ = 0;
};

/// Quantile of a sample at probability p in [0, 1], using the mid-
/// distribution (Hazen) definition: each distinct value sits at the
/// middle of its cumulative-probability step and the quantile
/// interpolates between them. On tied, discrete data (simulated delays
/// are multiples of the fixed link latency) it moves smoothly with the
/// distribution instead of jumping a whole latency step.
double mid_quantile(std::vector<double> values, double p);

}  // namespace perfbench
