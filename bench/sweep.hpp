// Declarative parameter-sweep runner for the bench binaries.
//
// A bench enumerates its sweep as (label, body) points up front, then
// run() executes them across --jobs worker threads (default: all
// hardware threads) and reports each point IN SWEEP ORDER on the calling
// thread — point i's row is printed only after rows 0..i-1, no matter
// which worker finished first. Every point owns its whole simulation
// (Simulator, Chord ring, Registry, Rng), so the metrics are
// bit-identical to a --jobs 1 run; only wall time changes.
//
// With --json <path> the runner also dumps one record per point (wall
// time, simulated events/sec, and the result's metric fields) in the
// BENCH_sweeps.json row format documented in EXPERIMENTS.md.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "cbps/common/flags.hpp"
#include "harness.hpp"

namespace cbps::bench {

struct SweepOptions {
  std::size_t jobs = 0;           // 0 = hardware_concurrency
  std::string json_path;          // empty = no JSON dump
  std::string metrics_json_path;  // empty = no distribution-metrics dump
};

/// Wall-clock cost and simulated-event throughput of one sweep point.
struct PointTiming {
  double wall_s = 0;
  std::uint64_t sim_events = 0;
  double events_per_sec = 0;
};

/// Flat (name, value) metric fields for the JSON dump. Benches with
/// custom result structs provide their own `json_fields` overload
/// (found by ADL / ordinary lookup at Sweep<Result>::run instantiation).
using JsonFields = std::vector<std::pair<std::string, double>>;

JsonFields json_fields(const ExperimentResult& r);

/// Distribution metrics (latency/hop/fan-out percentiles) for the
/// --metrics-json dump. Benches whose result type has no overload fall
/// back to their json_fields — providing one is opt-in, exactly like
/// json_fields itself.
JsonFields metrics_fields(const ExperimentResult& r);

namespace detail {

/// Run body(i) for i in [0, count) on `jobs` workers; invoke done(i) on
/// the calling thread in ascending order as results become available.
/// jobs <= 1 runs everything inline with no threads at all.
void run_indexed(std::size_t count, std::size_t jobs,
                 const std::function<void(std::size_t)>& body,
                 const std::function<void(std::size_t)>& done);

void write_json(const std::string& path, const std::string& bench,
                std::size_t jobs, double total_wall_s,
                const std::vector<std::string>& labels,
                const std::vector<PointTiming>& timings,
                const std::vector<JsonFields>& metrics);

std::size_t resolve_jobs(std::size_t requested);

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace detail

template <typename Result = ExperimentResult>
class Sweep {
 public:
  explicit Sweep(std::string bench_name) : bench_(std::move(bench_name)) {}

  /// Parse --jobs/--json (and -h/--help). Returns false if the program
  /// should exit (help was printed or a flag was invalid).
  bool parse_args(int argc, char** argv) {
    std::int64_t jobs = 0;
    FlagParser parser(bench_ +
                      " — parameter sweep (each point is an independent "
                      "simulation;\nresults are identical for any --jobs).");
    parser.add("jobs", "worker threads (0 = all hardware threads)", &jobs);
    parser.add("json", "dump per-point timings+metrics to this file",
               &opts_.json_path);
    parser.add("metrics-json",
               "dump per-point latency/hop distribution metrics "
               "(p50/p90/p99) to this file",
               &opts_.metrics_json_path);
    if (!parser.parse(argc, argv, std::cout, std::cerr)) return false;
    if (jobs < 0) {
      std::cerr << "bad --jobs: " << jobs << '\n';
      return false;
    }
    opts_.jobs = static_cast<std::size_t>(jobs);
    return true;
  }

  void set_options(const SweepOptions& opts) { opts_ = opts; }
  const SweepOptions& options() const { return opts_; }

  /// Add one point. `body` runs on a worker thread and must be
  /// self-contained: it builds, runs and tears down its own simulation
  /// and touches no state shared with other points.
  void add(std::string label, std::function<Result()> body) {
    labels_.push_back(std::move(label));
    bodies_.push_back(std::move(body));
  }

  /// Convenience for the run_experiment benches.
  template <typename R = Result>
    requires std::same_as<R, ExperimentResult>
  void add(std::string label, const ExperimentConfig& cfg) {
    add(std::move(label), [cfg] { return run_experiment(cfg); });
  }

  /// Execute every point; `on_row(i, result)` fires on the calling
  /// thread in add() order. Returns all results, index-aligned with
  /// add() order.
  const std::vector<Result>& run(
      const std::function<void(std::size_t, const Result&)>& on_row = {}) {
    const std::size_t n = bodies_.size();
    results_.clear();
    results_.resize(n);
    timings_.assign(n, PointTiming{});
    const auto t0 = std::chrono::steady_clock::now();
    detail::run_indexed(
        n, opts_.jobs,
        [this](std::size_t i) {
          const auto start = std::chrono::steady_clock::now();
          results_[i] = bodies_[i]();
          PointTiming& t = timings_[i];
          t.wall_s = detail::seconds_since(start);
          if constexpr (requires(const Result& r) { r.sim_events; }) {
            t.sim_events =
                static_cast<std::uint64_t>(results_[i].sim_events);
            if (t.wall_s > 0) {
              t.events_per_sec =
                  static_cast<double>(t.sim_events) / t.wall_s;
            }
          }
        },
        [&](std::size_t i) {
          if (on_row) on_row(i, results_[i]);
        });
    total_wall_s_ = detail::seconds_since(t0);
    if (!opts_.json_path.empty()) {
      std::vector<JsonFields> metrics;
      metrics.reserve(n);
      for (const Result& r : results_) metrics.push_back(json_fields(r));
      detail::write_json(opts_.json_path, bench_,
                         detail::resolve_jobs(opts_.jobs), total_wall_s_,
                         labels_, timings_, metrics);
    }
    if (!opts_.metrics_json_path.empty()) {
      std::vector<JsonFields> metrics;
      metrics.reserve(n);
      for (const Result& r : results_) {
        if constexpr (requires { metrics_fields(r); }) {
          metrics.push_back(metrics_fields(r));
        } else {
          metrics.push_back(json_fields(r));
        }
      }
      detail::write_json(opts_.metrics_json_path, bench_,
                         detail::resolve_jobs(opts_.jobs), total_wall_s_,
                         labels_, timings_, metrics);
    }
    return results_;
  }

  std::size_t size() const { return bodies_.size(); }
  const std::string& label(std::size_t i) const { return labels_[i]; }
  const std::vector<Result>& results() const { return results_; }
  const std::vector<PointTiming>& timings() const { return timings_; }
  double total_wall_s() const { return total_wall_s_; }

 private:
  std::string bench_;
  SweepOptions opts_;
  std::vector<std::string> labels_;
  std::vector<std::function<Result()>> bodies_;
  std::vector<Result> results_;
  std::vector<PointTiming> timings_;
  double total_wall_s_ = 0;
};

}  // namespace cbps::bench
