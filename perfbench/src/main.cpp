// cbps performance benchmark: one workload, one seed, one JSON result.
//
//   cbps_perfbench --workload route|mcast|churn --seed N --seconds S
//                  --trace 0|1 [--size full|tiny]
//   cbps_perfbench --catalog
//
// Both modes start with a warm-up run that also runs the delivery
// oracle; every later run must reproduce its deterministic outputs.
// --trace 0 then repeats the experiment until S seconds have passed and
// prints the end-to-end metrics (medians over the repetitions). --trace 1
// makes a plain driver run, a recording run, a TraceReplayer replay and
// a run with the program's causal trace on, then times per-layer unit
// costs on the recorded inputs and prints the per-layer metrics.
// The last stdout line is {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "cbps/common/logging.hpp"
#include "experiment.hpp"
#include "layers.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;
};

constexpr MetricSpec kEndToEnd[] = {
    {"ops_per_s", "ops/s", "higher"},
    {"slice_ms_p50", "ms", "lower"},
    {"slice_ms_p99", "ms", "lower"},
    {"setup_s", "s", "lower"},
    {"peak_rss_mb", "MB", "lower"},
    {"oracle_ok_share", "ratio", "higher"},
    {"notify_delay_p50_s", "s", "lower"},
    {"notify_delay_p99_s", "s", "lower"},
    {"msgs_per_sub", "msgs", "lower"},
    {"msgs_per_pub", "msgs", "lower"},
    {"max_subs_per_node", "subs", "lower"},
};

constexpr MetricSpec kPerLayer[] = {
    {"workload.driver_s", "s", "lower"},
    {"workload.active_view_ns", "ns", "lower"},
    {"sim.events", "count", "lower"},
    {"sim.pending_max", "count", "lower"},
    {"sim.stale_skipped", "count", "lower"},
    {"sim.heap_compactions", "count", "lower"},
    {"sim.ns_per_event", "ns", "lower"},
    {"sim.est_s", "s", "lower"},
    {"chord.msgs.subscribe", "count", "lower"},
    {"chord.msgs.publish", "count", "lower"},
    {"chord.msgs.notify", "count", "lower"},
    {"chord.msgs.collect", "count", "lower"},
    {"chord.msgs.control", "count", "lower"},
    {"chord.routes", "count", "lower"},
    {"chord.route_hops_p50", "hops", "lower"},
    {"chord.retransmits", "count", "lower"},
    {"chord.route_ns_per_hop", "ns", "lower"},
    {"chord.est_s", "s", "lower"},
    {"overlay.mcast_branches", "count", "lower"},
    {"overlay.mcast_ns_per_msg", "ns", "lower"},
    {"overlay.est_s", "s", "lower"},
    {"mapping.sk_ns", "ns", "lower"},
    {"mapping.ek_ns", "ns", "lower"},
    {"mapping.sk_keys", "count", "lower"},
    {"mapping.ek_keys", "count", "lower"},
    {"mapping.est_s", "s", "lower"},
    {"match.calls", "count", "lower"},
    {"match.units", "count", "lower"},
    {"store.inserts", "count", "lower"},
    {"match.ns_per_call", "ns", "lower"},
    {"store.insert_ns", "ns", "lower"},
    {"match.hit_ratio", "ratio", "higher"},
    {"store.expire_ns", "ns", "lower"},
    {"match.est_s", "s", "lower"},
    {"metrics.hist_adds", "count", "lower"},
    {"metrics.hist_add_ns", "ns", "lower"},
    {"metrics.topk_offer_ns", "ns", "lower"},
    {"metrics.est_s", "s", "lower"},
    {"metrics.trace_overhead", "x", "lower"},
    {"oracle.verify_s", "s", "lower"},
    {"run_s", "s", "lower"},
    {"unattributed_s", "s", "lower"},
    {"trace.overhead", "x", "lower"},
};

constexpr int kMinReps = 3;
constexpr int kMaxReps = 1000;

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

template <std::size_t N>
void print_catalog_list(const char* key, const MetricSpec (&specs)[N]) {
  std::printf("\"%s\": [", key);
  for (std::size_t i = 0; i < N; ++i) {
    std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}",
                i ? ", " : "", specs[i].name, specs[i].unit,
                specs[i].better);
  }
  std::printf("]");
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s = brand;
    s.erase(0, s.find_first_not_of(' '));
    return s;
  }
#endif
  return "unknown";
}

void print_host() {
  std::printf("host: {\"nproc\": %u, \"cpu\": %s, \"compiler\": %s, "
              "\"build_type\": %s}\n",
              std::thread::hardware_concurrency(),
              json_string(cpu_model()).c_str(),
              json_string(std::string("gcc-compatible ") + __VERSION__)
                  .c_str(),
              json_string(CBPS_PERFBENCH_BUILD_TYPE).c_str());
}

double median(std::vector<double> v) {
  return mid_quantile(std::move(v), 0.5);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
};

template <std::size_t N>
int print_result(const Result& r, const MetricSpec (&specs)[N]) {
  std::string out = std::string("{\"correct\": ") +
                    (r.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = r.metrics.find(specs[i].name);
    if (it == r.metrics.end()) {
      std::fprintf(stderr, "internal error: metric %s not measured\n",
                   specs[i].name);
      return 1;
    }
    out += std::string(i ? ", " : "") + "\"" + specs[i].name +
           "\": {\"value\": " + json_number(it->second) +
           ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

/// Flags the result incorrect when a run's deterministic outputs differ
/// from the warm-up's.
void expect_same(Result& r, const DetOutputs& got, const DetOutputs& want,
                 const char* what) {
  if (got == want) return;
  std::printf("DETERMINISM MISMATCH: %s differs from the warm-up\n", what);
  r.correct = false;
}

/// The warm-up run fills the allocator and caches and runs the delivery
/// oracle. Every later run must reproduce its outputs, deliveries
/// included, so its oracle verdict holds for all of them.
DetOutputs warm_up(const WorkloadSpec& spec, Result& r, double* verify_s) {
  Experiment warm(spec, Injection::kDriver);
  warm.run();
  const OracleOutputs oracle = warm.verify();
  r.attempted = oracle.checked;
  r.failed = oracle.failed;
  if (r.failed > 0) r.correct = false;
  std::printf("oracle: %llu delivery checks, %llu failed\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  if (verify_s != nullptr) *verify_s = warm.verify_s();
  return warm.outputs();
}

Result run_untraced(const WorkloadSpec& spec, double seconds) {
  Result r;
  const DetOutputs det = warm_up(spec, r, nullptr);
  std::vector<double> ops_per_s, setup_s, slices;
  int reps = 0;
  const Clock::time_point t0 = Clock::now();
  do {
    Experiment e(spec, Injection::kDriver);
    e.run();
    expect_same(r, e.outputs(), det, "a repetition");
    ops_per_s.push_back(static_cast<double>(e.ops()) / e.run_s());
    setup_s.push_back(e.setup_s());
    slices.insert(slices.end(), e.slice_ms().begin(), e.slice_ms().end());
    ++reps;
  } while ((seconds_since(t0) < seconds || reps < kMinReps) &&
           reps < kMaxReps);

  // The highest percentile up to p99 with at least ten slices beyond it.
  const double n = static_cast<double>(slices.size());
  const double tail_q = std::clamp(1.0 - 10.0 / n, 0.5, 0.99);
  std::printf("ops_per_s by repetition:");
  for (const double v : ops_per_s) std::printf(" %.0f", v);
  std::printf("\nrepetitions: %d; slices: %zu (slice_ms_p99 is p%.2f, "
              "%.0f slices beyond it)\n",
              reps, slices.size(), tail_q * 100, n * (1.0 - tail_q));

  auto& m = r.metrics;
  m["ops_per_s"] = median(ops_per_s);
  m["slice_ms_p50"] = mid_quantile(slices, 0.5);
  m["slice_ms_p99"] = mid_quantile(slices, tail_q);
  m["setup_s"] = median(setup_s);
  m["peak_rss_mb"] = peak_rss_mb();
  m["oracle_ok_share"] =
      r.attempted > 0 ? 1.0 - static_cast<double>(r.failed) /
                                  static_cast<double>(r.attempted)
                      : 1.0;
  m["notify_delay_p50_s"] = det.notify_delay_p50_s;
  m["notify_delay_p99_s"] = det.notify_delay_p99_s;
  m["msgs_per_sub"] = det.msgs_per_sub;
  m["msgs_per_pub"] = det.msgs_per_pub;
  m["max_subs_per_node"] = static_cast<double>(det.max_subs_per_node);
  return r;
}

Result run_traced(const WorkloadSpec& spec, double seconds) {
  Result r;
  auto& m = r.metrics;
  // Per-layer unit-cost budget; the five runs take the rest of the time.
  const double unit = std::max(0.02, seconds / 30.0);

  const DetOutputs det = warm_up(spec, r, &m["oracle.verify_s"]);
  double plain_s = 0;
  {
    Experiment plain(spec, Injection::kDriver);
    plain.run();
    plain_s = plain.run_s();
    expect_same(r, plain.outputs(), det, "the plain run");
  }
  workload::Trace trace;
  Experiment rec(spec, Injection::kRecord, &trace);
  rec.run();
  expect_same(r, rec.outputs(), det, "the recording run");
  double replay_s = 0;
  {
    Experiment replay(spec, Injection::kReplay, &trace);
    replay.run();
    replay_s = replay.run_s();
    expect_same(r, replay.outputs(), det, "the trace replay");
  }
  double causal_s = 0;
  {
    Experiment causal(spec, Injection::kCausalTrace);
    causal.run();
    causal_s = causal.run_s();
    expect_same(r, causal.outputs(), det, "the causal-trace run");
  }

  pubsub::PubSubSystem& sys = rec.system();
  const pubsub::AkMapping& mapping = sys.mapping();
  const RecordedInputs in = record_inputs(trace, mapping);
  std::vector<cbps::Key> node_ids;
  for (std::size_t i = 0; i < sys.node_count(); ++i) {
    node_ids.push_back(sys.node_id(i));
  }

  const double sim_ns = sim_ns_per_event(rec.pending_max(), unit);
  const MappingCost map_c = mapping_cost(in, mapping, unit);
  const OverlayCost ov_c = overlay_cost(spec, in, sim_ns, 4 * unit);
  const MatchCost match_c = match_cost(spec, in, mapping, node_ids, 3 * unit);
  const MetricsCost met_c = metrics_cost(rec.delays(), in, unit);
  m["workload.active_view_ns"] = active_view_ns(*rec.driver(), unit / 2);

  const cbps::metrics::Registry& reg = sys.network().registry();
  auto hist = [&](const char* name) -> const cbps::metrics::Histogram* {
    const auto it = reg.histograms().find(name);
    return it == reg.histograms().end() ? nullptr : &it->second;
  };
  std::uint64_t hist_adds =
      sys.delay_histogram().count() + sys.fanout_histogram().count();
  for (const auto& [name, h] : reg.histograms()) hist_adds += h.count();
  const cbps::metrics::Histogram* route_hops = hist("chord.route_hops");
  const cbps::metrics::Histogram* fanout = hist("chord.mcast_fanout");
  const double branches = fanout ? fanout->sum() : 0.0;
  const pubsub::KeyLoad load = sys.key_load();
  const std::uint64_t topk_offers = load.subs_stored.total() +
                                    2 * load.match_calls.total() +
                                    load.notify_fanout.total();
  const auto subs = static_cast<double>(sys.subscriptions_issued());
  const auto pubs = static_cast<double>(sys.publications_issued());
  const auto total_hops = static_cast<double>(sys.traffic().total_hops());
  const double ns = 1e-9;

  m["workload.driver_s"] = plain_s - replay_s;
  m["sim.events"] = static_cast<double>(det.sim_events);
  m["sim.pending_max"] = static_cast<double>(rec.pending_max());
  m["sim.stale_skipped"] =
      static_cast<double>(sys.sim().stale_entries_skipped());
  m["sim.heap_compactions"] =
      static_cast<double>(sys.sim().heap_compactions());
  m["sim.ns_per_event"] = sim_ns;
  m["sim.est_s"] = sim_ns * static_cast<double>(det.sim_events) * ns;
  const char* classes[] = {"subscribe", "publish", "notify", "collect",
                           "control"};
  for (std::size_t i = 0; i < det.chord_msgs.size(); ++i) {
    m[std::string("chord.msgs.") + classes[i]] =
        static_cast<double>(det.chord_msgs[i]);
  }
  m["chord.routes"] =
      route_hops ? static_cast<double>(route_hops->count()) : 0;
  m["chord.route_hops_p50"] = route_hops ? route_hops->p50() : 0;
  m["chord.retransmits"] =
      static_cast<double>(reg.counter_value("chord.retransmits"));
  m["chord.route_ns_per_hop"] = ov_c.route_ns_per_hop;
  m["chord.est_s"] = ov_c.route_ns_per_hop * (total_hops - branches) * ns;
  m["overlay.mcast_branches"] = branches;
  m["overlay.mcast_ns_per_msg"] = ov_c.mcast_ns_per_msg;
  m["overlay.est_s"] = ov_c.mcast_ns_per_msg * branches * ns;
  m["mapping.sk_ns"] = map_c.sk_ns;
  m["mapping.ek_ns"] = map_c.ek_ns;
  m["mapping.sk_keys"] = static_cast<double>(in.sk_keys);
  m["mapping.ek_keys"] = static_cast<double>(in.ek_keys);
  m["mapping.est_s"] = (map_c.sk_ns * subs + map_c.ek_ns * pubs) * ns;
  m["match.calls"] = static_cast<double>(load.match_calls.total());
  m["match.units"] = static_cast<double>(load.match_units.total());
  m["store.inserts"] = static_cast<double>(load.subs_stored.total());
  m["match.ns_per_call"] = match_c.match_ns_per_call;
  m["store.insert_ns"] = match_c.insert_ns;
  m["match.hit_ratio"] = match_c.hit_ratio;
  m["store.expire_ns"] = match_c.expire_ns;
  m["match.est_s"] =
      (match_c.match_ns_per_call * static_cast<double>(match_c.matches) +
       match_c.insert_ns * static_cast<double>(match_c.inserts)) *
      ns;
  m["metrics.hist_adds"] = static_cast<double>(hist_adds);
  m["metrics.hist_add_ns"] = met_c.hist_add_ns;
  m["metrics.topk_offer_ns"] = met_c.topk_offer_ns;
  m["metrics.est_s"] =
      (met_c.hist_add_ns * static_cast<double>(hist_adds) +
       met_c.topk_offer_ns * static_cast<double>(topk_offers)) *
      ns;
  m["metrics.trace_overhead"] = causal_s / plain_s;
  m["run_s"] = plain_s;
  m["trace.overhead"] = rec.run_s() / plain_s;

  const std::pair<const char*, double> layers[] = {
      {"workload", m["workload.driver_s"]}, {"sim", m["sim.est_s"]},
      {"chord", m["chord.est_s"]},          {"overlay", m["overlay.est_s"]},
      {"mapping", m["mapping.est_s"]},      {"match", m["match.est_s"]},
      {"metrics", m["metrics.est_s"]},
  };
  double attributed = 0;
  const char* largest = layers[0].first;
  double largest_s = layers[0].second;
  std::printf("layer split of run_s = %.3f s:", plain_s);
  for (const auto& [name, s] : layers) {
    attributed += s;
    std::printf(" %s %.3f", name, s);
    if (s > largest_s) largest = name, largest_s = s;
  }
  m["unattributed_s"] = plain_s - attributed;
  const bool split_ok =
      std::find(spec.heavy_layers.begin(), spec.heavy_layers.end(),
                largest) != spec.heavy_layers.end();
  std::printf("\nlayer split: largest est_s is %s: %s\n", largest,
              split_ok ? "OK" : "UNEXPECTED");
  return r;
}

int usage() {
  std::fprintf(stderr,
               "usage: cbps_perfbench --workload route|mcast|churn "
               "--seed N --seconds S --trace 0|1 [--size full|tiny]\n"
               "       cbps_perfbench --catalog\n");
  return 2;
}

int run(int argc, char** argv) {
  std::string workload_name, size = "full";
  long long seed = -1, trace = -1;
  double seconds = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--catalog") {
      std::printf("{");
      print_catalog_list("end_to_end", kEndToEnd);
      std::printf(", ");
      print_catalog_list("per_layer", kPerLayer);
      std::printf("}\n");
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload_name = v;
    } else if (a == "--size") {
      size = v;
    } else if (a == "--seed") {
      seed = std::strtoll(v.c_str(), &end, 10);
    } else if (a == "--trace") {
      trace = std::strtoll(v.c_str(), &end, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(v.c_str(), &end);
    } else {
      return usage();
    }
    if (end != nullptr && (*end != '\0' || end == v.c_str())) return usage();
  }
  if (seed < 0 || seconds <= 0 || (trace != 0 && trace != 1) ||
      (size != "full" && size != "tiny")) {
    return usage();
  }
  const auto spec = make_workload(workload_name,
                                  static_cast<std::uint64_t>(seed),
                                  size == "tiny");
  if (!spec) {
    std::fprintf(stderr, "unknown workload: %s\n", workload_name.c_str());
    return 2;
  }
  // Routes dropped under the crash burst log warnings; keep the console
  // to errors so terminal output does not enter the timings.
  cbps::Logger::instance().set_level(cbps::LogLevel::kError);
  print_host();
  std::printf("workload: %s, seed %lld, size %s, %s run\n",
              workload_name.c_str(), seed, size.c_str(),
              trace ? "traced" : "untraced");
  std::fflush(stdout);
  if (trace == 0) return print_result(run_untraced(*spec, seconds), kEndToEnd);
  return print_result(run_traced(*spec, seconds), kPerLayer);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cbps_perfbench: %s\n", e.what());
    return 1;
  }
}
