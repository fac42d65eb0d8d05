#include "experiment.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

using cbps::Key;
using cbps::overlay::MessageClass;

namespace {

/// splitmix64 finalizer.
std::uint64_t mix(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::optional<WorkloadSpec> make_workload(const std::string& name,
                                          std::uint64_t seed, bool tiny) {
  WorkloadSpec w;
  w.name = name;
  w.sys.seed = seed;
  w.sys.pubsub.match_engine = pubsub::MatchEngine::kCountingIndex;
  w.sys.sim_threads = 1;
  // §5.1 range sizes; the Zipf skew the figure benches use.
  w.params.nonselective_range_frac = 0.03;
  w.params.selective_range_frac = 0.001;
  w.params.zipf_exponent = 0.7;
  w.params.matching_probability = 0.5;
  w.params.selective.assign(w.dimensions, false);
  std::uint64_t ops = 0;  // subscriptions, and as many publications

  if (name == "route") {
    // Mapping 1 fans each subscription out to ~1,800 unicast routes:
    // Chord routing and the location cache carry the run.
    w.sys.nodes = tiny ? 64 : 500;
    w.sys.mapping = pubsub::MappingKind::kAttributeSplit;
    ops = tiny ? 60 : 1000;
    w.heavy_layers = {"chord"};
  } else if (name == "mcast") {
    // Mapping 3 with non-selective ranges: large SK key sets, sent and
    // disseminated by m-cast. Unicast routing is bypassed; the driver's
    // active-subscription view grows with the subscription count.
    w.sys.nodes = tiny ? 128 : 1000;
    w.sys.mapping = pubsub::MappingKind::kSelectiveAttribute;
    w.sys.pubsub.sub_transport = pubsub::PubSubConfig::Transport::kMulticast;
    w.sys.pubsub.pub_transport = pubsub::PubSubConfig::Transport::kMulticast;
    w.sys.pubsub.dissemination = pubsub::PubSubConfig::Dissemination::kMcast;
    ops = tiny ? 200 : 10000;
    w.heavy_layers = {"workload", "overlay"};
  } else if (name == "churn") {
    // Routing and store state under writes: maintenance, replication,
    // expiry, a uniform-loss window (ack/retry) and a crash burst. The
    // burst stays below the 4-entry successor list: a correlated burst
    // of 6 can cut a node off the ring and lose deliveries for good.
    w.sys.nodes = tiny ? 64 : 300;
    w.sys.mapping = pubsub::MappingKind::kSelectiveAttribute;
    w.sys.pubsub.replication_factor = 2;
    ops = tiny ? 200 : 2000;
    w.driver.sub_ttl = sim::sec(tiny ? 300 : 6000);
    // Fault times sit 2 s off the 5 s subscription grid. TraceReplayer
    // schedules every op up front, so an op tied in simulated time with
    // an event the run schedules later (the re-replication a crash
    // arms) would fire in a different order than under the Driver, and
    // the replay would no longer reproduce the run.
    const std::uint64_t span_s = ops * 5;  // one subscription per 5 s
    w.fault_script =
        "loss at=" + std::to_string(span_s / 10 + 2) +
        " until=" + std::to_string(span_s * 3 / 10 + 2) + " rate=0.05\n" +
        "crash_burst at=" + std::to_string(span_s * 4 / 10 + 2) +
        " count=3 correlation=0.7";
    w.heavy_layers = {"sim", "chord"};
  } else {
    return std::nullopt;
  }
  w.driver.max_subscriptions = ops;
  w.driver.max_publications = ops;
  // Whole subscription intervals per slice, so every slice carries the
  // same injections; at most ~1,000 slices per repetition.
  w.slice = w.driver.sub_interval * ((ops + 999) / 1000);
  return w;
}

Experiment::Experiment(const WorkloadSpec& spec, Injection injection,
                       workload::Trace* trace)
    : spec_(spec) {
  std::string error;
  const auto script = workload::FaultScript::parse(spec.fault_script, &error);
  if (!script) throw std::invalid_argument("bad fault script: " + error);

  pubsub::SystemConfig cfg = spec.sys;
  cfg.chord.force_reliable = script->needs_reliable_transport();
  if (injection == Injection::kCausalTrace) cfg.trace_sample_rate = 1.0;
  const pubsub::Schema schema =
      pubsub::Schema::uniform(spec.dimensions, spec.attr_max);

  const Clock::time_point t0 = Clock::now();
  system_ = std::make_unique<pubsub::PubSubSystem>(cfg, schema);
  if (!script->empty()) {
    system_->network().start_maintenance_all();
    faults_ = std::make_unique<workload::FaultScriptRunner>(
        *system_, *script, spec.sys.seed);
    if (injection != Injection::kReplay) {
      faults_->set_delivery_checker(&checker_);
    }
    faults_->start();
    // The oracle judges publications issued after every fault cleared
    // plus a stabilization margin, as the fault benches do.
    verify_after_ =
        script->all_clear_at() + 8 * spec.sys.chord.stabilize_period;
  }
  setup_s_ = seconds_since(t0);

  if (injection == Injection::kReplay) {
    if (trace == nullptr) throw std::invalid_argument("replay needs a trace");
    replayer_ = std::make_unique<workload::TraceReplayer>(*system_, *trace);
    if (!trace->empty()) last_op_at_ = trace->ops().back().at;
    system_->set_notify_sink(
        [this](Key subscriber, const pubsub::Notification& n) {
          on_delivery(subscriber, n);
        });
    return;
  }
  gen_ = std::make_unique<workload::WorkloadGenerator>(
      schema, spec.params, spec.sys.seed * 7919 + 17);
  driver_ = std::make_unique<workload::Driver>(
      *system_, *gen_, spec.driver, &checker_,
      injection == Injection::kRecord ? trace : nullptr);
  // The driver wired the checker as the notify sink; keep it fed and
  // also record the delivery.
  system_->set_notify_sink([this](Key subscriber,
                                  const pubsub::Notification& n) {
    checker_.on_notify(subscriber, n, system_->sim().now());
    on_delivery(subscriber, n);
  });
}

void Experiment::on_delivery(Key subscriber, const pubsub::Notification& n) {
  const sim::SimTime now = system_->sim().now();
  delays_.push_back(sim::to_seconds(now - n.published_at));
  for (const std::uint64_t v :
       {static_cast<std::uint64_t>(n.event->id), n.subscription,
        static_cast<std::uint64_t>(subscriber), now}) {
    delivery_digest_ = mix(delivery_digest_ ^ v);
  }
}

Experiment::~Experiment() = default;

bool Experiment::issued_all() const {
  return driver_ ? driver_->finished()
                 : system_->sim().now() >= last_op_at_;
}

void Experiment::advance(sim::SimTime d) {
  const Clock::time_point t0 = Clock::now();
  system_->run_for(d);
  slice_ms_.push_back(seconds_since(t0) * 1e3);
  pending_max_ = std::max(pending_max_, system_->sim().pending_events());
}

void Experiment::run() {
  const Clock::time_point t0 = Clock::now();
  if (driver_) {
    driver_->start();
  } else {
    replayer_->start();
  }
  while (!issued_all()) advance(spec_.slice);
  if (faults_) {
    // Maintenance timers never let the queue drain: give retries and
    // repairs a window, then stop maintenance and flush the rest.
    for (sim::SimTime t = 0; t < sim::sec(120); t += spec_.slice) {
      advance(spec_.slice);
    }
    system_->network().stop_maintenance_all();
  }
  system_->quiesce();
  run_s_ = seconds_since(t0);
}

std::uint64_t Experiment::ops() const {
  return system_->subscriptions_issued() + system_->publications_issued();
}

DetOutputs Experiment::outputs() const {
  const cbps::overlay::TrafficStats& traffic = system_->traffic();
  DetOutputs d;
  d.notify_delay_p50_s = mid_quantile(delays_, 0.50);
  d.notify_delay_p99_s = mid_quantile(delays_, 0.99);
  const auto subs = static_cast<double>(system_->subscriptions_issued());
  const auto pubs = static_cast<double>(system_->publications_issued());
  d.msgs_per_sub =
      subs > 0 ? static_cast<double>(traffic.hops(MessageClass::kSubscribe)) /
                     subs
               : 0.0;
  d.msgs_per_pub =
      pubs > 0 ? static_cast<double>(traffic.hops(MessageClass::kPublish) +
                                     traffic.hops(MessageClass::kNotify) +
                                     traffic.hops(MessageClass::kCollect)) /
                     pubs
               : 0.0;
  d.max_subs_per_node = system_->storage_stats().max_peak;
  d.sim_events = system_->sim().events_processed();
  const MessageClass classes[] = {MessageClass::kSubscribe,
                                  MessageClass::kPublish,
                                  MessageClass::kNotify,
                                  MessageClass::kCollect,
                                  MessageClass::kControl};
  for (std::size_t i = 0; i < d.chord_msgs.size(); ++i) {
    d.chord_msgs[i] = traffic.hops(classes[i]);
  }
  d.notifications = delays_.size();
  d.delivery_digest = delivery_digest_;
  return d;
}

OracleOutputs Experiment::verify() {
  if (!driver_) throw std::logic_error("only driver runs feed the oracle");
  const Clock::time_point t0 = Clock::now();
  pubsub::DeliveryChecker::Report report;
  if (faults_) {
    report = checker_.verify(sim::sec(15), verify_after_);
  } else {
    report = checker_.verify();
  }
  verify_s_ = seconds_since(t0);
  OracleOutputs o;
  const std::uint64_t extra =
      report.duplicates + report.spurious + report.wrong_subscriber;
  o.checked = report.expected + extra;
  o.failed = report.missing + extra;
  return o;
}

double mid_quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  // (value, mid-step cumulative probability) per distinct value.
  double prev_v = values.front();
  double prev_f = -1.0;
  std::size_t i = 0;
  while (i < values.size()) {
    std::size_t j = i;
    while (j < values.size() && values[j] == values[i]) ++j;
    const double v = values[i];
    const double f = (static_cast<double>(i) +
                      static_cast<double>(j - i) / 2.0) / n;
    if (p <= f) {
      if (prev_f < 0.0) return v;
      return prev_v + (v - prev_v) * (p - prev_f) / (f - prev_f);
    }
    prev_v = v;
    prev_f = f;
    i = j;
  }
  return values.back();
}

}  // namespace perfbench
