#include "cbps/workload/fault_script.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <unordered_set>
#include <utility>

#include "cbps/sim/loss.hpp"

namespace cbps::workload {

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

namespace {

void fail(std::string* error, std::string msg) {
  if (error != nullptr) *error = std::move(msg);
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  while (true) {
    const std::size_t pos = s.find(sep);
    out.push_back(s.substr(0, pos));
    if (pos == std::string_view::npos) break;
    s.remove_prefix(pos + 1);
  }
  return out;
}

bool parse_double(std::string_view s, double* out) {
  const std::string tmp(s);
  char* end = nullptr;
  const double v = std::strtod(tmp.c_str(), &end);
  if (end != tmp.c_str() + tmp.size()) return false;
  *out = v;
  return true;
}

bool parse_prob(std::string_view s, double* out) {
  return parse_double(s, out) && *out >= 0.0 && *out <= 1.0;
}

bool parse_time_s(std::string_view s, sim::SimTime* out) {
  double secs = 0.0;
  if (!parse_double(s, &secs) || secs < 0.0) return false;
  *out = sim::from_seconds(secs);
  return true;
}

bool parse_count(std::string_view s, std::size_t* out) {
  double v = 0.0;
  if (!parse_double(s, &v) || v < 1.0 || v != std::floor(v)) return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

}  // namespace

bool FaultScript::needs_reliable_transport() const {
  return std::any_of(directives.begin(), directives.end(),
                     [](const FaultDirective& d) {
                       return d.kind == FaultDirective::Kind::kPartition ||
                              d.kind == FaultDirective::Kind::kLoss ||
                              d.kind == FaultDirective::Kind::kCrashBurst;
                     });
}

sim::SimTime FaultScript::all_clear_at() const {
  sim::SimTime clear = 0;
  for (const FaultDirective& d : directives) {
    clear = std::max(
        clear, d.until != sim::kSimTimeNever ? d.until : d.at);
  }
  return clear;
}

std::optional<FaultScript> FaultScript::parse(std::string_view text,
                                              std::string* error) {
  FaultScript script;
  std::vector<std::string_view> statements;
  for (std::string_view line : split(text, '\n')) {
    // Strip comments before splitting on ';'.
    if (const std::size_t hash = line.find('#');
        hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    for (std::string_view stmt : split(line, ';')) {
      stmt = trim(stmt);
      if (!stmt.empty()) statements.push_back(stmt);
    }
  }

  for (std::string_view stmt : statements) {
    std::vector<std::string_view> tokens;
    for (std::string_view t : split(stmt, ' ')) {
      t = trim(t);
      if (!t.empty()) tokens.push_back(t);
    }
    FaultDirective d;
    const std::string_view name = tokens.front();
    bool has_at = false;
    if (name == "partition") {
      d.kind = FaultDirective::Kind::kPartition;
    } else if (name == "loss") {
      d.kind = FaultDirective::Kind::kLoss;
    } else if (name == "slow") {
      d.kind = FaultDirective::Kind::kSlow;
    } else if (name == "crash_burst") {
      d.kind = FaultDirective::Kind::kCrashBurst;
    } else if (name == "checkpoint") {
      d.kind = FaultDirective::Kind::kCheckpoint;
      d.label = "checkpoint";
    } else {
      fail(error, "unknown directive '" + std::string(name) + "'");
      return std::nullopt;
    }

    std::string_view model = "uniform";
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      const std::size_t eq = tokens[i].find('=');
      if (eq == std::string_view::npos) {
        fail(error, "expected key=value, got '" + std::string(tokens[i]) +
                        "' in '" + std::string(stmt) + "'");
        return std::nullopt;
      }
      const std::string_view key = tokens[i].substr(0, eq);
      const std::string_view val = tokens[i].substr(eq + 1);
      bool ok = true;
      if (key == "at") {
        ok = parse_time_s(val, &d.at);
        has_at = ok;
      } else if (key == "until" || key == "heal") {
        ok = parse_time_s(val, &d.until);
      } else if (key == "frac") {
        ok = parse_prob(val, &d.frac) && d.frac > 0.0 && d.frac < 1.0;
      } else if (key == "model") {
        model = val;
        ok = val == "uniform" || val == "ge";
      } else if (key == "rate") {
        ok = parse_prob(val, &d.rate);
      } else if (key == "p") {
        ok = parse_prob(val, &d.ge_p);
      } else if (key == "q") {
        ok = parse_prob(val, &d.ge_q);
      } else if (key == "good") {
        ok = parse_prob(val, &d.ge_good);
      } else if (key == "bad") {
        ok = parse_prob(val, &d.ge_bad);
      } else if (key == "nodes") {
        ok = parse_count(val, &d.nodes);
      } else if (key == "factor") {
        ok = parse_double(val, &d.factor) && d.factor >= 1.0;
      } else if (key == "count") {
        ok = parse_count(val, &d.count);
      } else if (key == "correlation") {
        ok = parse_prob(val, &d.correlation);
      } else if (key == "label") {
        d.label = std::string(val);
      } else {
        fail(error, "unknown key '" + std::string(key) + "' in '" +
                        std::string(stmt) + "'");
        return std::nullopt;
      }
      if (!ok) {
        fail(error, "bad value for '" + std::string(key) + "' in '" +
                        std::string(stmt) + "'");
        return std::nullopt;
      }
    }

    if (!has_at) {
      fail(error, "directive '" + std::string(stmt) + "' needs at=<secs>");
      return std::nullopt;
    }
    if (d.until != sim::kSimTimeNever && d.until <= d.at) {
      fail(error, "until/heal must be later than at in '" +
                      std::string(stmt) + "'");
      return std::nullopt;
    }
    d.loss_kind = model == "ge" ? FaultDirective::LossKind::kGilbertElliott
                                : FaultDirective::LossKind::kUniform;
    script.directives.push_back(std::move(d));
  }
  return script;
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

FaultScriptRunner::FaultScriptRunner(pubsub::PubSubSystem& system,
                                     FaultScript script, std::uint64_t seed,
                                     Protected is_protected)
    : system_(system),
      script_(std::move(script)),
      rng_(seed ^ 0xfa017c7a5c31ull),
      is_protected_(std::move(is_protected)) {}

void FaultScriptRunner::start() {
  sim::Simulator& sim = system_.sim();
  for (const FaultDirective& d : script_.directives) {
    sim.schedule_at(std::max(d.at, sim.now()), [this, &d] { apply(d); });
  }
}

void FaultScriptRunner::apply(const FaultDirective& d) {
  switch (d.kind) {
    case FaultDirective::Kind::kPartition:
      apply_partition(d);
      break;
    case FaultDirective::Kind::kLoss:
      apply_loss(d);
      break;
    case FaultDirective::Kind::kSlow:
      apply_slow(d);
      break;
    case FaultDirective::Kind::kCrashBurst:
      apply_crash_burst(d);
      break;
    case FaultDirective::Kind::kCheckpoint:
      if (on_checkpoint_) on_checkpoint_(d.label, system_.sim().now());
      break;
  }
}

void FaultScriptRunner::apply_partition(const FaultDirective& d) {
  chord::ChordNetwork& net = system_.network();
  const std::vector<Key> ids = net.alive_ids();
  const std::size_t n = ids.size();
  if (n < 2) return;

  // Minority group: a contiguous arc of ceil(frac * n) nodes starting at
  // a seeded offset — contiguous, because that is the hard case for ring
  // repair (both cut points fall inside one coverage gap).
  std::size_t cut = static_cast<std::size_t>(
      std::ceil(d.frac * static_cast<double>(n)));
  cut = std::min(cut, n - 1);
  const auto off = static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  std::vector<Key> minority;
  minority.reserve(cut);
  for (std::size_t i = 0; i < cut; ++i) {
    minority.push_back(ids[(off + i) % n]);
  }
  net.set_partition({minority});
  ++partitions_;

  if (d.until == sim::kSimTimeNever) return;
  system_.sim().schedule_at(d.until, [this] {
    system_.network().heal_partition();
    last_heal_at_ = system_.sim().now();
    // Ownership has been reshuffled across the cut; once stabilization
    // has had a couple of rounds to re-merge the ring, rebuild every
    // replica chain along the restored successor order. Subscribers also
    // refresh their soft state: a subscription issued *during* the cut
    // toward the other side exhausts its retry budget and is never
    // stored — only the subscriber can re-issue it.
    schedule_re_replication(/*refresh_subs=*/true);
  });
}

void FaultScriptRunner::apply_loss(const FaultDirective& d) {
  chord::ChordNetwork& net = system_.network();
  if (d.loss_kind == FaultDirective::LossKind::kGilbertElliott) {
    net.set_loss_model(std::make_unique<sim::GilbertElliottLoss>(
        d.ge_p, d.ge_q, d.ge_good, d.ge_bad));
  } else {
    net.set_loss_model(std::make_unique<sim::UniformLoss>(d.rate));
  }
  ++loss_swaps_;
  if (d.until == sim::kSimTimeNever) return;
  system_.sim().schedule_at(d.until, [this] {
    system_.network().set_loss_model(nullptr);
    ++loss_swaps_;
  });
}

void FaultScriptRunner::apply_slow(const FaultDirective& d) {
  chord::ChordNetwork& net = system_.network();
  std::vector<Key> candidates;
  for (Key id : net.alive_ids()) {
    if (is_protected_ && is_protected_(id)) continue;
    if (net.slow_factor(id) > 1.0) continue;  // already gray
    candidates.push_back(id);
  }
  std::vector<Key> chosen;
  for (std::size_t i = 0; i < d.nodes && !candidates.empty(); ++i) {
    const auto j = static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(candidates.size()) - 1));
    chosen.push_back(candidates[j]);
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(j));
  }
  for (Key id : chosen) net.set_slow_factor(id, d.factor);
  slow_marks_ += chosen.size();

  if (d.until == sim::kSimTimeNever || chosen.empty()) return;
  system_.sim().schedule_at(d.until, [this, chosen] {
    for (Key id : chosen) system_.network().set_slow_factor(id, 1.0);
  });
}

void FaultScriptRunner::apply_crash_burst(const FaultDirective& d) {
  chord::ChordNetwork& net = system_.network();
  std::optional<Key> last;
  for (std::size_t i = 0; i < d.count; ++i) {
    if (net.alive_count() <= 2) return;  // keep a workable ring
    const std::vector<Key> ids = net.alive_ids();
    std::vector<Key> candidates;
    for (Key id : ids) {
      if (is_protected_ && is_protected_(id)) continue;
      candidates.push_back(id);
    }
    if (candidates.empty()) return;

    Key victim = 0;
    if (last && rng_.bernoulli(d.correlation)) {
      // Correlated failure: take the ring successor of the previous
      // victim (correlated crashes of adjacent nodes are what defeats
      // successor-list replication).
      victim = net.oracle_successor(net.ring().add(*last, 1));
      if (is_protected_ && is_protected_(victim)) {
        victim = candidates[static_cast<std::size_t>(rng_.uniform_int(
            0, static_cast<std::int64_t>(candidates.size()) - 1))];
      }
    } else {
      victim = candidates[static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(candidates.size()) - 1))];
    }
    const sim::SimTime now = system_.sim().now();
    system_.crash_node(system_.index_of(victim));
    if (checker_ != nullptr) checker_->on_node_crashed(victim, now);
    ++crashes_;
    last = victim;
  }

  // As after a heal: once the survivors have re-stabilized around the
  // holes, rebuild the replica chains (let replica holders whose owner
  // died adopt their records), and have subscribers re-issue — a
  // correlated burst can take out an entire owner+replica chain, which
  // only the subscriber's own soft state can restore.
  schedule_re_replication(/*refresh_subs=*/true);
}

void FaultScriptRunner::schedule_re_replication(bool refresh_subs) {
  const sim::SimTime period = system_.config().chord.stabilize_period;
  if (period == 0 || (system_.config().pubsub.replication_factor == 0 &&
                      !refresh_subs)) {
    return;
  }
  // Two passes: an early one catches the common case, a late one re-runs
  // after a large contiguous hole (several adjacent crashes, or a whole
  // partition arc) has taken extra stabilization rounds to close.
  const auto pass = [this, refresh_subs] {
    system_.re_replicate_all();
    if (refresh_subs) system_.refresh_all_subscriptions();
  };
  system_.sim().schedule_after(2 * period, pass);
  system_.sim().schedule_after(8 * period, pass);
}

}  // namespace cbps::workload
