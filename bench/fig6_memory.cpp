// Figure 6 — "Memory consumption": maximum number of subscriptions
// stored per node as a function of the subscription expiration time, for
// the three mappings, with zero and one selective attributes.
//
// Paper setup: 25,000 subscriptions injected (one per 5 s), no
// publications. Expected shape: M2 stores the least without selective
// attributes; M3 benefits strongly from one selective attribute.
#include <cstdio>
#include <string>
#include <vector>

#include "sweep.hpp"

using namespace cbps;
using namespace cbps::bench;

int main(int argc, char** argv) {
  Sweep<> sweep("fig6_memory");
  if (!sweep.parse_args(argc, argv)) return 1;

  const std::vector<std::pair<const char*, sim::SimTime>> expiries = {
      {"5000s", sim::sec(5'000)},
      {"25000s", sim::sec(25'000)},
      {"60000s", sim::sec(60'000)},
      {"never", sim::kSimTimeNever},
  };
  const pubsub::MappingKind mappings[] = {
      pubsub::MappingKind::kAttributeSplit,
      pubsub::MappingKind::kKeySpaceSplit,
      pubsub::MappingKind::kSelectiveAttribute};

  // Point order: selective x mapping x expiry (rows stream cell by cell).
  for (const std::size_t selective : {0, 1}) {
    for (const pubsub::MappingKind mapping : mappings) {
      for (const auto& [label, ttl] : expiries) {
        ExperimentConfig cfg;
        cfg.sys.mapping = mapping;
        cfg.workload.selective.assign(selective, true);
        cfg.driver.max_subscriptions = 25'000;
        cfg.driver.max_publications = 0;
        cfg.driver.sub_ttl = ttl;
        // Memory is transport-independent; m-cast keeps the run fast.
        cfg.sys.pubsub.sub_transport =
            pubsub::PubSubConfig::Transport::kMulticast;
        sweep.add(mapping_label(mapping) + "/sel" +
                      std::to_string(selective) + "/ttl=" + label,
                  cfg);
      }
    }
  }

  std::puts("=== Figure 6: max subscriptions per node vs expiration time ===");
  std::puts("n=500, 25000 subscriptions (1 per 5s), no publications\n");

  const std::size_t per_row = expiries.size();
  const std::size_t per_group = per_row * std::size(mappings);
  sweep.run([&](std::size_t i, const ExperimentResult& r) {
    const std::size_t group = i / per_group;       // selective 0/1
    const std::size_t in_group = i % per_group;
    const std::size_t mapping_idx = in_group / per_row;
    const std::size_t expiry_idx = in_group % per_row;
    if (in_group == 0) {
      std::printf("--- %zu selective attribute(s) ---\n", group);
      std::printf("%-20s", "mapping");
      for (const auto& [label, _] : expiries) std::printf(" %10s", label);
      std::printf("   %s\n", "(avg/node at 'never')");
    }
    if (expiry_idx == 0) {
      std::printf("%-20s", mapping_label(mappings[mapping_idx]).c_str());
    }
    std::printf(" %10zu", r.max_subs_per_node);
    if (expiries[expiry_idx].second == sim::kSimTimeNever) {
      std::printf("   %.1f\n", r.avg_subs_per_node);
    }
    if (in_group + 1 == per_group) std::puts("");
  });
  return 0;
}
