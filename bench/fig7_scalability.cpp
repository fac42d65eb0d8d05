// Figure 7 — "Scalability of bandwidth consumption": hops per
// publication as a function of the number of nodes n, for Mapping 3
// (Selective-Attribute) with unicast.
//
// Expected shape: logarithmic growth in n — the basic scalability
// property of the underlying overlay (§5.2).
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "sweep.hpp"

using namespace cbps;
using namespace cbps::bench;

int main(int argc, char** argv) {
  Sweep<> sweep("fig7_scalability");
  if (!sweep.parse_args(argc, argv)) return 1;

  const std::vector<std::size_t> node_counts = {50, 100, 250, 500, 1000,
                                                2000};
  for (const std::size_t n : node_counts) {
    ExperimentConfig cfg;
    cfg.sys.nodes = n;
    cfg.sys.mapping = pubsub::MappingKind::kSelectiveAttribute;
    cfg.driver.max_subscriptions = 500;
    cfg.driver.max_publications = 500;
    sweep.add("n=" + std::to_string(n), cfg);
  }

  std::puts("=== Figure 7: hops per publication vs number of nodes ===");
  std::puts("Mapping 3 (selective-attribute), unicast, 500 subs + 500 pubs\n");
  std::printf("%6s %14s %14s %10s\n", "nodes", "hops/pub",
              "avg route hops", "log2(n)");

  sweep.run([&](std::size_t i, const ExperimentResult& r) {
    const std::size_t n = node_counts[i];
    std::printf("%6zu %14.2f %14.2f %10.1f\n", n, r.hops_per_publication,
                r.avg_route_hops, std::log2(static_cast<double>(n)));
  });

  std::puts("\n(each publication routes to d=4 rendezvous keys; the per-route");
  std::puts("average stays below log2(n) thanks to the location cache, as");
  std::puts("the paper observes: ~2.5 hops at n=500)");
  return 0;
}
