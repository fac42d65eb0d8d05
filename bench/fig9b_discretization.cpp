// Figure 9(b) — effect of mapping discretization on the cost of issuing
// subscriptions (Mapping 3 with unicast; the paper notes the same
// results apply to the other mappings with multicast).
//
// Discretization interval sizes: 1 (none), 10% and 20% of the average
// constraint range size. With non-selective ranges uniform in
// [1, 3% * ATTR_MAX], the average range is 15,000 values, so the
// intervals are 1,500 and 3,000 values wide.
//
// Expected shape: coarser discretization -> markedly fewer hops per
// subscription.
#include <cstdio>
#include <string>
#include <vector>

#include "sweep.hpp"

using namespace cbps;
using namespace cbps::bench;

int main(int argc, char** argv) {
  Sweep<> sweep("fig9b_discretization");
  if (!sweep.parse_args(argc, argv)) return 1;

  struct Disc {
    const char* label;
    double frac_of_mean_range;  // 0 = no discretization
  };
  const std::vector<Disc> discs = {
      {"none", 0.0}, {"10% of range", 0.10}, {"20% of range", 0.20}};
  const std::vector<double> range_fracs = {0.01, 0.03, 0.05};

  for (const double frac : range_fracs) {
    const double mean_range = frac * 1'000'000 / 2.0;
    for (const Disc& d : discs) {
      ExperimentConfig cfg;
      cfg.sys.mapping = pubsub::MappingKind::kSelectiveAttribute;
      cfg.sys.mapping_options.discretization =
          d.frac_of_mean_range == 0.0
              ? 1
              : static_cast<Value>(mean_range * d.frac_of_mean_range);
      cfg.workload.nonselective_range_frac = frac;
      cfg.driver.max_publications = 0;
      sweep.add("range=" + std::to_string(mean_range) + "/disc=" + d.label,
                cfg);
    }
  }

  std::puts("=== Figure 9(b): subscription hops vs discretization ===");
  std::puts("Mapping 3, unicast, n=500, 1000 subscriptions; rows sweep the");
  std::puts("average range size (non-selective range bound)\n");

  std::printf("%-22s", "avg range size");
  for (const Disc& d : discs) std::printf(" %14s", d.label);
  std::puts("");

  const std::size_t per_row = discs.size();
  sweep.run([&](std::size_t i, const ExperimentResult& r) {
    const std::size_t row = i / per_row;
    if (i % per_row == 0) {
      std::printf("%-22.0f", range_fracs[row] * 1'000'000 / 2.0);
    }
    std::printf(" %14.1f", r.hops_per_subscription);
    if ((i + 1) % per_row == 0) std::puts("");
  });
  std::puts("\n(cell = one-hop messages per subscription)");
  return 0;
}
