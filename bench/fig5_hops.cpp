// Figure 5 — "Total Number of Hops": hops per request (subscription,
// publication, notification) for the three mappings, with the standard
// unicast send and with the native m-cast primitive.
//
// Paper setup (§5.1/§5.2): n = 500, key space 2^13, subscriptions never
// expire, all attributes non-selective, matching probability 0.5.
//
// Expected shape: publications cost ~1 route for M1/M2 and ~4 routes for
// M3; subscription hops are highest for M1 (~10x M3's key count) and
// lowest for M2; m-cast cuts subscription hops by >90% where the key
// count is high (M1, M3).
#include <cstdio>

#include "sweep.hpp"

using namespace cbps;
using namespace cbps::bench;

int main(int argc, char** argv) {
  using Transport = pubsub::PubSubConfig::Transport;

  Sweep<> sweep("fig5_hops");
  if (!sweep.parse_args(argc, argv)) return 1;

  const pubsub::MappingKind mappings[] = {
      pubsub::MappingKind::kAttributeSplit,
      pubsub::MappingKind::kKeySpaceSplit,
      pubsub::MappingKind::kSelectiveAttribute};
  const Transport transports[] = {Transport::kUnicast,
                                  Transport::kMulticast};
  for (const pubsub::MappingKind mapping : mappings) {
    for (const Transport t : transports) {
      ExperimentConfig cfg;
      cfg.sys.mapping = mapping;
      cfg.sys.pubsub.sub_transport = t;
      cfg.sys.pubsub.pub_transport = t;
      sweep.add(mapping_label(mapping) + "/" + transport_label(t), cfg);
    }
  }

  std::puts("=== Figure 5: hops per request, 3 mappings x {unicast, m-cast} ===");
  std::puts("n=500, 2^13 keys, no expiration, 0 selective attrs,");
  std::puts("1000 subscriptions, 1000 publications, matching prob 0.5\n");
  std::printf("%-20s %-9s %12s %12s %12s %14s\n", "mapping", "transport",
              "hops/sub", "hops/pub", "hops/notif", "notifications");

  const auto& results =
      sweep.run([&](std::size_t i, const ExperimentResult& r) {
        const auto mapping = mappings[i / 2];
        const auto t = transports[i % 2];
        std::printf("%-20s %-9s %12.1f %12.2f %12.2f %14llu\n",
                    mapping_label(mapping).c_str(),
                    transport_label(t).c_str(), r.hops_per_subscription,
                    r.hops_per_publication, r.hops_per_notification,
                    static_cast<unsigned long long>(
                        r.notifications_delivered));
      });

  // Point order: (M1, M2, M3) x (unicast, m-cast).
  const double m1_unicast_sub_hops = results[0].hops_per_subscription;
  const double m1_mcast_sub_hops = results[1].hops_per_subscription;
  const double m3_unicast_sub_hops = results[4].hops_per_subscription;
  const double m3_mcast_sub_hops = results[5].hops_per_subscription;

  std::printf("\nm-cast reduction of subscription hops: M1 %.0f%%, M3 %.0f%%"
              " (paper: >90%% for high-key-count mappings)\n",
              100.0 * (1.0 - m1_mcast_sub_hops / m1_unicast_sub_hops),
              100.0 * (1.0 - m3_mcast_sub_hops / m3_unicast_sub_hops));
  std::printf("M1/M3 unicast subscription-hop ratio: %.1fx (paper: ~10x "
              "more keys for M1)\n",
              m1_unicast_sub_hops / m3_unicast_sub_hops);
  return 0;
}
