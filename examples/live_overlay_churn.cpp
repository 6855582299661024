// A live overlay under churn: peers join, make and lose links, and the
// k-core decomposition is maintained continuously by live::Service
// instead of being recomputed. This is the paper's one-to-one scenario
// taken to its run-time conclusion. The service's node count is fixed,
// so joining peers come from a pool of isolated nodes built in from the
// start. The final table is checked against bz; a mismatch exits 1.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "live/service.h"
#include "seq/kcore_seq.h"
#include "util/rng.h"
#include "util/table.h"

int main() {
  using namespace kcore;
  using graph::EdgeOp;
  using graph::EdgeUpdate;
  using graph::NodeId;
  constexpr NodeId kPeers = 20000;
  constexpr NodeId kPool = 200;  // joins: 8 epochs x 250 events x 0.08

  const graph::Graph overlay = graph::gen::barabasi_albert(kPeers, 3, 31);
  graph::GraphBuilder builder(kPeers + kPool);
  for (NodeId u = 0; u < kPeers; ++u) {
    for (const NodeId v : overlay.neighbors(u)) {
      if (u < v) builder.add_edge(u, v);
    }
  }
  live::ServiceOptions options;
  options.threads = 1;
  live::Service service(builder.build(), options);
  const auto& topology = service.graph();
  std::cout << "bootstrap: " << kPeers << " peers (+" << kPool
            << " waiting to join), " << topology.num_edges() << " links, "
            << service.initial_stats().relaxations << " relaxations\n\n";

  util::Xoshiro256 rng(7);
  NodeId online = kPeers;
  util::TableWriter table({"epoch", "joins", "new links", "lost links",
                           "repair work", "kmax"});
  for (int epoch = 1; epoch <= 8; ++epoch) {
    int joins = 0;
    std::uint64_t adds = 0;
    std::uint64_t removals = 0;
    std::uint64_t work = 0;
    for (int event = 0; event < 250; ++event) {
      const double dice = rng.next_double();
      std::vector<EdgeUpdate> batch;
      if (dice < 0.08 && online < kPeers + kPool) {
        // The next pooled peer joins and bootstraps with 3 random links.
        for (int l = 0; l < 3; ++l) {
          batch.push_back({EdgeOp::kInsert, online,
                           static_cast<NodeId>(rng.next_below(online))});
        }
        ++online;
        ++joins;
      } else if (dice < 0.60) {
        batch.push_back({EdgeOp::kInsert,
                         static_cast<NodeId>(rng.next_below(online)),
                         static_cast<NodeId>(rng.next_below(online))});
      } else {
        // A random peer drops one of its links.
        auto u = static_cast<NodeId>(rng.next_below(online));
        while (topology.degree(u) == 0) {
          u = static_cast<NodeId>(rng.next_below(online));
        }
        const auto links = topology.neighbors(u);
        batch.push_back(
            {EdgeOp::kRemove, u, links[rng.next_below(links.size())]});
      }
      const live::ApplyResult result = service.apply(batch);
      adds += result.applied_inserts;
      removals += result.applied_removes;
      work += result.repair.relaxations + result.repair.raised;
    }
    const auto& coreness = service.query()->coreness;
    table.add_row({std::to_string(epoch), std::to_string(joins),
                   std::to_string(adds), std::to_string(removals),
                   std::to_string(work),
                   std::to_string(
                       *std::max_element(coreness.begin(), coreness.end()))});
  }
  table.print(std::cout);
  const bool exact =
      service.query()->coreness == seq::coreness_bz(topology.snapshot());
  std::cout << "\nEach epoch of 250 churn events costs a small fraction of "
               "the bootstrap\nconvergence, and the final table "
            << (exact ? "matches" : "DIFFERS from")
            << " a from-scratch bz decomposition.\n";
  return exact ? 0 : 1;
}
