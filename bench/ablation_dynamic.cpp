// Ablation: dynamic maintenance vs restart-from-scratch under churn.
//
// The paper's one-to-one scenario is a live overlay; peers join/leave all
// the time. This bench streams single-edge insertions/deletions into a
// one-thread live::Service and charges each applied update its actual
// repair work (relaxations plus k-order raises), then compares it with
// a restart: the service's own from-scratch convergence on the same
// runtime. Removals cut existing edges, so the churn is a real 50/50
// mix. The final table is checked against bz; a mismatch exits 1.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <span>
#include <string>

#include "eval/datasets.h"
#include "eval/experiments.h"
#include "live/service.h"
#include "seq/kcore_seq.h"
#include "util/rng.h"
#include "util/table.h"

int main() {
  using namespace kcore::eval;
  using kcore::graph::EdgeOp;
  using kcore::graph::EdgeUpdate;
  using kcore::graph::NodeId;
  const auto options = ExperimentOptions::from_env();
  const int updates = options.quick ? 20 : 200;
  std::cout << "== bench: ablation — dynamic maintenance under churn ==\n"
            << "scale=" << options.scale << " updates=" << updates << "\n\n";

  kcore::util::TableWriter table(
      {"profile", "restart_relax", "applied +/-", "maint_work/update",
       "speedup"});
  bool exact = true;
  for (const auto& spec : dataset_registry()) {
    if (options.quick && spec.name != "gnutella-like") continue;
    const auto g = spec.build(options.scale * 0.25, options.base_seed);

    kcore::live::ServiceOptions service_options;
    service_options.threads = 1;
    kcore::live::Service service(g, service_options);
    const auto restart =
        static_cast<double>(service.initial_stats().relaxations);
    const auto& topology = service.graph();

    kcore::util::Xoshiro256 rng(options.base_seed);
    std::uint64_t inserts = 0;
    std::uint64_t removes = 0;
    std::uint64_t work = 0;
    for (int i = 0; i < updates; ++i) {
      auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      EdgeUpdate update{EdgeOp::kInsert, u,
                        static_cast<NodeId>(rng.next_below(g.num_nodes()))};
      if (rng.next_bool(0.5) && topology.num_edges() > 0) {
        // Cut a random edge of a random node that has one.
        while (topology.degree(u) == 0) {
          u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
        }
        const auto nbrs = topology.neighbors(u);
        update = {EdgeOp::kRemove, u, nbrs[rng.next_below(nbrs.size())]};
      }
      const auto result = service.apply(std::span(&update, 1));
      inserts += result.applied_inserts;
      removes += result.applied_removes;
      work += result.repair.relaxations + result.repair.raised;
    }
    if (service.query()->coreness !=
        kcore::seq::coreness_bz(topology.snapshot())) {
      std::cerr << spec.name << ": live table differs from bz\n";
      exact = false;
    }
    const double per_update =
        static_cast<double>(work) /
        static_cast<double>(std::max<std::uint64_t>(inserts + removes, 1));
    table.add_row({spec.name, kcore::util::fmt_double(restart, 0),
                   std::to_string(inserts) + "/" + std::to_string(removes),
                   kcore::util::fmt_double(per_update, 1),
                   kcore::util::fmt_double(
                       restart / std::max(per_update, 1e-9), 0) +
                       "x"});
  }
  table.print(std::cout);
  std::cout << "\nReading: one churn event costs orders of magnitude less "
               "than restarting —\nan insertion walks only the part of the "
               "K-shell that gained support in the\nk-order, a deletion "
               "warm-starts from still-valid upper bounds.\n";
  return exact ? 0 : 1;
}
