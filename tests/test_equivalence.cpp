// Grand cross-algorithm equivalence: every implementation in the repo —
// the two sequential baselines, the one-to-one protocol in both delivery
// modes, the one-to-many protocol under several host counts, the BSP
// (Pregel) port, and the live service's initial convergence — must
// produce the identical decomposition on every dataset profile and every
// deterministic family. This is the repo's strongest end-to-end safety
// net.
#include <gtest/gtest.h>

#include "core/one_to_many.h"
#include "core/one_to_one.h"
#include "core/pregel_kcore.h"
#include "eval/datasets.h"
#include "graph/generators.h"
#include "live/service.h"
#include "seq/kcore_seq.h"

namespace kcore {
namespace {

using graph::Graph;
using graph::NodeId;

void expect_all_algorithms_agree(const Graph& g, const std::string& label) {
  const auto truth = seq::coreness_bz(g);
  ASSERT_EQ(seq::coreness_peeling(g), truth) << label << ": peeling";
  ASSERT_TRUE(seq::satisfies_locality(g, truth)) << label << ": locality";

  {
    core::OneToOneConfig config;
    config.mode = sim::DeliveryMode::kSynchronous;
    const auto result = core::run_one_to_one(g, config);
    ASSERT_TRUE(result.traffic.converged) << label;
    ASSERT_EQ(result.coreness, truth) << label << ": one-to-one sync";
  }
  {
    core::OneToOneConfig config;
    config.mode = sim::DeliveryMode::kCycleRandomOrder;
    config.seed = 99;
    const auto result = core::run_one_to_one(g, config);
    ASSERT_EQ(result.coreness, truth) << label << ": one-to-one cycle";
  }
  for (const sim::HostId hosts : {1U, 5U, 32U}) {
    core::OneToManyConfig config;
    config.num_hosts = hosts;
    const auto result = core::run_one_to_many(g, config);
    ASSERT_EQ(result.coreness, truth)
        << label << ": one-to-many h=" << hosts;
  }
  {
    const auto result = core::run_pregel_kcore(g, 8);
    ASSERT_EQ(result.coreness, truth) << label << ": bsp";
  }
  {
    live::ServiceOptions options;
    options.threads = 1;
    const live::Service service(g, options);
    ASSERT_EQ(service.query()->coreness, truth) << label << ": live";
  }
}

class ProfileEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ProfileEquivalence, AllAlgorithmsAgreeOnProfile) {
  const auto& spec = eval::dataset_registry()[GetParam()];
  const Graph g = spec.build(0.02, 21);
  expect_all_algorithms_agree(g, spec.name);
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, ProfileEquivalence,
                         ::testing::Range<std::size_t>(0, 9),
                         [](const auto& suite_info) {
                           std::string name =
                               eval::dataset_registry()[suite_info.param].name;
                           for (auto& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

TEST(FamilyEquivalence, DeterministicFamilies) {
  namespace gen = graph::gen;
  expect_all_algorithms_agree(gen::chain(25), "chain");
  expect_all_algorithms_agree(gen::cycle(18), "cycle");
  expect_all_algorithms_agree(gen::clique(11), "clique");
  expect_all_algorithms_agree(gen::star(30), "star");
  expect_all_algorithms_agree(gen::complete_bipartite(4, 7), "bipartite");
  expect_all_algorithms_agree(gen::grid(6, 9), "grid");
  expect_all_algorithms_agree(gen::ring_lattice(24, 6), "ring-lattice");
  expect_all_algorithms_agree(gen::montresor_worst_case(17), "worst-case");
}

TEST(FamilyEquivalence, AwkwardShapes) {
  namespace gen = graph::gen;
  // Isolated nodes, multiple components, tendrils and a planted core in
  // one graph.
  const std::array<NodeId, 3> sizes{1, 6, 14};
  Graph g = gen::disjoint_cliques(sizes);
  g = gen::attach_paths(g, 2, 9, 3);
  g = gen::plant_dense_core(g, 10, 4, 4);
  expect_all_algorithms_agree(g, "franken-graph");
}

}  // namespace
}  // namespace kcore
