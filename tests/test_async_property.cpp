// Randomized property tests for the async chaotic-relaxation runtime:
// across hundreds of generated graphs (Erdős–Rényi, Barabási–Albert,
// stars, paths, disconnected unions, plus the deterministic adversaries),
// several seeds, and 1/2/4/hw worker threads, bsp-async must produce
// coreness BIT-IDENTICAL to the sequential Batagelj–Zaveršnik baseline —
// the paper's convergence-under-asynchrony claim, checked on real
// schedules instead of proved on paper.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "eval/datasets.h"
#include "graph/generators.h"
#include "par/async_engine.h"
#include "seq/kcore_seq.h"
#include "util/rng.h"

namespace kcore {
namespace {

using graph::Graph;
using graph::NodeId;
namespace gen = graph::gen;

struct Case {
  std::string name;
  Graph g;
};

/// A union of structurally different parts (clique + star + path + ER
/// blob), sized by the seed: exercises many disconnected components with
/// heterogeneous coreness, the shape most likely to strand a dirty vertex
/// on an idle worker.
Graph disconnected_union(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<Graph> parts;
  parts.push_back(gen::clique(2 + rng.next_below(6)));
  parts.push_back(gen::star(2 + rng.next_below(30)));
  parts.push_back(gen::chain(2 + rng.next_below(30)));
  const NodeId n = 4 + static_cast<NodeId>(rng.next_below(40));
  const std::uint64_t max_edges =
      static_cast<std::uint64_t>(n) * (n - 1) / 2;
  parts.push_back(gen::erdos_renyi_gnm(
      n, std::min<std::uint64_t>(2 * n, max_edges), seed * 13 + 1));
  if (rng.next_below(2) == 0) {
    parts.push_back(Graph::from_edges(3, {}));  // isolated vertices
  }
  return gen::disjoint_union(parts);
}

/// >= 200 graphs across the families the issue names, plus the repo's
/// deterministic adversaries (worst-case polygon, grids, bipartite).
std::vector<Case> property_cases() {
  std::vector<Case> cases;
  auto add = [&cases](std::string name, Graph g) {
    cases.push_back({std::move(name), std::move(g)});
  };

  for (const NodeId n : {2u, 3u, 10u, 40u, 120u}) {
    for (const std::uint64_t factor : {1u, 3u}) {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const std::uint64_t max_edges =
            static_cast<std::uint64_t>(n) * (n - 1) / 2;
        const std::uint64_t m = std::min(factor * n, max_edges);
        add("er n=" + std::to_string(n) + " m=" + std::to_string(m) +
                " seed=" + std::to_string(seed),
            gen::erdos_renyi_gnm(n, m, seed));
      }
    }
  }
  for (const NodeId n : {10u, 50u, 150u}) {
    for (const NodeId epn : {1u, 3u}) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        add("ba n=" + std::to_string(n) + " epn=" + std::to_string(epn) +
                " seed=" + std::to_string(seed),
            gen::barabasi_albert(n, epn, seed));
      }
    }
  }
  for (const NodeId n : {2u, 3u, 5u, 17u, 64u, 200u}) {
    add("star n=" + std::to_string(n), gen::star(n));
  }
  for (const NodeId n : {2u, 3u, 4u, 9u, 33u, 150u}) {
    add("path n=" + std::to_string(n), gen::chain(n));
  }
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    add("union seed=" + std::to_string(seed), disconnected_union(seed));
  }
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::vector<NodeId> sizes{
        static_cast<NodeId>(2 + seed), 5, 9, 3};
    add("cliques seed=" + std::to_string(seed),
        gen::disjoint_cliques(sizes));
  }
  // Deterministic adversaries: the §4.2 worst case propagates one
  // estimate change around the whole polygon — the longest possible
  // sequential dependency chain for the work-stealing scheduler.
  for (const NodeId n : {5u, 16u, 64u}) {
    add("worst-case n=" + std::to_string(n), gen::montresor_worst_case(n));
  }
  add("cycle n=3", gen::cycle(3));
  add("cycle n=10", gen::cycle(10));
  add("grid 4x7", gen::grid(4, 7));
  add("bipartite 3x8", gen::complete_bipartite(3, 8));
  add("ring-lattice n=20 d=4", gen::ring_lattice(20, 4));
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    add("ws seed=" + std::to_string(seed),
        gen::watts_strogatz(60, 4, 0.2, seed));
  }
  // Multi-chunk graphs: more than one 4096-id seed chunk, so the seeding
  // itself spreads vertices over the lanes.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    add("ba n=18000 epn=3 seed=" + std::to_string(seed),
        gen::barabasi_albert(18000, 3, seed));
  }
  const std::vector<Graph> parts{gen::barabasi_albert(6000, 2, 4),
                                 gen::barabasi_albert(6000, 5, 5),
                                 gen::barabasi_albert(6000, 8, 6)};
  add("union of 3 ba n=6000", gen::disjoint_union(parts));
  add("path n=13000", gen::chain(13000));
  return cases;
}

std::vector<unsigned> thread_counts() {
  std::set<unsigned> counts{1, 2, 4};
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) counts.insert(hw);
  return {counts.begin(), counts.end()};
}

constexpr api::SchedPolicy kScheds[] = {api::SchedPolicy::kLifo,
                                        api::SchedPolicy::kDelta,
                                        api::SchedPolicy::kBound};

TEST(AsyncProperty, MatchesSequentialBaselineOnEveryGeneratedGraph) {
  const auto cases = property_cases();
  ASSERT_GE(cases.size(), 200u);
  for (const auto& test_case : cases) {
    const auto expected = seq::coreness_bz(test_case.g);
    // Run the FULL scheduling-policy matrix at every thread count: the
    // §4 convergence argument is schedule-independent, so every policy ×
    // thread count must land on the identical fixed point. The result
    // must not depend on which lane a vertex starts in either: bsp-async
    // deals 4096-id chunks round-robin, so the single-chunk graphs start
    // in lane 0 and spread only by stealing, while the multi-chunk cases
    // start in every lane, in a layout that changes with the thread
    // count.
    for (const unsigned threads : thread_counts()) {
      for (const api::SchedPolicy sched : kScheds) {
        api::RunOptions options;
        options.threads = threads;
        options.sched = sched;
        const auto report =
            api::decompose(test_case.g, api::kProtocolBspAsync, options);
        ASSERT_TRUE(report.traffic.converged)
            << test_case.name << " threads=" << threads
            << " sched=" << api::to_string(sched);
        ASSERT_EQ(report.coreness, expected)
            << test_case.name << " threads=" << threads
            << " sched=" << api::to_string(sched);
        const auto& extras = std::get<api::AsyncExtras>(report.extras);
        EXPECT_EQ(extras.sched, sched) << test_case.name;
        EXPECT_GE(extras.relaxations, test_case.g.num_nodes())
            << test_case.name;
        EXPECT_LE(extras.skipped_recomputes, extras.relaxations)
            << test_case.name;
        // Every pop probes at least one deque, so the scan tally bounds
        // the pop count from above.
        EXPECT_GE(extras.pop_scans, extras.relaxations) << test_case.name;
        EXPECT_GE(extras.detector_passes, 1u) << test_case.name;
        EXPECT_LE(extras.threads_used, std::max(1u, threads))
            << test_case.name;
      }
    }
  }
}

TEST(AsyncProperty, MatchesSequentialOnEveryDatasetProfile) {
  // The nine paper dataset stand-ins, same scale as the ParParity sweep,
  // across the full sched × threads matrix.
  constexpr double kScale = 0.02;
  constexpr std::uint64_t kSeed = 17;
  std::size_t profiles = 0;
  for (const auto& spec : eval::dataset_registry()) {
    const Graph g = spec.build(kScale, kSeed);
    const auto expected = seq::coreness_bz(g);
    for (const unsigned threads : thread_counts()) {
      for (const api::SchedPolicy sched : kScheds) {
        api::RunOptions options;
        options.threads = threads;
        options.sched = sched;
        options.seed = kSeed + threads;
        const auto report =
            api::decompose(g, api::kProtocolBspAsync, options);
        ASSERT_TRUE(report.traffic.converged)
            << spec.name << " threads=" << threads
            << " sched=" << api::to_string(sched);
        ASSERT_EQ(report.coreness, expected)
            << spec.name << " threads=" << threads
            << " sched=" << api::to_string(sched);
      }
    }
    ++profiles;
  }
  EXPECT_EQ(profiles, 9u);
}

TEST(AsyncSched, BoundPolicyCutsRelaxationsOnDenseHubHeavyProfiles) {
  // The scheduling payoff, pinned deterministically: at 1 thread the
  // whole run is one worker popping its own lane, so the relaxation
  // counter is a pure function of (graph, options). On the dense
  // hub-heavy profiles the bound policy (peeling-frontier order) must
  // beat lifo by well over the 15% target; measured reductions at this
  // scale are 45-70%. (On wikitalk-like and the worst-case polygon lifo
  // already sits within ~6% of the schedule-independent floor of
  // n + dependency-chain relaxations, so no policy can cut 15% there —
  // the win lives where hub neighborhoods are dense enough that pop
  // order decides how often hubs recompute against unsettled estimates.)
  constexpr double kScale = 0.1;
  constexpr std::uint64_t kSeed = 17;
  for (const char* profile :
       {"slashdot-like", "astroph-like", "condmat-like", "berkstan-like"}) {
    const Graph g = eval::dataset_by_name(profile).build(kScale, kSeed);
    auto relaxations_under = [&](api::SchedPolicy sched) {
      api::RunOptions options;
      options.threads = 1;
      options.sched = sched;
      options.seed = kSeed;
      const auto report =
          api::decompose(g, api::kProtocolBspAsync, options);
      return std::get<api::AsyncExtras>(report.extras).relaxations;
    };
    const std::uint64_t lifo = relaxations_under(api::SchedPolicy::kLifo);
    const std::uint64_t bound = relaxations_under(api::SchedPolicy::kBound);
    EXPECT_LE(bound, lifo - lifo * 15 / 100)
        << profile << ": bound=" << bound << " lifo=" << lifo;
  }
}

TEST(AsyncSched, OneThreadRunsAreDeterministicPerPolicy) {
  // The counter the reduction test pins must itself be reproducible:
  // same graph, same options, 1 thread -> identical schedule profile.
  const Graph g = gen::barabasi_albert(1500, 2, 11);
  for (const api::SchedPolicy sched : kScheds) {
    api::RunOptions options;
    options.threads = 1;
    options.sched = sched;
    options.seed = 5;
    const auto first = api::decompose(g, api::kProtocolBspAsync, options);
    const auto second = api::decompose(g, api::kProtocolBspAsync, options);
    const auto& a = std::get<api::AsyncExtras>(first.extras);
    const auto& b = std::get<api::AsyncExtras>(second.extras);
    EXPECT_EQ(a.relaxations, b.relaxations) << api::to_string(sched);
    EXPECT_EQ(a.re_enqueues, b.re_enqueues) << api::to_string(sched);
    EXPECT_EQ(a.skipped_recomputes, b.skipped_recomputes)
        << api::to_string(sched);
    EXPECT_EQ(first.coreness, second.coreness) << api::to_string(sched);
  }
}

TEST(AsyncProperty, RepeatedRunsAreScheduleIndependent) {
  // Same graph, many runs at full width: the schedule profile (steals,
  // re-enqueues) may differ every time, the coreness never.
  const Graph g = gen::barabasi_albert(2500, 3, 97);
  const auto expected = seq::coreness_bz(g);
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    api::RunOptions options;
    options.threads = 0;  // hardware width
    options.seed = seed;
    const auto report = api::decompose(g, api::kProtocolBspAsync, options);
    ASSERT_EQ(report.coreness, expected) << "run " << seed;
  }
}

TEST(AsyncProperty, TargetedWakeFilterOffStillConverges) {
  // The §3.1.2 filter is an optimization, not a correctness lever:
  // disabling it changes the wake traffic only.
  const Graph g = gen::erdos_renyi_gnm(800, 2400, 3);
  const auto expected = seq::coreness_bz(g);
  for (const unsigned threads : thread_counts()) {
    api::RunOptions options;
    options.threads = threads;
    options.targeted_send = false;
    const auto report = api::decompose(g, api::kProtocolBspAsync, options);
    ASSERT_EQ(report.coreness, expected) << "threads=" << threads;
  }
}

TEST(AsyncProperty, DegenerateGraphsDirectCall) {
  // The facade rejects the empty graph; the runner must still behave.
  {
    const Graph g;
    core::RunOptions options;
    options.threads = 4;
    const auto result = par::run_bsp_async(g, options);
    EXPECT_TRUE(result.coreness.empty());
    EXPECT_GE(result.threads_used, 1u);
  }
  {
    const Graph g = Graph::from_edges(1, {});
    api::RunOptions options;
    options.threads = 8;
    const auto report = api::decompose(g, api::kProtocolBspAsync, options);
    ASSERT_EQ(report.coreness, std::vector<NodeId>{0});
    // Never more workers than vertices.
    EXPECT_EQ(std::get<api::AsyncExtras>(report.extras).threads_used, 1u);
  }
}

}  // namespace
}  // namespace kcore
