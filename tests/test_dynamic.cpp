#include "core/dynamic.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "graph/generators.h"
#include "seq/kcore_seq.h"
#include "util/rng.h"

namespace kcore::core {
namespace {

namespace gen = kcore::graph::gen;
using graph::Graph;
using graph::NodeId;

void expect_exact(const DynamicKCore& dyn, const char* context) {
  const auto truth = seq::coreness_bz(dyn.snapshot());
  ASSERT_EQ(dyn.coreness(), truth) << context;
}

TEST(DynamicKCore, InitialConvergenceMatchesBaseline) {
  const Graph g = gen::barabasi_albert(200, 3, 5);
  DynamicKCore dyn(g);
  expect_exact(dyn, "initial");
  EXPECT_EQ(dyn.num_nodes(), g.num_nodes());
  EXPECT_EQ(dyn.num_edges(), g.num_edges());
}

TEST(DynamicKCore, SingleInsertionRaisesCoreness) {
  // Cycle of 4 + chord: the chorded pair stays coreness 2 but a second
  // chord creates K4 => everyone rises to 3.
  DynamicKCore dyn(gen::cycle(4));
  EXPECT_EQ(dyn.coreness(), (std::vector<NodeId>{2, 2, 2, 2}));
  dyn.add_edge(0, 2);
  expect_exact(dyn, "first chord");
  dyn.add_edge(1, 3);
  expect_exact(dyn, "second chord");
  EXPECT_EQ(dyn.coreness(), (std::vector<NodeId>{3, 3, 3, 3}));
}

TEST(DynamicKCore, SingleDeletionLowersCoreness) {
  DynamicKCore dyn(gen::clique(5));
  EXPECT_EQ(dyn.coreness(), (std::vector<NodeId>(5, 4)));
  dyn.remove_edge(0, 1);
  expect_exact(dyn, "after deletion");
  EXPECT_EQ(dyn.coreness(), (std::vector<NodeId>(5, 3)));
}

TEST(DynamicKCore, InsertDeleteRoundtripRestoresCoreness) {
  const Graph g = gen::erdos_renyi_gnm(100, 250, 7);
  DynamicKCore dyn(g);
  const auto before = dyn.coreness();
  dyn.add_edge(3, 97);
  dyn.remove_edge(3, 97);
  EXPECT_EQ(dyn.coreness(), before);
  expect_exact(dyn, "roundtrip");
}

TEST(DynamicKCore, NoOpUpdatesCostNothing) {
  DynamicKCore dyn(gen::clique(4));
  const auto add = dyn.add_edge(0, 1);  // already present
  EXPECT_EQ(add.rounds, 0U);
  EXPECT_EQ(add.messages, 0U);
  const auto del = dyn.remove_edge(0, 3);
  EXPECT_GT(del.rounds, 0U);
  const auto del2 = dyn.remove_edge(0, 3);  // already gone
  EXPECT_EQ(del2.rounds, 0U);
}

TEST(DynamicKCore, RejectsSelfLoopAndRange) {
  DynamicKCore dyn(gen::clique(4));
  EXPECT_THROW(dyn.add_edge(1, 1), util::CheckError);
  EXPECT_THROW(dyn.add_edge(0, 9), util::CheckError);
}

TEST(DynamicKCore, AddNodeStartsIsolated) {
  DynamicKCore dyn(gen::clique(3));
  const NodeId fresh = dyn.add_node();
  EXPECT_EQ(fresh, 3U);
  EXPECT_EQ(dyn.coreness()[fresh], 0U);
  dyn.add_edge(fresh, 0);
  expect_exact(dyn, "attach fresh node");
  EXPECT_EQ(dyn.coreness()[fresh], 1U);
}

// ---------------------------------------------------------------------------
// Batched updates: one reconvergence per batch
// ---------------------------------------------------------------------------

using graph::EdgeOp;
using graph::EdgeUpdate;

TEST(DynamicKCoreBatch, MatchesPerEdgeApplication) {
  const Graph g = gen::erdos_renyi_gnm(150, 400, 11);
  DynamicKCore batched(g);
  DynamicKCore single(g);
  util::Xoshiro256 rng(23);
  for (int round = 0; round < 10; ++round) {
    std::vector<EdgeUpdate> batch;
    for (int i = 0; i < 12; ++i) {
      const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      if (u == v) continue;
      batch.push_back(
          {rng.next_bool(0.55) ? EdgeOp::kInsert : EdgeOp::kRemove, u, v});
    }
    batched.apply_batch(batch);
    for (const EdgeUpdate& update : batch) {
      if (update.op == EdgeOp::kInsert) {
        single.add_edge(update.u, update.v);
      } else {
        single.remove_edge(update.u, update.v);
      }
    }
    ASSERT_EQ(batched.coreness(), single.coreness()) << "round " << round;
    ASSERT_EQ(batched.num_edges(), single.num_edges()) << "round " << round;
    expect_exact(batched, "batched round");
  }
}

TEST(DynamicKCoreBatch, CoalescesTransientChurnToNoOp) {
  DynamicKCore dyn(gen::cycle(6));
  const auto before = dyn.coreness();
  // Insert+remove of the same edge inside one batch has no net effect —
  // and must cost nothing (no reconvergence at all).
  const std::vector<EdgeUpdate> batch{{EdgeOp::kInsert, 0, 3},
                                      {EdgeOp::kRemove, 0, 3}};
  const auto stats = dyn.apply_batch(batch);
  EXPECT_EQ(stats.rounds, 0U);
  EXPECT_EQ(stats.messages, 0U);
  EXPECT_EQ(dyn.coreness(), before);
  expect_exact(dyn, "transient churn");
}

TEST(DynamicKCoreBatch, LastOpPerEdgeWins) {
  DynamicKCore dyn(gen::clique(5));
  // remove, re-insert, remove again: the edge must end up absent.
  const std::vector<EdgeUpdate> batch{{EdgeOp::kRemove, 0, 1},
                                      {EdgeOp::kInsert, 0, 1},
                                      {EdgeOp::kRemove, 0, 1}};
  dyn.apply_batch(batch);
  EXPECT_EQ(dyn.num_edges(), 9U);
  expect_exact(dyn, "last op wins");
  EXPECT_EQ(dyn.coreness(), (std::vector<NodeId>(5, 3)));
}

TEST(DynamicKCoreBatch, MixedInsertRaiseAndDeleteStaysExact) {
  // Cycle of 4: the batch adds both chords (K4, coreness 3 — a two-level
  // rise pipeline through sequential raises) while cutting a far edge.
  DynamicKCore dyn(gen::cycle(8));
  const std::vector<EdgeUpdate> batch{{EdgeOp::kInsert, 0, 2},
                                      {EdgeOp::kInsert, 1, 3},
                                      {EdgeOp::kInsert, 0, 3},
                                      {EdgeOp::kRemove, 5, 6}};
  dyn.apply_batch(batch);
  expect_exact(dyn, "mixed batch");
  EXPECT_EQ(dyn.coreness()[0], 3U);
  EXPECT_EQ(dyn.coreness()[5], 1U);
}

TEST(DynamicKCoreBatch, IgnoresSelfLoopsAndDuplicates) {
  DynamicKCore dyn(gen::clique(4));
  const std::vector<EdgeUpdate> batch{{EdgeOp::kInsert, 2, 2},
                                      {EdgeOp::kInsert, 0, 1},
                                      {EdgeOp::kInsert, 1, 0}};
  const auto stats = dyn.apply_batch(batch);
  EXPECT_EQ(stats.rounds, 0U);
  EXPECT_EQ(dyn.num_edges(), 6U);
  expect_exact(dyn, "degenerate batch");
  EXPECT_THROW(dyn.apply_batch(std::vector<EdgeUpdate>{
                   {EdgeOp::kInsert, 0, 99}}),
               util::CheckError);
}

TEST(DynamicKCoreBatch, OneReconvergenceCostsLessThanPerEdge) {
  const Graph g = gen::barabasi_albert(300, 3, 29);
  DynamicKCore batched(g);
  DynamicKCore single(g);
  util::Xoshiro256 rng(31);
  std::vector<EdgeUpdate> batch;
  for (int i = 0; i < 40; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    if (u == v) continue;
    batch.push_back(
        {rng.next_bool(0.5) ? EdgeOp::kInsert : EdgeOp::kRemove, u, v});
  }
  const auto stats = batched.apply_batch(batch);
  std::uint64_t single_rounds = 0;
  for (const EdgeUpdate& update : batch) {
    const auto s = update.op == EdgeOp::kInsert
                       ? single.add_edge(update.u, update.v)
                       : single.remove_edge(update.u, update.v);
    single_rounds += s.rounds;
  }
  ASSERT_EQ(batched.coreness(), single.coreness());
  // One coalesced reconvergence vs 40 separate ones.
  EXPECT_LT(stats.rounds, single_rounds);
}

// ---------------------------------------------------------------------------
// Differential testing over random update sequences
// ---------------------------------------------------------------------------

struct ChurnCase {
  const char* name;
  Graph (*make)(std::uint64_t seed);
};

Graph churn_er(std::uint64_t s) { return gen::erdos_renyi_gnm(120, 300, s); }
Graph churn_ba(std::uint64_t s) { return gen::barabasi_albert(100, 3, s); }
Graph churn_grid(std::uint64_t) { return gen::grid(8, 10); }
Graph churn_cliques(std::uint64_t) {
  const std::array<NodeId, 3> sizes{5, 8, 12};
  return gen::disjoint_cliques(sizes);
}

class DynamicChurn : public ::testing::TestWithParam<ChurnCase> {};

TEST_P(DynamicChurn, StaysExactUnderRandomUpdates) {
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    const Graph g = GetParam().make(seed);
    DynamicKCore dyn(g);
    util::Xoshiro256 rng(seed * 101);
    for (int step = 0; step < 60; ++step) {
      const auto u = static_cast<NodeId>(rng.next_below(dyn.num_nodes()));
      const auto v = static_cast<NodeId>(rng.next_below(dyn.num_nodes()));
      if (u == v) continue;
      if (rng.next_bool(0.55)) {
        dyn.add_edge(u, v);
      } else {
        dyn.remove_edge(u, v);
      }
      const auto truth = seq::coreness_bz(dyn.snapshot());
      ASSERT_EQ(dyn.coreness(), truth)
          << GetParam().name << " seed " << seed << " step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, DynamicChurn,
    ::testing::Values(ChurnCase{"er", churn_er}, ChurnCase{"ba", churn_ba},
                      ChurnCase{"grid", churn_grid},
                      ChurnCase{"cliques", churn_cliques}),
    [](const auto& suite_info) { return std::string(suite_info.param.name); });

// ---------------------------------------------------------------------------
// Locality: updates must not touch the whole graph
// ---------------------------------------------------------------------------

TEST(DynamicKCoreCost, DeletionIsLocal) {
  // Two far-apart cliques joined by a long chain: deleting a chain edge
  // must not reactivate the cliques.
  const std::array<NodeId, 2> sizes{30, 30};
  Graph g = gen::disjoint_cliques(sizes);
  g = gen::attach_paths(g, 1, 50, 3);  // a tendril off one clique
  DynamicKCore dyn(g);
  const auto stats = dyn.remove_edge(60, 61);  // first tendril link
  EXPECT_GT(stats.rounds, 0U);
  // Far fewer nodes activated than the graph holds.
  EXPECT_LT(stats.nodes_activated + stats.messages, 200U);
  expect_exact(dyn, "tendril cut");
}

TEST(DynamicKCoreCost, InsertionActivatesOnlyTheSubcore) {
  // A big 1-shell (chain) around a K5: inserting inside the chain leaves
  // the K5 untouched.
  Graph g = gen::chain(500);
  DynamicKCore dyn(g);
  const auto stats = dyn.add_edge(10, 400);
  expect_exact(dyn, "chain chord");
  // The 1-subcore is the whole chain, so activation can be large — but
  // messages must stay bounded by a couple of traversals of it.
  EXPECT_LT(stats.messages, 4000U);
}

TEST(DynamicKCoreCost, InsertionRegionIsTheMaximalPeelFixpoint) {
  // The candidate region is peeled to the unique maximal set in which
  // every node keeps K+1 supporters; a peel that stops early (or runs
  // past it) raises a different region and sends a different number of
  // messages. The totals below were recorded with the original
  // full-rescan peel and pin the counter-based one to the same fixpoint.
  const std::pair<std::uint64_t, std::uint64_t> expected[] = {
      {676, 92}, {976, 118}, {391, 82}};  // {messages, nodes activated}
  for (std::uint64_t seed = 4; seed <= 6; ++seed) {
    DynamicKCore dyn(gen::erdos_renyi_gnm(60, 150, seed));
    util::Xoshiro256 rng(seed + 100);
    std::uint64_t messages = 0;
    std::uint64_t activated = 0;
    for (int i = 0; i < 40; ++i) {
      const auto u = static_cast<NodeId>(rng.next_below(60));
      const auto v = static_cast<NodeId>(rng.next_below(60));
      if (u == v) continue;
      const auto stats = dyn.add_edge(u, v);
      messages += stats.messages;
      activated += stats.nodes_activated;
    }
    expect_exact(dyn, "after insertions");
    EXPECT_EQ(messages, expected[seed - 4].first) << "seed " << seed;
    EXPECT_EQ(activated, expected[seed - 4].second) << "seed " << seed;
  }
}

TEST(DynamicKCoreCost, MaintenanceBeatsRestartOnChurn) {
  const Graph g = gen::barabasi_albert(400, 3, 13);
  DynamicKCore dyn(g);
  const auto initial = dyn.lifetime_stats();
  util::Xoshiro256 rng(17);
  std::uint64_t update_messages = 0;
  for (int step = 0; step < 20; ++step) {
    const auto u = static_cast<NodeId>(rng.next_below(dyn.num_nodes()));
    const auto v = static_cast<NodeId>(rng.next_below(dyn.num_nodes()));
    if (u == v) continue;
    const auto stats =
        rng.next_bool(0.5) ? dyn.add_edge(u, v) : dyn.remove_edge(u, v);
    update_messages += stats.messages;
  }
  // 20 updates must cost far less than 20 full restarts (initial run).
  EXPECT_LT(update_messages, initial.messages * 4);
  expect_exact(dyn, "after churn");
}

}  // namespace
}  // namespace kcore::core
