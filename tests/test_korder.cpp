// The k-order behind live insertion (src/live/korder.h) and the insert
// path of RepairEngine / Service built on it:
//  * invariants — after every insertion and every repair of random churn
//    over the LiveChurn graph families, the maintained order passes
//    KOrder::validate() (shells ascend, labels strictly increase within
//    a shell, deg+ == later neighbours <= core) and its cores equal bz;
//    growing graphs edge by edge from empty drives long eviction
//    cascades through the same checks;
//  * accounting — an insert-only batch relaxes nothing, yet reports the
//    exact number of nodes whose coreness rose;
//  * recovery — a service reopened from a checkpoint rebuilds the order
//    once, lazily, and stays exact;
//  * benchmark shape — Service vs bz after every batch on amazon-like and
//    slashdot-like graphs under the churn-insert stream, all three sched
//    policies, within a wall-time bound.
#include "live/korder.h"

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "eval/datasets.h"
#include "graph/edge_list.h"
#include "graph/generators.h"
#include "live/live_graph.h"
#include "live/repair.h"
#include "live/service.h"
#include "seq/kcore_seq.h"
#include "util/rng.h"
#include "util/storage.h"

namespace kcore::live {
namespace {

namespace gen = kcore::graph::gen;
using core::SchedPolicy;
using graph::Edge;
using graph::EdgeOp;
using graph::EdgeUpdate;
using graph::Graph;
using graph::NodeId;

struct Family {
  const char* name;
  Graph (*make)(std::uint64_t seed);
};

// The LiveChurn families of test_live.cpp.
constexpr std::array<Family, 4> kFamilies{{
    {"er", [](std::uint64_t s) { return gen::erdos_renyi_gnm(120, 300, s); }},
    {"ba", [](std::uint64_t s) { return gen::barabasi_albert(100, 3, s); }},
    {"grid", [](std::uint64_t) { return gen::grid(8, 10); }},
    {"cliques",
     [](std::uint64_t) {
       const std::array<NodeId, 3> sizes{5, 8, 12};
       return gen::disjoint_cliques(sizes);
     }},
}};

std::vector<NodeId> order_cores(const KOrder& order, NodeId n) {
  std::vector<NodeId> cores(n);
  for (NodeId u = 0; u < n; ++u) cores[u] = order.core(u);
  return cores;
}

TEST(KOrder, InvariantsHoldAfterEveryStepOfChurn) {
  std::uint64_t kept = 0;
  std::uint64_t dropped = 0;
  std::uint64_t rebuilds = 0;
  for (const Family& family : kFamilies) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Graph g = family.make(seed);
      const NodeId n = g.num_nodes();
      LiveGraph lg(g);
      RepairEngine engine(lg, RepairOptions{2, SchedPolicy::kBound, true});
      engine.initialize();
      util::Xoshiro256 rng(seed * 131 + n);
      for (int step = 0; step < 15; ++step) {
        // A batch of distinct pairs, net-applied as Service::apply does:
        // insertions first, then deletions, then one repair.
        std::set<std::pair<NodeId, NodeId>> seen;
        std::vector<std::pair<NodeId, NodeId>> inserts;
        std::vector<std::pair<NodeId, NodeId>> removes;
        for (int i = 0; i < 8; ++i) {
          auto u = static_cast<NodeId>(rng.next_below(n));
          auto v = static_cast<NodeId>(rng.next_below(n));
          if (u == v) continue;
          if (u > v) std::swap(u, v);
          if (!seen.insert({u, v}).second) continue;
          const bool insert = rng.next_bool(0.55);
          if (insert && !lg.has_edge(u, v)) inserts.emplace_back(u, v);
          if (!insert && lg.has_edge(u, v)) removes.emplace_back(u, v);
        }
        const std::string where = std::string(family.name) + " seed " +
                                  std::to_string(seed) + " step " +
                                  std::to_string(step);
        for (const auto& [u, v] : inserts) {
          lg.apply({EdgeOp::kInsert, u, v});
          engine.note_insert(u, v);
          ASSERT_TRUE(engine.order().valid()) << where;
          ASSERT_EQ(engine.order().validate(), "") << where;
          const auto truth = seq::coreness_bz(lg.snapshot());
          ASSERT_EQ(order_cores(engine.order(), n), truth) << where;
          for (NodeId w = 0; w < n; ++w) {
            ASSERT_EQ(engine.estimate(w), truth[w]) << where << " node " << w;
          }
        }
        for (const auto& [u, v] : removes) {
          lg.apply({EdgeOp::kRemove, u, v});
          engine.note_remove(u, v);
        }
        std::vector<NodeId> before;
        engine.copy_coreness(before);
        const bool valid_before = engine.order().valid();
        rebuilds += engine.repair().order_rebuilds;
        std::vector<NodeId> table;
        engine.copy_coreness(table);
        ASSERT_EQ(table, seq::coreness_bz(lg.snapshot())) << where;
        // A repair that lowered a core drops the order; one that lowered
        // nothing keeps it, deg+ already adjusted by the deletions.
        ASSERT_EQ(engine.order().valid(), valid_before && table == before)
            << where;
        if (engine.order().valid()) {
          ASSERT_EQ(engine.order().validate(), "") << where;
          ASSERT_EQ(order_cores(engine.order(), n), table) << where;
          if (!removes.empty()) ++kept;
        } else if (valid_before) {
          ++dropped;
        }
      }
    }
  }
  // Both lifecycle paths ran: deletions that lowered nothing kept the
  // order, lowering ones dropped it and the next insertion rebuilt it.
  EXPECT_GT(kept, 10U);
  EXPECT_GT(dropped, 10U);
  EXPECT_GT(rebuilds, kFamilies.size() * 3);
}

TEST(KOrder, GrowingFromEmptyStaysAKOrder) {
  // Every edge of the target graph inserted one at a time into an empty
  // graph: cores climb from 0 to the full decomposition, through long
  // candidate walks and eviction cascades.
  const std::array<NodeId, 3> sizes{6, 9, 14};
  const std::array<Graph, 4> targets{
      gen::erdos_renyi_gnm(60, 400, 5), gen::barabasi_albert(80, 4, 6),
      gen::grid(6, 9), gen::disjoint_cliques(sizes)};
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const Graph& target = targets[t];
    const NodeId n = target.num_nodes();
    std::vector<Edge> edges;
    for (NodeId u = 0; u < n; ++u) {
      for (const NodeId v : target.neighbors(u)) {
        if (u < v) edges.push_back({u, v});
      }
    }
    util::Xoshiro256 rng(t + 17);
    for (std::size_t i = edges.size(); i > 1; --i) {
      std::swap(edges[i - 1], edges[rng.next_below(i)]);
    }
    LiveGraph lg(Graph::from_edges(n, {}));
    KOrder order(lg);
    order.build();
    ASSERT_EQ(order.validate(), "");
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const auto [u, v] = edges[i];
      const std::vector<NodeId> before = order_cores(order, n);
      lg.apply({EdgeOp::kInsert, u, v});
      const auto risen = order.insert(u, v);
      ASSERT_EQ(order.validate(), "") << "target " << t << " edge " << i;
      const auto truth = seq::coreness_bz(lg.snapshot());
      ASSERT_EQ(order_cores(order, n), truth)
          << "target " << t << " edge " << i;
      std::size_t changed = 0;
      for (NodeId w = 0; w < n; ++w) changed += before[w] != truth[w];
      ASSERT_EQ(risen.size(), changed) << "target " << t << " edge " << i;
    }
  }
}

TEST(KOrder, RelabelsAShellWhenItsLabelGapCloses) {
  // 80 disjoint 3-paths; closing each into a triangle raises it into
  // shell 2, always at the head, halving the free label range each time:
  // the 64-bit range runs out well before the last one.
  constexpr NodeId kPaths = 80;
  std::vector<Edge> edges;
  for (NodeId i = 0; i < kPaths; ++i) {
    edges.push_back({3 * i, 3 * i + 1});
    edges.push_back({3 * i + 1, 3 * i + 2});
  }
  LiveGraph lg(Graph::from_edges(3 * kPaths, edges));
  KOrder order(lg);
  order.build();
  for (NodeId i = 0; i < kPaths; ++i) {
    lg.apply({EdgeOp::kInsert, 3 * i, 3 * i + 2});
    ASSERT_EQ(order.insert(3 * i, 3 * i + 2).size(), 3U) << "path " << i;
    ASSERT_EQ(order.validate(), "") << "path " << i;
  }
  for (NodeId u = 0; u < 3 * kPaths; ++u) EXPECT_EQ(order.core(u), 2U);
}

TEST(KOrder, BuildSkippingAnEdgeDescribesTheGraphWithoutIt) {
  LiveGraph lg(gen::clique(6));
  KOrder order(lg);
  order.build(0, 1);  // K6 minus one edge: a 4-core
  for (NodeId u = 0; u < 6; ++u) EXPECT_EQ(order.core(u), 4U);
  EXPECT_NE(order.validate(), "");  // the graph does hold {0,1}
  const auto risen = order.insert(0, 1);
  EXPECT_EQ(risen.size(), 6U);
  EXPECT_EQ(order.validate(), "");
  EXPECT_THROW(order.build(0, 0), util::CheckError);
}

TEST(LiveInsert, ClosingACliqueReportsEveryRaisedNode) {
  const std::array<NodeId, 2> sizes{10, 6};
  const Graph g = gen::attach_paths(gen::disjoint_cliques(sizes), 2, 4, 3);
  ServiceOptions options;
  options.threads = 2;
  options.metrics = true;
  Service service(g, options);
  service.apply(std::vector<EdgeUpdate>{{EdgeOp::kRemove, 0, 1}});
  const std::vector<NodeId> before = service.query()->coreness;

  const ApplyResult closed =
      service.apply(std::vector<EdgeUpdate>{{EdgeOp::kInsert, 0, 1}});
  const std::vector<NodeId> after = service.query()->coreness;
  ASSERT_EQ(after, seq::coreness_bz(service.graph().snapshot()));
  std::uint64_t changed = 0;
  for (std::size_t w = 0; w < after.size(); ++w) {
    changed += before[w] != after[w];
  }
  EXPECT_EQ(changed, 10U);  // the whole 10-clique rises from 8 to 9
  EXPECT_EQ(closed.repair.raised, changed);
  // Insert-only: nothing seeded, nothing relaxed.
  EXPECT_EQ(closed.repair.seeded, 0U);
  EXPECT_EQ(closed.repair.relaxations, 0U);
  EXPECT_EQ(closed.repair.order_rebuilds, 1U);
  if (service.metrics_enabled()) {
    EXPECT_EQ(service.metrics().value("live.raised_nodes"), changed);
    EXPECT_EQ(service.metrics().value("live.order_rebuilds"), 1U);
  }
}

TEST(LiveInsert, ReopenedServiceRebuildsTheOrderLazilyAndStaysExact) {
  const Graph g = gen::barabasi_albert(400, 4, 21);
  const NodeId n = g.num_nodes();
  util::MemStorage fs;
  DurabilityOptions durability;
  durability.dir = "state";
  durability.storage = &fs;
  durability.checkpoint_every = 0;
  ServiceOptions options;
  options.threads = 2;
  options.metrics = true;
  util::Xoshiro256 rng(99);
  auto random_pair = [&] {
    for (;;) {
      const auto u = static_cast<NodeId>(rng.next_below(n));
      const auto v = static_cast<NodeId>(rng.next_below(n));
      if (u != v) return std::pair<NodeId, NodeId>{u, v};
    }
  };
  {
    Service service(g, options, durability);
    for (int b = 0; b < 6; ++b) {
      std::vector<EdgeUpdate> batch;
      for (int i = 0; i < 6; ++i) {
        const auto [u, v] = random_pair();
        batch.push_back(
            {rng.next_bool(0.5) ? EdgeOp::kInsert : EdgeOp::kRemove, u, v});
      }
      service.apply(batch);
    }
    service.checkpoint();
  }

  RecoveryInfo info;
  const auto service = Service::open(options, durability, &info);
  EXPECT_EQ(info.replayed_batches, 0U);
  std::uint64_t rebuilds = 0;
  for (int b = 0; b < 25; ++b) {
    std::vector<EdgeUpdate> batch;
    while (batch.size() < 3) {
      const auto [u, v] = random_pair();
      if (!service->graph().has_edge(u, v)) {
        batch.push_back({EdgeOp::kInsert, u, v});
      }
    }
    const ApplyResult result = service->apply(batch);
    ASSERT_EQ(service->query()->coreness,
              seq::coreness_bz(service->graph().snapshot()))
        << "batch " << b;
    EXPECT_EQ(result.repair.seeded, 0U) << "batch " << b;
    EXPECT_EQ(result.repair.relaxations, 0U) << "batch " << b;
    EXPECT_EQ(result.repair.order_rebuilds, b == 0 ? 1U : 0U) << "batch " << b;
    rebuilds += result.repair.order_rebuilds;
  }
  EXPECT_EQ(rebuilds, 1U);
  if (service->metrics_enabled()) {
    EXPECT_EQ(service->metrics().value("live.order_rebuilds"), 1U);
  }
}

// --- differential churn at benchmark shape ----------------------------------

/// Mirror of the current edge set, for drawing absent pairs to insert and
/// present edges to delete, and for the bz oracle.
class EdgeMirror {
 public:
  explicit EdgeMirror(const Graph& g) : n_(g.num_nodes()) {
    for (NodeId u = 0; u < n_; ++u) {
      for (const NodeId v : g.neighbors(u)) {
        if (u < v) add(u, v);
      }
    }
  }

  EdgeUpdate draw(util::Xoshiro256& rng, double insert_fraction) {
    if (edges_.empty() || rng.next_bool(insert_fraction)) {
      for (;;) {
        auto u = static_cast<NodeId>(rng.next_below(n_));
        auto v = static_cast<NodeId>(rng.next_below(n_));
        if (u == v) continue;
        if (u > v) std::swap(u, v);
        if (present_.count(key(u, v)) != 0) continue;
        add(u, v);
        return {EdgeOp::kInsert, u, v};
      }
    }
    const std::size_t i = rng.next_below(edges_.size());
    const Edge e = edges_[i];
    edges_[i] = edges_.back();
    edges_.pop_back();
    present_.erase(key(e.u, e.v));
    return {EdgeOp::kRemove, e.u, e.v};
  }

  [[nodiscard]] Graph graph() const { return Graph::from_edges(n_, edges_); }
  [[nodiscard]] std::size_t size() const { return edges_.size(); }

 private:
  static std::uint64_t key(NodeId u, NodeId v) {
    return (static_cast<std::uint64_t>(u) << 32) | v;
  }
  void add(NodeId u, NodeId v) {
    present_.insert(key(u, v));
    edges_.push_back({u, v});
  }

  NodeId n_;
  std::vector<Edge> edges_;
  std::unordered_set<std::uint64_t> present_;
};

TEST(LiveInsert, BenchmarkShapeChurnMatchesBzAfterEveryBatch) {
  const auto start = std::chrono::steady_clock::now();
  constexpr int kBatches = 300;
  for (const char* profile : {"amazon-like", "slashdot-like"}) {
    const Graph g = eval::dataset_by_name(profile).build(0.25, 1);
    for (const SchedPolicy sched :
         {SchedPolicy::kLifo, SchedPolicy::kBound, SchedPolicy::kDelta}) {
      ServiceOptions options;
      options.threads = 2;
      options.sched = sched;
      Service service(g, options);
      EdgeMirror mirror(g);
      util::Xoshiro256 rng(7);
      for (int b = 0; b < kBatches; ++b) {
        // The churn-insert stream: one update per batch, 90% inserts,
        // and a 64-update half-and-half batch every 50th.
        std::vector<EdgeUpdate> batch;
        if (b % 50 == 49) {
          for (int i = 0; i < 64; ++i) batch.push_back(mirror.draw(rng, 0.5));
        } else {
          batch.push_back(mirror.draw(rng, 0.9));
        }
        service.apply(batch);
        const auto snapshot = service.query();
        ASSERT_EQ(snapshot->num_edges, mirror.size());
        ASSERT_EQ(snapshot->coreness, seq::coreness_bz(mirror.graph()))
            << profile << " sched " << core::to_string(sched) << " batch "
            << b;
      }
    }
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(seconds, 240.0);
}

}  // namespace
}  // namespace kcore::live
