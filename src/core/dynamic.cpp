#include "core/dynamic.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "core/compute_index.h"
#include "util/check.h"

namespace kcore::core {

using graph::NodeId;

DynamicKCore::DynamicKCore(const graph::Graph& initial)
    : adjacency_(initial.num_nodes()), estimate_(initial.num_nodes()) {
  for (NodeId u = 0; u < initial.num_nodes(); ++u) {
    const auto nbrs = initial.neighbors(u);
    adjacency_[u].assign(nbrs.begin(), nbrs.end());
    estimate_[u] = initial.degree(u);
  }
  num_edges_ = initial.num_edges();
  // Initial convergence: everyone starts active with estimate = degree,
  // exactly Algorithm 1's initialization.
  std::vector<NodeId> all(initial.num_nodes());
  for (NodeId u = 0; u < initial.num_nodes(); ++u) all[u] = u;
  const auto stats = reconverge(std::move(all));
  lifetime_.rounds += stats.rounds;
  lifetime_.messages += stats.messages;
  lifetime_.nodes_activated += stats.nodes_activated;
}

bool DynamicKCore::has_edge(NodeId u, NodeId v) const {
  const auto& a = adjacency_[u];
  return std::binary_search(a.begin(), a.end(), v);
}

NodeId DynamicKCore::add_node() {
  adjacency_.emplace_back();
  estimate_.push_back(0);
  return static_cast<NodeId>(adjacency_.size() - 1);
}

std::vector<NodeId> DynamicKCore::subcore_region(std::vector<NodeId> roots,
                                                 NodeId K) const {
  // Candidate collection with purecore-style pruning. A node w can rise
  // to K+1 only if it has at least K+1 neighbors whose NEW coreness could
  // be >= K+1; since coreness rises by at most 1, those neighbors have
  // OLD coreness >= K. So cd(w) = #{x ~ w : k(x) >= K} >= K+1 is a
  // necessary condition, and the set of rising nodes is connected to the
  // endpoints through rising nodes — the BFS only continues through nodes
  // satisfying the condition.
  auto can_rise = [&](NodeId w) {
    if (estimate_[w] != K) return false;
    NodeId cd = 0;
    for (const NodeId x : adjacency_[w]) {
      if (estimate_[x] >= K && ++cd > K) return true;
    }
    return false;  // cd <= K
  };

  std::vector<NodeId> region;
  std::vector<NodeId> stack;
  std::vector<bool> in_region(adjacency_.size(), false);
  for (const NodeId r : roots) {
    if (!in_region[r] && can_rise(r)) {
      in_region[r] = true;
      stack.push_back(r);
    }
  }
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    region.push_back(u);
    for (const NodeId v : adjacency_[u]) {
      if (!in_region[v] && can_rise(v)) {
        in_region[v] = true;
        stack.push_back(v);
      }
    }
  }

  // Peel within the region: w needs K+1 supporters among (neighbors with
  // old coreness >= K+1) ∪ (neighbors still in region). Nodes failing the
  // condition cannot rise, and removing them can only invalidate others —
  // standard peeling to the unique maximal fixpoint, a safe superset of
  // the truly-rising set. Counter-based: each node's support is counted
  // once, and a removal decrements only its region neighbors.
  std::vector<NodeId> support(adjacency_.size(), 0);
  std::vector<NodeId> doomed;
  for (const NodeId w : region) {
    for (const NodeId x : adjacency_[w]) {
      if (estimate_[x] >= K + 1 || in_region[x]) ++support[w];
    }
  }
  for (const NodeId w : region) {
    if (support[w] < K + 1) {
      in_region[w] = false;
      doomed.push_back(w);
    }
  }
  while (!doomed.empty()) {
    const NodeId w = doomed.back();
    doomed.pop_back();
    for (const NodeId x : adjacency_[w]) {
      if (in_region[x] && --support[x] < K + 1) {
        in_region[x] = false;
        doomed.push_back(x);
      }
    }
  }
  std::erase_if(region, [&](NodeId w) { return !in_region[w]; });
  return region;
}

MaintenanceStats DynamicKCore::add_edge(NodeId u, NodeId v) {
  KCORE_CHECK_MSG(u < num_nodes() && v < num_nodes(), "node out of range");
  KCORE_CHECK_MSG(u != v, "self-loops are not allowed");
  if (has_edge(u, v)) return {};
  auto insert_sorted = [](std::vector<NodeId>& a, NodeId x) {
    a.insert(std::upper_bound(a.begin(), a.end(), x), x);
  };
  insert_sorted(adjacency_[u], v);
  insert_sorted(adjacency_[v], u);
  ++num_edges_;

  // Coreness can rise by at most one, and only inside the K-subcore
  // region reachable from the endpoint(s) of coreness K.
  const NodeId K = std::min(estimate_[u], estimate_[v]);
  auto region = subcore_region({u, v}, K);
  // Distributed cost accounting: the endpoints exchange the edge event
  // (2 messages); the candidate traversal visits each region node once
  // (probe + its reply per incident edge, ~2·degree); each raised node
  // re-broadcasts its raised estimate (degree messages).
  std::uint64_t extra_messages = 2;
  // Raise candidates to the provable upper bound min(K+1, degree); this
  // restores Theorem 2 safety, after which plain downward convergence
  // recomputes the exact values.
  for (const NodeId w : region) {
    estimate_[w] =
        std::min<NodeId>(K + 1, static_cast<NodeId>(adjacency_[w].size()));
    extra_messages += 3 * adjacency_[w].size();
  }
  // Endpoints always re-examine (their degree changed even if estimates
  // did not).
  region.push_back(u);
  region.push_back(v);
  auto stats = reconverge(std::move(region));
  stats.messages += extra_messages;
  lifetime_.rounds += stats.rounds;
  lifetime_.messages += stats.messages;
  lifetime_.nodes_activated += stats.nodes_activated;
  return stats;
}

MaintenanceStats DynamicKCore::remove_edge(NodeId u, NodeId v) {
  KCORE_CHECK_MSG(u < num_nodes() && v < num_nodes(), "node out of range");
  if (u == v || !has_edge(u, v)) return {};
  auto erase_sorted = [](std::vector<NodeId>& a, NodeId x) {
    a.erase(std::lower_bound(a.begin(), a.end(), x));
  };
  erase_sorted(adjacency_[u], v);
  erase_sorted(adjacency_[v], u);
  --num_edges_;

  // Deletion only lowers coreness, so current estimates stay safe upper
  // bounds: warm-start with just the endpoints active. The endpoints
  // learn of the drop with one message each.
  auto stats = reconverge({u, v});
  stats.messages += 2;
  lifetime_.rounds += stats.rounds;
  lifetime_.messages += stats.messages;
  lifetime_.nodes_activated += stats.nodes_activated;
  return stats;
}

MaintenanceStats DynamicKCore::apply_batch(
    std::span<const graph::EdgeUpdate> updates) {
  // Net topology effect: the LAST op per edge decides its final presence;
  // edges whose final presence matches the current topology are dropped
  // (a transient insert+remove inside the batch cannot change the final
  // coreness). Self-loops are ignored, matching add_edge/GraphBuilder.
  std::map<std::pair<NodeId, NodeId>, bool> final_present;
  for (const graph::EdgeUpdate& update : updates) {
    NodeId u = update.u;
    NodeId v = update.v;
    KCORE_CHECK_MSG(u < num_nodes() && v < num_nodes(), "node out of range");
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    final_present[{u, v}] = update.op == graph::EdgeOp::kInsert;
  }
  std::vector<std::pair<NodeId, NodeId>> inserts;
  std::vector<std::pair<NodeId, NodeId>> removes;
  for (const auto& [edge, present] : final_present) {
    const bool now = has_edge(edge.first, edge.second);
    if (present && !now) {
      inserts.push_back(edge);
    } else if (!present && now) {
      removes.push_back(edge);
    }
  }
  if (inserts.empty() && removes.empty()) return {};

  auto insert_sorted = [](std::vector<NodeId>& a, NodeId x) {
    a.insert(std::upper_bound(a.begin(), a.end(), x), x);
  };
  auto erase_sorted = [](std::vector<NodeId>& a, NodeId x) {
    a.erase(std::lower_bound(a.begin(), a.end(), x));
  };

  std::vector<NodeId> frontier;
  std::uint64_t extra_messages = 0;
  // Insertions first, one raise at a time: each raise runs against exact
  // estimates of the graph-so-far (see the header comment), so the table
  // stays exact through the whole insertion pass.
  for (const auto& [u, v] : inserts) {
    insert_sorted(adjacency_[u], v);
    insert_sorted(adjacency_[v], u);
    ++num_edges_;
    const NodeId K = std::min(estimate_[u], estimate_[v]);
    const auto region = subcore_region({u, v}, K);
    extra_messages += 2;  // the endpoints exchange the edge event
    for (const NodeId w : region) {
      estimate_[w] =
          std::min<NodeId>(K + 1, static_cast<NodeId>(adjacency_[w].size()));
      extra_messages += 3 * adjacency_[w].size();
    }
    frontier.insert(frontier.end(), region.begin(), region.end());
    frontier.push_back(u);
    frontier.push_back(v);
  }
  // Deletions second: estimates become safe upper bounds, and the single
  // downward reconvergence below restores exactness for the whole batch.
  for (const auto& [u, v] : removes) {
    erase_sorted(adjacency_[u], v);
    erase_sorted(adjacency_[v], u);
    --num_edges_;
    extra_messages += 2;
    frontier.push_back(u);
    frontier.push_back(v);
  }

  auto stats = reconverge(std::move(frontier));
  stats.messages += extra_messages;
  lifetime_.rounds += stats.rounds;
  lifetime_.messages += stats.messages;
  lifetime_.nodes_activated += stats.nodes_activated;
  return stats;
}

MaintenanceStats DynamicKCore::reconverge(std::vector<NodeId> frontier) {
  MaintenanceStats stats;
  // Deduplicate the initial frontier.
  std::sort(frontier.begin(), frontier.end());
  frontier.erase(std::unique(frontier.begin(), frontier.end()),
                 frontier.end());
  stats.nodes_activated = frontier.size();

  // Synchronous rounds over "published" estimates: a node recomputes from
  // the values its neighbors last broadcast — the same information flow
  // as Algorithm 1, with a broadcast costing degree() point-to-point
  // messages. `estimate_` doubles as the published value because in the
  // synchronous schedule every change is published in the same round.
  std::vector<NodeId> gather;
  std::vector<NodeId> scratch;
  std::vector<bool> queued(adjacency_.size(), false);
  std::vector<NodeId> next;
  for (const NodeId u : frontier) queued[u] = true;

  while (!frontier.empty()) {
    ++stats.rounds;
    next.clear();
    // Snapshot semantics: compute all updates against the current
    // published values, then apply and broadcast together.
    std::vector<std::pair<NodeId, NodeId>> updates;  // (node, new value)
    for (const NodeId w : frontier) {
      queued[w] = false;
      const NodeId current = estimate_[w];
      if (current == 0) continue;
      gather.clear();
      for (const NodeId x : adjacency_[w]) gather.push_back(estimate_[x]);
      const NodeId t = compute_index(gather, current, scratch);
      if (t < current) updates.emplace_back(w, t);
    }
    for (const auto& [w, value] : updates) {
      estimate_[w] = value;
      stats.messages += adjacency_[w].size();  // broadcast to neighbors
      for (const NodeId x : adjacency_[w]) {
        if (!queued[x]) {
          queued[x] = true;
          next.push_back(x);
        }
      }
    }
    frontier.swap(next);
  }
  return stats;
}

graph::Graph DynamicKCore::snapshot() const {
  graph::GraphBuilder b(num_nodes());
  for (NodeId u = 0; u < num_nodes(); ++u) {
    for (const NodeId v : adjacency_[u]) {
      if (u < v) b.add_edge(u, v);
    }
  }
  return b.build();
}

}  // namespace kcore::core
