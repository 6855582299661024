// The live service's mutable topology: per-node sorted adjacency with
// O(log d) membership and O(d) insert/remove, built from an immutable
// graph::Graph and mutated in place by the single writer.
//
// Thread contract: apply() is single-writer. The repair workers (the
// par/relax.h loop, called from live/repair.cpp) read neighbors()
// concurrently with EACH OTHER but never concurrently with apply() — the
// service's apply cycle is strictly "mutate topology, then run repair
// workers, then publish", and par::fork_join's start/join of those
// workers gives the needed happens-before edges.
// Snapshot readers never touch this structure at all (they read the
// published immutable live::Snapshot).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/edge_list.h"
#include "graph/graph.h"

namespace kcore::live {

class LiveGraph {
 public:
  explicit LiveGraph(const graph::Graph& initial);

  [[nodiscard]] graph::NodeId num_nodes() const noexcept {
    return static_cast<graph::NodeId>(adjacency_.size());
  }
  [[nodiscard]] std::uint64_t num_edges() const noexcept { return num_edges_; }
  [[nodiscard]] graph::NodeId degree(graph::NodeId u) const {
    return static_cast<graph::NodeId>(adjacency_[u].size());
  }
  [[nodiscard]] std::span<const graph::NodeId> neighbors(
      graph::NodeId u) const {
    return adjacency_[u];
  }
  [[nodiscard]] bool has_edge(graph::NodeId u, graph::NodeId v) const;

  /// Apply one update; returns whether the topology changed (false for a
  /// duplicate insert, an absent remove, or a self-loop). Out-of-range
  /// node ids are the caller's job to reject (live::Service counts them
  /// as rejected before they reach this point).
  bool apply(const graph::EdgeUpdate& update);

  /// Count of topology-changing apply() calls since construction; folded
  /// into every published Snapshot as its topology_version.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// Materialize the current topology as an immutable Graph (O(N+M));
  /// used by tests and the bench to cross-check against from-scratch
  /// decompositions.
  [[nodiscard]] graph::Graph snapshot() const;

 private:
  std::vector<std::vector<graph::NodeId>> adjacency_;  // sorted per node
  std::uint64_t num_edges_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace kcore::live
