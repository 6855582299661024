// Incremental coreness repair on the async runtime.
//
// The paper's locality claim, executed as a service primitive: the
// engine keeps a persistent shared atomic estimate table over a
// LiveGraph and, after each batch of deletions, re-establishes the exact
// fixed point by chaotic relaxation seeded ONLY with the perturbed
// endpoints — not the whole graph (insertions take the k-order path
// below). The relaxation itself is par::relax() (par/relax.h), the same
// routine bsp-async runs: this engine only owns the warm
// par::AsyncRunContext, the pending-set seeding and the k-order.
//
// Why warm-starting is exact:
//  * a DELETION never grows a k-core, so no coreness rises and the
//    converged table is still a safe upper bound. It still satisfies the
//    locality equation everywhere except at the two endpoints, so
//    relaxing downward from them (waking the neighbours of every node
//    that drops) restores exactness (Theorem 2 applies verbatim);
//  * an INSERTION is not relaxed at all. The engine keeps a k-order
//    (live/korder.h, Zhang et al.'s OrderInsert): the insert updates
//    deg+ of the earlier endpoint, usually stops there, and otherwise
//    walks only the part of the K-shell that gained a candidate
//    neighbour. The nodes that rise get exactly K+1 stored and nothing is
//    marked pending, so an insert-only batch runs no relaxation and
//    spawns no threads. The order is built lazily by one bucket peel at
//    the first insertion (checked against the table) and dropped
//    whenever the table is reset (initialize(), warm_start()) or a
//    repair lowers any estimate. A deletion that lowers nothing keeps
//    it: it only takes one off deg+ of the earlier endpoint.
//
// Thread contract: initialize(), note_insert(), note_remove() and
// repair() are called by ONE writer thread, with every note_insert() of
// a batch before its first note_remove(); repair() runs par::relax(),
// which forks and joins its workers (par/fork_join.h), so the estimate
// table is never mutated concurrently with the notes. Readers of the
// published coreness never touch this class (live::Service hands them
// immutable snapshots).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/run_options.h"
#include "graph/graph.h"
#include "live/korder.h"
#include "live/live_graph.h"
#include "par/async_engine.h"

namespace kcore::live {

struct RepairOptions {
  unsigned threads = 0;  // 0 = hardware concurrency
  core::SchedPolicy sched = core::SchedPolicy::kBound;
  bool targeted_send = true;
};

/// Cost of one repair run (or of initialize()'s full convergence).
struct RepairStats {
  /// Nodes seeded into the worklist (deletion endpoints) — the localized
  /// dirty set the run started from.
  std::uint64_t seeded = 0;
  /// Coreness values the batch's insertions raised (exactly; summed over
  /// the insertions), counted even when nothing was left to relax.
  std::uint64_t raised = 0;
  /// k-order builds the batch's insertions paid for (0 or 1).
  std::uint64_t order_rebuilds = 0;
  std::uint64_t relaxations = 0;
  std::uint64_t steals = 0;
  std::uint64_t pop_scans = 0;
  std::uint64_t detector_passes = 0;
  std::uint64_t skipped_recomputes = 0;
  double repair_ms = 0.0;
};

class RepairEngine {
 public:
  /// The graph reference must outlive the engine; the node count is
  /// fixed at construction (live updates rewire edges, never add nodes).
  RepairEngine(const LiveGraph& graph, const RepairOptions& options);

  /// Full from-scratch convergence: estimate = degree, every node
  /// seeded — Algorithm 1's initialization on the async runtime.
  RepairStats initialize();

  /// Adopt `coreness` as the already-converged table without relaxing
  /// anything — the recovery path. The caller vouches the table is exact
  /// for the CURRENT topology (a CRC-validated checkpoint); Theorems 1–2
  /// make every subsequent note_*/repair() cycle exact from here, so a
  /// restart pays zero relaxations instead of a full recompute. Size
  /// must match the node count.
  void warm_start(const std::vector<graph::NodeId>& coreness);

  /// Record an insertion of {u,v} that was ALREADY applied to the graph:
  /// runs OrderInsert and stores the exact new coreness of the nodes that
  /// rise; marks nothing pending. The table must be exact when it runs:
  /// no note_remove() since the last repair().
  void note_insert(graph::NodeId u, graph::NodeId v);

  /// Record a deletion of {u,v} already applied to the graph: the table
  /// is now a safe upper bound; only the endpoints need re-activation.
  void note_remove(graph::NodeId u, graph::NodeId v);

  /// Relax the pending dirty set to quiescence; returns the run's cost
  /// (plus the insertions' raised/order_rebuilds since the last call)
  /// and clears the pending set. Runs no workers when nothing is
  /// pending.
  RepairStats repair();

  /// True iff the next repair() has relaxation to run: a note_remove()
  /// since the last one (insertions mark nothing pending).
  [[nodiscard]] bool has_pending() const noexcept { return !pending_.empty(); }

  [[nodiscard]] unsigned workers() const noexcept {
    return ctx_.worklist->workers();
  }
  [[nodiscard]] core::SchedPolicy sched() const noexcept {
    return options_.sched;
  }
  /// Current exact estimate of one node (between repairs).
  [[nodiscard]] graph::NodeId estimate(graph::NodeId u) const {
    return ctx_.est[u].load(std::memory_order_relaxed);
  }
  /// Copy the converged table (between repairs).
  void copy_coreness(std::vector<graph::NodeId>& out) const;
  /// The maintained k-order; valid() is false until the first insertion
  /// after a reset or a lowering repair.
  [[nodiscard]] const KOrder& order() const noexcept { return order_; }

 private:
  void mark_pending(graph::NodeId u);

  const LiveGraph& graph_;
  RepairOptions options_;
  par::AsyncRunContext ctx_;  // warm estimate table + delta + worklist
  std::vector<graph::NodeId> pending_;   // dirty set for the next repair
  std::vector<std::uint8_t> in_pending_;
  std::uint64_t raised_pending_ = 0;
  std::uint64_t rebuilds_pending_ = 0;
  bool removal_pending_ = false;  // a note_remove() since the last repair
  KOrder order_;
};

}  // namespace kcore::live
