#include "live/repair.h"

#include "par/engine.h"
#include "par/relax.h"
#include "util/clock.h"

namespace kcore::live {

using core::SchedPolicy;
using graph::NodeId;
using Clock = util::SteadyClock;

RepairEngine::RepairEngine(const LiveGraph& graph,
                           const RepairOptions& options)
    : graph_(graph),
      options_(options),
      ctx_(graph.num_nodes(),
           par::resolve_workers(options.threads, graph.num_nodes()),
           options.sched),
      order_(graph) {
  const NodeId n = graph.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    ctx_.est[u].store(graph.degree(u), std::memory_order_relaxed);
  }
  in_pending_.assign(n, 0);
}

void RepairEngine::mark_pending(NodeId u) {
  if (in_pending_[u]) return;
  in_pending_[u] = 1;
  pending_.push_back(u);
}

RepairStats RepairEngine::initialize() {
  order_.clear();
  const NodeId n = graph_.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    ctx_.est[u].store(graph_.degree(u), std::memory_order_relaxed);
    mark_pending(u);
  }
  return repair();
}

void RepairEngine::warm_start(const std::vector<NodeId>& coreness) {
  KCORE_CHECK_MSG(coreness.size() == ctx_.est.size(),
                  "warm_start table size "
                      << coreness.size() << " != node count "
                      << ctx_.est.size());
  order_.clear();
  const NodeId n = graph_.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    ctx_.est[u].store(coreness[u], std::memory_order_relaxed);
  }
}

void RepairEngine::note_insert(NodeId u, NodeId v) {
  KCORE_CHECK_MSG(!removal_pending_,
                  "note_insert after note_remove needs a repair() between");
  if (!order_.valid()) {
    // Lazy build: one peel of the graph as it was before {u,v}, which
    // must reproduce the (exact) table.
    order_.build(u, v);
    ++rebuilds_pending_;
    const NodeId n = graph_.num_nodes();
    for (NodeId w = 0; w < n; ++w) {
      const NodeId peeled = order_.core(w);
      const NodeId table = ctx_.est[w].load(std::memory_order_relaxed);
      if (peeled != table) order_.clear();
      KCORE_CHECK_MSG(peeled == table,
                      "k-order peel disagrees with the table at node "
                          << w << ": " << peeled << " vs " << table);
    }
  }
  const auto risen = order_.insert(u, v);
  for (const NodeId w : risen) {
    ctx_.est[w].store(order_.core(w), std::memory_order_relaxed);
  }
  raised_pending_ += risen.size();
}

void RepairEngine::note_remove(NodeId u, NodeId v) {
  if (order_.valid()) order_.remove(u, v);
  removal_pending_ = true;
  mark_pending(u);
  mark_pending(v);
}

RepairStats RepairEngine::repair() {
  RepairStats stats;
  stats.raised = raised_pending_;
  stats.order_rebuilds = rebuilds_pending_;
  raised_pending_ = 0;
  rebuilds_pending_ = 0;
  removal_pending_ = false;
  if (pending_.empty()) return stats;
  const auto start = Clock::now();

  // The delta accumulators are not reset: relax() leaves them as hints
  // only, and a stale one merely inflates a later priority.
  par::AsyncWorklist& worklist = *ctx_.worklist;
  worklist.reset();
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const NodeId u = pending_[i];
    in_pending_[u] = 0;
    const std::uint32_t bucket =
        options_.sched == SchedPolicy::kBound
            ? par::bound_bucket(ctx_.est[u].load(std::memory_order_relaxed))
            : 0;
    worklist.seed(u, static_cast<unsigned>(i) % worklist.workers(), bucket);
  }
  stats.seeded = pending_.size();
  pending_.clear();

  par::RelaxOutcome outcome;
  try {
    outcome = par::relax(graph_, ctx_, options_.targeted_send, nullptr);
  } catch (...) {
    order_.clear();  // a run cut short leaves the table half-relaxed
    throw;
  }
  if (outcome.lowered) order_.clear();  // any drop invalidates the order

  stats.relaxations = worklist.total_enqueues();
  stats.steals = worklist.total_steals();
  stats.pop_scans = worklist.total_pop_scans();
  stats.detector_passes = worklist.detector().passes();
  stats.skipped_recomputes = outcome.skipped_recomputes;
  stats.repair_ms = util::ms_between(start, Clock::now());
  return stats;
}

void RepairEngine::copy_coreness(std::vector<NodeId>& out) const {
  const NodeId n = graph_.num_nodes();
  out.resize(n);
  for (NodeId u = 0; u < n; ++u) {
    out[u] = ctx_.est[u].load(std::memory_order_relaxed);
  }
}

}  // namespace kcore::live
