#include "live/repair.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "core/compute_index.h"
#include "par/engine.h"
#include "util/clock.h"

namespace kcore::live {

using core::SchedPolicy;
using graph::NodeId;
using Clock = util::SteadyClock;

RepairEngine::RepairEngine(const LiveGraph& graph,
                           const RepairOptions& options)
    : graph_(graph), options_(options), order_(graph) {
  const NodeId n = graph.num_nodes();
  workers_ = par::resolve_threads(options.threads);
  if (n > 0 && workers_ > n) workers_ = n;
  est_ = std::vector<std::atomic<NodeId>>(n);
  for (NodeId u = 0; u < n; ++u) {
    est_[u].store(graph.degree(u), std::memory_order_relaxed);
  }
  if (options_.sched == SchedPolicy::kDelta) {
    delta_ = std::vector<std::atomic<std::uint32_t>>(n);
    for (NodeId u = 0; u < n; ++u) {
      delta_[u].store(0, std::memory_order_relaxed);
    }
  }
  worklist_ = std::make_unique<par::AsyncWorklist>(n, workers_,
                                                   options_.sched);
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
    est_[u].store(graph_.degree(u), std::memory_order_relaxed);
    mark_pending(u);
  }
  return repair();
}

void RepairEngine::warm_start(const std::vector<NodeId>& coreness) {
  KCORE_CHECK_MSG(coreness.size() == est_.size(),
                  "warm_start table size " << coreness.size()
                                           << " != node count " << est_.size());
  order_.clear();
  const NodeId n = graph_.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    est_[u].store(coreness[u], std::memory_order_relaxed);
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
      const NodeId table = est_[w].load(std::memory_order_relaxed);
      if (peeled != table) order_.clear();
      KCORE_CHECK_MSG(peeled == table,
                      "k-order peel disagrees with the table at node "
                          << w << ": " << peeled << " vs " << table);
    }
  }
  const auto risen = order_.insert(u, v);
  for (const NodeId w : risen) {
    est_[w].store(order_.core(w), std::memory_order_relaxed);
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

  par::AsyncWorklist& worklist = *worklist_;
  worklist.reset();
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const NodeId u = pending_[i];
    in_pending_[u] = 0;
    const std::uint32_t bucket =
        options_.sched == SchedPolicy::kBound
            ? par::bound_bucket(est_[u].load(std::memory_order_relaxed))
            : 0;
    worklist.seed(u, static_cast<unsigned>(i) % workers_, bucket);
  }
  stats.seeded = pending_.size();
  pending_.clear();

  const bool targeted = options_.targeted_send;
  const SchedPolicy sched = options_.sched;
  std::atomic<std::uint64_t> skipped_total{0};
  // Each worker flags whether it lowered any estimate; the flags are
  // OR-ed here, and any drop invalidates the order.
  std::atomic<bool> lowered_some{false};
  std::atomic<bool> abort{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;

  // The bsp-async worker loop (par/async_engine.cpp) over the live
  // adjacency: acquire -> begin (clear-before-read) -> streamed refine ->
  // CAS-min publish -> targeted wakes -> finish-after-wakes. Identical
  // protocol, so every ordering claim pinned by the chk/TSan suites
  // carries over.
  auto worker_fn = [&](unsigned w) {
    try {
      core::IndexScratch scratch;
      std::uint64_t skipped = 0;
      bool lowered_any = false;
      unsigned idle_sweeps = 0;
      while (!worklist.done() && !abort.load(std::memory_order_relaxed)) {
        const std::uint32_t u = worklist.acquire(w);
        if (u == par::AsyncWorklist::kNone) {
          if (worklist.try_confirm()) break;
          if (++idle_sweeps < 64) {
            std::this_thread::yield();
          } else {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
          continue;
        }
        idle_sweeps = 0;
        worklist.begin(u);
        if (sched == SchedPolicy::kDelta) {
          delta_[u].store(0, std::memory_order_relaxed);
        }
        const NodeId stored = est_[u].load(std::memory_order_acquire);
        const std::span<const NodeId> nbrs = graph_.neighbors(u);
        // Deletions can leave the stored estimate ABOVE the live degree —
        // the one place the static-graph invariant behind refine()'s
        // skip-scan ("k never exceeds the degree") breaks. Clamp first:
        // coreness <= degree always, so min(stored, degree) is still a
        // safe upper bound and refine()'s contract holds again.
        const NodeId k = std::min<NodeId>(
            stored, static_cast<NodeId>(nbrs.size()));
        bool fast_path = false;
        const NodeId refined = scratch.refine(
            nbrs.size(), k,
            [&](std::size_t i) {
              return est_[nbrs[i]].load(std::memory_order_acquire);
            },
            fast_path);
        if (fast_path) ++skipped;
        if (refined < stored) {
          NodeId cur = est_[u].load(std::memory_order_relaxed);
          bool lowered = false;
          while (cur > refined) {
            if (est_[u].compare_exchange_weak(cur, refined,
                                              std::memory_order_acq_rel,
                                              std::memory_order_relaxed)) {
              lowered = true;
              break;
            }
          }
          if (lowered) {
            lowered_any = true;
            const std::uint32_t drop = stored - refined;
            const bool need_neighbor_estimate =
                targeted || sched == SchedPolicy::kBound;
            for (const NodeId v : graph_.neighbors(u)) {
              const NodeId ev = need_neighbor_estimate
                                    ? est_[v].load(std::memory_order_acquire)
                                    : 0;
              if (targeted && ev <= refined) continue;
              std::uint32_t bucket = 0;
              switch (sched) {
                case SchedPolicy::kLifo:
                  break;
                case SchedPolicy::kBound:
                  bucket = par::bound_bucket(ev);
                  break;
                case SchedPolicy::kDelta:
                  bucket = par::delta_bucket(
                      delta_[v].fetch_add(drop, std::memory_order_relaxed) +
                      drop);
                  break;
              }
              worklist.schedule(v, w, bucket);
            }
          }
        }
        worklist.finish();
      }
      skipped_total.fetch_add(skipped, std::memory_order_relaxed);
      if (lowered_any) lowered_some.store(true, std::memory_order_relaxed);
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      abort.store(true, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers_ - 1);
  for (unsigned w = 1; w < workers_; ++w) pool.emplace_back(worker_fn, w);
  worker_fn(0);
  for (auto& thread : pool) thread.join();
  if (first_error || lowered_some.load(std::memory_order_relaxed)) {
    order_.clear();
  }
  if (first_error) std::rethrow_exception(first_error);

  stats.relaxations = worklist.total_enqueues();
  stats.steals = worklist.total_steals();
  stats.pop_scans = worklist.total_pop_scans();
  stats.detector_passes = worklist.detector().passes();
  stats.skipped_recomputes = skipped_total.load(std::memory_order_relaxed);
  stats.repair_ms = util::ms_between(start, Clock::now());
  return stats;
}

void RepairEngine::copy_coreness(std::vector<NodeId>& out) const {
  const NodeId n = graph_.num_nodes();
  out.resize(n);
  for (NodeId u = 0; u < n; ++u) {
    out[u] = est_[u].load(std::memory_order_relaxed);
  }
}

}  // namespace kcore::live
