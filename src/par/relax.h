// The chaotic-relaxation worker loop — the paper's one downward
// relaxation, run by both engines that need it:
//
//  * the bsp-async batch engine (par/async_engine.cpp) starts it from the
//    degrees with every vertex seeded;
//  * the live repair engine (live/repair.cpp) starts it from the previous
//    fixed point — still a safe upper bound after deletions — with only
//    the perturbed endpoints seeded.
//
// The caller resets and seeds the context (estimate table, delta
// accumulators, worklist); relax() forks the workers through
// par::fork_join (par/fork_join.h), runs the protocol of
// par/async_engine.h's block comment to detector-confirmed quiescence and
// joins. Templated on the graph view so par never depends on live: any
// type with neighbors(u) -> std::span<const NodeId> works (graph::Graph,
// live::LiveGraph). The view must not change during the call; fork_join's
// thread start and join are the happens-before edges with the caller's
// writes. A worker's exception stops the others (fork_join's stop token)
// and is rethrown to the caller, leaving the table a half-relaxed upper
// bound.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <stop_token>
#include <thread>
#include <vector>

#include "core/compute_index.h"
#include "core/run_options.h"
#include "graph/graph.h"
#include "obs/obs.h"
#include "par/async_engine.h"
#include "par/async_worklist.h"
#include "par/fork_join.h"

namespace kcore::par {

/// What one relax() call reports beyond the context's worklist tallies.
struct [[nodiscard]] RelaxOutcome {
  /// Relaxations resolved by refine()'s skip-scan fast path.
  std::uint64_t skipped_recomputes = 0;
  /// True iff some worker lowered an estimate.
  bool lowered = false;
};

/// Relax `context` over `g` to quiescence with `context.worklist`'s
/// workers and policy. `recorder` (null = telemetry off) gets the
/// async.skipped_recomputes/wakes counters, the relax/scan/fan-out
/// histograms and the trace events; folding the worklist tallies into it
/// is the caller's job.
template <typename GraphView>
RelaxOutcome relax(const GraphView& g, AsyncRunContext& context,
                   bool targeted, obs::Recorder* recorder) {
  using core::SchedPolicy;
  using graph::NodeId;
  std::vector<std::atomic<NodeId>>& est = context.est;
  std::vector<std::atomic<std::uint32_t>>& delta = context.delta;
  AsyncWorklist& worklist = *context.worklist;
  const unsigned workers = worklist.workers();
  const SchedPolicy sched = worklist.policy();

  std::atomic<bool> lowered_some{false};
  std::atomic<std::uint64_t> skipped_total{0};

  // Telemetry (obs/obs.h): every hot-path hook below is an OBS_* macro
  // (empty when compiled out) or a branch on a condition that
  // constant-folds to false, so the uninstrumented run is unchanged.
  obs::Counter c_skipped;
  obs::Counter c_wakes;
  obs::HistogramId h_relax_ns;
  obs::HistogramId h_scan_len;
  obs::HistogramId h_wake_fanout;
  if (recorder && recorder->metrics_on()) {
    obs::Registry& reg = recorder->registry();
    c_skipped = reg.counter("async.skipped_recomputes");
    c_wakes = reg.counter("async.wakes");
    h_relax_ns = reg.histogram("async.relax_ns");
    h_scan_len = reg.histogram("async.acquire_scan_len");
    h_wake_fanout = reg.histogram("async.wake_fanout");
  }

  fork_join(workers, [&](unsigned w, const std::stop_token& stop) {
    core::IndexScratch scratch;
    obs::WorkerContext* const octx = recorder ? recorder->worker(w) : nullptr;
    // obs::kEnabled folds the whole metrics path away at compile time
    // when the telemetry layer is off.
    const bool metrics_on = obs::kEnabled && octx != nullptr && octx->metrics();
    std::uint64_t prev_scans = 0;
    std::uint64_t skipped = 0;
    bool lowered_any = false;
    unsigned idle_sweeps = 0;
    while (!worklist.done() && !stop.stop_requested()) {
      const std::uint32_t u = worklist.acquire(w);
      if (u == AsyncWorklist::kNone) {
        // Nothing runnable HERE is not termination: another worker may
        // still be relaxing (its wakes will repopulate the lanes).
        // Only the detector's confirmed zero ends the run.
        if (worklist.try_confirm()) {
          OBS_INSTANT(octx, "quiescence.confirmed");
          break;
        }
        // Back off while dry: a long sequential dependency chain can
        // idle most of the pool, and a tight retry loop would ping-pong
        // the detector counter's cache line against the one worker
        // whose add/finish RMWs are the critical path.
        if (++idle_sweeps < 64) {
          std::this_thread::yield();
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        continue;
      }
      idle_sweeps = 0;
      if (metrics_on) {
        // Probes accumulated since the previous successful acquire —
        // this acquire's bucket scan plus any dry sweeps in between.
        const std::uint64_t scans = worklist.tally(w).pop_scans;
        octx->observe(h_scan_len, scans - prev_scans);
        prev_scans = scans;
      }
      // Spans the whole relaxation of u (through the wakes and the
      // finish below — the destructor fires at the end of the
      // iteration); also feeds the latency histogram, in ns.
      OBS_SPAN(octx, "relax", h_relax_ns);
      worklist.begin(u);  // clear-before-read: the wakeup handshake
      if (sched == SchedPolicy::kDelta) {
        // Consume the pending-change accumulator: priority restarts
        // from zero for the NEXT activation of u (hint only — a racing
        // accumulate merely inflates a later priority).
        delta[u].store(0, std::memory_order_relaxed);
      }
      const NodeId stored = est[u].load(std::memory_order_acquire);
      const std::span<const NodeId> nbrs = g.neighbors(u);
      // Deletions can leave a warm estimate ABOVE the live degree — the
      // one place the invariant behind refine()'s skip-scan ("k never
      // exceeds the degree") breaks. coreness <= degree always, so the
      // clamp is still a safe upper bound; on a static graph it is a
      // no-op (estimates start at the degree and only fall).
      const NodeId k =
          std::min<NodeId>(stored, static_cast<NodeId>(nbrs.size()));
      // Skip-scan + allocation-free streamed count, shared with
      // bsp-par (core::IndexScratch::refine): the estimates stream
      // straight from the shared table into the epoch-stamped kernel.
      bool fast_path = false;
      const NodeId refined = scratch.refine(
          nbrs.size(), k,
          [&](std::size_t i) {
            return est[nbrs[i]].load(std::memory_order_acquire);
          },
          fast_path);
      if (fast_path) {
        ++skipped;
        OBS_COUNT(octx, c_skipped, 1);
      }
      if (refined < stored) {
        // Publish via CAS-min: est only decreases, and a concurrent
        // relaxation of u may already have gone lower.
        NodeId cur = est[u].load(std::memory_order_relaxed);
        bool lowered = false;
        while (cur > refined) {
          if (est[u].compare_exchange_weak(cur, refined,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
            lowered = true;
            break;
          }
        }
        // Wake only if WE published new information; a racing lowerer
        // that beat us to <= refined already woke the neighborhood for
        // its (stronger) value.
        if (lowered) {
          lowered_any = true;
          const std::uint32_t drop = stored - refined;
          std::uint32_t woken = 0;
          // est[v] feeds the targeted filter and the bound bucket; a
          // lifo run with the filter off needs neither load.
          const bool need_neighbor_estimate =
              targeted || sched == SchedPolicy::kBound;
          for (const NodeId v : nbrs) {
            const NodeId ev = need_neighbor_estimate
                                  ? est[v].load(std::memory_order_acquire)
                                  : 0;
            // §3.1.2 targeted wake, still safe under asynchrony: est[v]
            // never rises, so est[v] <= refined stays true forever and
            // v's computeIndex can never be lowered by this estimate.
            if (targeted && ev <= refined) continue;
            std::uint32_t bucket = 0;
            switch (sched) {
              case SchedPolicy::kLifo:
                break;
              case SchedPolicy::kBound:
                bucket = bound_bucket(ev);
                break;
              case SchedPolicy::kDelta:
                bucket = delta_bucket(
                    delta[v].fetch_add(drop, std::memory_order_relaxed) +
                    drop);
                break;
            }
            if (worklist.schedule(v, w, bucket)) ++woken;
          }
          if (metrics_on) {
            octx->add(c_wakes, woken);
            octx->observe(h_wake_fanout, woken);
          }
        }
      }
      // Retire AFTER the wakes: the detector counts our follow-on work
      // before this unit stops being outstanding.
      worklist.finish();
    }
    skipped_total.fetch_add(skipped, std::memory_order_relaxed);
    if (lowered_any) lowered_some.store(true, std::memory_order_relaxed);
  });
  return {skipped_total.load(std::memory_order_relaxed),
          lowered_some.load(std::memory_order_relaxed)};
}

}  // namespace kcore::par
