// run_bsp_par — the Pregel port on shared memory (see par/runtime.h).
//
// Instead of materializing messages, workers communicate through a shared
// atomic coreness-estimate table with two epochs: every superstep reads
// neighbor estimates from the PREV epoch and publishes recomputed values
// into the NEXT epoch; the barrier completion step swaps the epochs. That
// is Pregel's superstep semantics with the MIN-combiner folded away: a
// vertex reading est_prev[v] sees exactly the value the combined message
// from v would have carried. Changed vertices activate their neighbors
// through a shared atomic dirty-flag table (the MPMC side of the design —
// many writers may flag the same vertex; a relaxed store of 1 is a
// natural idempotent merge).
//
// All table traffic uses relaxed atomics: the barrier between supersteps
// already provides the happens-before ordering; the atomics exist so the
// table is also safely sampled live (observers, future async monitors)
// and so ThreadSanitizer can vouch for the whole runtime.
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/assignment.h"
#include "core/compute_index.h"
#include "par/engine.h"
#include "par/round_loop.h"
#include "par/runtime.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/rng.h"

namespace kcore::par {

namespace {

struct alignas(64) WorkerTally {
  std::uint64_t changed = 0;
  std::uint64_t emitted = 0;
  std::uint64_t cross_worker = 0;
};

}  // namespace

BspParPrepared prepare_bsp_par(const graph::Graph& g,
                               const core::RunOptions& options) {
  const graph::NodeId n = g.num_nodes();
  KCORE_CHECK_MSG(n > 0, "graph must be non-empty");
  BspParPrepared prepared;
  prepared.workers = resolve_workers(options.threads, n);

  // Vertex -> worker shard via the §3.2.2 policies; the kRandom policy's
  // seed is a pure stream split of the root seed, so re-running with a
  // different thread count never silently reshuffles unrelated streams.
  prepared.owner = core::assign_nodes(n, prepared.workers, options.assignment,
                                      util::split_stream(options.seed, 0));
  prepared.owned.assign(prepared.workers, {});
  for (graph::NodeId u = 0; u < n; ++u) {
    prepared.owned[prepared.owner[u]].push_back(u);
  }
  return prepared;
}

BspParResult run_bsp_par(const graph::Graph& g,
                         const core::RunOptions& options,
                         const core::ProgressObserver& observer) {
  const graph::NodeId n = g.num_nodes();
  if (n == 0) {
    BspParResult result;
    result.stats.converged = true;
    result.threads_used = resolve_threads(options.threads);
    return result;
  }
  const auto setup_start = util::SteadyClock::now();
  const auto prepared = prepare_bsp_par(g, options);
  BspParRunContext context(n);
  const auto setup_stop = util::SteadyClock::now();
  auto result = run_bsp_par_prepared(g, prepared, context, options, observer);
  result.setup_ms += util::ms_between(setup_start, setup_stop);
  return result;
}

BspParResult run_bsp_par_prepared(const graph::Graph& g,
                                  const BspParPrepared& prepared,
                                  BspParRunContext& context,
                                  const core::RunOptions& options,
                                  const core::ProgressObserver& observer) {
  BspParResult result;
  const graph::NodeId n = g.num_nodes();
  KCORE_CHECK_MSG(prepared.owner.size() == n,
                  "prepared state does not match this graph");
  KCORE_CHECK_MSG(context.est_a.size() == n,
                  "run context does not match this graph");
  const unsigned workers = prepared.workers;
  result.threads_used = workers;
  const auto setup_start = util::SteadyClock::now();

  const auto& owner = prepared.owner;
  const auto& owned = prepared.owned;

  // Reset the context tables to the run's initial state: estimates at
  // the degrees (Algorithm 1's starting estimate), every vertex dirty.
  std::vector<std::atomic<graph::NodeId>>& est_a = context.est_a;
  std::vector<std::atomic<graph::NodeId>>& est_b = context.est_b;
  for (graph::NodeId u = 0; u < n; ++u) {
    est_a[u].store(g.degree(u), std::memory_order_relaxed);
  }
  auto* est_prev = &est_a;
  auto* est_next = &est_b;

  // Dirty flags: cur is consumed by owners this superstep, next
  // accumulates activations for the following one.
  std::vector<std::atomic<std::uint8_t>>& act_a = context.act_a;
  std::vector<std::atomic<std::uint8_t>>& act_b = context.act_b;
  for (graph::NodeId u = 0; u < n; ++u) {
    act_a[u].store(1, std::memory_order_relaxed);
    act_b[u].store(0, std::memory_order_relaxed);
  }
  auto* act_cur = &act_a;
  auto* act_next = &act_b;

  const std::uint64_t limit =
      options.max_rounds > 0 ? options.max_rounds
                             : static_cast<std::uint64_t>(n) * 2 + 64;
  const bool targeted = options.targeted_send;

  // Telemetry (obs/obs.h): per-worker counters + superstep latency
  // histogram when metrics are on; per-round trace spans come from
  // run_round_loop's decorator. The sampler reads the tables through the
  // atomic `live` view published by the completion step below — the
  // epoch POINTERS are plain and swap at the barrier, so the sampler
  // must never chase them directly.
  auto recorder = obs::Recorder::make(workers, options.obs);
  obs::Counter c_relaxed;
  obs::Counter c_emitted;
  obs::Counter c_cross;
  obs::HistogramId h_superstep_ns;
  if (recorder && recorder->metrics_on()) {
    obs::Registry& reg = recorder->registry();
    c_relaxed = reg.counter("bsp.changed");
    c_emitted = reg.counter("bsp.emitted");
    c_cross = reg.counter("bsp.cross_worker");
    h_superstep_ns = reg.histogram("bsp.superstep_ns");
  }
  struct LiveView {
    std::atomic<const std::vector<std::atomic<graph::NodeId>>*> est{nullptr};
    std::atomic<const std::vector<std::atomic<std::uint8_t>>*> act{nullptr};
    std::atomic<std::uint64_t> round{0};
  };
  LiveView live;
  live.est.store(est_prev, std::memory_order_release);
  live.act.store(act_cur, std::memory_order_release);

  std::vector<WorkerTally> tallies(workers);
  // Cache-line-aligned like WorkerTally: the scratch's epoch counter is
  // written on every relaxation, so adjacent workers must not share a
  // line.
  struct alignas(64) WorkerScratch {
    core::IndexScratch index;
  };
  std::vector<WorkerScratch> scratch(workers);

  auto body = [&](unsigned w, std::uint64_t /*round*/) {
    obs::WorkerContext* const octx = recorder ? recorder->worker(w) : nullptr;
    OBS_SPAN(octx, "superstep", h_superstep_ns);
    auto& prev = *est_prev;
    auto& next = *est_next;
    auto& cur_flags = *act_cur;
    auto& next_flags = *act_next;
    auto& my = scratch[w];
    WorkerTally tally;
    for (const graph::NodeId u : owned[w]) {
      const graph::NodeId k = prev[u].load(std::memory_order_relaxed);
      if (cur_flags[u].load(std::memory_order_relaxed) == 0) {
        next[u].store(k, std::memory_order_relaxed);
        continue;
      }
      cur_flags[u].store(0, std::memory_order_relaxed);
      const auto nbrs = g.neighbors(u);
      // Skip-scan + allocation-free streamed count over the prev epoch,
      // shared with bsp-async (core::IndexScratch::refine).
      // Deterministic: the skip writes the same `refined` the kernel
      // would have.
      bool fast_path = false;
      const graph::NodeId refined = my.index.refine(
          nbrs.size(), k,
          [&](std::size_t i) {
            return prev[nbrs[i]].load(std::memory_order_relaxed);
          },
          fast_path);
      next[u].store(refined, std::memory_order_relaxed);
      if (refined < k) {
        ++tally.changed;
        for (const graph::NodeId v : g.neighbors(u)) {
          // §3.1.2 targeted send: an estimate >= the neighbor's own
          // current value cannot lower its computeIndex — skip the wake.
          if (targeted &&
              prev[v].load(std::memory_order_relaxed) <= refined) {
            continue;
          }
          ++tally.emitted;
          if (owner[v] != w) ++tally.cross_worker;
          next_flags[v].store(1, std::memory_order_relaxed);
        }
      }
    }
    if (obs::kEnabled && octx != nullptr && octx->metrics()) {
      octx->add(c_relaxed, tally.changed);
      octx->add(c_emitted, tally.emitted);
      octx->add(c_cross, tally.cross_worker);
    }
    tallies[w] = tally;
  };

  std::vector<graph::NodeId> snapshot;
  auto completion = [&](std::uint64_t round) -> bool {
    // Single-threaded: all workers are parked at the barrier.
    std::uint64_t changed = 0;
    for (auto& tally : tallies) {
      changed += tally.changed;
      result.stats.messages_emitted += tally.emitted;
      result.stats.messages_cross_worker += tally.cross_worker;
      tally = WorkerTally{};
    }
    // Shared-table deliveries are combined by construction.
    result.stats.messages_delivered = result.stats.messages_emitted;
    result.stats.supersteps = round;
    if (observer) {
      snapshot.resize(n);
      for (graph::NodeId u = 0; u < n; ++u) {
        snapshot[u] = (*est_next)[u].load(std::memory_order_relaxed);
      }
      observer(core::ProgressEvent{round, snapshot,
                                   result.stats.messages_delivered});
    }
    std::swap(est_prev, est_next);
    std::swap(act_cur, act_next);
    // Publish the freshest epoch for the sampler (release pairs with its
    // acquire; the tables themselves are atomic, so sampling mid-round
    // is safe — just a snapshot of a moving target).
    live.est.store(est_prev, std::memory_order_release);
    live.act.store(act_cur, std::memory_order_release);
    live.round.store(round, std::memory_order_release);
    if (changed == 0) {
      result.stats.converged = true;
      return false;
    }
    return round < limit;
  };

  if (recorder) {
    recorder->start_sampler([&live, n](obs::Sample& s) {
      const auto* est = live.est.load(std::memory_order_acquire);
      const auto* act = live.act.load(std::memory_order_acquire);
      s.round = live.round.load(std::memory_order_acquire);
      double sum = 0.0;
      for (graph::NodeId u = 0; u < n; ++u) {
        sum += static_cast<double>((*est)[u].load(std::memory_order_relaxed));
      }
      s.sum_estimates = sum;
      std::uint64_t depth = 0;
      for (graph::NodeId u = 0; u < n; ++u) {
        depth += (*act)[u].load(std::memory_order_relaxed) != 0 ? 1 : 0;
      }
      s.worklist_depth = depth;  // dirty vertices awaiting recomputation
    });
  }

  const auto run_start = util::SteadyClock::now();
  run_round_loop(workers, body, completion, recorder.get());
  const auto run_stop = util::SteadyClock::now();
  if (recorder) recorder->stop_sampler();
  result.setup_ms = util::ms_between(setup_start, run_start);
  result.run_ms =
      util::ms_between(run_start, run_stop);

  if (recorder) {
    result.telemetry =
        std::make_shared<obs::RunTelemetry>(recorder->harvest());
  }

  // After the final swap the freshest epoch is est_prev.
  result.coreness.resize(n);
  for (graph::NodeId u = 0; u < n; ++u) {
    result.coreness[u] = (*est_prev)[u].load(std::memory_order_relaxed);
  }
  return result;
}

}  // namespace kcore::par
