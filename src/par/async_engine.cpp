#include "par/async_engine.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "par/engine.h"
#include "par/relax.h"
#include "util/check.h"
#include "util/clock.h"

namespace kcore::par {

AsyncStats AsyncStats::from_metrics(const obs::MetricsSnapshot& m,
                                    std::uint64_t seeded) {
  AsyncStats s;
  s.relaxations = m.value("async.relaxations");
  s.steals = m.value("async.steals");
  s.re_enqueues = s.relaxations >= seeded ? s.relaxations - seeded : 0;
  s.detector_passes = m.value("async.detector_passes");
  s.skipped_recomputes = m.value("async.skipped_recomputes");
  s.pop_scans = m.value("async.pop_scans");
  return s;
}

using core::SchedPolicy;
using Clock = util::SteadyClock;

AsyncPrepared prepare_bsp_async(const graph::Graph& g,
                                const core::RunOptions& options) {
  const graph::NodeId n = g.num_nodes();
  KCORE_CHECK_MSG(n > 0, "graph must be non-empty");
  AsyncPrepared prepared;
  prepared.workers = resolve_workers(options.threads, n);
  prepared.sched = options.sched;
  return prepared;
}

AsyncResult run_bsp_async(const graph::Graph& g,
                          const core::RunOptions& options,
                          const core::ProgressObserver& observer) {
  const graph::NodeId n = g.num_nodes();
  if (n == 0) {
    AsyncResult result;
    result.threads_used = resolve_threads(options.threads);
    return result;
  }
  const auto setup_start = Clock::now();
  const auto prepared = prepare_bsp_async(g, options);
  AsyncRunContext context(prepared, n);
  const auto setup_stop = Clock::now();
  auto result =
      run_bsp_async_prepared(g, prepared, context, options, observer);
  result.setup_ms +=
      util::ms_between(setup_start, setup_stop);
  return result;
}

AsyncResult run_bsp_async_prepared(const graph::Graph& g,
                                   const AsyncPrepared& prepared,
                                   AsyncRunContext& context,
                                   const core::RunOptions& options,
                                   const core::ProgressObserver& /*observer*/) {
  AsyncResult result;
  const graph::NodeId n = g.num_nodes();
  KCORE_CHECK_MSG(context.est.size() == n,
                  "run context does not match this graph");
  KCORE_CHECK_MSG(prepared.sched == options.sched,
                  "prepared state was built for --sched "
                      << core::to_string(prepared.sched)
                      << ", this run asks for "
                      << core::to_string(options.sched));
  KCORE_CHECK_MSG(prepared.workers == resolve_workers(options.threads, n),
                  "prepared state was built for "
                      << prepared.workers << " workers, this run asks for "
                      << options.threads << " threads");
  const unsigned workers = prepared.workers;
  const SchedPolicy sched = prepared.sched;
  result.threads_used = workers;
  const auto setup_start = Clock::now();

  // Reset the context's estimate table to the degrees (Algorithm 1's
  // starting estimate) and the pending-change accumulators to zero.
  std::vector<std::atomic<graph::NodeId>>& est = context.est;
  for (graph::NodeId u = 0; u < n; ++u) {
    est[u].store(g.degree(u), std::memory_order_relaxed);
  }
  std::vector<std::atomic<std::uint32_t>>& delta = context.delta;
  if (sched == SchedPolicy::kDelta) {
    for (graph::NodeId u = 0; u < n; ++u) {
      delta[u].store(0, std::memory_order_relaxed);
    }
  }

  // Reset-in-place, then deal kSeedChunk-id chunks round-robin to the
  // lanes (see the block comment in async_engine.h): a reused context
  // allocates nothing here (the pool keeps its grown rings).
  constexpr graph::NodeId kSeedChunk = 4096;
  AsyncWorklist& worklist = *context.worklist;
  worklist.reset();
  for (graph::NodeId u = 0; u < n; ++u) {
    const std::uint32_t bucket =
        sched == SchedPolicy::kBound ? bound_bucket(g.degree(u)) : 0;
    worklist.seed(u, (u / kSeedChunk) % workers, bucket);
  }

  // Telemetry (obs/obs.h): null recorder unless this run asked for some
  // AND the build has KCORE_OBS=ON. The scheduling tallies are folded
  // into these counters after the join; relax() registers its own.
  auto recorder = obs::Recorder::make(workers, options.obs);
  obs::Counter c_relax;
  obs::Counter c_steals;
  obs::Counter c_pop_scans;
  obs::Counter c_detector;
  if (recorder && recorder->metrics_on()) {
    obs::Registry& reg = recorder->registry();
    c_relax = reg.counter("async.relaxations");
    c_steals = reg.counter("async.steals");
    c_pop_scans = reg.counter("async.pop_scans");
    c_detector = reg.counter("async.detector_passes");
  }

  // The convergence sampler reads only concurrency-safe state: the
  // detector's outstanding counter, the pool's racy size estimate, and
  // acquire loads of the shared estimate table. Because estimates only
  // decrease (Theorem 2), the sampled sum is a monotone Fig.-4 error
  // proxy — no round observer needed.
  if (recorder) {
    recorder->start_sampler([&worklist, &est, n](obs::Sample& s) {
      s.outstanding = worklist.detector().outstanding();
      s.worklist_depth = worklist.size_estimate();
      double sum = 0.0;
      for (graph::NodeId u = 0; u < n; ++u) {
        sum += static_cast<double>(est[u].load(std::memory_order_acquire));
      }
      s.sum_estimates = sum;
    });
  }

  const auto run_start = Clock::now();
  const RelaxOutcome outcome =
      relax(g, context, options.targeted_send, recorder.get());
  const auto run_stop = Clock::now();
  if (recorder) recorder->stop_sampler();

  result.setup_ms =
      util::ms_between(setup_start, run_start);
  result.run_ms =
      util::ms_between(run_start, run_stop);
  // Exactly-once scheduling (begins == enqueues, pinned by the worklist
  // stress test) means the relaxation count IS the enqueue count.
  result.stats.relaxations = worklist.total_enqueues();
  result.stats.steals = worklist.total_steals();
  result.stats.re_enqueues = worklist.total_enqueues() - n;
  result.stats.detector_passes = worklist.detector().passes();
  result.stats.skipped_recomputes = outcome.skipped_recomputes;
  result.stats.pop_scans = worklist.total_pop_scans();

  if (recorder) {
    if (recorder->metrics_on()) {
      // Fold the worklist's per-worker scheduling tallies into the
      // registry (single-threaded here — the workers have joined), then
      // rebuild the stats AS A VIEW over the snapshot: the registry is
      // the single source of truth for every "async.*" number.
      obs::Registry& reg = recorder->registry();
      for (unsigned w = 0; w < workers; ++w) {
        const auto tally = worklist.tally(w);
        reg.add(c_relax, w, tally.enqueues);
        reg.add(c_steals, w, tally.steals);
        reg.add(c_pop_scans, w, tally.pop_scans);
      }
      reg.add(c_detector, 0, worklist.detector().passes());
    }
    auto telemetry =
        std::make_shared<obs::RunTelemetry>(recorder->harvest());
    if (telemetry->has_metrics) {
      result.stats = AsyncStats::from_metrics(telemetry->metrics, n);
    }
    result.telemetry = std::move(telemetry);
  }

  // The workers' join happens-before these loads: the table is final.
  result.coreness.resize(n);
  for (graph::NodeId u = 0; u < n; ++u) {
    result.coreness[u] = est[u].load(std::memory_order_relaxed);
  }
  return result;
}

}  // namespace kcore::par
