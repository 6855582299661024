// Async chaotic-relaxation runtime — the paper's protocol with the round
// structure removed entirely.
//
// The §4 proofs never rely on synchrony: estimates are upper bounds that
// only decrease (Theorem 2), computeIndex is monotone in its inputs, and
// the true coreness is the unique fixed point (Theorem 1). Any schedule
// that (a) applies computeIndex with SOME previously-published estimates
// and (b) re-examines a vertex whenever a neighbor's estimate drops,
// converges to the exact decomposition — that is chaotic relaxation, and
// it is exactly the asynchrony tolerance the paper claims for deployed
// (non-lockstep) hosts. run_bsp_async executes it on shared memory:
//
//  * ONE shared atomic estimate table — no epochs, no double buffering,
//    no barriers. Readers may observe half-propagated states; the lattice
//    argument above makes every such state safe.
//  * A pluggable SCHEDULING POLICY (core::SchedPolicy): because any
//    schedule converges, pop order is a pure performance lever. The
//    dirty-vertex pool is a bucketed priority pool (par/priority_pool.h)
//    of Chase–Lev deques — policy lifo uses one bucket per worker (the
//    classic LIFO/steal path), policy bound buckets by current estimate
//    and pops lowest first (the peeling frontier), policy delta buckets
//    by accumulated neighborhood change and pops largest first.
//  * A lost-wakeup-safe re-enqueue protocol: one atomic in-queue flag per
//    vertex. schedule() enqueues only on the flag's 0->1 exchange (a
//    vertex sits in at most one bucket); a worker clears the flag — also
//    with an exchange, so every flag write is an RMW and the release
//    sequence never breaks — BEFORE reading its inputs. An estimate that
//    drops after the clear re-flags and re-enqueues the vertex; one that
//    dropped before is visible to the read (the clearing exchange
//    synchronizes with every earlier flag RMW). Either way the update is
//    never lost. The protocol is identical under every policy — the pool
//    only changes which flagged vertex is popped next.
//  * Concurrent quiescence detection: core::QuiescenceDetector counts
//    outstanding work, and an idle worker that finds the counter at zero
//    runs the confirmation pass — the §3.3 centralized detector ported to
//    shared memory. Workers update the counter with credit (Mattern's
//    credit recovery): each worker adds kCreditBatch credits at a time
//    and spends one per enqueue, BEFORE the push makes the vertex
//    stealable; it counts its finishes (after a vertex is fully
//    processed, including the wakes it issued) locally and subtracts them
//    a batch at a time; and an idle worker returns its unspent credit and
//    unflushed finishes before it tries to confirm. The counter therefore
//    never reads below the true outstanding work and equals it once every
//    worker has flushed, so a confirmed zero is still global quiescence —
//    while the shared line takes one RMW per batch instead of two per
//    relaxation.
//  * Chunked seed lanes: bsp-async seeds every vertex, dealing 4096-id
//    chunks round-robin to the lanes (chunk c to lane c mod W). Each
//    worker pops its own chunks from the highest id down — the global
//    high-to-low sweep of a round-robin deal is kept — while the workers'
//    est[] and in-queue-flag ranges stay cache-line disjoint.
//
// AsyncWorklist is the scheduling core (flags + priority pool + detector)
// factored out of the engine — into par/async_worklist.h, as a template
// over the chk synchronization shim — so tests/test_async_runtime.cpp and
// tests/test_priority_pool.cpp can hammer the protocol directly, without
// a graph in the loop, and tests/test_chk.cpp can model-check it under
// controlled schedules. The worker loop over it is par::relax()
// (par/relax.h), which live::RepairEngine runs as well.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/run_options.h"
#include "graph/graph.h"
#include "obs/obs.h"
#include "par/async_worklist.h"

namespace kcore::par {

/// Execution profile of an async run (the AsyncExtras payload).
struct AsyncStats {
  /// Vertex recomputations executed (>= n: every vertex is processed at
  /// least once, re-activations add more). The scheduling policy's whole
  /// job is to shrink this number.
  std::uint64_t relaxations = 0;
  /// Vertices obtained from another worker's lane.
  std::uint64_t steals = 0;
  /// Successful 0->1 flag transitions AFTER the initial seeding — the
  /// activation notifications that actually materialized.
  std::uint64_t re_enqueues = 0;
  /// Quiescence-detector confirmation passes started.
  std::uint64_t detector_passes = 0;
  /// Relaxations resolved by the fast path: no neighbor estimate was
  /// below the vertex's own, so computeIndex cannot lower it and the
  /// counting kernel is skipped entirely.
  std::uint64_t skipped_recomputes = 0;
  /// Deque probes performed while popping/stealing — the priority pool's
  /// scan overhead (== successful pops for lifo, higher for the bucketed
  /// policies and for dry steal sweeps).
  std::uint64_t pop_scans = 0;

  /// Build the stats as a VIEW over an obs metrics snapshot (the
  /// "async.*" counters the engine registers when options.obs.metrics is
  /// on) — the registry is then the single source of truth and this
  /// struct is a projection of it. `seeded` is the initial enqueue count
  /// (n), subtracted to recover re_enqueues.
  [[nodiscard]] static AsyncStats from_metrics(const obs::MetricsSnapshot& m,
                                               std::uint64_t seeded);
};

/// Coreness plus the run profile.
struct AsyncResult {
  std::vector<graph::NodeId> coreness;
  AsyncStats stats;
  unsigned threads_used = 0;
  double setup_ms = 0.0;  // table/worklist reset + seeding
  double run_ms = 0.0;    // the chaotic-relaxation phase
  /// Harvested telemetry; null unless options.obs asked for some.
  std::shared_ptr<const obs::RunTelemetry> telemetry;
};

/// Run the async chaotic-relaxation decomposition. Consumed options:
/// threads (0 = hardware concurrency), sched (pop-order policy — pure
/// performance, coreness is policy-invariant), targeted_send (§3.1.2 wake
/// filter, safe under asynchrony because estimates only decrease). The
/// initial distribution of vertices over worker lanes is the fixed
/// chunked deal above, so assignment and seed are not read. mode,
/// max_rounds, num_hosts and comm are round-/simulator-shaped and are
/// ignored (api::validate polices the ones that would silently lie).
///
/// The observer is accepted for signature parity but never invoked: the
/// ProgressObserver contract is per-round, and this runtime has no rounds.
[[nodiscard]] AsyncResult run_bsp_async(
    const graph::Graph& g, const core::RunOptions& options,
    const core::ProgressObserver& observer = {});

/// Amortizable, SHAREABLE state of an async run, for api::Session's
/// prepare-once / run-many (and serve-many-concurrently) contract: the
/// resolved worker count and scheduling policy, a pure function of
/// (graph, options) and immutable after prepare. Any number of
/// concurrent runs may read one AsyncPrepared; each run brings its own
/// AsyncRunContext for the mutable tables.
struct AsyncPrepared {
  unsigned workers = 0;
  core::SchedPolicy sched = core::SchedPolicy::kLifo;
};

/// Per-run mutable state, owned privately by one run at a time — what
/// par::relax() (par/relax.h) works on:
///  * the shared atomic estimate table (reset to the degrees per
///    bsp-async run; live::RepairEngine keeps it warm between repairs),
///  * the per-vertex pending-change accumulators (sched=delta only),
///  * the worklist (flags + pool + detector), reset in place per run so
///    sequential reuse re-allocates nothing.
/// Both tables start zeroed.
struct AsyncRunContext {
  AsyncRunContext(graph::NodeId n, unsigned workers, core::SchedPolicy sched)
      : est(n), worklist(std::make_unique<AsyncWorklist>(n, workers, sched)) {
    if (sched == core::SchedPolicy::kDelta) {
      delta = std::vector<std::atomic<std::uint32_t>>(n);
    }
  }
  AsyncRunContext(const AsyncPrepared& prepared, graph::NodeId n)
      : AsyncRunContext(n, prepared.workers, prepared.sched) {}

  std::vector<std::atomic<graph::NodeId>> est;
  std::vector<std::atomic<std::uint32_t>> delta;
  std::unique_ptr<AsyncWorklist> worklist;
};

[[nodiscard]] AsyncPrepared prepare_bsp_async(const graph::Graph& g,
                                              const core::RunOptions& options);

/// Execute one run from shared prepared state and a private context.
/// Coreness is bit-identical to the one-shot runner (and to the
/// sequential baseline); the schedule profile in stats is
/// interleaving-dependent as always. result.setup_ms covers only this
/// run's residual setup (table + worklist reset + seeding).
/// `options.sched` and `options.threads` must match the prepared state.
[[nodiscard]] AsyncResult run_bsp_async_prepared(
    const graph::Graph& g, const AsyncPrepared& prepared,
    AsyncRunContext& context, const core::RunOptions& options,
    const core::ProgressObserver& observer = {});

}  // namespace kcore::par
