// kcore::par — real shared-memory parallel execution of the paper's
// protocols.
//
// Everything under src/par/ exists to turn the repo's *simulated* speedup
// into *measured* speedup: the paper's central claim is that k-core
// decomposition parallelizes cleanly under the one-to-many host model,
// and these runners execute that model with actual worker threads.
//
//  * run_one_to_many_par — Algorithms 3–5 verbatim: the node set is
//    sharded into `num_hosts` OneToManyHost state machines by the
//    core::assignment policies, and par::Engine drives them with
//    `threads` workers, double-buffered SPSC mailboxes and barrier
//    rounds. Coreness AND traffic are bit-identical to the simulator in
//    synchronous mode — the same protocol, now on real cores.
//
//  * run_bsp_par — the Pregel-style port on shared memory: vertices are
//    sharded across workers, every superstep recomputes dirty vertices
//    with computeIndex against a SHARED ATOMIC estimate table (two
//    epochs, prev/next, swapped at the barrier), and changed vertices
//    activate their neighbors through atomic dirty flags instead of
//    materialized messages. Supersteps and message counts are a pure
//    function of the graph — independent of thread count and shard
//    assignment.
//
// Seed stability: any randomness (the kRandom assignment policy, future
// fault injection) is derived with util::split_stream from the root seed
// and a LOGICAL stream index (shard id, not thread id), so results never
// depend on how many threads happened to run the shards.
//
// Both runners handle the degenerate graphs the facade never forwards
// (empty graph, single node) so they can also be driven directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "bsp/pregel.h"
#include "core/one_to_many.h"
#include "core/run_options.h"
#include "graph/graph.h"
#include "obs/obs.h"

namespace kcore::par {

/// One-to-many result plus the execution profile of the real run.
struct OneToManyParResult : core::OneToManyResult {
  /// Worker threads actually used (after clamping to the shard count).
  unsigned threads_used = 0;
  /// Single-threaded setup (assignment + host construction) vs the
  /// parallel round loop, separated so scaling studies can apply Amdahl
  /// honestly: only run_ms is expected to shrink with threads.
  double setup_ms = 0.0;
  double run_ms = 0.0;
  /// Harvested telemetry; null unless options.obs asked for some. The
  /// convergence sampler is not wired for this runtime (host state has
  /// no concurrency-safe estimate table) — metrics and round traces are.
  std::shared_ptr<const obs::RunTelemetry> telemetry;
};

/// BSP result: coreness plus the framework statistics (messages_* count
/// activation notifications; with the shared estimate table every
/// delivery is "combined" by construction, so emitted == delivered).
struct BspParResult {
  std::vector<graph::NodeId> coreness;
  bsp::BspStats stats;
  unsigned threads_used = 0;
  double setup_ms = 0.0;  // table allocation + shard assignment
  double run_ms = 0.0;    // the parallel superstep loop
  /// Harvested telemetry; null unless options.obs asked for some.
  std::shared_ptr<const obs::RunTelemetry> telemetry;
};

/// Run the §3.2 one-to-many protocol on real threads. Consumed options:
/// threads (0 = hardware concurrency), num_hosts, assignment, comm, seed,
/// max_rounds (0 = automatic). mode is ignored — real barrier rounds ARE
/// the synchronous model; faults are rejected by api::validate upstream.
[[nodiscard]] OneToManyParResult run_one_to_many_par(
    const graph::Graph& g, const core::RunOptions& options,
    const core::ProgressObserver& observer = {});

/// Run the Pregel-style shared-memory port. Consumed options: threads,
/// assignment, targeted_send (skip notifying neighbors the new estimate
/// cannot affect), seed, max_rounds. num_hosts is ignored — workers own
/// vertex shards directly.
[[nodiscard]] BspParResult run_bsp_par(
    const graph::Graph& g, const core::RunOptions& options,
    const core::ProgressObserver& observer = {});

// --- prepared (amortized) execution ----------------------------------------
// The one-shot runners above re-derive everything per call. The prepared
// split serves api::Session's prepare-once / run-many contract, and —
// since the serving redesign — its CONCURRENT serving contract: prepare_*
// performs the graph-dependent derivation (assignment, host construction)
// once into a struct that is IMMUTABLE after prepare, and
// run_*_prepared executes repeatably from it — every run bit-identical to
// the one-shot runner under the same options. All per-run mutable state
// (estimate tables, activation flags, worklists) lives in a separate
// *RunContext that each run owns privately, so N threads may execute
// run_*_prepared over ONE shared prepared struct concurrently, each with
// its own context. A context is reset in place at the start of every run
// (O(N) stores, zero reallocation), so reusing one across sequential runs
// is both safe and allocation-free.

/// one-to-many-par: the §3.2.2 assignment plus pristine host state
/// machines. Immutable after prepare; each run copies the hosts into a
/// fresh engine — copying CSR state is much cheaper than re-deriving it
/// from the graph — so this runtime needs no separate run context.
struct OneToManyParPrepared {
  std::vector<sim::HostId> owner;
  std::vector<core::OneToManyHost> hosts;
};

[[nodiscard]] OneToManyParPrepared prepare_one_to_many_par(
    const graph::Graph& g, const core::RunOptions& options);

/// Execute one run from prepared state. result.setup_ms covers only this
/// run's residual setup (host copy + engine construction); the caller
/// accounts the prepare cost separately.
[[nodiscard]] OneToManyParResult run_one_to_many_par_prepared(
    const graph::Graph& g, const OneToManyParPrepared& prepared,
    const core::RunOptions& options,
    const core::ProgressObserver& observer = {});

/// bsp-par, shareable half: the vertex→worker shards. Immutable after
/// prepare — safe to read from any number of concurrent runs.
struct BspParPrepared {
  unsigned workers = 0;
  std::vector<sim::HostId> owner;
  std::vector<std::vector<graph::NodeId>> owned;
};

/// bsp-par, per-run half: the two shared atomic tables (estimate epochs,
/// activation flags). Each concurrent run needs its own context; a
/// context is reset in place per run, so sequential reuse never
/// reallocates.
struct BspParRunContext {
  explicit BspParRunContext(graph::NodeId n)
      : est_a(n), est_b(n), act_a(n), act_b(n) {}

  std::vector<std::atomic<graph::NodeId>> est_a, est_b;
  std::vector<std::atomic<std::uint8_t>> act_a, act_b;
};

[[nodiscard]] BspParPrepared prepare_bsp_par(const graph::Graph& g,
                                             const core::RunOptions& options);

[[nodiscard]] BspParResult run_bsp_par_prepared(
    const graph::Graph& g, const BspParPrepared& prepared,
    BspParRunContext& context, const core::RunOptions& options,
    const core::ProgressObserver& observer = {});

}  // namespace kcore::par
