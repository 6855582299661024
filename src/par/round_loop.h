// Fork-join round loop — the barrier-round backbone of kcore::par.
//
// Every parallel runtime in this subsystem (the one-to-many host engine in
// par/engine.h, the vertex-centric BSP runtime in par/bsp_par.cpp) has the
// same skeleton: a fixed pool of worker threads executes synchronized
// rounds, with a barrier between consecutive rounds and a single-threaded
// completion step at each barrier (aggregate counters, decide termination,
// deliver progress events). run_round_loop() is that skeleton, factored
// out once so the runtimes only supply the per-round work.
//
// Semantics:
//  * `workers` workers are forked once through par::fork_join
//    (par/fork_join.h) and live for the whole loop (no per-round thread
//    churn); worker 0 runs on the calling thread.
//  * In round r (1-based) every worker runs body(worker, r) exactly once.
//  * When all workers have finished round r, completion(r) runs exactly
//    once, on an unspecified worker thread, while every other worker is
//    parked at the barrier — it therefore has exclusive access to all
//    shared state, no locks needed.
//  * completion returning false ends the loop; the decision is visible to
//    every worker through the barrier's release ordering.
//  * std::barrier guarantees completion(r) happens-before any body(*, r+1)
//    and body(*, r) happens-before completion(r): plain (non-atomic)
//    shared state handed from the round phase to the completion phase and
//    back is race-free.
//
// Exception safety: an exception thrown by body or completion ends the
// loop at that round's barrier (remaining workers still arrive, so nobody
// deadlocks); fork_join rethrows the first one on the calling thread
// after all workers have joined.
#pragma once

#include <cstdint>
#include <functional>

namespace kcore::obs {
class Recorder;
}  // namespace kcore::obs

namespace kcore::par {

/// Per-round worker job: (worker index in [0, workers), 1-based round).
using RoundBody = std::function<void(unsigned worker, std::uint64_t round)>;

/// Barrier completion step: runs single-threaded after each round; return
/// true to run another round, false to stop.
using RoundCompletion = std::function<bool(std::uint64_t round)>;

/// Run the loop. `workers` must be >= 1; workers == 1 degenerates to a
/// plain sequential loop on the calling thread (no threads, no barrier),
/// so single-threaded runs carry zero synchronization overhead.
///
/// `recorder` (optional, obs/obs.h): when non-null and tracing is on,
/// every body(w, r) is wrapped in a per-worker "round" trace span and
/// every completion(r) in a "round.completion" span. The completion span
/// is recorded into worker 0's ring from whichever thread runs the
/// barrier phase — race-free, because the barrier sequences it against
/// worker 0's own body spans. Null recorder adds zero overhead.
void run_round_loop(unsigned workers, const RoundBody& body,
                    const RoundCompletion& completion,
                    obs::Recorder* recorder = nullptr);

}  // namespace kcore::par
