// Termination detection (§3.3).
//
// The paper sketches three mechanisms; all three are implemented:
//
//  1. Fixed number of rounds — approximate_coreness() runs Algorithm 1 for
//     a caller-chosen number of rounds and reports the residual error
//     against ground truth (§5.1 shows both error curves collapse within
//     ~20 rounds; Figure 4).
//
//  2. Centralized (master/slaves) — each host notifies a coordinator when
//     its activity status changes ("generated a new estimate this round"
//     vs not); the master declares termination one round after every host
//     has reported quiet and no message is in flight.
//     centralized_termination() evaluates detection round and control
//     traffic from a finished run's activity profile.
//
//  3. Decentralized epidemic aggregation [6] — see src/agg: hosts gossip
//     the maximum "last round anyone generated an estimate" and conclude
//     termination when that maximum stays unchanged for a confirmation
//     window. gossip_termination() in agg/termination.h.
//
// QuiescenceDetector below is mechanism 2 ported to SHARED MEMORY for the
// async runtime (par/async_engine.h): the master's per-host activity
// reports become one global outstanding-work counter that workers update
// in credit batches, and "declare termination one round after every host
// has reported quiet" becomes a confirmation pass — a second seq_cst read
// of the counter across a full fence before the done flag is raised.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "chk/sync.h"
#include "core/one_to_one.h"
#include "graph/graph.h"

namespace kcore::core {

/// Fixed-rounds termination: run the one-to-one protocol for exactly
/// `rounds` rounds (no quiescence detection) and return the estimates at
/// that point. Estimates are upper bounds on the true coreness (Theorem 2).
struct ApproximateResult {
  std::vector<graph::NodeId> estimates;
  /// Estimation error vs the exact decomposition, computed with the
  /// sequential baseline: avg and max of (estimate - coreness).
  double avg_error = 0.0;
  graph::NodeId max_error = 0;
  /// Fraction of nodes whose estimate is already exact.
  double fraction_exact = 0.0;
};

[[nodiscard]] ApproximateResult approximate_coreness(
    const graph::Graph& g, std::uint64_t rounds, const OneToOneConfig& config);

/// Centralized detector analysis over a finished run.
struct CentralizedTermination {
  /// Round at which the master can declare global termination (one round
  /// after the last traffic-bearing round, when the final quiet reports
  /// arrive).
  std::uint64_t detection_round = 0;
  /// Host -> master status-change notifications (2 per activity burst).
  std::uint64_t control_messages = 0;
};

/// `activity_transitions[h]` = number of active<->quiet flips host h went
/// through; `execution_time` = rounds with protocol traffic.
[[nodiscard]] CentralizedTermination centralized_termination(
    std::uint64_t execution_time,
    const std::vector<std::uint64_t>& activity_transitions);

/// Concurrent quiescence detector — the §3.3 centralized detector ported
/// to shared memory, used by the async (chaotic-relaxation) runtime.
///
/// The counter is an upper bound on the outstanding work. Callers keep
/// that bound with two rules (the caller's side of the §4 safety
/// argument):
///  * add(n) BEFORE any of the n units becomes discoverable by another
///    worker (e.g. before a vertex is pushed onto a steal deque) — adding
///    earlier, or more than is then spent, only raises the bound;
///  * finish(n) only for units that are fully processed, INCLUDING the
///    add() calls for the follow-on work they spawned — subtracting later
///    only raises the bound.
/// Under that discipline the counter never reads below the true number
/// of queued plus in-process units, so outstanding() == 0 implies no unit
/// is queued, none is being processed, and none can appear (only
/// processing spawns work) — true global quiescence, not a transient dip.
///
/// Credit accounting (Mattern, IPL 1989) is how the async worklist
/// (par/async_worklist.h) keeps this line cold: each worker adds credit
/// in batches, spends one per enqueue, counts its finishes locally, and
/// returns both its unspent credit and its unflushed finishes before it
/// tries to confirm. The counter then equals the true outstanding count
/// plus every worker's reserve and unflushed finishes — exact once every
/// worker has flushed, above it until then. Only an idle worker (empty
/// lane, failed steal sweep) confirms, after flushing its own share, so
/// a confirmed zero still means every worker has flushed and nothing is
/// left.
///
/// try_confirm() is the detection step: a first seq_cst read finding zero
/// is the "every host reports quiet" event; the confirmation pass — a
/// second read across a full fence — is the master's extra round before it
/// declares termination. Once confirmed, done() stays true forever (the
/// protocol guarantees no spontaneous work). Any worker may call
/// try_confirm() concurrently; confirmation is idempotent. finish() is a
/// release: a confirmer whose zero read comes from another worker's
/// finish() sees that worker's results (a seeded mutant in
/// tests/test_chk_mutants.cpp relaxes it and the checker catches it).
///
/// The Sync parameter is the chk shim (chk/sync.h): production uses the
/// zero-overhead RealSync passthrough; the model checker instantiates
/// the detector over chk::ModelSync and explores its orderings under
/// controlled schedules (the done-flag release publication is one of the
/// seeded mutants in tests/test_chk_mutants.cpp).
template <typename Sync = chk::RealSync>
class BasicQuiescenceDetector {
  static constexpr bool kNothrow = !Sync::kInstrumented;

 public:
  /// n work units (or credits for them) created.
  void add(std::uint64_t n = 1) noexcept(kNothrow) {
    outstanding_.fetch_add(static_cast<std::int64_t>(n),
                           std::memory_order_acq_rel, "qd.add");
  }

  /// n previously-added units (or unspent credits) retired.
  void finish(std::uint64_t n = 1) noexcept(kNothrow) {
    outstanding_.fetch_sub(static_cast<std::int64_t>(n),
                           std::memory_order_acq_rel, "qd.finish");
  }

  /// The upper bound on outstanding work (exact once every worker has
  /// flushed; 0 after a confirmed run).
  [[nodiscard]] std::int64_t outstanding() const noexcept(kNothrow) {
    return outstanding_.load(std::memory_order_acquire,
                             "qd.read_outstanding");
  }

  /// Attempt termination detection; true once the run is quiescent.
  [[nodiscard]] bool try_confirm() noexcept(kNothrow) {
    if (done_.load(std::memory_order_acquire, "qd.read_done")) return true;
    if (outstanding_.load(std::memory_order_seq_cst, "qd.confirm.read1") !=
        0) {
      return false;
    }
    passes_.fetch_add(1, std::memory_order_relaxed, "qd.confirm.count_pass");
    // Confirmation pass: the fence orders this re-read after every
    // add/finish that preceded the first read in the seq_cst order — a
    // counter that is still (or again) nonzero cancels the declaration.
    Sync::fence(std::memory_order_seq_cst, "qd.confirm.fence");
    if (outstanding_.load(std::memory_order_seq_cst, "qd.confirm.read2") !=
        0) {
      return false;
    }
    done_.store(true, std::memory_order_release, "qd.confirm.store_done");
    return true;
  }

  /// Sticky: set only by a successful try_confirm().
  [[nodiscard]] bool done() const noexcept(kNothrow) {
    return done_.load(std::memory_order_acquire, "qd.read_done");
  }

  /// Confirmation passes started (first read saw zero) — the async
  /// analogue of the detector's control-message count.
  [[nodiscard]] std::uint64_t passes() const noexcept(kNothrow) {
    return passes_.load(std::memory_order_relaxed, "qd.read_passes");
  }

  /// Single-threaded reset between runs (the prepared async engine reuses
  /// one detector per worklist). Must not race with add/finish/try_confirm
  /// — callers quiesce the workers first.
  void reset() noexcept(kNothrow) {
    outstanding_.store(0, std::memory_order_relaxed, "qd.reset.outstanding");
    passes_.store(0, std::memory_order_relaxed, "qd.reset.passes");
    done_.store(false, std::memory_order_relaxed, "qd.reset.done");
  }

 private:
  template <typename T>
  using Atomic = typename Sync::template Atomic<T>;

  // outstanding_ takes every add/finish; done_ is read by every worker on
  // every loop turn, so it gets a line of its own that stays shared
  // until the run ends.
  alignas(64) Atomic<std::int64_t> outstanding_{0};
  Atomic<std::uint64_t> passes_{0};
  alignas(64) Atomic<bool> done_{false};
};

/// The production instantiation (zero-overhead std::atomic passthrough).
using QuiescenceDetector = BasicQuiescenceDetector<>;

}  // namespace kcore::core
