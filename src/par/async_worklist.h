// The async runtime's scheduling core — per-item in-queue flags, the
// bucketed priority pool of per-worker steal deques, and the shared
// quiescence detector — factored out of par/async_engine.{h,cpp} as a
// template over the chk synchronization shim (chk/sync.h).
//
// Production code uses the `AsyncWorklist` alias (RealSync passthrough —
// bit-identical to the pre-template implementation); the model checker
// instantiates BasicAsyncWorklist<chk::ModelSync> and drives the
// in-queue-flag re-enqueue protocol under controlled schedules, including
// the seeded memory-order mutants of tests/test_chk_mutants.cpp (weaken
// the schedule()/begin() exchanges and the lost-wakeup guarantee becomes
// a reproducible failure instead of a comment).
//
// The protocol (see the block comment in par/async_engine.h for the
// engine-level picture):
//  * schedule() enqueues only on the flag's 0->1 exchange — a vertex sits
//    in at most one bucket, and every enqueue is matched by exactly one
//    acquire()+finish();
//  * begin() clears the flag — also with an exchange, so every flag write
//    is an RMW and the release sequence never breaks — BEFORE the caller
//    reads the item's inputs. An input write that lands after the clear
//    re-flags the item; one that landed before is visible to the read,
//    because the clearing exchange synchronizes with every earlier
//    schedule()'s flag RMW. Either way no wakeup is lost;
//  * the quiescence detector counts outstanding work: add() BEFORE the
//    item becomes stealable (push), finish() AFTER it is fully processed
//    including the wakes it issued — so a confirmed zero is true global
//    quiescence, never a transient dip.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

#include "chk/sync.h"
#include "core/run_options.h"
#include "core/termination.h"
#include "par/priority_pool.h"
#include "util/check.h"

namespace kcore::par {

/// The scheduling core: per-item in-queue flags, the bucketed priority
/// pool of per-worker steal deques, and the shared quiescence detector.
/// Items are dense ids in [0, size).
///
/// Thread contract: worker w is the only caller of acquire(w) and the only
/// owner of lane w; schedule(item, w, bucket) may be called by any worker
/// (it pushes into the CALLER's lane, which it owns). seed() and reset()
/// are single-threaded, before the workers start.
template <typename Sync = chk::RealSync>
class BasicAsyncWorklist {
  static constexpr bool kNothrow = !Sync::kInstrumented;

 public:
  static constexpr std::uint32_t kNone = UINT32_MAX;
  /// Priority buckets of the non-lifo policies (== the pool's bitmap
  /// width). Priorities at or above the cap share the last bucket.
  static constexpr std::uint32_t kBuckets =
      PriorityPool<std::uint32_t, Sync>::kMaxBuckets;

  BasicAsyncWorklist(std::uint32_t size, unsigned workers,
                     core::SchedPolicy policy = core::SchedPolicy::kLifo)
      : policy_(policy),
        in_queue_(size),
        pool_(make_pool(workers, policy)),
        tallies_(workers) {
    KCORE_CHECK_MSG(workers >= 1, "worklist needs at least one worker");
    for (std::uint32_t i = 0; i < size; ++i) {
      in_queue_[i].store(0, std::memory_order_relaxed, "wl.init.store_flag");
    }
  }

  [[nodiscard]] unsigned workers() const noexcept { return pool_.workers(); }
  [[nodiscard]] core::SchedPolicy policy() const noexcept { return policy_; }

  /// Pre-run seeding: flag `item` and enqueue it into `worker`'s lane at
  /// `bucket`. Must not race with acquire/schedule.
  void seed(std::uint32_t item, unsigned worker, std::uint32_t bucket = 0) {
    in_queue_[item].store(1, std::memory_order_relaxed, "wl.seed.store_flag");
    detector_.add();
    pool_.push(item, bucket, worker);
    ++tallies_[worker].enqueues;
  }

  /// Activation: flag `item` and, if this call won the 0->1 transition,
  /// enqueue it into the calling worker's lane at priority `bucket`
  /// (clamped to the pool width; ignored under lifo). Returns true when
  /// this call enqueued (false: the item was already scheduled elsewhere
  /// — its bucket keeps the priority it was enqueued with, the MultiQueue
  /// staleness trade).
  bool schedule(std::uint32_t item, unsigned worker,
                std::uint32_t bucket = 0) {
    // Only the 0->1 winner enqueues: a vertex is in at most one bucket,
    // and each enqueue is matched by exactly one acquire+finish.
    if (in_queue_[item].exchange(1, std::memory_order_acq_rel,
                                 "wl.schedule.xchg_flag") != 0) {
      return false;
    }
    // add() BEFORE the push: the moment the item is stealable it is
    // already counted, so the detector can never observe a transient
    // zero.
    detector_.add();
    pool_.push(item, bucket, worker);
    ++tallies_[worker].enqueues;
    return true;
  }

  /// Next item for worker w: own lane in bucket-priority order first,
  /// then a bucket-major steal sweep over the other lanes. kNone when
  /// nothing was found (the caller should try_confirm()/back off and
  /// retry — kNone is NOT termination).
  [[nodiscard]] std::uint32_t acquire(unsigned worker) {
    auto& tally = tallies_[worker];
    std::uint32_t item = kNone;
    if (pool_.pop_own(item, worker, tally.pop_scans)) return item;
    if (pool_.steal(item, worker, tally.pop_scans)) {
      ++tally.steals;
      return item;
    }
    return kNone;
  }

  /// Clear the acquired item's in-queue flag. MUST be called before
  /// reading the item's inputs: the exchange synchronizes with every
  /// earlier schedule()'s flag RMW, so inputs written before those
  /// schedules are visible after this call — and any write that lands
  /// after it re-flags the item. This ordering is the no-lost-wakeup
  /// guarantee.
  void begin(std::uint32_t item) {
    // Exchange, not store: every flag write stays an RMW, so this clear
    // synchronizes with each preceding schedule()'s 1-exchange and the
    // inputs written before those schedules are visible to the caller.
    (void)in_queue_[item].exchange(0, std::memory_order_acq_rel,
                                   "wl.begin.xchg_flag");
  }

  /// Retire the acquired item after processing it — including every
  /// schedule() it issued (the detector's accounting contract).
  void finish() noexcept(kNothrow) { detector_.finish(); }

  /// Idle worker's termination attempt (counter zero + confirmation
  /// pass); sticky once true.
  [[nodiscard]] bool try_confirm() noexcept(kNothrow) {
    return detector_.try_confirm();
  }
  [[nodiscard]] bool done() const noexcept(kNothrow) {
    return detector_.done();
  }

  [[nodiscard]] const core::BasicQuiescenceDetector<Sync>& detector()
      const noexcept {
    return detector_;
  }

  /// True iff `item`'s in-queue flag is currently set (tests/monitoring).
  [[nodiscard]] bool flagged(std::uint32_t item) const {
    return in_queue_[item].load(std::memory_order_acquire,
                                "wl.read_flag") != 0;
  }

  /// The underlying pool (tests/monitoring — e.g. the chk suite's
  /// hint-bitmap superset checks).
  [[nodiscard]] const PriorityPool<std::uint32_t, Sync>& pool()
      const noexcept {
    return pool_;
  }

  /// Single-threaded reset between runs: clear every flag and tally,
  /// empty the pool (keeping its ring allocations) and re-arm the
  /// detector. Lets api::Session reuse one worklist across warm runs
  /// instead of re-allocating it.
  void reset() {
    for (auto& flag : in_queue_) {
      flag.store(0, std::memory_order_relaxed, "wl.reset.store_flag");
    }
    for (auto& tally : tallies_) tally = WorkerTally{};
    pool_.clear();
    detector_.reset();
  }

  /// One worker's scheduling tallies (obs/metrics bridge). Safe for the
  /// OWNING worker during the run (it is the only writer) and for anyone
  /// after the workers join.
  struct WorkerTallyView {
    std::uint64_t steals = 0;
    std::uint64_t enqueues = 0;
    std::uint64_t pop_scans = 0;
  };
  [[nodiscard]] WorkerTallyView tally(unsigned worker) const {
    const WorkerTally& t = tallies_[worker];
    return {t.steals, t.enqueues, t.pop_scans};
  }

  /// Racy estimate of items currently enqueued across all lanes
  /// (sampler/monitoring only — never a correctness signal).
  [[nodiscard]] std::uint64_t size_estimate() const {
    return pool_.size_estimate();
  }

  /// Post-run tallies, summed over workers (call after the workers join).
  [[nodiscard]] std::uint64_t total_steals() const {
    std::uint64_t total = 0;
    for (const auto& tally : tallies_) total += tally.steals;
    return total;
  }
  [[nodiscard]] std::uint64_t total_enqueues() const {
    std::uint64_t total = 0;
    for (const auto& tally : tallies_) total += tally.enqueues;
    return total;
  }
  [[nodiscard]] std::uint64_t total_pop_scans() const {
    std::uint64_t total = 0;
    for (const auto& tally : tallies_) total += tally.pop_scans;
    return total;
  }

 private:
  struct alignas(64) WorkerTally {
    std::uint64_t steals = 0;     // written only by the owning worker
    std::uint64_t enqueues = 0;   // successful seed/schedule calls
    std::uint64_t pop_scans = 0;  // deque probes during acquire
  };

  static PriorityPool<std::uint32_t, Sync> make_pool(
      unsigned workers, core::SchedPolicy policy) {
    switch (policy) {
      case core::SchedPolicy::kLifo:
        // One bucket per lane: push/pop degenerate to the classic
        // Chase–Lev LIFO/steal path with a single-probe scan.
        return {workers, 1, PopOrder::kAscending};
      case core::SchedPolicy::kBound:
        // Bucket = current estimate: the lowest estimate is the closest
        // to final (the peeling frontier), so ascending pop order.
        return {workers, kBuckets, PopOrder::kAscending};
      case core::SchedPolicy::kDelta:
        // Bucket = log2 of the accumulated estimate drop since the
        // vertex was last relaxed: the most-changed neighborhood pops
        // first.
        return {workers, kBuckets, PopOrder::kDescending};
    }
    return {workers, 1, PopOrder::kAscending};
  }

  core::SchedPolicy policy_;
  std::vector<typename Sync::template Atomic<std::uint8_t>> in_queue_;
  PriorityPool<std::uint32_t, Sync> pool_;
  std::vector<WorkerTally> tallies_;
  core::BasicQuiescenceDetector<Sync> detector_;
};

/// The production instantiation (zero-overhead std::atomic passthrough).
using AsyncWorklist = BasicAsyncWorklist<>;

// --- bucket maps ------------------------------------------------------------
// The priority each scheduling policy seeds/wakes with: the wakes in
// par/relax.h, and the seeding in par/async_engine.cpp (from the degrees)
// and live/repair.cpp (from the warm estimates).

/// bound: clamp the estimate into the bitmap width — ascending pop order
/// makes the lowest still-live estimate the peeling frontier.
[[nodiscard]] inline std::uint32_t bound_bucket(std::uint32_t estimate) {
  return std::min<std::uint32_t>(estimate, AsyncWorklist::kBuckets - 1);
}

/// delta: log-scaled so the buckets cover any drop magnitude; an
/// accumulated value >= 1 keeps seeded work (bucket 0) behind every real
/// change under descending pop order.
[[nodiscard]] inline std::uint32_t delta_bucket(std::uint32_t accumulated) {
  return std::min<std::uint32_t>(
      static_cast<std::uint32_t>(std::bit_width(accumulated)),
      AsyncWorklist::kBuckets - 1);
}

}  // namespace kcore::par
