// Unit + stress tests for the bucketed priority pool (par/priority_pool.h)
// and for the AsyncWorklist scheduling policies built on it: pop-order
// semantics, the occupancy-hint superset invariant under thieves,
// exactly-once hand-off across buckets under owner-vs-thieves contention,
// and the no-lost-wakeup flag protocol under every SchedPolicy —
// including reset-in-place reuse (the warm-run path of api::Session).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "core/run_options.h"
#include "par/async_engine.h"
#include "par/priority_pool.h"

namespace kcore {
namespace {

using Pool = par::PriorityPool<std::uint32_t>;
using core::SchedPolicy;

constexpr SchedPolicy kAllPolicies[] = {SchedPolicy::kLifo,
                                        SchedPolicy::kDelta,
                                        SchedPolicy::kBound};

// ---------------------------------------------------------------------------
// PriorityPool — ordering semantics (single lane, no concurrency)
// ---------------------------------------------------------------------------

TEST(PriorityPool, AscendingPopsLowestBucketFirstLifoWithin) {
  Pool pool(1, 8, par::PopOrder::kAscending);
  std::uint64_t probes = 0;
  pool.push(30, 3, 0);
  pool.push(10, 1, 0);
  pool.push(31, 3, 0);
  pool.push(50, 5, 0);
  pool.push(11, 1, 0);
  std::uint32_t out = 0;
  // Bucket 1 drains first (LIFO within), then 3, then 5.
  ASSERT_TRUE(pool.pop_own(out, 0, probes));
  EXPECT_EQ(out, 11u);
  ASSERT_TRUE(pool.pop_own(out, 0, probes));
  EXPECT_EQ(out, 10u);
  ASSERT_TRUE(pool.pop_own(out, 0, probes));
  EXPECT_EQ(out, 31u);
  ASSERT_TRUE(pool.pop_own(out, 0, probes));
  EXPECT_EQ(out, 30u);
  ASSERT_TRUE(pool.pop_own(out, 0, probes));
  EXPECT_EQ(out, 50u);
  EXPECT_FALSE(pool.pop_own(out, 0, probes));
  EXPECT_GE(probes, 5u);
}

TEST(PriorityPool, DescendingPopsHighestBucketFirst) {
  Pool pool(1, 64, par::PopOrder::kDescending);
  std::uint64_t probes = 0;
  pool.push(1, 0, 0);
  pool.push(63, 63, 0);
  pool.push(7, 7, 0);
  std::uint32_t out = 0;
  ASSERT_TRUE(pool.pop_own(out, 0, probes));
  EXPECT_EQ(out, 63u);
  ASSERT_TRUE(pool.pop_own(out, 0, probes));
  EXPECT_EQ(out, 7u);
  ASSERT_TRUE(pool.pop_own(out, 0, probes));
  EXPECT_EQ(out, 1u);
  EXPECT_FALSE(pool.pop_own(out, 0, probes));
}

TEST(PriorityPool, StealSweepIsBucketMajorAcrossVictims) {
  // Worker 0's steal sweep must take the most urgent bucket of ANY victim
  // before a less urgent bucket anywhere.
  Pool pool(3, 8, par::PopOrder::kAscending);
  pool.push(25, 5, 1);  // victim 1, bucket 5
  pool.push(32, 2, 2);  // victim 2, bucket 2 — more urgent, later victim
  std::uint64_t probes = 0;
  std::uint32_t out = 0;
  ASSERT_TRUE(pool.steal(out, 0, probes));
  EXPECT_EQ(out, 32u);
  ASSERT_TRUE(pool.steal(out, 0, probes));
  EXPECT_EQ(out, 25u);
  EXPECT_FALSE(pool.steal(out, 0, probes));
}

TEST(PriorityPool, OwnerPopStaysCorrectAfterThievesDrainABucket) {
  // A thief empties the owner's most urgent bucket; the owner's next pop
  // must fall through to the remaining one (stale hint bits are probed
  // and retired, never trusted as content).
  Pool pool(2, 4, par::PopOrder::kAscending);
  pool.push(7, 0, 0);
  pool.push(9, 2, 0);
  std::uint64_t probes = 0;
  std::uint32_t out = 0;
  ASSERT_TRUE(pool.steal(out, 1, probes));
  EXPECT_EQ(out, 7u);
  ASSERT_TRUE(pool.pop_own(out, 0, probes));
  EXPECT_EQ(out, 9u);
  EXPECT_FALSE(pool.pop_own(out, 0, probes));
}

TEST(PriorityPool, ClearForgetsContentAndIsReusable) {
  Pool pool(2, 8, par::PopOrder::kAscending);
  for (std::uint32_t v = 0; v < 100; ++v) pool.push(v, v % 8, 0);
  pool.clear();
  std::uint64_t probes = 0;
  std::uint32_t out = 0;
  EXPECT_FALSE(pool.pop_own(out, 0, probes));
  EXPECT_FALSE(pool.steal(out, 1, probes));
  pool.push(42, 3, 1);
  ASSERT_TRUE(pool.pop_own(out, 1, probes));
  EXPECT_EQ(out, 42u);
}

// ---------------------------------------------------------------------------
// PriorityPool — exactly-once under contention
// ---------------------------------------------------------------------------

/// One owner pushing across random buckets while popping its own lane;
/// several thieves sweeping. Every value must be consumed exactly once —
/// the per-bucket Chase–Lev guarantee must survive the bucket scan and
/// the occupancy-hint filtering.
TEST(PriorityPoolStress, OwnerAndThievesConsumeEachValueExactlyOnce) {
  constexpr std::uint32_t kValues = 50000;
  constexpr unsigned kThieves = 3;
  Pool pool(1 + kThieves, 64, par::PopOrder::kAscending);

  std::vector<std::atomic<std::uint32_t>> times_seen(kValues);
  for (auto& seen : times_seen) seen.store(0, std::memory_order_relaxed);
  std::atomic<std::uint32_t> consumed{0};

  auto consume = [&](std::uint32_t value) {
    times_seen[value].fetch_add(1, std::memory_order_relaxed);
    consumed.fetch_add(1, std::memory_order_relaxed);
  };

  std::vector<std::thread> thieves;
  for (unsigned t = 1; t <= kThieves; ++t) {
    thieves.emplace_back([&, t] {
      std::uint64_t probes = 0;
      std::uint32_t out = 0;
      while (consumed.load(std::memory_order_relaxed) < kValues) {
        if (pool.steal(out, t, probes)) {
          consume(out);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }

  // Owner: bursts of pushes into random buckets interleaved with pops.
  std::mt19937_64 rng(42);
  std::uint64_t probes = 0;
  std::uint32_t next = 0;
  std::uint32_t out = 0;
  while (next < kValues) {
    const std::uint32_t burst =
        std::min<std::uint32_t>(1 + rng() % 64, kValues - next);
    for (std::uint32_t i = 0; i < burst; ++i) {
      pool.push(next, static_cast<std::uint32_t>(rng() % 64), 0);
      ++next;
    }
    if (rng() % 2 == 0 && pool.pop_own(out, 0, probes)) consume(out);
  }
  while (consumed.load(std::memory_order_relaxed) < kValues) {
    if (!pool.pop_own(out, 0, probes)) {
      std::this_thread::yield();
      continue;
    }
    consume(out);
  }
  for (auto& thief : thieves) thief.join();

  EXPECT_EQ(consumed.load(), kValues);
  for (std::uint32_t v = 0; v < kValues; ++v) {
    ASSERT_EQ(times_seen[v].load(), 1u) << "value " << v;
  }
}

// ---------------------------------------------------------------------------
// AsyncWorklist under every SchedPolicy — the flag protocol is
// policy-independent
// ---------------------------------------------------------------------------

TEST(AsyncWorklistPolicies, ScheduleDeduplicatesWhileFlaggedUnderEveryPolicy) {
  for (const SchedPolicy policy : kAllPolicies) {
    par::AsyncWorklist worklist(4, 1, policy);
    worklist.seed(2, 0, 5);
    EXPECT_TRUE(worklist.flagged(2));
    EXPECT_FALSE(worklist.schedule(2, 0, 1));  // dedup while flagged
    EXPECT_EQ(worklist.acquire(0), 2u);
    EXPECT_EQ(worklist.acquire(0), par::AsyncWorklist::kNone);
    worklist.begin(2);
    EXPECT_FALSE(worklist.flagged(2));
    EXPECT_TRUE(worklist.schedule(2, 0, 9));  // re-activation after clear
    EXPECT_EQ(worklist.acquire(0), 2u);
    worklist.begin(2);
    worklist.finish(0);
    worklist.finish(0);
    EXPECT_TRUE(worklist.try_confirm(0));
    EXPECT_EQ(worklist.total_enqueues(), 2u);
  }
}

TEST(AsyncWorklistPolicies, BoundPopsLowestBucketFirst) {
  par::AsyncWorklist worklist(8, 1, SchedPolicy::kBound);
  worklist.seed(7, 0, 60);
  worklist.seed(3, 0, 2);
  worklist.seed(5, 0, 30);
  EXPECT_EQ(worklist.acquire(0), 3u);
  EXPECT_EQ(worklist.acquire(0), 5u);
  EXPECT_EQ(worklist.acquire(0), 7u);
}

TEST(AsyncWorklistPolicies, DeltaPopsHighestBucketFirstAndClampsOverflow) {
  par::AsyncWorklist worklist(8, 1, SchedPolicy::kDelta);
  worklist.seed(1, 0, 0);
  worklist.seed(6, 0, 9999);  // clamped into the last bucket
  worklist.seed(4, 0, 17);
  EXPECT_EQ(worklist.acquire(0), 6u);
  EXPECT_EQ(worklist.acquire(0), 4u);
  EXPECT_EQ(worklist.acquire(0), 1u);
}

/// The full protocol under contention, for each policy and across a
/// reset(): workers acquire, re-activate random items at random
/// priorities (budget-bounded so the run terminates), and retire. At the
/// end every enqueue was begun exactly once — the no-lost-wakeup and
/// no-double-pop guarantees — and a reset worklist must deliver the same
/// guarantees without any reallocation of its lanes.
TEST(AsyncWorklistPolicyStress, ExactlyOnceUnderEveryPolicyAndAfterReset) {
  constexpr std::uint32_t kItems = 256;
  constexpr unsigned kWorkers = 4;
  constexpr std::int64_t kReactivationBudget = 100000;

  for (const SchedPolicy policy : kAllPolicies) {
    par::AsyncWorklist worklist(kItems, kWorkers, policy);
    for (int round = 0; round < 2; ++round) {  // round 1 runs after reset()
      if (round > 0) worklist.reset();
      for (std::uint32_t item = 0; item < kItems; ++item) {
        worklist.seed(item, item % kWorkers, item % 7);
      }
      std::atomic<std::int64_t> budget{kReactivationBudget};
      std::vector<std::uint64_t> begins(kWorkers, 0);

      auto worker_fn = [&](unsigned w) {
        std::mt19937_64 rng(w * 7919 + 1);
        std::uint64_t mine = 0;
        while (!worklist.done()) {
          const std::uint32_t item = worklist.acquire(w);
          if (item == par::AsyncWorklist::kNone) {
            if (worklist.try_confirm(w)) break;
            std::this_thread::yield();
            continue;
          }
          worklist.begin(item);
          ++mine;
          EXPECT_FALSE(worklist.done());
          const unsigned wakes = rng() % 3;
          for (unsigned i = 0; i < wakes; ++i) {
            if (budget.fetch_sub(1, std::memory_order_relaxed) <= 0) break;
            const auto target = static_cast<std::uint32_t>(rng() % kItems);
            (void)worklist.schedule(target, w,
                                    static_cast<std::uint32_t>(rng() % 90));
          }
          worklist.finish(w);
        }
        begins[w] = mine;
      };

      std::vector<std::thread> workers;
      for (unsigned w = 1; w < kWorkers; ++w) {
        workers.emplace_back(worker_fn, w);
      }
      worker_fn(0);
      for (auto& worker : workers) worker.join();

      ASSERT_TRUE(worklist.done());
      std::uint64_t total_begins = 0;
      for (const auto count : begins) total_begins += count;
      EXPECT_EQ(total_begins, worklist.total_enqueues())
          << "policy " << core::to_string(policy) << " round " << round;
      EXPECT_GT(worklist.total_enqueues(),
                static_cast<std::uint64_t>(kItems));
      for (std::uint32_t item = 0; item < kItems; ++item) {
        EXPECT_FALSE(worklist.flagged(item)) << "item " << item;
      }
    }
  }
}

}  // namespace
}  // namespace kcore
