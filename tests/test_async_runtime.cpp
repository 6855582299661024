// Unit + stress tests for the async runtime's building blocks: the
// Chase–Lev steal deque (push/pop/steal races, growth), the in-queue flag
// protocol (no lost wakeups under forced re-activation), the concurrent
// quiescence detector (never declares termination while work is
// outstanding), and par::relax()'s failure path. The graph-level correctness sweep lives in
// tests/test_async_property.cpp; here the scheduler is hammered directly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/termination.h"
#include "graph/generators.h"
#include "par/async_engine.h"
#include "par/relax.h"
#include "par/steal_deque.h"

namespace kcore {
namespace {

// ---------------------------------------------------------------------------
// StealDeque
// ---------------------------------------------------------------------------

TEST(StealDeque, OwnerPopsLifo) {
  par::StealDeque<std::uint32_t> deque;
  for (std::uint32_t v = 1; v <= 5; ++v) deque.push(v);
  std::uint32_t out = 0;
  for (std::uint32_t expected = 5; expected >= 1; --expected) {
    ASSERT_TRUE(deque.pop(out));
    EXPECT_EQ(out, expected);
  }
  EXPECT_FALSE(deque.pop(out));
}

TEST(StealDeque, ThievesStealFifoFromTheTop) {
  par::StealDeque<std::uint32_t> deque;
  deque.push(1);
  deque.push(2);
  deque.push(3);
  std::uint32_t out = 0;
  ASSERT_TRUE(deque.steal(out));
  EXPECT_EQ(out, 1u);  // oldest first
  ASSERT_TRUE(deque.pop(out));
  EXPECT_EQ(out, 3u);  // owner still LIFO
  ASSERT_TRUE(deque.steal(out));
  EXPECT_EQ(out, 2u);
  EXPECT_FALSE(deque.steal(out));
  EXPECT_FALSE(deque.pop(out));
}

TEST(StealDeque, GrowthPreservesEveryElement) {
  par::StealDeque<std::uint32_t> deque(2);
  const std::uint32_t n = 1000;
  for (std::uint32_t v = 0; v < n; ++v) deque.push(v);
  EXPECT_GE(deque.capacity(), n);
  std::uint32_t out = 0;
  for (std::uint32_t v = n; v-- > 0;) {
    ASSERT_TRUE(deque.pop(out));
    EXPECT_EQ(out, v);
  }
  EXPECT_FALSE(deque.pop(out));
}

/// The core race: one owner pushing and popping at the bottom while
/// several thieves hammer the top. Every pushed value must be consumed
/// exactly once, across any interleaving.
TEST(StealDequeStress, OwnerAndThievesConsumeEachValueExactlyOnce) {
  constexpr std::uint32_t kValues = 50000;
  constexpr unsigned kThieves = 4;
  par::StealDeque<std::uint32_t> deque(4);  // force growth under fire

  std::vector<std::atomic<std::uint32_t>> times_seen(kValues);
  for (auto& seen : times_seen) seen.store(0, std::memory_order_relaxed);
  std::atomic<std::uint32_t> consumed{0};

  auto consume = [&](std::uint32_t value) {
    times_seen[value].fetch_add(1, std::memory_order_relaxed);
    consumed.fetch_add(1, std::memory_order_relaxed);
  };

  std::vector<std::thread> thieves;
  for (unsigned t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      std::uint32_t out = 0;
      while (consumed.load(std::memory_order_relaxed) < kValues) {
        if (deque.steal(out)) {
          consume(out);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }

  // Owner: bursts of pushes interleaved with pops, then drain.
  std::mt19937_64 rng(42);
  std::uint32_t next = 0;
  std::uint32_t out = 0;
  while (next < kValues) {
    const std::uint32_t burst =
        std::min<std::uint32_t>(1 + rng() % 64, kValues - next);
    for (std::uint32_t i = 0; i < burst; ++i) deque.push(next++);
    if (rng() % 2 == 0 && deque.pop(out)) consume(out);
  }
  while (consumed.load(std::memory_order_relaxed) < kValues) {
    if (deque.pop(out)) consume(out);
  }
  for (auto& thief : thieves) thief.join();

  EXPECT_EQ(consumed.load(), kValues);
  for (std::uint32_t v = 0; v < kValues; ++v) {
    ASSERT_EQ(times_seen[v].load(), 1u) << "value " << v;
  }
}

// ---------------------------------------------------------------------------
// QuiescenceDetector
// ---------------------------------------------------------------------------

TEST(QuiescenceDetector, CountsOutstandingWorkAndConfirmsAtZero) {
  core::QuiescenceDetector detector;
  detector.add(3);
  EXPECT_EQ(detector.outstanding(), 3);
  EXPECT_FALSE(detector.try_confirm());
  detector.finish();
  detector.finish();
  EXPECT_FALSE(detector.try_confirm());
  EXPECT_FALSE(detector.done());
  detector.finish();
  EXPECT_TRUE(detector.try_confirm());
  EXPECT_TRUE(detector.done());
  EXPECT_GE(detector.passes(), 1u);
  // Sticky, and idempotent across repeat calls.
  EXPECT_TRUE(detector.try_confirm());
}

/// Workers retire pre-added units and occasionally spawn a child unit
/// mid-flight (add before the parent's finish — the engine's accounting
/// discipline). The detector must never confirm while any unit remains.
TEST(QuiescenceDetectorStress, NeverConfirmsWhileUnitsRemain) {
  constexpr unsigned kWorkers = 4;
  constexpr std::uint64_t kUnitsPerWorker = 20000;
  core::QuiescenceDetector detector;
  detector.add(kWorkers * kUnitsPerWorker);
  // Units not yet fully retired; decremented BEFORE the matching finish()
  // so remaining == 0 is guaranteed by the time the detector can fire.
  std::atomic<std::int64_t> remaining{kWorkers * kUnitsPerWorker};

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> premature{0};
  std::thread observer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (detector.try_confirm() &&
          remaining.load(std::memory_order_seq_cst) != 0) {
        premature.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> workers;
  for (unsigned w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      std::mt19937_64 rng(w);
      std::uint64_t pending = kUnitsPerWorker;  // my un-retired units
      while (pending > 0) {
        if (rng() % 8 == 0) {
          // Spawn a child inside the current unit's lifetime.
          detector.add();
          remaining.fetch_add(1, std::memory_order_relaxed);
          ++pending;
        }
        EXPECT_FALSE(detector.done());  // my unit is still outstanding
        remaining.fetch_sub(1, std::memory_order_seq_cst);
        detector.finish();
        --pending;
      }
    });
  }
  for (auto& worker : workers) worker.join();
  // Give the observer a chance to see the final quiescent state.
  while (!detector.try_confirm()) std::this_thread::yield();
  stop.store(true, std::memory_order_relaxed);
  observer.join();

  EXPECT_EQ(premature.load(), 0u);
  EXPECT_TRUE(detector.done());
  EXPECT_EQ(detector.outstanding(), 0);
}

// ---------------------------------------------------------------------------
// AsyncWorklist — the in-queue flag protocol
// ---------------------------------------------------------------------------

TEST(AsyncWorklist, ScheduleDeduplicatesWhileFlagged) {
  par::AsyncWorklist worklist(4, 1);
  worklist.seed(2, 0);
  EXPECT_TRUE(worklist.flagged(2));
  // Already scheduled: the 0->1 exchange loses, nothing is enqueued.
  EXPECT_FALSE(worklist.schedule(2, 0));
  EXPECT_EQ(worklist.acquire(0), 2u);
  EXPECT_EQ(worklist.acquire(0), par::AsyncWorklist::kNone);
  worklist.begin(2);
  EXPECT_FALSE(worklist.flagged(2));
  // After the clear, a re-activation enqueues again.
  EXPECT_TRUE(worklist.schedule(2, 0));
  EXPECT_EQ(worklist.acquire(0), 2u);
  worklist.begin(2);
  worklist.finish();
  worklist.finish();
  EXPECT_TRUE(worklist.try_confirm());
  EXPECT_EQ(worklist.total_enqueues(), 2u);
}

TEST(AsyncWorklist, ForcedReactivationIsNeverLost) {
  // Deterministic single-worker re-enqueue chain: re-activate the item
  // mid-processing 1000 times; every activation must be processed.
  constexpr std::uint64_t kReactivations = 1000;
  par::AsyncWorklist worklist(1, 1);
  worklist.seed(0, 0);
  std::uint64_t processed = 0;
  for (;;) {
    const std::uint32_t item = worklist.acquire(0);
    if (item == par::AsyncWorklist::kNone) break;
    worklist.begin(item);
    ++processed;
    if (processed <= kReactivations) {
      ASSERT_TRUE(worklist.schedule(0, 0)) << "wakeup lost at " << processed;
    }
    worklist.finish();
  }
  EXPECT_EQ(processed, kReactivations + 1);
  EXPECT_TRUE(worklist.try_confirm());
}

/// The full protocol under contention: workers acquire, re-activate
/// random items while "processing" (budget-bounded so the run terminates),
/// and retire. Safety: the detector never fires mid-processing, and at
/// the end every enqueue was processed exactly once — the no-lost-wakeup
/// and no-double-pop guarantees in one equation.
TEST(AsyncWorklistStress, EveryEnqueueIsProcessedExactlyOnce) {
  constexpr std::uint32_t kItems = 256;
  constexpr unsigned kWorkers = 4;
  constexpr std::int64_t kReactivationBudget = 200000;

  par::AsyncWorklist worklist(kItems, kWorkers);
  for (std::uint32_t item = 0; item < kItems; ++item) {
    worklist.seed(item, item % kWorkers);
  }
  std::atomic<std::int64_t> budget{kReactivationBudget};
  std::vector<std::uint64_t> begins(kWorkers, 0);

  auto worker_fn = [&](unsigned w) {
    std::mt19937_64 rng(w * 7919 + 1);
    std::uint64_t mine = 0;
    while (!worklist.done()) {
      const std::uint32_t item = worklist.acquire(w);
      if (item == par::AsyncWorklist::kNone) {
        if (worklist.try_confirm()) break;
        std::this_thread::yield();
        continue;
      }
      worklist.begin(item);
      ++mine;
      // The detector must not have declared quiescence: this unit is
      // outstanding until finish().
      EXPECT_FALSE(worklist.done());
      // Forced re-activation storm, including self-re-activation — the
      // schedule-while-processing race the flag protocol exists for.
      const unsigned wakes = rng() % 3;
      for (unsigned i = 0; i < wakes; ++i) {
        if (budget.fetch_sub(1, std::memory_order_relaxed) <= 0) break;
        const auto target = static_cast<std::uint32_t>(rng() % kItems);
        (void)worklist.schedule(target, w);
      }
      worklist.finish();
    }
    begins[w] = mine;
  };

  std::vector<std::thread> workers;
  for (unsigned w = 1; w < kWorkers; ++w) workers.emplace_back(worker_fn, w);
  worker_fn(0);
  for (auto& worker : workers) worker.join();

  ASSERT_TRUE(worklist.done());
  std::uint64_t total_begins = 0;
  for (const auto count : begins) total_begins += count;
  // Exactly-once: every successful enqueue (seeds + re-activations) was
  // begun once; no activation lost, none double-consumed.
  EXPECT_EQ(total_begins, worklist.total_enqueues());
  EXPECT_GT(worklist.total_enqueues(), static_cast<std::uint64_t>(kItems));
  for (std::uint32_t item = 0; item < kItems; ++item) {
    EXPECT_FALSE(worklist.flagged(item)) << "item " << item;
  }
  EXPECT_GE(worklist.detector().passes(), 1u);
}

// ---------------------------------------------------------------------------
// relax() failure path
// ---------------------------------------------------------------------------

/// A graph view whose neighbors() throws the first time it is asked for
/// one vertex. Only once: a vertex that threw on every visit would, once
/// re-woken, stop each worker in turn even without the stop token.
struct ThrowOnceView {
  const graph::Graph& g;
  graph::NodeId bad;
  std::atomic<bool>& thrown;
  [[nodiscard]] std::span<const graph::NodeId> neighbors(
      graph::NodeId u) const {
    if (u == bad && !thrown.exchange(true)) {
      throw std::runtime_error("bad vertex");
    }
    return g.neighbors(u);
  }
};

TEST(Relax, WorkerExceptionReachesTheCallerAndStopsTheRest) {
  // Every vertex is seeded, so some worker reaches the bad one. Its unit
  // is never retired, so quiescence is never confirmed: the other
  // workers must leave on the stop token (a hang here is caught by the
  // ctest timeout).
  const graph::Graph g = graph::gen::barabasi_albert(2000, 4, 7);
  const graph::NodeId n = g.num_nodes();
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    par::AsyncRunContext context(n, workers, core::SchedPolicy::kBound);
    par::AsyncWorklist& worklist = *context.worklist;
    worklist.reset();
    for (graph::NodeId u = 0; u < n; ++u) {
      context.est[u].store(g.degree(u), std::memory_order_relaxed);
      worklist.seed(u, u % workers, par::bound_bucket(g.degree(u)));
    }
    std::atomic<bool> thrown{false};
    const ThrowOnceView view{g, n / 2, thrown};
    EXPECT_THROW((void)par::relax(view, context, true, nullptr),
                 std::runtime_error);
  }
}

}  // namespace
}  // namespace kcore
