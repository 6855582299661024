// The memory-order mutation suite: every load-bearing ordering annotation
// in the lock-free core gets a seeded mutant (weakened order or dropped
// fence), and each test pins that the chk explorer CATCHES it — some
// explored schedule + stale-read choice violates a protocol invariant.
// The same programs run green unmutated (exhaustively, in test_chk.cpp;
// re-checked here under PCT), so a future edit that weakens a real
// ordering fails exactly like its mutant instead of slipping past the one
// schedule TSan happens to see.
//
// Also pinned here, deliberately: the detector's confirmation-pass
// publication is DEFENSE IN DEPTH — weakening qd.confirm.store_done alone
// is NOT observable (the seq_cst confirmation fence already anchors the
// release clock), and only the combined mutant (drop the fence AND relax
// the store) breaks the done-implies-results-visible contract. The
// checker proving a weakening harmless is as much information as proving
// one fatal.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "chk/chk.h"
#include "core/run_options.h"
#include "par/async_worklist.h"
#include "par/steal_deque.h"

namespace kcore {
namespace {

using ModelDeque = par::StealDeque<int, chk::ModelSync>;
using ModelWorklist = par::BasicAsyncWorklist<chk::ModelSync>;

chk::Options exhaustive(unsigned preemptions, chk::MutationSet mutations,
                        std::uint64_t max_execs = 400000) {
  chk::Options opt;
  opt.mode = chk::Mode::kExhaustive;
  opt.preemption_bound = preemptions;
  opt.max_executions = max_execs;
  opt.max_steps = 800;
  opt.mutations = std::move(mutations);
  return opt;
}

chk::Options pct(std::uint64_t executions, std::uint64_t seed,
                 chk::MutationSet mutations = {}) {
  chk::Options opt;
  opt.mode = chk::Mode::kPct;
  opt.executions = executions;
  opt.seed = seed;
  opt.max_steps = 4000;
  opt.mutations = std::move(mutations);
  return opt;
}

/// Asserts the outcome caught the mutant and that every seeded mutation
/// actually fired (a renamed site must fail loudly, not explore nothing).
void expect_caught(const chk::Outcome& out, const chk::Options& opt,
                   const char* expected_fragment) {
  EXPECT_TRUE(out.violation)
      << "mutant survived " << out.executions << " executions (exhausted="
      << out.exhausted << ", bounded=" << out.bounded << ")";
  EXPECT_NE(out.what.find(expected_fragment), std::string::npos) << out.what;
  for (const chk::Mutation& m : opt.mutations) {
    EXPECT_GT(out.mutation_hits.at(m.site), 0u)
        << "mutation at '" << m.site << "' never fired — stale site tag?";
  }
}

// ---------------------------------------------------------------------------
// Program 1: Chase–Lev drain — owner pushes then pops, thief steals.
// Invariants: no garbage values, every element handed out exactly once.
// ---------------------------------------------------------------------------

struct HandoutLog {
  std::array<int, 4> count{};
  int invalid = 0;
  void take(int value, int max_value) {
    if (value < 1 || value > max_value) {
      ++invalid;
    } else {
      ++count[static_cast<unsigned>(value)];
    }
  }
};

chk::Program deque_drain() {
  auto dq = std::make_shared<ModelDeque>(4);
  auto log = std::make_shared<HandoutLog>();
  chk::Program p;
  p.threads.push_back([=] {  // owner
    dq->push(1);
    dq->push(2);
    int v = 0;
    if (dq->pop(v)) log->take(v, 2);
    if (dq->pop(v)) log->take(v, 2);
  });
  p.threads.push_back([=] {  // thief
    int v = 0;
    if (dq->steal(v)) log->take(v, 2);
    if (dq->steal(v)) log->take(v, 2);
  });
  p.finally = [=] {
    chk::require(log->invalid == 0, "deque handed out a garbage value");
    chk::require(log->count[1] == 1 && log->count[2] == 1,
                 "deque lost or duplicated an element");
  };
  return p;
}

// Dropping pop's seq_cst fence lets the owner's top read miss completed
// steals: the owner takes the non-CAS fast path for an element a thief
// already won — the PPoPP'13 double-handout.
TEST(ChkMutants, DequePopSeqFenceDropIsCaught) {
  const chk::Options opt =
      exhaustive(1, {chk::Mutation::drop_fence("sd.pop.fence_seq")});
  expect_caught(chk::explore(opt, deque_drain), opt,
                "lost or duplicated an element");
}

// Dropping push's release fence unpublishes the slot write: a thief that
// sees the advanced bottom can still read the slot's stale initial value.
TEST(ChkMutants, DequePushReleaseFenceDropIsCaught) {
  const chk::Options opt =
      exhaustive(1, {chk::Mutation::drop_fence("sd.push.fence_release")});
  expect_caught(chk::explore(opt, deque_drain), opt, "garbage value");
}

// Relaxing steal's bottom acquire breaks the same publication edge from
// the consumer side: the thief no longer synchronizes with the push that
// advanced bottom, so the slot read may be stale.
TEST(ChkMutants, DequeStealBottomAcquireWeakenIsCaught) {
  const chk::Options opt =
      exhaustive(1, {chk::Mutation::weaken("sd.steal.read_bottom")});
  expect_caught(chk::explore(opt, deque_drain), opt, "garbage value");
}

// Unmutated twin under the same explorer configuration (the exhaustive
// green run lives in test_chk.cpp).
TEST(ChkMutants, DequeDrainUnmutatedIsClean) {
  const chk::Outcome out = chk::explore(exhaustive(1, {}), deque_drain);
  EXPECT_FALSE(out.violation) << out.what << "\n" << out.trace;
  EXPECT_TRUE(out.exhausted);
}

// ---------------------------------------------------------------------------
// Program 2: grow under fire — capacity 2, the third push doubles the
// ring while a thief races. Invariant: the thief never reads a slot the
// grow didn't copy.
// ---------------------------------------------------------------------------

chk::Program grow_under_fire() {
  auto dq = std::make_shared<ModelDeque>(2);
  auto log = std::make_shared<HandoutLog>();
  chk::Program p;
  p.threads.push_back([=] {
    dq->push(1);
    dq->push(2);
    dq->push(3);  // grows 2 -> 4
  });
  p.threads.push_back([=] {
    int v = 0;
    if (dq->steal(v)) log->take(v, 3);
  });
  p.finally = [=] {
    chk::require(log->invalid == 0, "thief read garbage from a grown ring");
  };
  return p;
}

// Relaxing the grown-ring publication lets a thief observe the new ring
// pointer before the slot copies into it — reading uninitialized slots.
TEST(ChkMutants, DequeGrowPublishWeakenIsCaught) {
  const chk::Options opt =
      exhaustive(1, {chk::Mutation::weaken("sd.grow.publish_ring")});
  expect_caught(chk::explore(opt, grow_under_fire), opt,
                "garbage from a grown ring");
}

TEST(ChkMutants, GrowUnderFireUnmutatedIsClean) {
  const chk::Outcome out = chk::explore(exhaustive(1, {}), grow_under_fire);
  EXPECT_FALSE(out.violation) << out.what << "\n" << out.trace;
  EXPECT_TRUE(out.exhausted);
}

// ---------------------------------------------------------------------------
// Program 3: the in-queue-flag wakeup handshake. Item 1's handler writes
// item 0's input and calls schedule(0) — from INSIDE its processing
// window, like the engine's relax handlers, so the detector's accounting
// contract (every add() happens while its causing item is outstanding)
// holds. Item 0's handler records what it read. The §3.1 contract: the
// LAST processing of item 0 must see the input — either the losing
// schedule() exchange published it to begin(), or the winning exchange
// re-enqueued the item for a processing that pops it after the write.
// (Not "the temporally last processing sees it": a processing suspended
// between begin() and its input read can legally complete with a stale
// read after a re-enqueued processing already consumed the write — the
// contract is that the write reaches SOME processing, never none.)
// ---------------------------------------------------------------------------

chk::Program wakeup_handshake(std::shared_ptr<int> wake_seen) {
  auto wl = std::make_shared<ModelWorklist>(2, 2, core::SchedPolicy::kLifo);
  auto x = std::make_shared<chk::ModelAtomic<int>>(0, "hs.x");
  wl->seed(0, 0);
  wl->seed(1, 1);
  *wake_seen = 0;
  chk::Program p;
  const auto drain = [=](unsigned w) {
    while (!wl->done()) {
      const std::uint32_t u = wl->acquire(w);
      if (u == ModelWorklist::kNone) {
        if (wl->try_confirm(w)) break;
        chk::yield();
        continue;
      }
      wl->begin(u);
      if (u == 1) {  // the producer item: write the input, wake item 0
        x->store(1, std::memory_order_relaxed, "hs.write_x");
        wl->schedule(0, w);
      } else if (x->load(std::memory_order_relaxed, "hs.read_x") == 1) {
        *wake_seen = 1;  // item 0: this processing observed the input
      }
      wl->finish(w);
    }
  };
  p.threads.push_back([=] { drain(0); });
  p.threads.push_back([=] { drain(1); });
  p.finally = [=] {
    chk::require(wl->done(), "workers exited without confirmed quiescence");
    chk::require(wl->detector().outstanding() == 0,
                 "detector confirmed with outstanding work");
    chk::require(*wake_seen == 1,
                 "lost wakeup: no processing of the item saw the input write");
  };
  return p;
}

// Relaxing begin()'s exchange breaks the acquire half of the handshake:
// the consumer clears the flag after the producer's losing exchange but
// reads the input stale — and no re-enqueue is coming.
TEST(ChkMutants, WorklistBeginExchangeWeakenIsCaught) {
  const chk::Options opt =
      exhaustive(1, {chk::Mutation::weaken("wl.begin.xchg_flag")});
  expect_caught(chk::explore(opt,
                             [] {
                               return wakeup_handshake(
                                   std::make_shared<int>(-1));
                             }),
                opt, "lost wakeup");
}

// Relaxing schedule()'s exchange breaks the release half: the losing
// exchange no longer carries the input write, so even a correct begin()
// acquires nothing.
TEST(ChkMutants, WorklistScheduleExchangeWeakenIsCaught) {
  const chk::Options opt =
      exhaustive(1, {chk::Mutation::weaken("wl.schedule.xchg_flag")});
  expect_caught(chk::explore(opt,
                             [] {
                               return wakeup_handshake(
                                   std::make_shared<int>(-1));
                             }),
                opt, "lost wakeup");
}

TEST(ChkMutants, WakeupHandshakeUnmutatedIsClean) {
  const chk::Outcome out = chk::explore(
      exhaustive(1, {}),
      [] { return wakeup_handshake(std::make_shared<int>(-1)); });
  EXPECT_FALSE(out.violation) << out.what << "\n" << out.trace;
}

// ---------------------------------------------------------------------------
// Program 4: quiescence publication. A worker drains the (one-item)
// worklist, writing its result before finish(); an observer spins on
// done() and then requires the result to be visible — the detector's
// done-implies-everything-retired-and-visible contract.
// ---------------------------------------------------------------------------

chk::Program quiescence_publication() {
  auto wl = std::make_shared<ModelWorklist>(1, 2, core::SchedPolicy::kLifo);
  auto result = std::make_shared<chk::ModelAtomic<int>>(0, "qp.result");
  wl->seed(0, 0);
  chk::Program p;
  p.threads.push_back([=] {  // worker 0: process the one item, then confirm
    // Straight-line, not a drain loop: an empty re-poll of the deque
    // after the result store would execute pop's seq_cst fence and
    // re-anchor the thread's release clock PAST the result write, hiding
    // exactly the publication edge this program probes.
    const std::uint32_t u = wl->acquire(0);
    chk::require(u == 0, "seeded item was not acquirable");
    wl->begin(u);
    result->store(1, std::memory_order_relaxed, "qp.write_result");
    wl->finish(0);
    while (!wl->try_confirm(0)) chk::yield();
  });
  p.threads.push_back([=] {  // observer
    while (!wl->done()) chk::yield();
    chk::require(
        result->load(std::memory_order_relaxed, "qp.read_result") == 1,
        "done() was visible before the results it promises");
  });
  return p;
}

// DEFENSE-IN-DEPTH PIN: relaxing the done-flag store ALONE is provably
// unobservable — the confirmation pass's seq_cst fence already anchors
// the store's release clock — and the checker proves it by exhausting the
// schedule space without a violation. This is a deliberate redundancy
// audit, not a missed bug: if this test ever starts failing, the
// confirmation fence was weakened or moved.
TEST(ChkMutants, DetectorDoneStoreWeakenAloneIsProvablyHarmless) {
  const chk::Options opt =
      exhaustive(1, {chk::Mutation::weaken("qd.confirm.store_done")});
  const chk::Outcome out = chk::explore(opt, quiescence_publication);
  EXPECT_FALSE(out.violation) << out.what << "\n" << out.trace;
  EXPECT_TRUE(out.exhausted);
  EXPECT_GT(out.mutation_hits.at("qd.confirm.store_done"), 0u);
}

// The COMBINED mutant — drop the confirmation fence and relax the store —
// removes both anchors, and done() can become visible before the retired
// work's effects. This is the real load-bearing structure: fence OR
// release store, not the store alone.
TEST(ChkMutants, DetectorConfirmFencePlusDoneStoreWeakenIsCaught) {
  const chk::Options opt =
      exhaustive(1, {chk::Mutation::drop_fence("qd.confirm.fence"),
                     chk::Mutation::weaken("qd.confirm.store_done")});
  expect_caught(chk::explore(opt, quiescence_publication), opt,
                "done() was visible before the results");
}

TEST(ChkMutants, QuiescencePublicationUnmutatedIsClean) {
  const chk::Outcome out =
      chk::explore(exhaustive(1, {}), quiescence_publication);
  EXPECT_FALSE(out.violation) << out.what << "\n" << out.trace;
}

// ---------------------------------------------------------------------------
// Program 5: credit-flush publication. The worklist runs with
// kCreditBatch == 2 under the model, so seeding the one item refills lane
// 0's credit and worker 0's try_confirm() returns the unspent credit and
// its unflushed finish in one detector finish(). Worker 1 never touches
// the item; it only confirms, and once it sees done it requires the
// item's result. The zero it confirms on may come from worker 0's flush
// alone, so that flush must be a release.
// ---------------------------------------------------------------------------

chk::Program credit_flush_publication() {
  auto wl = std::make_shared<ModelWorklist>(1, 2, core::SchedPolicy::kLifo);
  auto result = std::make_shared<chk::ModelAtomic<int>>(0, "cf.result");
  wl->seed(0, 0);
  chk::Program p;
  p.threads.push_back([=] {  // worker 0: process the item, flush, confirm
    const std::uint32_t u = wl->acquire(0);
    chk::require(u == 0, "seeded item was not acquirable");
    wl->begin(u);
    result->store(1, std::memory_order_relaxed, "cf.write_result");
    wl->finish(0);
    while (!wl->try_confirm(0)) chk::yield();
  });
  p.threads.push_back([=] {  // worker 1: idle, confirms on worker 0's flush
    while (!wl->try_confirm(1)) chk::yield();
    chk::require(
        result->load(std::memory_order_relaxed, "cf.read_result") == 1,
        "quiescence confirmed before the flushed work's results");
    chk::require(wl->detector().outstanding() == 0,
                 "detector confirmed with credit or finishes unflushed");
  });
  return p;
}

// Relaxing the detector's finish() — the RMW that returns a worker's
// credit and finishes — lets the OTHER worker read the zero it left
// without synchronizing with it: that worker confirms and reads the
// result stale. (The same-thread confirmation of Program 4 cannot see
// this; the credit protocol makes a remote confirmer the common case.)
TEST(ChkMutants, CreditFlushReleaseWeakenIsCaught) {
  const chk::Options opt =
      exhaustive(2, {chk::Mutation::weaken("qd.finish")});
  expect_caught(chk::explore(opt, credit_flush_publication), opt,
                "confirmed before the flushed work's results");
}

TEST(ChkMutants, CreditFlushPublicationUnmutatedIsClean) {
  const chk::Outcome out =
      chk::explore(exhaustive(2, {}), credit_flush_publication);
  EXPECT_FALSE(out.violation) << out.what << "\n" << out.trace;
  EXPECT_TRUE(out.exhausted);
}

// ---------------------------------------------------------------------------
// PCT replay: a recorded failing seed is a one-line repro.
// ---------------------------------------------------------------------------

TEST(ChkMutants, PctFindsPushFenceMutantAndReplaySeedReproducesIt) {
  // PCT (not exhaustive) against the push-fence mutant: the outcome's
  // replay_seed must reproduce the identical violation in ONE execution.
  // splitmix64 makes the whole search platform-stable, so the discovery
  // below is deterministic, not flaky.
  const chk::Options opt =
      pct(2000, 42, {chk::Mutation::drop_fence("sd.push.fence_release")});
  const chk::Outcome found = chk::explore(opt, deque_drain);
  ASSERT_TRUE(found.violation)
      << "PCT missed the mutant in " << found.executions << " executions";
  const chk::Outcome replayed =
      chk::replay(opt, found.replay_seed, deque_drain);
  ASSERT_TRUE(replayed.violation);
  EXPECT_EQ(replayed.executions, 1u);
  // Compare up to the event-log tail: the diagnosis must be identical;
  // the log legitimately differs in heap addresses (ring pointers).
  const auto diagnosis = [](const std::string& what) {
    return what.substr(0, what.find("--- event log"));
  };
  EXPECT_EQ(diagnosis(replayed.what), diagnosis(found.what));
  EXPECT_FALSE(diagnosis(found.what).empty());
  EXPECT_LT(found.replay_seed - opt.seed, opt.executions);
}

}  // namespace
}  // namespace kcore
