// Unit tests for the src/par building blocks: fork_join, the fork-join
// round loop, the double-buffered mailbox matrix, and the par::Engine's
// exact parity with sim::Engine under synchronous delivery.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "core/assignment.h"
#include "core/one_to_many.h"
#include "graph/generators.h"
#include "par/engine.h"
#include "par/fork_join.h"
#include "par/mailbox.h"
#include "par/round_loop.h"

namespace kcore {
namespace {

// --- fork_join --------------------------------------------------------------

TEST(ForkJoin, EveryIndexRunsOnceAndIndexZeroOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  for (const unsigned workers : {1u, 2u, 5u}) {
    std::vector<std::atomic<int>> runs(workers);
    std::vector<std::thread::id> ids(workers);
    par::fork_join(workers, [&](unsigned w, const std::stop_token&) {
      runs[w].fetch_add(1);
      ids[w] = std::this_thread::get_id();
    });
    for (unsigned w = 0; w < workers; ++w) {
      EXPECT_EQ(runs[w].load(), 1) << "worker " << w;
      if (w == 0) {
        EXPECT_EQ(ids[w], caller);
      } else {
        EXPECT_NE(ids[w], caller) << "worker " << w;
      }
    }
  }
}

TEST(ForkJoin, FirstExceptionIsRethrownAfterEveryWorkerJoins) {
  // Worker 1 throws at once; every other worker waits for the stop
  // request (a missing request hangs here until the ctest timeout), then
  // lingers before finishing. Worker 2 throws a second exception after
  // the stop, which must not replace the first.
  constexpr unsigned kWorkers = 4;
  std::vector<std::atomic<bool>> saw_stop(kWorkers);
  std::vector<std::atomic<bool>> finished(kWorkers);
  try {
    par::fork_join(kWorkers, [&](unsigned w, const std::stop_token& stop) {
      if (w == 1) throw std::runtime_error("first");
      while (!stop.stop_requested()) std::this_thread::yield();
      saw_stop[w] = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      finished[w] = true;
      if (w == 2) throw std::runtime_error("second");
    });
    ADD_FAILURE() << "fork_join returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "first");
  }
  for (unsigned w = 0; w < kWorkers; ++w) {
    if (w == 1) continue;
    EXPECT_TRUE(saw_stop[w]) << "worker " << w;
    EXPECT_TRUE(finished[w]) << "worker " << w;
  }
}

// --- run_round_loop ---------------------------------------------------------

TEST(RoundLoop, EveryWorkerRunsEveryRound) {
  for (const unsigned workers : {1u, 2u, 5u}) {
    std::vector<std::uint64_t> rounds_seen(workers, 0);
    std::uint64_t completions = 0;
    par::run_round_loop(
        workers,
        [&](unsigned w, std::uint64_t round) {
          // Each worker sees rounds 1, 2, 3, ... in order.
          EXPECT_EQ(round, rounds_seen[w] + 1);
          rounds_seen[w] = round;
        },
        [&](std::uint64_t round) {
          ++completions;
          EXPECT_EQ(round, completions);
          // Completion runs after every worker finished the round.
          for (const auto seen : rounds_seen) EXPECT_EQ(seen, round);
          return round < 7;
        });
    EXPECT_EQ(completions, 7u);
    for (const auto seen : rounds_seen) EXPECT_EQ(seen, 7u);
  }
}

TEST(RoundLoop, CompletionIsSingleThreaded) {
  // If two completions ever overlapped, the plain ++ would race and TSan
  // (see the CI job) would flag it; the counter check catches lost
  // updates even without instrumentation.
  constexpr unsigned kWorkers = 4;
  std::atomic<int> in_completion{0};
  std::uint64_t total = 0;
  par::run_round_loop(
      kWorkers, [](unsigned, std::uint64_t) {},
      [&](std::uint64_t round) {
        EXPECT_EQ(in_completion.fetch_add(1), 0);
        ++total;
        EXPECT_EQ(in_completion.fetch_sub(1), 1);
        return round < 50;
      });
  EXPECT_EQ(total, 50u);
}

TEST(RoundLoop, BodyExceptionPropagatesWithoutDeadlock) {
  for (const unsigned workers : {1u, 3u}) {
    EXPECT_THROW(
        par::run_round_loop(
            workers,
            [&](unsigned w, std::uint64_t round) {
              if (w == 0 && round == 3) {
                throw std::runtime_error("boom");
              }
            },
            [](std::uint64_t) { return true; }),
        std::runtime_error);
  }
}

TEST(RoundLoop, CompletionExceptionPropagates) {
  EXPECT_THROW(par::run_round_loop(
                   2, [](unsigned, std::uint64_t) {},
                   [](std::uint64_t) -> bool {
                     throw std::runtime_error("completion boom");
                   }),
               std::runtime_error);
}

// --- MailboxMatrix ----------------------------------------------------------

TEST(Mailbox, WriteSideBecomesNextRoundsReadSide) {
  par::MailboxMatrix<int> mail(3);
  for (std::uint64_t round = 1; round <= 4; ++round) {
    mail.write_side(0, 2, round).push_back(static_cast<int>(round));
  }
  // What round r wrote with parity p is what round r+1 reads.
  EXPECT_EQ(mail.read_side(0, 2, 2), (std::vector<int>{1, 3}));
  EXPECT_EQ(mail.read_side(0, 2, 3), (std::vector<int>{2, 4}));
  // Slots are per-(sender, receiver): nothing leaked anywhere else.
  EXPECT_TRUE(mail.read_side(2, 0, 2).empty());
  EXPECT_TRUE(mail.read_side(0, 1, 2).empty());
}

// --- par::Engine vs sim::Engine ---------------------------------------------

/// Build the one-to-many hosts for `g` exactly as the runners do.
std::vector<core::OneToManyHost> make_hosts(
    const graph::Graph& g, const std::vector<sim::HostId>& owner,
    sim::HostId num_hosts, core::CommPolicy policy) {
  std::vector<core::OneToManyHost> hosts;
  hosts.reserve(num_hosts);
  for (sim::HostId h = 0; h < num_hosts; ++h) {
    hosts.emplace_back(&g, &owner, h, policy);
  }
  return hosts;
}

TEST(ParEngine, TrafficBitIdenticalToSynchronousSimulator) {
  // Same hosts, same protocol, two engines: the real-thread engine must
  // reproduce the synchronous simulator's statistics EXACTLY — that is
  // the "same model, now on real cores" guarantee of par/engine.h.
  const graph::Graph g = graph::gen::barabasi_albert(1200, 3, 17);
  constexpr sim::HostId kHosts = 12;
  const auto owner = core::assign_nodes(g.num_nodes(), kHosts,
                                        core::AssignmentPolicy::kModulo);
  for (const auto policy :
       {core::CommPolicy::kPointToPoint, core::CommPolicy::kBroadcast}) {
    sim::EngineConfig sim_config;
    sim_config.mode = sim::DeliveryMode::kSynchronous;
    sim::Engine<core::OneToManyHost> reference(
        make_hosts(g, owner, kHosts, policy), sim_config);
    const auto expected = reference.run();

    for (const unsigned threads : {1u, 3u}) {
      par::EngineConfig par_config;
      par_config.threads = threads;
      par::Engine<core::OneToManyHost> engine(
          make_hosts(g, owner, kHosts, policy), par_config);
      const auto actual = engine.run();

      EXPECT_EQ(actual.total_messages, expected.total_messages);
      EXPECT_EQ(actual.execution_time, expected.execution_time);
      EXPECT_EQ(actual.rounds_executed, expected.rounds_executed);
      EXPECT_EQ(actual.converged, expected.converged);
      EXPECT_EQ(actual.sent_by_host, expected.sent_by_host);

      // And the host end states agree node by node.
      std::vector<graph::NodeId> a(g.num_nodes(), 0), b(g.num_nodes(), 0);
      for (const auto& h : reference.hosts()) h.snapshot_into(a);
      for (const auto& h : engine.hosts()) h.snapshot_into(b);
      EXPECT_EQ(a, b);
    }
  }
}

TEST(ParEngine, RespectsRoundCap) {
  const graph::Graph g = graph::gen::montresor_worst_case(256);
  const auto owner = core::assign_nodes(g.num_nodes(), 8,
                                        core::AssignmentPolicy::kModulo);
  par::EngineConfig config;
  config.threads = 2;
  config.max_rounds = 3;  // far too few for the worst-case family
  par::Engine<core::OneToManyHost> engine(
      make_hosts(g, owner, 8, core::CommPolicy::kPointToPoint), config);
  const auto stats = engine.run();
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(stats.rounds_executed, 3u);
}

TEST(ParEngine, ClampsWorkersToHostCount) {
  const graph::Graph g = graph::gen::cycle(6);
  const auto owner = core::assign_nodes(g.num_nodes(), 2,
                                        core::AssignmentPolicy::kModulo);
  par::EngineConfig config;
  config.threads = 16;
  par::Engine<core::OneToManyHost> engine(
      make_hosts(g, owner, 2, core::CommPolicy::kPointToPoint), config);
  EXPECT_EQ(engine.threads_used(), 2u);
  EXPECT_TRUE(engine.run().converged);
}

}  // namespace
}  // namespace kcore
