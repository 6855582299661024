// Crash recovery, pinned exhaustively.
//
// The central property test is a CRASH MATRIX: run a durable service
// over a churn trace once to count every storage operation, then re-run
// it with a simulated power cut at EVERY operation index (clean crash
// and torn-write variants), recover, and require the recovered coreness
// to be bit-identical to a from-scratch Batagelj–Zaveršnik run of the
// recovered topology — then finish the trace and require the final
// state to match an undisturbed run. The paper's re-convergence theorems
// say a warm restart from any sound persisted table is exact; this file
// is that claim under every crash the storage model can express.
//
// Around the matrix: transient-EIO degradation (apply fails, service
// stays consistent, retry succeeds), the degenerate state directories
// (empty, checkpoint-only, WAL-only, corrupt checkpoint, corrupt WAL
// tail, duplicates, epoch gaps), and the warm-restart cost pin
// (recovery relaxations << from-scratch convergence).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/edge_list.h"
#include "graph/generators.h"
#include "live/live_graph.h"
#include "live/service.h"
#include "live/update_log.h"
#include "live/wal.h"
#include "seq/kcore_seq.h"
#include "util/rng.h"
#include "util/storage.h"

namespace kcore::live {
namespace {

namespace gen = kcore::graph::gen;
using graph::EdgeOp;
using graph::EdgeUpdate;
using graph::Graph;
using graph::NodeId;
using util::FaultPlan;

constexpr char kDir[] = "state";

struct Trace {
  const char* name;
  Graph base;
  UpdateLog log;
};

Trace make_trace(int kind, std::uint64_t seed) {
  Trace trace;
  switch (kind) {
    case 0:
      trace.name = "er";
      trace.base = gen::erdos_renyi_gnm(48, 110, seed);
      break;
    case 1:
      trace.name = "ba";
      trace.base = gen::barabasi_albert(40, 3, seed);
      break;
    default:
      trace.name = "grid";
      trace.base = gen::grid(6, 7);
      break;
  }
  util::Xoshiro256 rng(seed * 131 + static_cast<std::uint64_t>(kind));
  const NodeId n = trace.base.num_nodes();
  for (int b = 0; b < 6; ++b) {
    std::vector<EdgeUpdate> batch;
    for (int i = 0; i < 6; ++i) {
      const auto u = static_cast<NodeId>(rng.next_below(n));
      const auto v = static_cast<NodeId>(rng.next_below(n));
      batch.push_back(
          {rng.next_bool(0.55) ? EdgeOp::kInsert : EdgeOp::kRemove, u, v});
    }
    trace.log.append_batch(std::move(batch));
  }
  return trace;
}

// Sequential-replay oracle: every update in order on a plain LiveGraph
// (the same final topology as the service's "last op per edge wins"),
// then a from-scratch bz decomposition.
std::vector<NodeId> expected_final_coreness(const Trace& trace) {
  LiveGraph lg(trace.base);
  for (std::size_t b = 0; b < trace.log.num_batches(); ++b) {
    for (const EdgeUpdate& update : trace.log.batch(b)) lg.apply(update);
  }
  return seq::coreness_bz(lg.snapshot());
}

ServiceOptions fast_options() {
  ServiceOptions options;
  options.threads = 1;  // the matrix runs hundreds of services
  return options;
}

DurabilityOptions mem_durability(util::MemStorage& fs) {
  DurabilityOptions durability;
  durability.dir = kDir;
  durability.storage = &fs;
  durability.checkpoint_every = 2;  // exercise cadence mid-trace
  durability.keep_checkpoints = 2;
  return durability;
}

/// Run the full trace on a durable service over `fs`. Returns false if a
/// CrashPoint unwound it (the armed fault fired).
bool run_trace(util::MemStorage& fs, const Trace& trace,
               std::uint64_t* ctor_ops = nullptr) {
  try {
    Service service(trace.base, fast_options(), mem_durability(fs));
    if (ctor_ops != nullptr) *ctor_ops = fs.op_count();
    for (std::size_t b = 0; b < trace.log.num_batches(); ++b) {
      service.apply(trace.log.batch(b));
    }
    return true;
  } catch (const util::CrashPoint&) {
    return false;
  }
}

// --- the crash matrix -------------------------------------------------------

TEST(Recovery, CrashMatrixEveryFaultSiteRecoversExactly) {
  std::uint64_t sites = 0;
  std::uint64_t refusals = 0;
  for (int kind = 0; kind < 3; ++kind) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const Trace trace = make_trace(kind, seed);
      const std::vector<NodeId> expected = expected_final_coreness(trace);

      // Dry run: learn the op count and the constructor's watermark.
      std::uint64_t total_ops = 0;
      std::uint64_t ctor_ops = 0;
      {
        util::MemStorage fs;
        ASSERT_TRUE(run_trace(fs, trace, &ctor_ops));
        total_ops = fs.op_count();
      }
      ASSERT_GT(total_ops, ctor_ops);

      for (const FaultPlan::Kind fault :
           {FaultPlan::Kind::kCrashBefore, FaultPlan::Kind::kTorn}) {
        for (std::uint64_t at = 0; at < total_ops; ++at) {
          ++sites;
          util::MemStorage fs;
          fs.set_fault({fault, at});
          ASSERT_FALSE(run_trace(fs, trace))
              << trace.name << " seed " << seed << " op " << at
              << ": armed fault never fired";
          ASSERT_TRUE(fs.crashed());

          RecoveryInfo info;
          std::unique_ptr<Service> recovered;
          try {
            recovered =
                Service::open(fast_options(), mem_durability(fs), &info);
          } catch (const util::IoError& e) {
            // Refusal is only legal while the FIRST checkpoint was still
            // in flight (a fresh directory is not yet recoverable), and
            // it must name the directory.
            ASSERT_LT(at, ctor_ops)
                << trace.name << " seed " << seed << " op " << at << ": "
                << e.what();
            ASSERT_NE(std::string(e.what()).find(kDir), std::string::npos);
            ++refusals;
            continue;
          }

          // The recovered table must be exact for the recovered topology
          // (never a stale or half-applied mix), ...
          ASSERT_EQ(recovered->query()->coreness,
                    seq::coreness_bz(recovered->graph().snapshot()))
              << trace.name << " seed " << seed << " fault "
              << static_cast<int>(fault) << " op " << at;
          // ... the warm restart pays zero up-front relaxations, ...
          ASSERT_EQ(recovered->initial_stats().relaxations, 0U);
          // ... and finishing the trace from where recovery left off
          // lands on the undisturbed final state bit-for-bit.
          ASSERT_LE(info.recovered_epoch, trace.log.num_batches());
          for (std::size_t b =
                   static_cast<std::size_t>(info.recovered_epoch);
               b < trace.log.num_batches(); ++b) {
            recovered->apply(trace.log.batch(b));
          }
          ASSERT_EQ(recovered->query()->coreness, expected)
              << trace.name << " seed " << seed << " fault "
              << static_cast<int>(fault) << " op " << at;
        }
      }
    }
  }
  // The matrix must actually have covered both regimes.
  EXPECT_GT(sites, 0U);
  EXPECT_GT(refusals, 0U);       // some crashes land before the first ckpt
  EXPECT_LT(refusals, sites / 2);  // but most sites recover
}

// --- transient I/O failure: degrade, stay consistent, retry -----------------

TEST(Recovery, TransientIoFailureDegradesGracefully) {
  const Trace trace = make_trace(0, 3);
  const std::vector<NodeId> expected = expected_final_coreness(trace);
  std::uint64_t total_ops = 0;
  {
    util::MemStorage fs;
    ASSERT_TRUE(run_trace(fs, trace));
    total_ops = fs.op_count();
  }

  std::uint64_t apply_failures = 0;
  std::uint64_t checkpoint_failures = 0;
  for (std::uint64_t at = 0; at < total_ops; ++at) {
    util::MemStorage fs;
    fs.set_fault({FaultPlan::Kind::kFail, at});
    std::unique_ptr<Service> service;
    try {
      service = std::make_unique<Service>(trace.base, fast_options(),
                                          mem_durability(fs));
    } catch (const util::IoError& e) {
      // EIO while creating the fresh directory: a clean, actionable
      // failure before the service ever existed.
      ASSERT_FALSE(std::string(e.what()).empty());
      continue;
    }
    for (std::size_t b = 0; b < trace.log.num_batches(); ++b) {
      ApplyResult result;
      try {
        result = service->apply(trace.log.batch(b));
      } catch (const util::IoError&) {
        ++apply_failures;
        // The WAL append failed BEFORE any mutation: still consistent
        // at the previous epoch.
        ASSERT_EQ(service->query()->coreness,
                  seq::coreness_bz(service->graph().snapshot()))
            << "op " << at << " batch " << b;
        result = service->apply(trace.log.batch(b));  // fault disarmed
      }
      if (result.checkpoint_failed) ++checkpoint_failures;
    }
    ASSERT_EQ(service->query()->coreness, expected) << "op " << at;

    // The degraded run is still recoverable: power-cut it and reopen.
    service.reset();
    fs.crash();
    RecoveryInfo info;
    const auto recovered =
        Service::open(fast_options(), mem_durability(fs), &info);
    for (std::size_t b = static_cast<std::size_t>(info.recovered_epoch);
         b < trace.log.num_batches(); ++b) {
      recovered->apply(trace.log.batch(b));
    }
    ASSERT_EQ(recovered->query()->coreness, expected) << "op " << at;
  }
  // The sweep must have hit both degradation paths: a propagated WAL
  // failure and a swallowed-but-counted checkpoint failure.
  EXPECT_GT(apply_failures, 0U);
  EXPECT_GT(checkpoint_failures, 0U);
}

// --- degenerate state directories -------------------------------------------

class RecoveryDegenerate : public ::testing::Test {
 protected:
  // A finished durable run: initial checkpoint at epoch 0, WAL records
  // for epochs 1..6, cadence checkpoints at epochs 2/4/6 (keep 2).
  void SetUp() override {
    trace_ = make_trace(1, 5);
    expected_ = expected_final_coreness(trace_);
    ASSERT_TRUE(run_trace(fs_, trace_));
  }

  std::vector<std::string> checkpoint_files() {
    std::vector<std::string> names;
    for (const std::string& name : fs_.list_dir(kDir)) {
      if (name.find("checkpoint-") == 0) names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  void corrupt(const std::string& path) {
    std::string bytes = fs_.read_file(path);
    ASSERT_GT(bytes.size(), 12U);
    bytes[bytes.size() / 2] ^= 0x01;
    fs_.write_file(path, bytes);
    fs_.sync_file(path);
  }

  util::MemStorage fs_;
  Trace trace_;
  std::vector<NodeId> expected_;
};

TEST_F(RecoveryDegenerate, FullStateRecoversToTheFinalEpoch) {
  RecoveryInfo info;
  const auto service = Service::open(fast_options(), mem_durability(fs_), &info);
  EXPECT_EQ(info.recovered_epoch, trace_.log.num_batches());
  EXPECT_EQ(service->query()->coreness, expected_);
}

TEST_F(RecoveryDegenerate, EmptyDirectoryRefusesWithReason) {
  util::MemStorage fresh;
  fresh.make_dir(kDir);
  try {
    (void)Service::open(fast_options(), mem_durability(fresh));
    FAIL() << "expected util::IoError";
  } catch (const util::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("no valid checkpoint"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(RecoveryDegenerate, MissingDirectoryRefusesWithReason) {
  util::MemStorage fresh;
  try {
    (void)Service::open(fast_options(), mem_durability(fresh));
    FAIL() << "expected util::IoError";
  } catch (const util::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("does not exist"), std::string::npos)
        << e.what();
  }
}

TEST_F(RecoveryDegenerate, CheckpointOnlyDirectoryRecoversAndStartsANewWal) {
  fs_.remove_file(std::string(kDir) + "/wal.log");
  RecoveryInfo info;
  const auto service =
      Service::open(fast_options(), mem_durability(fs_), &info);
  // No WAL tail: the state is the newest checkpoint, nothing replayed.
  EXPECT_EQ(info.replayed_batches, 0U);
  EXPECT_EQ(info.recovered_epoch, info.checkpoint_epoch);
  EXPECT_EQ(service->query()->coreness,
            seq::coreness_bz(service->graph().snapshot()));
  // And the service is durable again: a fresh WAL accepts new batches.
  EXPECT_TRUE(fs_.exists(std::string(kDir) + "/wal.log"));
  service->apply(trace_.log.batch(0));
  EXPECT_EQ(service->query()->coreness,
            seq::coreness_bz(service->graph().snapshot()));
}

TEST_F(RecoveryDegenerate, WalOnlyDirectoryRefusesWithReason) {
  for (const std::string& name : checkpoint_files()) {
    fs_.remove_file(std::string(kDir) + "/" + name);
  }
  try {
    (void)Service::open(fast_options(), mem_durability(fs_));
    FAIL() << "expected util::IoError";
  } catch (const util::IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("wal.log is present"), std::string::npos) << what;
    EXPECT_NE(what.find("no valid checkpoint"), std::string::npos) << what;
  }
}

TEST_F(RecoveryDegenerate, CorruptNewestCheckpointFallsBackToOlderPlusWal) {
  const auto names = checkpoint_files();
  ASSERT_GE(names.size(), 2U);
  corrupt(std::string(kDir) + "/" + names.back());

  RecoveryInfo info;
  const auto service =
      Service::open(fast_options(), mem_durability(fs_), &info);
  // The corrupt file was diagnosed, the older checkpoint won, and the
  // WAL replay still reaches the exact final state.
  ASSERT_EQ(info.rejected_checkpoints.size(), 1U);
  EXPECT_NE(info.rejected_checkpoints[0].find(names.back()),
            std::string::npos);
  EXPECT_GT(info.replayed_batches, 0U);
  EXPECT_EQ(info.recovered_epoch, trace_.log.num_batches());
  EXPECT_EQ(service->query()->coreness, expected_);
}

TEST_F(RecoveryDegenerate, AllCheckpointsCorruptRefusesListingEachReason) {
  const auto names = checkpoint_files();
  for (const std::string& name : names) {
    corrupt(std::string(kDir) + "/" + name);
  }
  try {
    (void)Service::open(fast_options(), mem_durability(fs_));
    FAIL() << "expected util::IoError";
  } catch (const util::IoError& e) {
    const std::string what = e.what();
    for (const std::string& name : names) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
}

TEST_F(RecoveryDegenerate, CorruptWalTailIsTruncatedAndStateStaysExact) {
  fs_.append_file(std::string(kDir) + "/wal.log", "torn-half-record");
  fs_.sync_file(std::string(kDir) + "/wal.log");
  RecoveryInfo info;
  const auto service =
      Service::open(fast_options(), mem_durability(fs_), &info);
  EXPECT_EQ(info.torn_bytes_truncated, 16U);
  EXPECT_EQ(service->query()->coreness, expected_);
}

TEST_F(RecoveryDegenerate, DuplicateWalRecordsAreSkippedOnReplay) {
  // A retried append after a transient sync error leaves the same epoch
  // in the log twice; replay must apply it exactly once. The duplicate
  // has to sit PAST the newest checkpoint's epoch — records at or below
  // it are already cut away by the checkpoint's WAL offset filter.
  const std::string wal_path = std::string(kDir) + "/wal.log";
  Wal wal = Wal::open(fs_, wal_path, {});
  WalBatch next;
  next.epoch = trace_.log.num_batches() + 1;
  next.updates = {trace_.log.batch(1).begin(), trace_.log.batch(1).end()};
  wal.append(next);
  wal.append(next);  // the retry's second copy

  RecoveryInfo info;
  const auto service =
      Service::open(fast_options(), mem_durability(fs_), &info);
  EXPECT_EQ(info.skipped_duplicate_batches, 1U);
  EXPECT_EQ(info.replayed_batches, 1U);
  EXPECT_EQ(info.recovered_epoch, trace_.log.num_batches() + 1);
  EXPECT_EQ(service->query()->coreness,
            seq::coreness_bz(service->graph().snapshot()));
}

TEST_F(RecoveryDegenerate, WalEpochGapRefusesWithReason) {
  const std::string wal_path = std::string(kDir) + "/wal.log";
  Wal wal = Wal::open(fs_, wal_path, {});
  WalBatch future;
  future.epoch = 1000;
  wal.append(future);
  try {
    (void)Service::open(fast_options(), mem_durability(fs_));
    FAIL() << "expected util::IoError";
  } catch (const util::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("epoch gap"), std::string::npos)
        << e.what();
  }
}

TEST_F(RecoveryDegenerate, FreshDurableServiceRefusesADirtyDirectory) {
  try {
    Service service(trace_.base, fast_options(), mem_durability(fs_));
    FAIL() << "expected util::IoError";
  } catch (const util::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("already contains"),
              std::string::npos)
        << e.what();
  }
}

// --- the warm-restart argument, quantified ----------------------------------

TEST(Recovery, WarmRestartPaysFarFewerRelaxationsThanFromScratch) {
  const Graph g = gen::barabasi_albert(400, 4, 9);
  util::Xoshiro256 rng(21);
  UpdateLog log;
  for (int b = 0; b < 4; ++b) {
    std::vector<EdgeUpdate> batch;
    for (int i = 0; i < 5; ++i) {
      const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      batch.push_back(
          {rng.next_bool(0.5) ? EdgeOp::kInsert : EdgeOp::kRemove, u, v});
    }
    log.append_batch(std::move(batch));
  }

  util::MemStorage fs;
  DurabilityOptions durability;
  durability.dir = kDir;
  durability.storage = &fs;
  durability.checkpoint_every = 100;  // only the initial checkpoint: the
                                      // whole trace replays from the WAL
  std::uint64_t cold_relaxations = 0;
  {
    Service service(g, fast_options(), durability);
    cold_relaxations = service.initial_stats().relaxations;
    service.replay(log);
  }
  ASSERT_GE(cold_relaxations, g.num_nodes());

  fs.crash();
  RecoveryInfo info;
  const auto recovered = Service::open(fast_options(), durability, &info);
  EXPECT_EQ(info.replayed_batches, log.num_batches());
  // The headline number: recovery re-relaxes only the WAL tail's
  // neighborhoods, not the whole graph.
  EXPECT_LT(info.replay_relaxations, cold_relaxations / 4);
  EXPECT_EQ(recovered->initial_stats().relaxations, 0U);
  EXPECT_EQ(recovered->query()->coreness,
            seq::coreness_bz(recovered->graph().snapshot()));
}

TEST(Recovery, CurrentCheckpointMeansZeroReplay) {
  const Trace trace = make_trace(2, 1);
  util::MemStorage fs;
  {
    Service service(trace.base, fast_options(), mem_durability(fs));
    for (std::size_t b = 0; b < trace.log.num_batches(); ++b) {
      service.apply(trace.log.batch(b));
    }
    service.checkpoint();  // pin the final epoch
  }
  fs.crash();
  RecoveryInfo info;
  const auto service =
      Service::open(fast_options(), mem_durability(fs), &info);
  EXPECT_EQ(info.replayed_batches, 0U);
  EXPECT_EQ(info.replay_relaxations, 0U);
  EXPECT_EQ(info.recovered_epoch, trace.log.num_batches());
  EXPECT_EQ(service->query()->coreness, expected_final_coreness(trace));
}

}  // namespace
}  // namespace kcore::live
