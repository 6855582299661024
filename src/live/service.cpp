#include "live/service.h"

#include <algorithm>
#include <map>
#include <utility>

#include "obs/options.h"
#include "util/ticker.h"

namespace kcore::live {

using graph::NodeId;

namespace {

util::Storage& resolve_storage(const DurabilityOptions& durability) {
  return durability.storage != nullptr ? *durability.storage
                                       : util::real_storage();
}

std::string wal_path_of(const std::string& dir) { return dir + "/wal.log"; }

WalOptions wal_options_of(const DurabilityOptions& durability) {
  return WalOptions{durability.fsync, durability.fsync_every};
}

}  // namespace

Service::Service(const graph::Graph& initial, const ServiceOptions& options)
    : options_(options),
      graph_(initial),
      engine_(graph_, RepairOptions{options.threads, options.sched,
                                    options.targeted_send}) {
  setup_metrics();
  initial_stats_ = engine_.initialize();
  if (registry_) {
    registry_->add(c_repairs_, kWriterSlot, 1);
    registry_->add(c_relaxations_, kWriterSlot, initial_stats_.relaxations);
    registry_->add(c_seeded_, kWriterSlot, initial_stats_.seeded);
  }
  publish();  // epoch 0: the initial converged table
}

Service::Service(const graph::Graph& initial, const ServiceOptions& options,
                 const DurabilityOptions& durability)
    : options_(options),
      durability_(durability),
      graph_(initial),
      engine_(graph_, RepairOptions{options.threads, options.sched,
                                    options.targeted_send}) {
  KCORE_CHECK_MSG(!durability.dir.empty(),
                  "DurabilityOptions::dir must be set for a durable Service");
  storage_ = &resolve_storage(durability);
  storage_->make_dir(durability_.dir);
  // Refuse to start fresh over existing state: silently re-initializing
  // would orphan a recoverable history. The operator either recovers
  // (Service::open / --recover) or points at an empty directory.
  for (const std::string& name : storage_->list_dir(durability_.dir)) {
    if (name == "wal.log" || name.find("checkpoint") == 0) {
      throw util::IoError(durability_.dir + ": already contains service state (" +
                          name +
                          ") — recover it with --recover, or use an empty "
                          "directory for a fresh service");
    }
  }

  setup_metrics();
  initial_stats_ = engine_.initialize();
  if (registry_) {
    registry_->add(c_repairs_, kWriterSlot, 1);
    registry_->add(c_relaxations_, kWriterSlot, initial_stats_.relaxations);
    registry_->add(c_seeded_, kWriterSlot, initial_stats_.seeded);
  }
  publish();  // epoch 0
  // WAL first (its epoch mark pins the base), then the initial
  // checkpoint pointing at the WAL's durable end. A crash between the
  // two leaves wal.log without a checkpoint, which open() reports as
  // unrecoverable-with-reason — the operator re-creates the fresh dir.
  wal_.emplace(Wal::create(*storage_, wal_path_of(durability_.dir),
                           /*epoch=*/0, wal_options_of(durability_)));
  write_checkpoint_now();
}

Service::Service(RecoveryTag, CheckpointData&& ckpt,
                 const ServiceOptions& options,
                 const DurabilityOptions& durability)
    : options_(options),
      durability_(durability),
      graph_(graph::Graph::from_edges(ckpt.num_nodes, ckpt.edges)),
      engine_(graph_, RepairOptions{options.threads, options.sched,
                                    options.targeted_send}) {
  storage_ = &resolve_storage(durability);
  setup_metrics();
  // The checkpointed table is exact for the checkpointed topology, so
  // recovery pays ZERO up-front relaxations (vs initialize()'s full
  // convergence) — the paper's warm-restart argument, in one call.
  engine_.warm_start(ckpt.coreness);
  initial_stats_ = RepairStats{};
  epoch_ = ckpt.epoch;
  publish();  // re-publish the checkpointed epoch verbatim
}

Service::~Service() = default;

std::unique_ptr<Service> Service::open(const ServiceOptions& options,
                                       const DurabilityOptions& durability,
                                       RecoveryInfo* info) {
  if (durability.dir.empty()) {
    throw util::IoError(
        "recovery requires a state directory (DurabilityOptions::dir)");
  }
  util::Storage& storage = resolve_storage(durability);
  const std::string& dir = durability.dir;
  if (!storage.exists(dir)) {
    throw util::IoError(dir + ": state directory does not exist");
  }

  RecoveryInfo local_info;
  RecoveryInfo& ri = info != nullptr ? *info : local_info;

  CheckpointLoadResult loaded = load_latest_checkpoint(storage, dir);
  ri.rejected_checkpoints = loaded.rejected;
  const std::string wal_path = wal_path_of(dir);
  if (!loaded.data.has_value()) {
    std::string msg = dir + ": no valid checkpoint to recover from";
    for (const std::string& r : loaded.rejected) msg += "; " + r;
    if (storage.exists(wal_path)) {
      msg += "; wal.log is present but a WAL alone has no base topology";
    }
    msg += " — start a fresh durable service to create one";
    throw util::IoError(msg);
  }
  CheckpointData ckpt = std::move(*loaded.data);
  ri.checkpoint_file = loaded.file;
  ri.checkpoint_epoch = ckpt.epoch;

  // Scan the WAL (from 0: validates the epoch mark, so a foreign or
  // mismatched log is refused instead of replayed onto the wrong base).
  std::vector<WalBatch> tail;
  const bool have_wal = storage.exists(wal_path);
  if (have_wal) {
    WalReadResult scan = Wal::read(storage, wal_path, 0);
    if (!scan.has_start_mark) {
      throw util::IoError(wal_path +
                          ": missing epoch mark at offset 0 — not a WAL this "
                          "service wrote (or its head is corrupt)");
    }
    if (scan.start_epoch > ckpt.epoch) {
      throw util::IoError(
          wal_path + ": WAL base epoch " + std::to_string(scan.start_epoch) +
          " is newer than checkpoint epoch " + std::to_string(ckpt.epoch) +
          " — mismatched state files in " + dir);
    }
    if (ckpt.wal_offset > scan.valid_end) {
      throw util::IoError(
          wal_path + ": checkpoint references WAL offset " +
          std::to_string(ckpt.wal_offset) + " but only " +
          std::to_string(scan.valid_end) +
          " bytes are valid — the WAL lost synced data (state inconsistent)");
    }
    ri.torn_bytes_truncated = scan.torn_bytes;
    for (WalBatch& b : scan.batches) {
      if (b.epoch > ckpt.epoch) tail.push_back(std::move(b));
    }
  }

  std::unique_ptr<Service> service(
      new Service(RecoveryTag{}, std::move(ckpt), options, durability));

  if (have_wal) {
    service->wal_.emplace(Wal::open(storage, wal_path,
                                    wal_options_of(durability), nullptr));
  } else {
    // Checkpoint-only directory (WAL lost or deleted): the checkpoint is
    // a complete state, so recover from it and start a fresh log.
    service->wal_.emplace(Wal::create(storage, wal_path, ri.checkpoint_epoch,
                                      wal_options_of(durability)));
  }

  // Replay the tail through the normal apply() path — idempotent by
  // epoch: duplicates (a retried append after a transient I/O error)
  // are skipped, gaps are refused.
  service->replaying_ = true;
  for (const WalBatch& b : tail) {
    if (b.epoch < service->epoch_) {
      ++ri.skipped_duplicate_batches;
      continue;
    }
    if (b.epoch > service->epoch_) {
      service->replaying_ = false;
      throw util::IoError(wal_path + ": WAL epoch gap — expected a record for epoch " +
                          std::to_string(service->epoch_) + ", found epoch " +
                          std::to_string(b.epoch) +
                          " (records lost between checkpoints?)");
    }
    ApplyResult r = service->apply(b.updates);
    ++ri.replayed_batches;
    ri.replay_relaxations += r.repair.relaxations;
  }
  service->replaying_ = false;
  service->batches_since_checkpoint_ = ri.replayed_batches;
  if (durability.checkpoint_every > 0 &&
      service->batches_since_checkpoint_ >= durability.checkpoint_every) {
    service->write_checkpoint_now();
  }
  ri.recovered_epoch = service->epoch_ - 1;
  return service;
}

void Service::setup_metrics() {
  if (!(obs::kEnabled && options_.metrics)) return;
  // Three single-writer lanes — see the slot constants in service.h.
  registry_ = std::make_unique<obs::Registry>(3);
  c_repairs_ = registry_->counter("live.repairs");
  c_epochs_ = registry_->counter("live.epoch_publishes");
  c_relaxations_ = registry_->counter("live.relaxations");
  c_seeded_ = registry_->counter("live.seeded_nodes");
  c_raised_ = registry_->counter("live.raised_nodes");
  c_order_rebuilds_ = registry_->counter("live.order_rebuilds");
  c_rejected_ = registry_->counter("live.rejected_updates");
  c_wal_batches_ = registry_->counter("live.wal_batches");
  c_wal_bytes_ = registry_->counter("live.wal_bytes");
  c_checkpoints_ = registry_->counter("live.checkpoints");
  c_checkpoint_failures_ = registry_->counter("live.checkpoint_failures");
  c_provisional_ = registry_->counter("live.provisional_publishes");
  c_overload_ = registry_->counter("live.overload_rejects");
}

std::shared_ptr<const Snapshot> Service::query() const {
  const std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

std::uint64_t Service::epoch() const { return query()->epoch; }

void Service::publish() {
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->epoch = epoch_;
  snapshot->topology_version = graph_.version();
  snapshot->num_nodes = graph_.num_nodes();
  snapshot->num_edges = graph_.num_edges();
  engine_.copy_coreness(snapshot->coreness);
  {
    const std::lock_guard<std::mutex> lock(snapshot_mutex_);
    snapshot_ = std::move(snapshot);
  }
  ++epoch_;
  if (registry_) registry_->add(c_epochs_, kWriterSlot, 1);
}

void Service::publish_provisional() {
  // Mid-repair: the estimate table is a sound upper bound (insertions
  // leave it exact before workers start; relaxation only moves estimates
  // DOWN), so handing it out keeps readers fresh without breaking
  // Theorem 1.
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->epoch = epoch_;  // the PENDING epoch; finalized by publish()
  snapshot->topology_version = graph_.version();
  snapshot->num_nodes = graph_.num_nodes();
  snapshot->num_edges = graph_.num_edges();
  snapshot->provisional = true;
  engine_.copy_coreness(snapshot->coreness);
  {
    const std::lock_guard<std::mutex> lock(snapshot_mutex_);
    snapshot_ = std::move(snapshot);
  }
  if (registry_) registry_->add(c_provisional_, kWatchdogSlot, 1);
}

RepairStats Service::repair_with_watchdog(
    std::uint64_t& provisional_publishes) {
  provisional_publishes = 0;
  if (options_.provisional_deadline_ms == 0 || !engine_.has_pending()) {
    return engine_.repair();
  }
  // Still repairing past each deadline: push a provisional snapshot. The
  // tick runs under the Ticker's mutex and stop() waits it out, so the
  // final publish, after stop(), always lands last. If repair() throws,
  // the Ticker's destructor joins it.
  util::Ticker watchdog(static_cast<double>(options_.provisional_deadline_ms),
                        [this, &provisional_publishes] {
                          publish_provisional();
                          ++provisional_publishes;
                        });
  watchdog.start();
  RepairStats stats = engine_.repair();
  watchdog.stop();
  return stats;
}

ApplyResult Service::apply(std::span<const graph::EdgeUpdate> batch) {
  ApplyResult result;

  // WRITE-AHEAD: durable mode appends the raw batch (under the epoch it
  // will publish) before any mutation. An IoError here leaves the
  // service fully consistent at the previous epoch. Recovery replay
  // skips this — the records are already in the log.
  if (wal_ && !replaying_) {
    result.wal_bytes = wal_->append(
        WalBatch{epoch_, std::vector<graph::EdgeUpdate>(batch.begin(),
                                                        batch.end())});
  }

  // Net topology effect: the LAST op per edge decides (the same final
  // topology as applying the updates in order); transient churn inside
  // the batch is ignored. Out-of-range ids are rejected instead of
  // KCORE_CHECK-ing — a service survives garbage input.
  const NodeId n = graph_.num_nodes();
  std::map<std::pair<NodeId, NodeId>, bool> final_present;
  std::uint64_t valid = 0;
  for (const graph::EdgeUpdate& update : batch) {
    NodeId u = update.u;
    NodeId v = update.v;
    if (u >= n || v >= n) {
      ++result.rejected_updates;
      continue;
    }
    if (u == v) {
      ++result.ignored_updates;
      continue;
    }
    if (u > v) std::swap(u, v);
    final_present[{u, v}] = update.op == graph::EdgeOp::kInsert;
    ++valid;
  }

  // Insertions first: each one runs against a table that is exact for
  // the graph-so-far and leaves it exact, so the single repair below
  // only has the deletions to relax — see live/repair.h.
  for (const auto& [edge, present] : final_present) {
    if (!present || graph_.has_edge(edge.first, edge.second)) continue;
    graph_.apply({graph::EdgeOp::kInsert, edge.first, edge.second});
    engine_.note_insert(edge.first, edge.second);
    ++result.applied_inserts;
  }
  for (const auto& [edge, present] : final_present) {
    if (present || !graph_.has_edge(edge.first, edge.second)) continue;
    graph_.apply({graph::EdgeOp::kRemove, edge.first, edge.second});
    engine_.note_remove(edge.first, edge.second);
    ++result.applied_removes;
  }
  result.ignored_updates +=
      valid - result.applied_inserts - result.applied_removes;

  result.repair = repair_with_watchdog(result.provisional_publishes);
  publish();
  result.epoch = epoch_ - 1;

  // Checkpoint cadence. A failed checkpoint degrades instead of
  // killing the apply: the WAL has the batch, the counter records the
  // failure, and the next apply retries (batches_since_checkpoint_ is
  // only reset on success). A CrashPoint (simulated power cut in
  // tests) is NOT caught — it must unwind like the real thing.
  if (wal_ && !replaying_) {
    ++batches_since_checkpoint_;
    if (durability_.checkpoint_every > 0 &&
        batches_since_checkpoint_ >= durability_.checkpoint_every) {
      try {
        write_checkpoint_now();
        result.checkpointed = true;
      } catch (const util::IoError&) {
        result.checkpoint_failed = true;
        if (registry_) registry_->add(c_checkpoint_failures_, kWriterSlot, 1);
      }
    }
  }

  if (registry_) {
    if (result.repair.seeded > 0) registry_->add(c_repairs_, kWriterSlot, 1);
    registry_->add(c_relaxations_, kWriterSlot, result.repair.relaxations);
    registry_->add(c_seeded_, kWriterSlot, result.repair.seeded);
    registry_->add(c_raised_, kWriterSlot, result.repair.raised);
    registry_->add(c_order_rebuilds_, kWriterSlot,
                   result.repair.order_rebuilds);
    registry_->add(c_rejected_, kWriterSlot, result.rejected_updates);
    if (result.wal_bytes > 0) {
      registry_->add(c_wal_batches_, kWriterSlot, 1);
      registry_->add(c_wal_bytes_, kWriterSlot, result.wal_bytes);
    }
  }
  return result;
}

std::vector<ApplyResult> Service::replay(const UpdateLog& log) {
  std::vector<ApplyResult> results;
  results.reserve(log.num_batches());
  for (std::size_t i = 0; i < log.num_batches(); ++i) {
    results.push_back(apply(log.batch(i)));
  }
  return results;
}

std::vector<graph::Edge> Service::collect_edges() const {
  std::vector<graph::Edge> edges;
  edges.reserve(graph_.num_edges());
  const NodeId n = graph_.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId v : graph_.neighbors(u)) {
      if (u < v) edges.push_back({u, v});
    }
  }
  return edges;
}

void Service::write_checkpoint_now() {
  KCORE_CHECK(wal_.has_value());
  // Barrier: the WAL must be durable up to the offset the checkpoint
  // records, or a crash could leave a checkpoint pointing past the log.
  wal_->sync();
  CheckpointData data;
  data.epoch = epoch_ - 1;  // last PUBLISHED epoch
  data.wal_offset = wal_->end_offset();
  data.num_nodes = graph_.num_nodes();
  data.edges = collect_edges();
  engine_.copy_coreness(data.coreness);
  write_checkpoint(*storage_, durability_.dir, data,
                   durability_.keep_checkpoints);
  batches_since_checkpoint_ = 0;
  if (registry_) registry_->add(c_checkpoints_, kWriterSlot, 1);
}

void Service::checkpoint() {
  KCORE_CHECK_MSG(wal_.has_value(),
                  "checkpoint() requires a durable Service (set "
                  "DurabilityOptions::dir)");
  write_checkpoint_now();
}

void Service::note_overload_reject(std::uint64_t n) {
  if (registry_) registry_->add(c_overload_, kIngressSlot, n);
}

obs::MetricsSnapshot Service::metrics() const {
  if (!registry_) return {};
  return registry_->snapshot();
}

}  // namespace kcore::live
