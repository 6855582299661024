// Workloads `churn-insert` and `churn-delete-durable`: a live::Service
// under edge churn, driven by one closed-loop writer.
//
//  * churn-insert: amazon-like, batches of one update (90% inserts of
//    absent pairs with uniform endpoints, 10% deletes of uniform current
//    edges), durability off. Almost all the work is the insertion-region
//    search (RepairEngine::note_insert).
//  * churn-delete-durable: slashdot-like, batches of 256 deletes of
//    uniform current edges, WAL fsync'd every batch on real storage,
//    checkpoint every 64 batches, one open-loop reader calling query()
//    every 500 us. After each round the service is dropped and
//    Service::open recovers it. This path never calls note_insert.
//
// The run is split into rounds. Each round builds the graph and the
// Service afresh (one setup_s sample), applies batches until its share of
// the time budget is spent (or, for deletes, a quarter of the starting
// edges is gone), and ends with oracle checks. Coreness is checked
// against `bz` over the benchmark's own copy of the edge set every
// `check_every` batches, after the last batch, and after recovery.
//
// The traced run (--trace 1) replays each round's exact batch stream a
// second time through a harness that calls the live layer's public
// functions in the order Service::apply does (WAL append, coalesce,
// LiveGraph::apply + note_insert/note_remove, repair, publish,
// checkpoint), with a span around each call on every other batch, then
// times the recovery steps (checkpoint load, WAL scan, rebuild, replay)
// the same way. The harness must end with the same coreness as the
// Service.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench.h"
#include "eval/datasets.h"
#include "graph/edge_list.h"
#include "graph/graph.h"
#include "live/checkpoint.h"
#include "live/live_graph.h"
#include "live/repair.h"
#include "live/service.h"
#include "live/wal.h"
#include "seq/kcore_seq.h"
#include "timing_storage.h"
#include "util/rng.h"
#include "util/storage.h"

namespace kbench {

namespace fs = std::filesystem;
namespace live = kcore::live;
using kcore::graph::Edge;
using kcore::graph::EdgeOp;
using kcore::graph::EdgeUpdate;
using kcore::graph::Graph;
using kcore::graph::NodeId;
using Batch = std::vector<EdgeUpdate>;

namespace {

struct ChurnConfig {
  const char* profile;
  std::size_t batch_size;
  double insert_frac;
  bool durable;
  bool reader;
  std::uint64_t check_every;     // batches between oracle checks
  double max_removed_frac;       // end a round once this share is gone
  // Gauge graph (GaugeGraph::generate, nodes scaled like the dataset) and
  // the reference-kernel time on it that end-to-end times are normalised
  // to at the default scale.
  double gauge_nodes;
  std::uint32_t gauge_degree;
  double gauge_rewire;
  double nominal_reference_ms;
};

constexpr std::uint64_t kCheckpointEvery = 64;
constexpr unsigned kKeepCheckpoints = 2;
constexpr auto kReaderPeriod = std::chrono::microseconds(500);
constexpr double kDefaultScale = 1.0;
/// The fixed cost charged per fsync in durable end-to-end times, in place
/// of the measured one: the shared disk's fsync latency drifts fivefold
/// within an hour (0.19 -> 1.2 ms) independently of the program, but the
/// number of fsyncs is the program's doing. The value is the typical
/// latency measured on the benchmark host (4-vCPU Xeon VM, virtual disk).
constexpr double kNominalSyncMs = 0.2;
/// Seed of the gauge graph (fixed: the yardstick must not depend on --seed).
constexpr std::uint64_t kGaugeSeed = 9;
// Rounds split the time budget (deletes may end them early); each round is
// one SpeedGauge segment.
constexpr int kRounds = 10;

ChurnConfig config_of(const std::string& workload) {
  if (workload == "churn-insert") {
    return {"amazon-like", 1, 0.9, false, false, 16, 1.0,
            36000, 10, 0.02, 2.8};
  }
  if (workload == "churn-delete-durable") {
    return {"slashdot-like", 256, 0.0, true, true, 64, 0.25,
            22000, 14, 1.0, 2.8};
  }
  throw std::invalid_argument("unknown churn workload " + workload);
}

/// The benchmark's own copy of the topology: the update generator draws
/// from it and the oracle rebuilds a CSR graph from it.
class EdgeSet {
 public:
  explicit EdgeSet(const Graph& g) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (const NodeId v : g.neighbors(u)) {
        if (u < v) insert(u, v);
      }
    }
  }
  [[nodiscard]] bool contains(NodeId u, NodeId v) const {
    return index_.count(key(u, v)) != 0;
  }
  void insert(NodeId u, NodeId v) {
    if (u > v) std::swap(u, v);
    index_.emplace(key(u, v), edges_.size());
    edges_.push_back({u, v});
  }
  Edge remove_at(std::size_t i) {
    const Edge e = edges_[i];
    index_.erase(key(e.u, e.v));
    if (i + 1 != edges_.size()) {
      edges_[i] = edges_.back();
      index_[key(edges_[i].u, edges_[i].v)] = i;
    }
    edges_.pop_back();
    return e;
  }
  [[nodiscard]] std::size_t size() const { return edges_.size(); }
  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }

 private:
  static std::uint64_t key(NodeId u, NodeId v) {
    if (u > v) std::swap(u, v);
    return (std::uint64_t{u} << 32) | v;
  }
  std::vector<Edge> edges_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
};

/// Draws the next batch and applies it to `edges`. Every update is a net
/// change: inserts pick absent pairs, deletes pick distinct present edges.
Batch next_batch(const ChurnConfig& cfg, NodeId n, EdgeSet& edges,
                 kcore::util::Xoshiro256& rng) {
  Batch batch;
  batch.reserve(cfg.batch_size);
  while (batch.size() < cfg.batch_size) {
    const bool insert = static_cast<double>(rng.next_below(1000000)) <
                        cfg.insert_frac * 1000000.0;
    if (insert || edges.size() == 0) {
      NodeId u = 0;
      NodeId v = 0;
      do {
        u = static_cast<NodeId>(rng.next_below(n));
        v = static_cast<NodeId>(rng.next_below(n));
      } while (u == v || edges.contains(u, v));
      edges.insert(u, v);
      batch.push_back({EdgeOp::kInsert, u, v});
    } else {
      const Edge e = edges.remove_at(rng.next_below(edges.size()));
      batch.push_back({EdgeOp::kRemove, e.u, e.v});
    }
  }
  return batch;
}

/// Net effect of a batch, as Service::apply coalesces it: the last op per
/// edge decides; self-loops and out-of-range ids drop out.
using NetBatch = std::map<std::pair<NodeId, NodeId>, bool>;  // edge -> present
NetBatch coalesce(const Batch& batch, NodeId n) {
  NetBatch net;
  for (const EdgeUpdate& update : batch) {
    const auto [u, v] = std::minmax(update.u, update.v);
    if (u != v && v < n) net[{u, v}] = update.op == EdgeOp::kInsert;
  }
  return net;
}

/// `bz` over the oracle's edge set; adds its time to `bz_ms` and times
/// the reference kernel once.
std::vector<NodeId> oracle_coreness(NodeId n, const EdgeSet& edges,
                                    Samples& bz_ms, SpeedGauge& gauge) {
  const Graph g = Graph::from_edges(n, edges.edges());
  const auto start = Clock::now();
  std::vector<NodeId> coreness = kcore::seq::coreness_bz(g);
  bz_ms.add(ms_since(start));
  gauge.time();
  return coreness;
}

/// One open-loop reader: calls query() plus one coreness read on a fixed
/// schedule. The call's duration and the lateness of its start against
/// the schedule are recorded separately (timer wake-up would otherwise
/// swamp a sub-microsecond call).
class Reader {
 public:
  Reader(const live::Service& service, NodeId n, std::uint64_t seed)
      : service_(service), n_(n), rng_(seed), thread_([this] { loop(); }) {}
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;
  ~Reader() { stop(); }

  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }

  Samples query_us;
  Samples late_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  void loop() {
    auto due = Clock::now();
    std::uint64_t last_epoch = 0;
    std::uint64_t sink = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
      due += kReaderPeriod;
      std::this_thread::sleep_until(due);
      const auto start = Clock::now();
      ++attempted;
      try {
        const auto snapshot = service_.query();
        const auto node = static_cast<NodeId>(rng_.next_below(n_));
        if (!snapshot || snapshot->epoch < last_epoch ||
            snapshot->coreness.size() != n_) {
          ++failed;
          continue;
        }
        sink += snapshot->coreness[node];
        last_epoch = snapshot->epoch;
      } catch (const std::exception&) {
        ++failed;
        continue;
      }
      query_us.add(us_since(start));
      late_us.add(std::chrono::duration<double, std::micro>(start - due)
                      .count());
    }
    sink_ = sink;
  }

  const live::Service& service_;
  NodeId n_;
  kcore::util::Xoshiro256 rng_;
  std::atomic<bool> stop_{false};
  std::uint64_t sink_ = 0;
  std::thread thread_;  // last: starts once every member it reads exists
};

/// Per-batch phase timings of the traced batches, in microseconds.
struct PhaseSamples {
  Samples wal_append;
  Samples coalesce;
  Samples graph_apply;
  Samples note_insert;
  Samples note_remove;
  Samples repair;
  Samples publish;
  Samples phase_sum;  // every phase above, per batch
  // The whole batch before any checkpoint, with spans (traced) and
  // without (the other half of the harness's batches).
  Samples batch_wall_traced;
  Samples batch_wall_untraced;
  Samples checkpoint_ms;
  Samples checkpoint_bytes;
  double inserts = 0;
  double raised = 0;
  double seeded = 0;
  double relaxations = 0;
  Samples steals;
  Samples detector_passes;
  Samples recovery_checkpoint_load_ms;
  Samples recovery_wal_read_ms;
  Samples recovery_rebuild_ms;
  Samples recovery_replay_ms;
  Samples recovery_wal_bytes;
};

/// Calls the live layer's public functions in the order Service::apply
/// does, with a span around each call when a batch is traced.
class TracedHarness {
 public:
  TracedHarness(const Graph& initial, const live::RepairOptions& options,
                std::string dir, Tracer& tracer, PhaseSamples& out)
      : graph_(initial),
        engine_(graph_, options),
        dir_(std::move(dir)),
        tracer_(tracer),
        out_(out) {
    engine_.initialize();
    epoch_ = 1;  // epoch 0 is the initial table, as in Service
    if (!dir_.empty()) {
      storage_.make_dir(dir_);
      wal_.emplace(live::Wal::create(storage_, dir_ + "/wal.log", 0,
                                     live::WalOptions{}));
      checkpoint();
    }
  }

  /// Applies one batch. An untraced batch makes the same calls without
  /// spans or phase timing; it serves as the baseline of
  /// trace.overhead_frac.
  void apply(const Batch& batch, bool traced) {
    const auto wall_start = Clock::now();
    std::uint32_t root = 0;
    if (traced) root = tracer_.begin("live.apply");
    double wal_us = 0;
    double graph_us = 0;
    double insert_us = 0;
    double remove_us = 0;
    if (wal_) {
      wal_us = phase(traced, "live.Wal::append",
                     [&] { wal_->append(live::WalBatch{epoch_, batch}); });
    }
    NetBatch final_present;
    const double coalesce_us = phase(traced, "live.coalesce", [&] {
      final_present = coalesce(batch, graph_.num_nodes());
    });
    live::RepairStats stats;
    for (const auto& [edge, present] : final_present) {
      if (!present || graph_.has_edge(edge.first, edge.second)) continue;
      graph_us += phase(traced, "live.LiveGraph::apply", [&] {
        graph_.apply({EdgeOp::kInsert, edge.first, edge.second});
      });
      insert_us += phase(traced, "live.RepairEngine::note_insert",
                         [&] { engine_.note_insert(edge.first, edge.second); });
      out_.inserts += 1;
    }
    for (const auto& [edge, present] : final_present) {
      if (present || !graph_.has_edge(edge.first, edge.second)) continue;
      graph_us += phase(traced, "live.LiveGraph::apply", [&] {
        graph_.apply({EdgeOp::kRemove, edge.first, edge.second});
      });
      remove_us += phase(traced, "live.RepairEngine::note_remove",
                         [&] { engine_.note_remove(edge.first, edge.second); });
    }
    const double repair_us = phase(traced, "live.RepairEngine::repair",
                                   [&] { stats = engine_.repair(); });
    const double publish_us = phase(traced, "live.publish", [&] {
      auto snapshot = std::make_shared<live::Snapshot>();
      snapshot->epoch = epoch_;
      snapshot->topology_version = graph_.version();
      snapshot->num_nodes = graph_.num_nodes();
      snapshot->num_edges = graph_.num_edges();
      engine_.copy_coreness(snapshot->coreness);
      published_ = std::move(snapshot);
      ++epoch_;
    });
    (traced ? out_.batch_wall_traced : out_.batch_wall_untraced)
        .add(us_since(wall_start));
    if (wal_ && ++since_checkpoint_ >= kCheckpointEvery) {
      const auto start = Clock::now();
      phase(traced, "live.checkpoint", [&] { checkpoint(); });
      out_.checkpoint_ms.add(ms_since(start));
    }
    if (traced) tracer_.end(root);

    out_.raised += static_cast<double>(stats.raised);
    out_.seeded += static_cast<double>(stats.seeded);
    out_.relaxations += static_cast<double>(stats.relaxations);
    out_.steals.add(static_cast<double>(stats.steals));
    out_.detector_passes.add(static_cast<double>(stats.detector_passes));
    if (!traced) return;
    out_.wal_append.add(wal_us);
    out_.coalesce.add(coalesce_us);
    out_.graph_apply.add(graph_us);
    out_.note_insert.add(insert_us);
    out_.note_remove.add(remove_us);
    out_.repair.add(repair_us);
    out_.publish.add(publish_us);
    out_.phase_sum.add(wal_us + coalesce_us + graph_us + insert_us +
                       remove_us + repair_us + publish_us);
  }

  [[nodiscard]] std::vector<NodeId> coreness() const {
    std::vector<NodeId> out;
    engine_.copy_coreness(out);
    return out;
  }

  /// Times the recovery steps Service::open performs over this harness's
  /// state directory and returns the recovered coreness. The harness
  /// itself is left untouched.
  std::vector<NodeId> recover() {
    auto s = tracer_.begin("live.load_latest_checkpoint");
    live::CheckpointLoadResult loaded =
        live::load_latest_checkpoint(storage_, dir_);
    out_.recovery_checkpoint_load_ms.add(tracer_.end(s) / 1000.0);
    if (!loaded.data) throw std::runtime_error("harness: no checkpoint");
    live::CheckpointData& ckpt = *loaded.data;

    s = tracer_.begin("live.Wal::read");
    const live::WalReadResult scan =
        live::Wal::read(storage_, dir_ + "/wal.log", 0);
    out_.recovery_wal_read_ms.add(tracer_.end(s) / 1000.0);
    out_.recovery_wal_bytes.add(static_cast<double>(scan.valid_end));

    s = tracer_.begin("live.recovery.rebuild");
    live::LiveGraph graph(Graph::from_edges(ckpt.num_nodes, ckpt.edges));
    live::RepairEngine engine(graph,
                              live::RepairOptions{engine_.workers(),
                                                  engine_.sched(), true});
    engine.warm_start(ckpt.coreness);
    out_.recovery_rebuild_ms.add(tracer_.end(s) / 1000.0);

    s = tracer_.begin("live.recovery.replay");
    for (const live::WalBatch& b : scan.batches) {
      if (b.epoch <= ckpt.epoch) continue;
      const NetBatch final_present = coalesce(b.updates, graph.num_nodes());
      for (const auto& [edge, present] : final_present) {
        if (!present || graph.has_edge(edge.first, edge.second)) continue;
        graph.apply({EdgeOp::kInsert, edge.first, edge.second});
        engine.note_insert(edge.first, edge.second);
      }
      for (const auto& [edge, present] : final_present) {
        if (present || !graph.has_edge(edge.first, edge.second)) continue;
        graph.apply({EdgeOp::kRemove, edge.first, edge.second});
        engine.note_remove(edge.first, edge.second);
      }
      engine.repair();
    }
    out_.recovery_replay_ms.add(tracer_.end(s) / 1000.0);
    std::vector<NodeId> coreness;
    engine.copy_coreness(coreness);
    return coreness;
  }

 private:
  /// Runs `call`; when traced, inside a span whose duration (us) it
  /// returns, else untimed (returns 0).
  template <typename F>
  double phase(bool traced, const char* name, F&& call) {
    if (!traced) {
      call();
      return 0.0;
    }
    const std::uint32_t span = tracer_.begin(name);
    call();
    return tracer_.end(span);
  }

  void checkpoint() {
    wal_->sync();
    live::CheckpointData data;
    data.epoch = epoch_ - 1;
    data.wal_offset = wal_->end_offset();
    data.num_nodes = graph_.num_nodes();
    data.edges.reserve(graph_.num_edges());
    for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
      for (const NodeId v : graph_.neighbors(u)) {
        if (u < v) data.edges.push_back({u, v});
      }
    }
    engine_.copy_coreness(data.coreness);
    const std::string file =
        live::write_checkpoint(storage_, dir_, data, kKeepCheckpoints);
    out_.checkpoint_bytes.add(static_cast<double>(storage_.file_size(file)));
    since_checkpoint_ = 0;
  }

  kcore::util::Storage& storage_ = kcore::util::real_storage();
  live::LiveGraph graph_;
  live::RepairEngine engine_;
  std::string dir_;
  Tracer& tracer_;
  PhaseSamples& out_;
  std::optional<live::Wal> wal_;
  std::shared_ptr<const live::Snapshot> published_;
  std::uint64_t epoch_ = 0;
  std::uint64_t since_checkpoint_ = 0;
};

/// Everything one run accumulates over its rounds.
struct ChurnTotals {
  Samples setup_s;  // raw wall times
  Samples build_ms;
  Samples init_ms;
  Samples apply_ms;
  Samples bz_ms;
  Samples setup_norm;  // scaled by the round's factor, fsyncs at nominal cost
  Samples apply_norm;
  Samples bz_norm;
  Samples recover_ms;
  Samples replayed_batches;
  Samples query_us;
  Samples late_us;
  double nodes = 0;
  double updates = 0;
  double batches = 0;
  double rounds = 0;
  // storage decorator counters, split into apply and recovery
  double syncs_apply = 0;
  double busy_us_apply = 0;
  double bytes_written_apply = 0;
  double bytes_read_recovery = 0;
  Samples sync_us;
  PhaseSamples phases;
};

}  // namespace

Result run_churn(const Options& o) {
  const ChurnConfig cfg = config_of(o.workload);
  const auto& spec = kcore::eval::dataset_by_name(cfg.profile);
  const double scale = o.scale > 0 ? o.scale : kDefaultScale;
  const unsigned repair_threads = std::max(1u, nproc() - 1);
  Result result;
  Tracer tracer;
  SpeedGauge gauge(
      GaugeGraph::generate(static_cast<std::uint32_t>(cfg.gauge_nodes * scale),
                           cfg.gauge_degree, cfg.gauge_rewire, kGaugeSeed),
      cfg.nominal_reference_ms * scale / kDefaultScale);
  // Durable runs wait in fsync for part of each apply, and the disk's
  // fsync latency drifts independently of the program. End-to-end times
  // therefore replace the measured time inside sync_file (the storage
  // decorator measures it) by kNominalSyncMs per fsync, and scale the rest
  // by the host-speed factor; the storage work itself is reported per
  // layer (storage.*).
  ChurnTotals t;
  // A wall time in ms with its measured fsync time swapped for the nominal
  // cost, scaled by the segment factor `f`.
  auto normalised_ms = [](double wall_ms, double sync_ms, double syncs,
                          double f) {
    return (wall_ms - sync_ms) * f + syncs * kNominalSyncMs;
  };
  TimingStorage timing(kcore::util::real_storage());

  live::ServiceOptions service_options;
  service_options.threads = repair_threads;

  // An oracle check: the service's current snapshot against `bz`.
  Samples round_bz;
  auto check = [&](const live::Service& service, NodeId n,
                   const EdgeSet& edges) {
    ++result.attempted;
    const auto snapshot = service.query();
    const std::vector<NodeId> expected =
        oracle_coreness(n, edges, round_bz, gauge);
    if (!snapshot || snapshot->num_edges != edges.size() ||
        snapshot->coreness != expected) {
      ++result.failed;
    }
  };

  // The budget covers whole rounds: set-up, batches, checks, recovery
  // and, in the traced run, the harness replay (about half of each round).
  const double budget_ms = o.seconds * 1000.0;
  double measured_ms = 0;
  for (int round = 0; measured_ms < budget_ms; ++round) {
    const auto round_begin = Clock::now();
    const std::string service_dir =
        cfg.durable ? o.state_dir + "/service-" + std::to_string(round) : "";
    const std::string harness_dir =
        cfg.durable ? o.state_dir + "/harness-" + std::to_string(round) : "";
    if (cfg.durable) {
      fs::remove_all(service_dir);
      fs::remove_all(harness_dir);
      fs::create_directories(o.state_dir);
    }
    live::DurabilityOptions durability;
    durability.dir = service_dir;
    durability.checkpoint_every = kCheckpointEvery;
    durability.keep_checkpoints = kKeepCheckpoints;
    durability.storage = &timing;

    // --- setup -------------------------------------------------------------
    const auto setup_start = Clock::now();
    const Graph initial = spec.build(scale, o.seed);
    t.build_ms.add(ms_since(setup_start));
    timing.reset();
    const auto init_start = Clock::now();
    std::unique_ptr<live::Service> service =
        cfg.durable ? std::make_unique<live::Service>(initial, service_options,
                                                      durability)
                    : std::make_unique<live::Service>(initial, service_options);
    t.init_ms.add(ms_since(init_start));
    const double setup_s = ms_since(setup_start) / 1000.0;
    const double setup_sync_ms = timing.counters().sync_busy_us / 1000.0;
    const double setup_syncs = static_cast<double>(timing.counters().syncs);
    round_bz = Samples{};
    const NodeId n = initial.num_nodes();
    t.nodes = n;
    EdgeSet edges(initial);
    const std::size_t initial_edges = edges.size();
    check(*service, n, edges);

    // --- measured batches ----------------------------------------------------
    kcore::util::Xoshiro256 rng(o.seed * 0x9e3779b97f4a7c15ULL +
                                static_cast<std::uint64_t>(round) + 1);
    std::vector<Batch> stream;
    struct ApplyTime {
      double wall_ms;
      double sync_ms;
      double syncs;
    };
    std::vector<ApplyTime> round_apply;
    const double round_budget_ms =
        std::min(budget_ms / kRounds, budget_ms - measured_ms);
    timing.reset();
    std::optional<Reader> reader;
    if (cfg.reader) reader.emplace(*service, n, o.seed + 7919 * (round + 1));
    const auto round_start = Clock::now();
    bool apply_failed = false;
    while (ms_since(round_start) < round_budget_ms &&
           static_cast<double>(initial_edges - std::min(initial_edges, edges.size())) <
               cfg.max_removed_frac * static_cast<double>(initial_edges)) {
      Batch batch = next_batch(cfg, n, edges, rng);
      ++result.attempted;
      const double sync_before_us = timing.counters().sync_busy_us;
      const std::uint64_t syncs_before = timing.counters().syncs;
      const auto start = Clock::now();
      try {
        service->apply(batch);
      } catch (const std::exception&) {
        ++result.failed;
        apply_failed = true;
        break;
      }
      const double wall_ms = ms_since(start);
      round_apply.push_back(
          {wall_ms, (timing.counters().sync_busy_us - sync_before_us) / 1000.0,
           static_cast<double>(timing.counters().syncs - syncs_before)});
      t.updates += static_cast<double>(batch.size());
      stream.push_back(std::move(batch));
      if (stream.size() % cfg.check_every == 0) check(*service, n, edges);
    }
    if (reader) {
      reader->stop();
      result.attempted += reader->attempted;
      result.failed += reader->failed;
      t.query_us.append(reader->query_us);
      t.late_us.append(reader->late_us);
      reader.reset();
    }
    if (apply_failed) break;  // the service state is no longer trusted
    check(*service, n, edges);
    t.batches += static_cast<double>(stream.size());
    t.rounds += 1;
    t.syncs_apply += static_cast<double>(timing.counters().syncs);
    t.busy_us_apply += timing.counters().busy_us;
    t.bytes_written_apply += static_cast<double>(timing.counters().bytes_written);
    t.sync_us.append(timing.counters().sync_us);
    const std::vector<NodeId> final_coreness = service->query()->coreness;

    // --- traced replay -------------------------------------------------------
    std::optional<TracedHarness> harness;
    if (o.trace) {
      harness.emplace(initial,
                      live::RepairOptions{repair_threads, service_options.sched,
                                          service_options.targeted_send},
                      harness_dir, tracer, t.phases);
      // A reader waking on the same schedule (against the now idle
      // Service) keeps the replay under the scheduler load the Service saw.
      if (cfg.reader) reader.emplace(*service, n, o.seed);
      for (std::size_t i = 0; i < stream.size(); ++i) {
        harness->apply(stream[i], i % 2 == 1);
      }
      if (reader) {
        reader->stop();
        result.attempted += reader->attempted;
        result.failed += reader->failed;
        reader.reset();
      }
      ++result.attempted;
      if (harness->coreness() != final_coreness) ++result.failed;
    }

    // --- recovery ------------------------------------------------------------
    if (cfg.durable) {
      service.reset();
      timing.reset();
      ++result.attempted;
      try {
        live::RecoveryInfo info;
        const auto start = Clock::now();
        service = live::Service::open(service_options, durability, &info);
        t.recover_ms.add(ms_since(start));
        t.replayed_batches.add(static_cast<double>(info.replayed_batches));
        check(*service, n, edges);
      } catch (const std::exception&) {
        ++result.failed;
      }
      t.bytes_read_recovery += static_cast<double>(timing.counters().bytes_read);
      if (harness) {
        ++result.attempted;
        if (harness->recover() != final_coreness) ++result.failed;
      }
      service.reset();
      fs::remove_all(service_dir);
      fs::remove_all(harness_dir);
    }

    measured_ms += ms_since(round_begin);
    const double f = gauge.close_segment();
    t.setup_s.add(setup_s);
    t.setup_norm.add(
        normalised_ms(setup_s * 1000.0, setup_sync_ms, setup_syncs, f) / 1000.0);
    for (const ApplyTime& a : round_apply) {
      t.apply_ms.add(a.wall_ms);
      t.apply_norm.add(normalised_ms(a.wall_ms, a.sync_ms, a.syncs, f));
    }
    t.bz_ms.append(round_bz);
    t.bz_norm.append(round_bz, f);
  }

  result.note("nodes", t.nodes);
  result.note("rounds", t.rounds);
  result.note("batches", t.batches);
  result.note("updates", t.updates);
  result.note("oracle_checks", static_cast<double>(t.bz_ms.size()));
  result.note("reads", static_cast<double>(t.query_us.size()));

  result.note("speed_factor", gauge.overall_factor());

  result.note("raw_setup_s", t.setup_s.median());
  result.note("raw_op_ms_p50", t.apply_ms.percentile(50));
  result.note("raw_bz_ms_p50", t.bz_ms.percentile(50));

  if (!o.trace) {
    result.add("setup_s", t.setup_norm.median(), "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    result.add("op_ms.p50", t.apply_norm.percentile(50), "ms");
    result.add("bz_ms.p50", t.bz_norm.percentile(50), "ms");
    return result;
  }

  const PhaseSamples& p = t.phases;
  const double batches = std::max(1.0, t.batches);
  const double rounds = std::max(1.0, t.rounds);
  result.add("graph.build_ms", t.build_ms.median(), "ms");
  result.add("live.init_ms", t.init_ms.median(), "ms");
  result.add("service.apply_ms.p90", t.apply_ms.percentile(90), "ms");
  result.add("service.apply_ms.p99", t.apply_ms.percentile(99), "ms");
  const double apply_s = t.apply_ms.sum() / 1000.0;
  result.add("service.updates_per_s", apply_s > 0 ? t.updates / apply_s : 0.0,
             "1/s");
  result.add("seq.recompute_ms", t.bz_ms.median(), "ms");
  result.add("live.wal.append_us", p.wal_append.median(), "us");
  result.add("live.coalesce_us", p.coalesce.median(), "us");
  result.add("live.graph.apply_us", p.graph_apply.median(), "us");
  result.add("live.region.note_insert_us", p.note_insert.median(), "us");
  result.add("live.region.note_remove_us", p.note_remove.median(), "us");
  result.add("live.region.raised_per_insert",
             p.inserts > 0 ? p.raised / p.inserts : 0.0, "ratio");
  result.add("live.repair.repair_us", p.repair.median(), "us");
  result.add("live.repair.relaxations_per_seeded",
             p.seeded > 0 ? p.relaxations / p.seeded : 0.0, "ratio");
  result.add("live.repair.steals", p.steals.mean(), "count");
  result.add("live.repair.detector_passes", p.detector_passes.mean(), "count");
  result.add("live.publish_us", p.publish.median(), "us");
  result.add("live.checkpoint_ms", p.checkpoint_ms.median(), "ms");
  result.add("live.checkpoint_bytes", p.checkpoint_bytes.median(), "bytes");
  result.add("live.service_overhead_us",
             t.apply_ms.median() * 1000.0 - p.phase_sum.median(), "us");
  result.add("live.recovery.checkpoint_load_ms",
             p.recovery_checkpoint_load_ms.median(), "ms");
  result.add("live.recovery.wal_read_ms", p.recovery_wal_read_ms.median(), "ms");
  result.add("live.recovery.rebuild_ms", p.recovery_rebuild_ms.median(), "ms");
  result.add("live.recovery.replay_ms", p.recovery_replay_ms.median(), "ms");
  result.add("live.recovery.wal_bytes_scanned", p.recovery_wal_bytes.median(),
             "bytes");
  result.add("live.recovery.replayed_batches", t.replayed_batches.median(),
             "count");
  result.add("service.recover_ms", t.recover_ms.median(), "ms");
  result.add("service.query_us.p50", t.query_us.percentile(50), "us");
  result.add("service.query_us.p99", t.query_us.percentile(99), "us");
  result.add("reader.late_us.p50", t.late_us.percentile(50), "us");
  result.add("storage.syncs_per_batch", t.syncs_apply / batches, "count");
  result.add("storage.sync_us.p50", t.sync_us.median(), "us");
  result.add("storage.busy_us_per_batch", t.busy_us_apply / batches, "us");
  result.add("storage.bytes_written_per_batch", t.bytes_written_apply / batches,
             "bytes");
  result.add("storage.bytes_read_per_recovery",
             cfg.durable ? t.bytes_read_recovery / rounds : 0.0, "bytes");
  const double untraced_us = p.batch_wall_untraced.median();
  result.add("trace.overhead_frac",
             untraced_us > 0 ? p.batch_wall_traced.median() / untraced_us - 1.0
                             : 0.0,
             "ratio");
  result.note("spans", static_cast<double>(tracer.recorded()));
  if (!o.trace_out.empty()) tracer.write_chrome_trace(o.trace_out);
  return result;
}

}  // namespace kbench
