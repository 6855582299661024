// par::Engine — sim::Engine's host protocol contract on real threads.
//
// The simulator (sim/engine.h) proves the paper's protocols correct under
// round-based delivery; this engine executes the SAME Host state machines
// (anything satisfying sim::SimHost — OneToManyHost in particular) with a
// fixed pool of worker threads, which is what the paper's "the one-to-many
// model maps directly onto a cluster of computational processes" claim
// actually requires. The execution model is the synchronous one the §4
// proofs use:
//
//  * hosts are block-partitioned across workers (host h belongs to worker
//    h * workers / num_hosts — contiguous ranges keep a worker's hosts
//    adjacent in memory);
//  * in round t each worker drains its incoming mailboxes (messages sent
//    in round t-1), then runs on_round for every owned host, routing sends
//    into the double-buffered SPSC mailbox matrix (par/mailbox.h);
//  * a barrier ends the round; the completion step aggregates traffic
//    counters, streams the observer event, and detects quiescence exactly
//    like sim::Engine: a round with zero sends means nothing is in flight
//    (everything sent in t-1 was drained at the start of t), so the run
//    has converged — the round-barrier rendition of the §3.3 centralized
//    termination detector ("declare termination one round after every
//    host has reported quiet").
//
// Determinism: delivery is a pure function of the round structure, and the
// paper's hosts are monotone estimate mergers, so coreness, rounds,
// message counts and per-host traffic are all INDEPENDENT of the worker
// count — run(threads=1) and run(threads=16) produce bit-identical
// TrafficStats, equal to sim::Engine under DeliveryMode::kSynchronous.
// tests/test_par_runtime.cpp pins that equality.
//
// Observer delivery is thread-safe: events fire inside the barrier
// completion step (single-threaded by construction, serialized by a mutex
// for belt-and-braces), in strictly increasing round order, with a
// happens-before edge between consecutive events.
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "par/mailbox.h"
#include "par/round_loop.h"
#include "sim/engine.h"
#include "util/check.h"

namespace kcore::par {

/// Resolve a requested thread count: 0 means "one worker per available
/// hardware thread" (never less than 1 — hardware_concurrency may report
/// 0 on exotic platforms).
[[nodiscard]] inline unsigned resolve_threads(unsigned requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// Worker count for a run over n vertices: resolve_threads, clamped to n
/// (a worker with no vertex to own would only idle), and never below 1.
[[nodiscard]] inline unsigned resolve_workers(unsigned requested,
                                              graph::NodeId n) {
  return std::max(1U, std::min<unsigned>(resolve_threads(requested), n));
}

struct EngineConfig {
  /// Worker threads; 0 = hardware concurrency. Clamped to the host count
  /// (a worker with no hosts would only burn a core on the barrier).
  unsigned threads = 0;
  /// Hard round cap; 0 picks the simulator's default (4N + 64).
  std::uint64_t max_rounds = 0;
  /// Optional telemetry recorder (obs/obs.h) for per-round trace spans;
  /// borrowed, must outlive run(). Null: no tracing.
  obs::Recorder* recorder = nullptr;
};

// Unconstrained template parameter to match the friend forward
// declaration in sim/engine.h; the concept is enforced just inside.
template <typename Host>
class Engine {
  static_assert(sim::SimHost<Host>,
                "par::Engine drives the same Host contract as sim::Engine");

 public:
  using Message = typename Host::Message;

  Engine(std::vector<Host> hosts, const EngineConfig& config)
      : hosts_(std::move(hosts)), config_(config) {
    KCORE_CHECK_MSG(!hosts_.empty(), "engine needs at least one host");
    workers_ = resolve_threads(config.threads);
    if (workers_ > hosts_.size()) {
      workers_ = static_cast<unsigned>(hosts_.size());
    }
    stats_.sent_by_host.assign(hosts_.size(), 0);
    worker_of_.resize(hosts_.size());
    host_begin_.resize(workers_ + 1);
    const std::size_t n = hosts_.size();
    for (unsigned w = 0; w <= workers_; ++w) {
      host_begin_[w] = static_cast<sim::HostId>(n * w / workers_);
    }
    for (unsigned w = 0; w < workers_; ++w) {
      for (sim::HostId h = host_begin_[w]; h < host_begin_[w + 1]; ++h) {
        worker_of_[h] = w;
      }
    }
  }

  /// Run to quiescence (or the round cap). The observer has the same
  /// shape as sim::Engine's: void(round, const std::vector<Host>&),
  /// invoked after every executed round from the barrier completion step.
  template <typename Observer>
  sim::TrafficStats run(Observer&& observer) {
    const std::uint64_t limit =
        config_.max_rounds > 0
            ? config_.max_rounds
            : 4 * static_cast<std::uint64_t>(hosts_.size()) + 64;
    const auto n = static_cast<sim::HostId>(hosts_.size());

    MailboxMatrix<Envelope> mail(workers_);
    // Per-worker send tallies, cache-line padded; summed single-threaded
    // at the barrier (cheaper and tidier than a contended atomic).
    std::vector<PaddedCount> sends(workers_);

    auto body = [&](unsigned w, std::uint64_t round) {
      // Drain: everything any worker sent to us in round - 1.
      for (unsigned s = 0; s < workers_; ++s) {
        auto& box = mail.read_side(s, w, round);
        for (Envelope& env : box) {
          hosts_[env.to].on_message(env.from, env.payload);
        }
        box.clear();
      }
      // Compute + enqueue into the write side for round + 1.
      std::uint64_t sent = 0;
      auto& outbox = outboxes_[w];
      for (sim::HostId h = host_begin_[w]; h < host_begin_[w + 1]; ++h) {
        outbox.clear();
        sim::Context<Message> ctx(h, round, n, &outbox);
        hosts_[h].on_round(ctx);
        sent += outbox.size();
        stats_.sent_by_host[h] += outbox.size();
        for (auto& out : outbox) {
          mail.write_side(w, worker_of_[out.to], round)
              .push_back({out.to, h, std::move(out.payload)});
        }
      }
      sends[w].value = sent;
    };

    auto completion = [&](std::uint64_t round) -> bool {
      // All workers are parked at the barrier: exclusive access to
      // hosts_, stats_ and the tallies, no locks required.
      std::uint64_t sends_this_round = 0;
      for (auto& tally : sends) {
        sends_this_round += tally.value;
        tally.value = 0;
      }
      ++stats_.rounds_executed;
      stats_.total_messages += sends_this_round;
      if (sends_this_round > 0) ++stats_.execution_time;
      {
        const std::lock_guard<std::mutex> lock(observer_mutex_);
        observer(round, hosts_);
      }
      if (sends_this_round == 0) {
        stats_.converged = true;
        return false;
      }
      return round < limit;
    };

    outboxes_.assign(workers_, {});
    run_round_loop(workers_, body, completion, config_.recorder);
    outboxes_.clear();
    return stats_;
  }

  sim::TrafficStats run() {
    return run([](std::uint64_t, const std::vector<Host>&) {});
  }

  [[nodiscard]] const std::vector<Host>& hosts() const noexcept {
    return hosts_;
  }
  [[nodiscard]] std::vector<Host>& hosts() noexcept { return hosts_; }
  [[nodiscard]] const sim::TrafficStats& stats() const noexcept {
    return stats_;
  }
  /// Effective worker count after clamping (what ParExtras reports).
  [[nodiscard]] unsigned threads_used() const noexcept { return workers_; }

 private:
  struct Envelope {
    sim::HostId to;
    sim::HostId from;
    Message payload;
  };
  struct alignas(64) PaddedCount {
    std::uint64_t value = 0;
  };

  std::vector<Host> hosts_;
  EngineConfig config_;
  unsigned workers_ = 1;
  std::vector<unsigned> worker_of_;       // host -> owning worker
  std::vector<sim::HostId> host_begin_;   // worker -> first owned host
  // Per-worker outboxes reused across rounds (avoids per-round allocs);
  // indexed by worker, so no two threads ever share one.
  std::vector<std::vector<typename sim::Context<Message>::Outgoing>>
      outboxes_;
  std::mutex observer_mutex_;
  sim::TrafficStats stats_;
};

}  // namespace kcore::par
