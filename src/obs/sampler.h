// Layer 3 of kcore::obs — the background convergence sampler.
//
// A single thread that wakes every `period_ms` and invokes a probe
// closure supplied by the engine. The probe reads whatever shared state
// the engine exposes for free — the quiescence detector's outstanding
// count, the worklist's in-queue flags, the shared estimate table — and
// fills a Sample. Because the async runtime's estimate table only ever
// decreases (Theorem 2: estimates are upper bounds throughout), the
// sampled sum-of-estimates is a monotone error proxy: plotting
// (sum_estimates - sum_truth) / n against t_ms reproduces the paper's
// Fig. 4 error-evolution curves WITHOUT the per-round observer that the
// barrier-free engine cannot drive.
//
// The thread is a util::Ticker (util/ticker.h), whose timing contract
// this inherits: the first sample is taken one full period after start()
// — a run that finishes first records zero samples (pinned by tests) —
// a slow probe skips the samples it overran, and stop() never takes a
// farewell sample. Sample times are measured from start().
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "util/clock.h"
#include "util/ticker.h"

namespace kcore::obs {

/// One sampler tick. Engines fill what they can; unset fields stay 0.
struct Sample {
  double t_ms = 0.0;               // since Sampler::start()
  std::int64_t outstanding = 0;    // detector counter: in-flight work plus
                                   // unreturned worker credit (upper bound)
  std::uint64_t worklist_depth = 0;  // items currently flagged in-queue
  double sum_estimates = 0.0;      // Fig. 4 error-proxy numerator
  std::uint64_t round = 0;         // last completed round (0 if roundless)
};

/// Background sampling thread. start()/stop() are called by the engine
/// around its worker pool; the probe runs on the sampler thread and must
/// only touch state that is safe to read concurrently with the workers.
class Sampler {
 public:
  using Probe = std::function<void(Sample&)>;

  Sampler(double period_ms, Probe probe)
      : probe_(std::move(probe)), ticker_(period_ms, [this] {
          Sample s;
          s.t_ms = util::ms_between(start_, util::SteadyClock::now());
          probe_(s);
          samples_.push_back(s);
        }) {}

  /// Launch the sampler thread; pair each call with a stop(). No-op when
  /// period_ms <= 0.
  void start() {
    start_ = util::SteadyClock::now();
    ticker_.start();
  }

  /// Signal, join, and retire the thread; rethrows a probe's exception.
  /// Idempotent.
  void stop() { ticker_.stop(); }

  /// The collected series; call after stop().
  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }
  [[nodiscard]] std::vector<Sample> take() { return std::move(samples_); }

 private:
  Probe probe_;
  std::vector<Sample> samples_;
  util::SteadyClock::time_point start_;
  util::Ticker ticker_;  // last: stopped before the members its tick uses
};

}  // namespace kcore::obs
