// util::Ticker — the one periodic background thread.
//
// A Ticker calls `tick` every `period_ms` on a thread of its own, from
// start() until stop(), while its owner's foreground call runs. The
// convergence sampler (obs/sampler.h) and the live service's provisional
// watchdog (live/service.cpp) are both a Ticker.
//
// Timing: ticks fall on the absolute grid start() + k * period, k >= 1,
// so the first tick comes one full period after start() and a slow tick
// never compounds drift. A tick that overruns grid points skips them
// instead of replaying them back to back.
//
// stop() wins over a pending tick (no farewell tick) and waits for one
// that is running: every tick runs under the mutex stop() takes, so once
// stop() returns no tick is running and everything the ticks wrote is
// visible to the caller. A tick that throws ends the ticking; stop()
// rethrows its exception. The destructor joins too (without rethrowing),
// so a scoped Ticker is joined when an exception unwinds past it.
#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>

#include "util/clock.h"

namespace kcore::util {

class Ticker {
 public:
  /// `period_ms` <= 0 (or NaN) makes start() a no-op. Periods above a
  /// year are clamped, keeping start() + period inside steady_clock.
  Ticker(double period_ms, std::function<void()> tick);
  ~Ticker() { join(); }

  Ticker(const Ticker&) = delete;
  Ticker& operator=(const Ticker&) = delete;

  /// Start the thread; the grid starts now. No-op when already running.
  void start();

  /// Signal, wait out a running tick, join; then rethrow the exception a
  /// tick threw, if any. Idempotent.
  void stop();

 private:
  void join();
  void loop(SteadyClock::time_point start);

  SteadyClock::duration period_{};
  std::function<void()> tick_;
  std::exception_ptr error_;  // written by the thread, read after join
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_requested_ = false;  // guarded by mutex_
  std::thread thread_;  // last: joined before the members it uses go
};

}  // namespace kcore::util
