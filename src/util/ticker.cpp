#include "util/ticker.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace kcore::util {

Ticker::Ticker(double period_ms, std::function<void()> tick)
    : tick_(std::move(tick)) {
  constexpr double kMaxPeriodMs = 365.0 * 24 * 3600 * 1000;
  if (period_ms > 0.0) {
    period_ = std::max(
        std::chrono::duration_cast<SteadyClock::duration>(
            std::chrono::duration<double, std::milli>(
                std::min(period_ms, kMaxPeriodMs))),
        SteadyClock::duration(1));
  }
}

void Ticker::start() {
  if (period_ <= SteadyClock::duration::zero() || thread_.joinable()) return;
  stop_requested_ = false;
  thread_ = std::thread([this, start = SteadyClock::now()] { loop(start); });
}

void Ticker::stop() {
  join();
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void Ticker::join() {
  if (!thread_.joinable()) return;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_requested_ = true;
  }
  cv_.notify_one();
  thread_.join();
}

void Ticker::loop(SteadyClock::time_point start) {
  auto next = start + period_;
  std::unique_lock<std::mutex> lock(mutex_);
  while (!cv_.wait_until(lock, next, [this] { return stop_requested_; })) {
    try {
      tick_();
    } catch (...) {
      error_ = std::current_exception();
      return;
    }
    // The first grid point still ahead: points the tick overran are
    // skipped, not replayed.
    next = start + ((SteadyClock::now() - start) / period_ + 1) * period_;
  }
}

}  // namespace kcore::util
