#include "par/round_loop.h"

#include <atomic>
#include <barrier>
#include <cstdint>
#include <exception>
#include <stop_token>

#include "obs/obs.h"
#include "par/fork_join.h"
#include "util/check.h"

namespace kcore::par {

namespace {

/// Shared control block. `stop` and `completion_error` are plain: only
/// the completion step writes them, and the barrier's phase ordering
/// publishes them. `body_failed` is atomic because any worker may set it
/// at any point within a round.
struct LoopState {
  bool stop = false;
  std::atomic<bool> body_failed{false};
  std::exception_ptr completion_error;
};

}  // namespace

void run_round_loop(unsigned workers, const RoundBody& body,
                    const RoundCompletion& completion,
                    obs::Recorder* recorder) {
  KCORE_CHECK_MSG(workers >= 1, "round loop needs at least one worker");
  KCORE_CHECK_MSG(body != nullptr && completion != nullptr,
                  "round loop needs a body and a completion step");

  // Tracing decorator: per-worker "round" spans plus a worker-0
  // "round.completion" span per barrier phase (see round_loop.h for why
  // that cross-thread record is race-free), then recurse without the
  // recorder so the loop logic below stays single-copy.
  if (obs::kEnabled && recorder != nullptr) {
    const RoundBody traced_body = [&recorder, &body](unsigned w,
                                                     std::uint64_t round) {
      OBS_SPAN(recorder->worker(w), "round");
      body(w, round);
    };
    const RoundCompletion traced_completion =
        [&recorder, &completion](std::uint64_t round) {
          OBS_SPAN(recorder->worker(0), "round.completion");
          return completion(round);
        };
    run_round_loop(workers, traced_body, traced_completion, nullptr);
    return;
  }

  if (workers == 1) {
    for (std::uint64_t round = 1;; ++round) {
      body(0, round);
      if (!completion(round)) return;
    }
  }

  LoopState state;

  std::uint64_t round_counter = 0;  // owned by the completion phase
  auto on_phase_complete = [&state, &completion, &round_counter]() noexcept {
    ++round_counter;
    if (state.body_failed.load(std::memory_order_relaxed)) {
      state.stop = true;
      return;
    }
    try {
      if (!completion(round_counter)) state.stop = true;
    } catch (...) {
      state.completion_error = std::current_exception();
      state.stop = true;
    }
  };
  std::barrier barrier(static_cast<std::ptrdiff_t>(workers),
                       on_phase_complete);

  // A failed body still arrives at the barrier, so nobody deadlocks; the
  // phase then stops the loop and the worker rethrows its own exception
  // to fork_join, which hands the first one to the caller.
  fork_join(workers, [&state, &body, &barrier](unsigned worker,
                                               const std::stop_token&) {
    for (std::uint64_t round = 1;; ++round) {
      std::exception_ptr error;
      try {
        body(worker, round);
      } catch (...) {
        error = std::current_exception();
        state.body_failed.store(true, std::memory_order_relaxed);
      }
      barrier.arrive_and_wait();
      if (error) std::rethrow_exception(error);
      // `stop` was written by the completion step of this very phase;
      // the barrier sequences that write before this read.
      if (state.stop) {
        if (worker == 0 && state.completion_error) {
          std::rethrow_exception(state.completion_error);
        }
        return;
      }
    }
  });
}

}  // namespace kcore::par
