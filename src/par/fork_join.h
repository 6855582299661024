// par::fork_join — the one place the library starts the threads of a
// parallel region. par::relax() (bsp-async and live repair),
// run_round_loop() (bsp-par, one-to-many-par) and api::Plan::run() all
// fork their workers here, so a failed worker is handled once:
//
//  * body(0, stop) runs on the calling thread, body(1..workers-1, stop)
//    on threads started by the call; it returns only after every worker
//    has finished. Thread start and join are the happens-before edges
//    between the caller's writes, the workers and the caller's reads.
//  * The first exception a worker throws calls request_stop() on the
//    shared token — workers that poll stop_requested() wind down — and is
//    rethrown on the caller once every worker has joined. Later ones are
//    dropped.
//
// A thread that cannot be started ends the program: the unwinding
// destroys the joinable std::threads already started (std::terminate),
// where waiting for them could hang a round loop whose barrier needs
// every worker. Threads are started per call, not pooled: starting and
// joining two costs ~30 µs, well under the work of any region that uses
// this.
#pragma once

#include <exception>
#include <mutex>
#include <stop_token>
#include <thread>
#include <vector>

namespace kcore::par {

template <typename Body>
void fork_join(unsigned workers, const Body& body) {
  std::stop_source source;
  const std::stop_token stop = source.get_token();
  std::mutex error_mutex;
  std::exception_ptr first_error;
  auto run = [&](unsigned w) {
    try {
      body(w, stop);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
      source.request_stop();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers > 1 ? workers - 1 : 0);
  for (unsigned w = 1; w < workers; ++w) threads.emplace_back(run, w);
  run(0);
  for (std::thread& thread : threads) thread.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace kcore::par
