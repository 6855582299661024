// A util::Storage decorator that forwards every call to another backend
// (util::real_storage() in the benchmark) and counts and times it. The
// churn workloads inject it through live::DurabilityOptions::storage: it
// yields the storage.* per-layer metrics without touching src/, and the
// fsync time that durable end-to-end times replace by a nominal cost.
//
// Not thread-safe: the live service performs all storage calls on its
// single writer thread (and recovery on the thread calling open()).
#pragma once

#include <cstdint>

#include "bench.h"
#include "util/storage.h"

namespace kbench {

class TimingStorage final : public kcore::util::Storage {
 public:
  struct Counters {
    std::uint64_t syncs = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t bytes_read = 0;
    double busy_us = 0.0;       // time inside any call
    double sync_busy_us = 0.0;  // time inside sync_file
    Samples sync_us;            // one sample per sync_file
  };

  explicit TimingStorage(kcore::util::Storage& inner) : inner_(inner) {}

  [[nodiscard]] const Counters& counters() const { return counters_; }
  void reset() { counters_ = Counters{}; }

  bool exists(const std::string& path) override;
  std::vector<std::string> list_dir(const std::string& dir) override;
  std::string read_file(const std::string& path) override;
  std::uint64_t file_size(const std::string& path) override;
  void write_file(const std::string& path, std::string_view bytes) override;
  void append_file(const std::string& path, std::string_view bytes) override;
  void sync_file(const std::string& path) override;
  void rename_file(const std::string& from, const std::string& to) override;
  void truncate_file(const std::string& path, std::uint64_t size) override;
  void remove_file(const std::string& path) override;
  void make_dir(const std::string& path) override;

 private:
  /// Runs `call` against the inner backend, charging its duration to
  /// busy_us; returns the duration in microseconds.
  template <typename F>
  double timed(F&& call);

  kcore::util::Storage& inner_;
  Counters counters_;
};

}  // namespace kbench
