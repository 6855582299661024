#include "timing_storage.h"

namespace kbench {

template <typename F>
double TimingStorage::timed(F&& call) {
  const auto start = Clock::now();
  // Charge the time even when the call throws, then rethrow unchanged.
  try {
    call();
  } catch (...) {
    counters_.busy_us += us_since(start);
    throw;
  }
  const double us = us_since(start);
  counters_.busy_us += us;
  return us;
}

bool TimingStorage::exists(const std::string& path) {
  bool result = false;
  timed([&] { result = inner_.exists(path); });
  return result;
}

std::vector<std::string> TimingStorage::list_dir(const std::string& dir) {
  std::vector<std::string> result;
  timed([&] { result = inner_.list_dir(dir); });
  return result;
}

std::string TimingStorage::read_file(const std::string& path) {
  std::string result;
  timed([&] { result = inner_.read_file(path); });
  counters_.bytes_read += result.size();
  return result;
}

std::uint64_t TimingStorage::file_size(const std::string& path) {
  std::uint64_t result = 0;
  timed([&] { result = inner_.file_size(path); });
  return result;
}

void TimingStorage::write_file(const std::string& path,
                               std::string_view bytes) {
  timed([&] { inner_.write_file(path, bytes); });
  counters_.bytes_written += bytes.size();
}

void TimingStorage::append_file(const std::string& path,
                                std::string_view bytes) {
  timed([&] { inner_.append_file(path, bytes); });
  counters_.bytes_written += bytes.size();
}

void TimingStorage::sync_file(const std::string& path) {
  const double us = timed([&] { inner_.sync_file(path); });
  counters_.sync_us.add(us);
  counters_.sync_busy_us += us;
  ++counters_.syncs;
}

void TimingStorage::rename_file(const std::string& from,
                                const std::string& to) {
  timed([&] { inner_.rename_file(from, to); });
}

void TimingStorage::truncate_file(const std::string& path,
                                  std::uint64_t size) {
  timed([&] { inner_.truncate_file(path, size); });
}

void TimingStorage::remove_file(const std::string& path) {
  timed([&] { inner_.remove_file(path); });
}

void TimingStorage::make_dir(const std::string& path) {
  timed([&] { inner_.make_dir(path); });
}

}  // namespace kbench
