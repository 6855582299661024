#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "bench.h"
#include "util/json.h"

namespace kbench {

double Samples::percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::mean() const {
  return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

std::uint32_t Tracer::begin(const char* name) {
  const auto now = Clock::now();
  std::uint32_t index = kNoParent;
  if (spans_.size() < kMaxStored) {
    index = static_cast<std::uint32_t>(spans_.size());
    std::uint32_t parent = kNoParent;
    for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
      if (*it != kNoParent) {
        parent = *it;
        break;
      }
    }
    spans_.push_back({name,
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          now - origin_)
                          .count(),
                      0, parent});
  }
  open_.push_back(index);
  open_start_.push_back(now);
  return index;
}

double Tracer::end(std::uint32_t span) {
  const auto now = Clock::now();
  if (open_.empty() || open_.back() != span) {
    throw std::logic_error("Tracer::end: span closed out of order");
  }
  const auto start = open_start_.back();
  open_.pop_back();
  open_start_.pop_back();
  if (span != kNoParent) {
    spans_[span].end_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - origin_)
            .count();
  }
  return std::chrono::duration<double, std::micro>(now - start).count();
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  kcore::util::JsonWriter json(out);
  json.begin_object().key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    json.begin_object()
        .member("name", s.name)
        .member("ph", "X")
        .member("pid", std::uint64_t{1})
        .member("tid", std::uint64_t{1})
        .member("ts", static_cast<double>(s.start_ns) / 1000.0, 3)
        .member("dur", static_cast<double>(s.end_ns - s.start_ns) / 1000.0, 3)
        .key("args")
        .begin_object()
        .member("id", static_cast<std::uint64_t>(i));
    if (s.parent != kNoParent) {
      json.member("parent", static_cast<std::uint64_t>(s.parent));
    }
    json.end_object().end_object();
  }
  json.end_array().end_object();
  out << '\n';
}

}  // namespace kbench
