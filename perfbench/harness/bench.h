// Shared pieces of the end-to-end benchmark harness (kbench).
//
// kbench runs one workload for a fixed wall-clock budget, checks every
// output it times against sequential `bz`, and prints one JSON result
// line: {"correct", "attempted", "failed", "metrics"}. perfbench/run.py
// builds it, passes the command-line contract through, and validates the
// metric names and units against BENCHMARK.json.
//
// Timing rules shared by every workload:
//  * end-to-end times are scaled to a nominal host speed measured by a
//    frozen reference kernel, timed alongside the workload segment by
//    segment on a graph the harness generates and owns (SpeedGauge), so
//    no library code runs inside the gauge; raw wall times go to the
//    result's info block;
//  * set-up (graph generation, Session::prepare, Service construction)
//    is repeated and reported as its median, never mixed into the
//    measured phase;
//  * oracle checks run outside every timed region; their `bz` time is
//    itself a reported metric (the full-recompute baseline);
//  * the untraced run reports end-to-end metrics; the traced run
//    (--trace 1) reports per-layer metrics from spans the harness places
//    around calls into each layer's public functions — nothing inside
//    src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace kbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Dataset scale multiplier (eval::DatasetSpec::build); 0 selects the
  /// workload's default. The self-check shrinks it so every workload
  /// finishes in about a second.
  double scale = 0.0;
  /// Set-up repetitions whose median is setup_s (decompose; the churn
  /// workloads set up once per round).
  int setups = 5;
  /// Scratch directory for WAL/checkpoint state (churn-delete-durable).
  std::string state_dir;
  /// Chrome-trace JSON of the traced run's spans (empty = do not write).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Free-form facts about the run (dataset sizes, sample counts) that
  /// run.py copies into the result file next to the provenance.
  std::vector<Metric> info;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value) {
    info.push_back({std::move(name), value, ""});
  }
};

Result run_decompose(const Options& options);
Result run_churn(const Options& options);

// --- timing -----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}
inline double us_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// A bag of observations with interpolated percentiles (the "linear"
/// rule: p-th percentile sits at rank p/100 * (n-1) of the sorted data).
class Samples {
 public:
  void add(double x) { values_.push_back(x); }
  void append(const Samples& other, double scale = 1.0) {
    for (const double x : other.values_) values_.push_back(x * scale);
  }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  /// 0 for an empty bag.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }
  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const;

 private:
  std::vector<double> values_;
};

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// CPUs this process may run on (its affinity mask). `decompose` uses all
/// of them; the churn workloads repair with nproc() - 1.
unsigned nproc();

// --- host-speed normalisation (reference.cpp) -------------------------------

/// An undirected graph the harness generates and owns outright, in CSR
/// form: the input of the reference kernel. A ring lattice in which each
/// node links to its `degree / 2` successors, each link rewired to a
/// uniform node with probability `rewire`; duplicates are dropped.
struct GaugeGraph {
  std::vector<std::uint32_t> offsets;  // num_nodes + 1
  std::vector<std::uint32_t> targets;  // both directions, sorted per node

  static GaugeGraph generate(std::uint32_t num_nodes, std::uint32_t degree,
                             double rewire, std::uint64_t seed);
  [[nodiscard]] std::uint32_t num_nodes() const {
    return static_cast<std::uint32_t>(offsets.size() - 1);
  }
};

/// A plain bucket peel written in the harness: the frozen reference
/// kernel. Returns coreness.
std::vector<std::uint32_t> reference_peel(const GaugeGraph& g);

/// Times the reference kernel interleaved with a workload and turns it
/// into speed factors. The host's speed drifts within seconds, so the run
/// is cut into segments of a few seconds: every wall time is multiplied
/// by its own segment's factor, nominal_ms / (median kernel time in the
/// segment), and then reads as on a host where the kernel takes
/// `nominal_ms` on the gauge graph.
class SpeedGauge {
 public:
  /// Checks the kernel against the library's `bz` once, outside any timed
  /// region; throws std::logic_error when they disagree.
  SpeedGauge(GaugeGraph graph, double nominal_ms);
  /// Runs the kernel once within the current segment; returns its wall
  /// time in ms.
  double time();
  /// Ends the current segment and returns its factor (the previous
  /// segment's, or 1, when it holds no kernel time).
  double close_segment();
  /// Factor over every kernel time of the run (reported as info).
  [[nodiscard]] double overall_factor() const;

 private:
  GaugeGraph graph_;
  double nominal_ms_;
  Samples all_;
  Samples segment_;
  double last_factor_ = 1.0;
  std::uint64_t sink_ = 0;
};

// --- spans ------------------------------------------------------------------

/// In-memory span recorder for the traced run: name, start, end, parent
/// span. Spans are kept in memory (capped) and written as Chrome trace
/// JSON when the run ends. begin()/end() always measure, so the harness
/// reads phase durations straight off its spans.
class Tracer {
 public:
  static constexpr std::size_t kMaxStored = 20000;

  /// Opens a span as a child of the innermost open span.
  std::uint32_t begin(const char* name);
  /// Closes the innermost open span (which must be `span`) and returns
  /// its duration in microseconds.
  double end(std::uint32_t span);

  [[nodiscard]] std::size_t recorded() const { return spans_.size(); }
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t parent;  // kNoParent for roots
  };
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::vector<Clock::time_point> open_start_;
  Clock::time_point origin_ = Clock::now();
};

}  // namespace kbench
