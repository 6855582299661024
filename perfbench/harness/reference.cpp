// The frozen reference kernel behind the benchmark's speed normalisation.
//
// The benchmark host shares its cores with other tenants, and its speed
// drifts by tens of percent over minutes: the same sequential `bz` run on
// the same graph takes 53 ms in one run and 63 ms in the next. Every run
// therefore also times this kernel — a plain Batagelj–Zaversnik bucket
// peel written here — interleaved with the measured operations. Its input
// is a graph the harness generates into its own CSR vectors, once per run
// and outside every timed region, so neither the library's code nor its
// graph layout runs inside the kernel's timed region. End-to-end times are
// reported scaled by nominal_ms / (median kernel time of the same few
// seconds), i.e. in milliseconds of a host on which the kernel takes its
// nominal time. A change to the library cannot move this yardstick.
#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bench.h"
#include "graph/graph.h"
#include "seq/kcore_seq.h"

namespace kbench {

namespace {

/// splitmix64: the harness's own generator for the gauge graph.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

}  // namespace

GaugeGraph GaugeGraph::generate(std::uint32_t num_nodes, std::uint32_t degree,
                                double rewire, std::uint64_t seed) {
  if (num_nodes < 2) throw std::invalid_argument("gauge graph needs 2 nodes");
  SplitMix rng(seed);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> arcs;
  arcs.reserve(static_cast<std::size_t>(num_nodes) * degree);
  for (std::uint32_t u = 0; u < num_nodes; ++u) {
    for (std::uint32_t j = 1; j <= degree / 2; ++j) {
      std::uint32_t v = (u + j) % num_nodes;
      if (rng.unit() < rewire) {
        v = static_cast<std::uint32_t>(rng.next() % num_nodes);
      }
      if (v == u) continue;
      arcs.emplace_back(u, v);
      arcs.emplace_back(v, u);
    }
  }
  std::sort(arcs.begin(), arcs.end());
  arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());

  GaugeGraph g;
  g.offsets.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
  g.targets.reserve(arcs.size());
  for (const auto& [u, v] : arcs) {
    ++g.offsets[u + 1];
    g.targets.push_back(v);
  }
  for (std::uint32_t u = 0; u < num_nodes; ++u) g.offsets[u + 1] += g.offsets[u];
  return g;
}

std::vector<std::uint32_t> reference_peel(const GaugeGraph& g) {
  const std::uint32_t n = g.num_nodes();
  std::vector<std::uint32_t> degree(n);
  std::uint32_t max_degree = 0;
  for (std::uint32_t u = 0; u < n; ++u) {
    degree[u] = g.offsets[u + 1] - g.offsets[u];
    max_degree = std::max(max_degree, degree[u]);
  }
  // bin[d] = first position of degree-d nodes in `order`.
  std::vector<std::uint32_t> bin(static_cast<std::size_t>(max_degree) + 1, 0);
  for (std::uint32_t u = 0; u < n; ++u) ++bin[degree[u]];
  std::uint32_t start = 0;
  for (std::uint32_t& b : bin) {
    const std::uint32_t count = b;
    b = start;
    start += count;
  }
  std::vector<std::uint32_t> order(n);
  std::vector<std::uint32_t> position(n);
  for (std::uint32_t u = 0; u < n; ++u) {
    position[u] = bin[degree[u]]++;
    order[position[u]] = u;
  }
  for (std::uint32_t d = max_degree; d > 0; --d) bin[d] = bin[d - 1];
  bin[0] = 0;

  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t v = order[i];
    for (std::uint32_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
      const std::uint32_t u = g.targets[e];
      if (degree[u] <= degree[v]) continue;
      // Move u to the front of its bin, then shrink its degree.
      const std::uint32_t du = degree[u];
      const std::uint32_t front = bin[du];
      const std::uint32_t w = order[front];
      if (w != u) {
        std::swap(order[position[u]], order[front]);
        std::swap(position[u], position[w]);
      }
      ++bin[du];
      --degree[u];
    }
  }
  return degree;
}

SpeedGauge::SpeedGauge(GaugeGraph graph, double nominal_ms)
    : graph_(std::move(graph)), nominal_ms_(nominal_ms) {
  std::vector<kcore::graph::Edge> edges;
  for (std::uint32_t u = 0; u < graph_.num_nodes(); ++u) {
    for (std::uint32_t e = graph_.offsets[u]; e < graph_.offsets[u + 1]; ++e) {
      if (u < graph_.targets[e]) edges.push_back({u, graph_.targets[e]});
    }
  }
  const auto g = kcore::graph::Graph::from_edges(graph_.num_nodes(), edges);
  if (kcore::seq::coreness_bz(g) != reference_peel(graph_)) {
    throw std::logic_error("reference kernel disagrees with bz");
  }
}

double SpeedGauge::time() {
  const auto start = Clock::now();
  const std::vector<std::uint32_t> coreness = reference_peel(graph_);
  const double ms = ms_since(start);
  sink_ += coreness.front();
  all_.add(ms);
  segment_.add(ms);
  return ms;
}

double SpeedGauge::close_segment() {
  if (!segment_.empty()) last_factor_ = nominal_ms_ / segment_.median();
  segment_ = Samples{};
  return last_factor_;
}

double SpeedGauge::overall_factor() const {
  return all_.empty() ? 1.0 : nominal_ms_ / all_.median();
}

}  // namespace kbench
