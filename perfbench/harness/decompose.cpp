// Workload `decompose`: full decompositions of one large graph through
// the api facade. One prepared Session per protocol — sequential `bz`
// and threaded `bsp-async` (nproc workers) — and run() called in
// alternation until the time budget is spent. Every report's coreness is
// compared with a reference `bz` computed outside the timed region.
#include <memory>
#include <optional>
#include <variant>

#include "api/session.h"
#include "bench.h"
#include "eval/datasets.h"
#include "seq/kcore_seq.h"

namespace kbench {

namespace api = kcore::api;

namespace {

constexpr const char* kProfile = "amazon-like";
constexpr double kDefaultScale = 16.0;  // n ~ 576k, m ~ 2.9M
/// The input is one fixed graph, whatever --seed says. On about 3 in 10
/// amazon-like generator seeds bsp-async needs ~4.4 relaxations per node
/// instead of ~1.8 and runs 2.5x longer, so a seed-dependent graph makes
/// every decompose metric bimodal across runs. Generator seed 9 is one of
/// the slow graphs: the known slow case stays in view.
constexpr std::uint64_t kGraphSeed = 9;
/// The gauge graph mirrors the amazon-like lattice (36000 nodes per unit
/// of scale, ring degree 10, 2% rewired); end-to-end times are normalised
/// to the reference kernel taking kNominalReferenceMs on it at the default
/// scale (see reference.cpp). kSegmentIterations iterations per segment.
constexpr double kGaugeNodesPerScale = 36000;
constexpr std::uint32_t kGaugeDegree = 10;
constexpr double kGaugeRewire = 0.02;
constexpr double kNominalReferenceMs = 64.0;
constexpr int kSegmentIterations = 8;

struct Prepared {
  std::unique_ptr<kcore::graph::Graph> graph;
  std::optional<api::Session> bz;
  std::optional<api::Session> async;
};

}  // namespace

Result run_decompose(const Options& o) {
  const auto& spec = kcore::eval::dataset_by_name(kProfile);
  const double scale = o.scale > 0 ? o.scale : kDefaultScale;
  Result result;
  Tracer tracer;
  SpeedGauge gauge(
      GaugeGraph::generate(
          static_cast<std::uint32_t>(kGaugeNodesPerScale * scale),
          kGaugeDegree, kGaugeRewire, kGraphSeed),
      kNominalReferenceMs * scale / kDefaultScale);

  Samples setup_s;
  Samples setup_norm;  // each set-up scaled by kernel timings around it
  Samples build_ms;
  Samples prepare_ms;
  Samples seq_ms;
  Prepared p;
  std::vector<kcore::graph::NodeId> reference;
  for (int i = 0; i < o.setups; ++i) {
    // Drop the previous copy first (sessions before the graph they
    // reference), so peak RSS holds one instance.
    p.async.reset();
    p.bz.reset();
    p.graph.reset();
    gauge.time();
    const auto start = Clock::now();
    p.graph = std::make_unique<kcore::graph::Graph>(
        spec.build(scale, kGraphSeed));
    build_ms.add(ms_since(start));

    const auto prep_start = Clock::now();
    p.bz.emplace(*p.graph, api::kProtocolBz);
    p.bz->prepare();
    api::RunOptions async_options;
    async_options.threads = nproc();
    p.async.emplace(*p.graph, api::kProtocolBspAsync, async_options);
    p.async->prepare();
    prepare_ms.add(ms_since(prep_start));
    const double setup_seconds = ms_since(start) / 1000.0;
    setup_s.add(setup_seconds);

    gauge.time();
    gauge.time();
    setup_norm.add(setup_seconds * gauge.close_segment());

    const auto bz_start = Clock::now();
    reference = kcore::seq::coreness_bz(*p.graph);
    seq_ms.add(ms_since(bz_start));
  }
  const double n = static_cast<double>(p.graph->num_nodes());
  const double m = static_cast<double>(p.graph->num_edges());

  Samples bz_ms;  // raw wall times
  Samples async_ms;
  Samples bz_norm;  // scaled by their segment's speed factor
  Samples async_norm;
  Samples segment_bz;
  Samples segment_async;
  auto close_segment = [&] {
    const double f = gauge.close_segment();
    bz_norm.append(segment_bz, f);
    async_norm.append(segment_async, f);
    segment_bz = Samples{};
    segment_async = Samples{};
  };
  Samples async_ms_untraced;
  Samples async_ms_traced;
  Samples overhead_ms;
  Samples par_setup_ms;
  Samples par_run_ms;
  Samples relaxations;
  Samples kernel_calls;
  Samples steals;
  Samples detector_passes;
  double sum_relax = 0;
  double sum_skipped = 0;
  double sum_pop_scans = 0;

  // Runs one Session::run() and checks it against `bz`. Returns the
  // report with elapsed_ms replaced by the wall time of the call, or
  // nullopt when the call threw or disagreed (counted as failed).
  auto run_one = [&](const api::Session& session, const char* span_name,
                     bool traced) -> std::optional<api::DecomposeReport> {
    ++result.attempted;
    std::uint32_t span = 0;
    if (traced) span = tracer.begin(span_name);
    const auto start = Clock::now();
    std::optional<api::DecomposeReport> report;
    try {
      report.emplace(session.run());
    } catch (const std::exception&) {
      if (traced) tracer.end(span);
      ++result.failed;
      return std::nullopt;
    }
    const double wall = ms_since(start);
    if (traced) tracer.end(span);
    if (report->coreness != reference) {
      ++result.failed;
      return std::nullopt;
    }
    overhead_ms.add(wall - report->elapsed_ms);
    report->elapsed_ms = wall;  // the caller's view: wall time of run()
    return report;
  };

  // The traced run alternates untraced and traced iterations; the
  // difference between the two is the tracing overhead.
  const auto measure_start = Clock::now();
  for (int i = 0; ms_since(measure_start) < o.seconds * 1000.0; ++i) {
    const bool traced = o.trace && i % 2 == 1;
    std::uint32_t iteration = 0;
    if (traced) iteration = tracer.begin("bench.iteration");

    if (auto report = run_one(*p.bz, "api.Session::run(bz)", traced)) {
      bz_ms.add(report->elapsed_ms);
      segment_bz.add(report->elapsed_ms);
    }
    if (auto report = run_one(*p.async, "api.Session::run(bsp-async)", traced)) {
      async_ms.add(report->elapsed_ms);
      segment_async.add(report->elapsed_ms);
      (traced ? async_ms_traced : async_ms_untraced).add(report->elapsed_ms);
      if (const auto* x = std::get_if<api::AsyncExtras>(&report->extras)) {
        par_setup_ms.add(x->setup_ms);
        par_run_ms.add(x->run_ms);
        relaxations.add(static_cast<double>(x->relaxations));
        kernel_calls.add(
            static_cast<double>(x->relaxations - x->skipped_recomputes));
        steals.add(static_cast<double>(x->steals));
        detector_passes.add(static_cast<double>(x->detector_passes));
        sum_relax += static_cast<double>(x->relaxations);
        sum_skipped += static_cast<double>(x->skipped_recomputes);
        sum_pop_scans += static_cast<double>(x->pop_scans);
      } else {
        ++result.failed;  // bsp-async must report its extras
      }
    }
    gauge.time();
    if (traced) tracer.end(iteration);
    if ((i + 1) % kSegmentIterations == 0) close_segment();
  }
  if (!segment_bz.empty() || !segment_async.empty()) close_segment();

  result.note("nodes", n);
  result.note("edges", m);
  result.note("bz_runs", static_cast<double>(bz_ms.size()));
  result.note("async_runs", static_cast<double>(async_ms.size()));
  result.note("setups", static_cast<double>(setup_s.size()));
  const double f = gauge.overall_factor();
  result.note("speed_factor", f);
  result.note("raw_setup_s", setup_s.median());
  result.note("raw_op_ms_p50", async_ms.percentile(50));
  result.note("raw_bz_ms_p50", bz_ms.percentile(50));

  if (!o.trace) {
    result.add("setup_s", setup_norm.median(), "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    result.add("op_ms.p50", async_norm.percentile(50), "ms");
    result.add("bz_ms.p50", bz_norm.percentile(50), "ms");
    return result;
  }

  result.add("graph.build_ms", build_ms.median(), "ms");
  result.add("api.prepare_ms", prepare_ms.median(), "ms");
  result.add("api.async_ms.p90", async_ms.percentile(90), "ms");
  result.add("api.overhead_ms", overhead_ms.median(), "ms");
  result.add("par.setup_ms", par_setup_ms.median(), "ms");
  result.add("par.run_ms", par_run_ms.median(), "ms");
  result.add("par.relaxations_per_node", relaxations.median() / n, "ratio");
  result.add("par.skipped_frac", sum_relax > 0 ? sum_skipped / sum_relax : 0,
             "ratio");
  result.add("par.pop_scans_per_relax",
             sum_relax > 0 ? sum_pop_scans / sum_relax : 0, "ratio");
  result.add("par.steals", steals.median(), "count");
  result.add("par.detector_passes", detector_passes.median(), "count");
  result.add("core.kernel_calls", kernel_calls.median(), "count");
  result.add("seq.recompute_ms", seq_ms.median(), "ms");
  const double untraced = async_ms_untraced.median();
  result.add("trace.overhead_frac",
             untraced > 0 ? async_ms_traced.median() / untraced - 1.0 : 0.0,
             "ratio");
  result.note("spans", static_cast<double>(tracer.recorded()));
  if (!o.trace_out.empty()) tracer.write_chrome_trace(o.trace_out);
  return result;
}

}  // namespace kbench
