#include "api/cli_options.h"

#include <limits>

#include "util/check.h"

namespace kcore::api {

core::RunOptions run_options_from_args(const util::Args& args,
                                       const core::RunOptions& defaults) {
  core::RunOptions options = defaults;
  if (const auto mode = args.get("mode")) {
    const auto parsed = core::parse_delivery_mode(*mode);
    KCORE_CHECK_MSG(parsed.has_value(),
                    "--mode '" << *mode << "' is not a delivery mode; "
                               << "accepted: sync, cycle");
    options.mode = *parsed;
  }
  constexpr auto kMaxI64 = std::numeric_limits<std::int64_t>::max();
  options.seed = static_cast<std::uint64_t>(args.get_checked(
      "seed", static_cast<std::int64_t>(defaults.seed), kMaxI64));
  options.max_rounds = static_cast<std::uint64_t>(args.get_checked(
      "max-rounds", static_cast<std::int64_t>(defaults.max_rounds), kMaxI64));
  options.num_hosts = static_cast<sim::HostId>(args.get_checked(
      "hosts", static_cast<std::int64_t>(defaults.num_hosts),
      std::numeric_limits<sim::HostId>::max()));
  options.threads = static_cast<unsigned>(args.get_checked(
      "threads", static_cast<std::int64_t>(defaults.threads), 4096));
  if (const auto assignment = args.get("assignment")) {
    const auto parsed = core::parse_assignment_policy(*assignment);
    KCORE_CHECK_MSG(parsed.has_value(),
                    "--assignment '" << *assignment
                                     << "' is not an assignment policy; "
                                     << "accepted: modulo, block, random, "
                                     << "hash");
    options.assignment = *parsed;
  }
  if (const auto sched = args.get("sched")) {
    const auto parsed = core::parse_sched_policy(*sched);
    KCORE_CHECK_MSG(parsed.has_value(),
                    "--sched '" << *sched << "' is not a scheduling policy; "
                                << "accepted: lifo, delta, bound");
    options.sched = *parsed;
  }
  if (const auto comm = args.get("comm")) {
    const auto parsed = core::parse_comm_policy(*comm);
    KCORE_CHECK_MSG(parsed.has_value(),
                    "--comm '" << *comm << "' is not a comm policy; "
                               << "accepted: broadcast, point-to-point");
    options.comm = *parsed;
  }
  options.faults.max_extra_delay = static_cast<std::uint32_t>(args.get_checked(
      "max-extra-delay",
      static_cast<std::int64_t>(defaults.faults.max_extra_delay),
      std::numeric_limits<std::uint32_t>::max()));
  options.faults.duplicate_probability =
      args.get_double("dup-prob", defaults.faults.duplicate_probability);
  if (args.has("no-targeted-send")) options.targeted_send = false;
  // Telemetry (obs/options.h). --trace itself is a tool-level flag (it
  // names an output file); the value-bearing obs knobs live here so
  // every binary shares them.
  if (args.has("metrics")) options.obs.metrics = true;
  options.obs.sample_period_ms =
      args.get_double("sample-period", defaults.obs.sample_period_ms);
  options.obs.trace_capacity = static_cast<std::uint32_t>(args.get_checked(
      "trace-capacity",
      static_cast<std::int64_t>(defaults.obs.trace_capacity),
      std::numeric_limits<std::uint32_t>::max()));
  return options;
}

const char* run_options_flag_help() {
  return R"(run options (shared by every protocol; unused knobs are ignored):
  --mode sync|cycle          delivery semantics of the SIMULATED protocols
                             (default: cycle); the *-par protocols always
                             execute barrier-synchronous real rounds, and
                             bsp-async has no rounds at all
  --seed S                   RNG seed (default: 1)
  --max-rounds N             hard round cap, 0 = automatic (default: 0)
  --hosts N                  hosts / BSP workers (default: 16)
  --threads N                worker threads for the *-par and bsp-async
                             protocols (default: 0 = one per hw thread)
  --sched lifo|delta|bound   bsp-async dirty-vertex pop order (default:
                             lifo); delta pops the most-changed
                             neighborhood first, bound the lowest current
                             estimate (the peeling frontier)
  --assignment modulo|block|random|hash   node-to-host policy (default: modulo)
  --comm broadcast|point-to-point         one-to-many comm (default: point-to-point)
  --max-extra-delay D        fault plan: extra delivery delay in rounds
  --dup-prob P               fault plan: duplication probability in [0,1]
  --no-targeted-send         disable the paper's 3.1.2 optimization
  --metrics                  collect per-worker counters + latency
                             histograms (*-par / bsp-async runtimes only)
  --sample-period MS         background convergence sampler period in ms,
                             0 = off (default: 0)
  --trace-capacity N         per-worker trace ring capacity in events
                             (default: 16384; used with --trace))";
}

}  // namespace kcore::api
