// kbench: the end-to-end benchmark harness. See bench.h for the timing
// rules and perfbench/README.md for the workloads and metrics.
//
//   kbench --workload <decompose|churn-insert|churn-delete-durable>
//          --seed <n> --seconds <s> --trace <0|1>
//          [--scale <x>] [--setups <n>]
//          [--state-dir <dir>] [--trace-out <file>]
//
// Prints one JSON line {"correct", "attempted", "failed", "metrics",
// "info"}; exits 1 with a message on stderr when the run cannot complete.
#include <exception>
#include <iostream>
#include <string>

#include "bench.h"
#include "util/json.h"

namespace {

kbench::Options parse(int argc, char** argv) {
  kbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--scale") {
      o.scale = std::stod(value);
    } else if (flag == "--setups") {
      o.setups = std::stoi(value);
    } else if (flag == "--state-dir") {
      o.state_dir = value;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (o.seconds <= 0 || o.setups < 1 || o.scale < 0) {
    throw std::invalid_argument("--seconds, --setups and --scale must be positive");
  }
  return o;
}

void print(const kbench::Result& r) {
  kcore::util::JsonWriter json(std::cout);
  json.begin_object()
      .member("correct", r.failed == 0)
      .member("attempted", r.attempted)
      .member("failed", r.failed)
      .key("metrics")
      .begin_object();
  for (const kbench::Metric& m : r.metrics) {
    json.key(m.name).begin_object().member("value", m.value).member("unit", m.unit);
    json.end_object();
  }
  json.end_object().key("info").begin_object();
  for (const kbench::Metric& m : r.info) json.member(m.name, m.value);
  json.end_object().end_object();
  std::cout << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const kbench::Options o = parse(argc, argv);
    kbench::Result result;
    if (o.workload == "decompose") {
      result = kbench::run_decompose(o);
    } else if (o.workload == "churn-insert" ||
               o.workload == "churn-delete-durable") {
      if (o.state_dir.empty()) {
        throw std::invalid_argument("churn workloads need --state-dir");
      }
      result = kbench::run_churn(o);
    } else {
      throw std::invalid_argument("unknown workload '" + o.workload + "'");
    }
    print(result);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "kbench: " << e.what() << '\n';
    return 1;
  }
}
