#!/usr/bin/env python3
"""End-to-end benchmark of the k-core library: one command per workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

Run from the root of a checkout. The first call builds the harness
(perfbench/CMakeLists.txt, a Release build of ../src plus perfbench/harness)
into .bench_build/ (or $CARGO_TARGET_DIR when that lies inside the
checkout); later calls rebuild incrementally. It then runs the workload,
checks every timed output against sequential `bz`, and prints as its last
line one JSON object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end_to_end metrics of BENCHMARK.json, with
--trace 1 its per_layer metrics; per-layer metrics a workload does not
exercise are reported as 0. The line before it is the run's provenance.
Each run also writes .bench_build/results/<workload>-seed<n>-trace<t>.json
(provenance + result + run facts) and, when traced, a Chrome trace of the
harness spans next to it.

Exit codes: 0 success; 1 a checked output was wrong (the result is still
printed); 2 the harness could not be built; 3 the harness failed or ran
out of time; 4 the harness output broke the metric contract.

--self-check runs every workload, traced and untraced, at reduced sizes
for about a second each, and checks that every metric named in
BENCHMARK.json is emitted with its unit, that nothing failed (which
includes the traced harness ending with the same coreness as the
untraced Service), and that predictions.json names only known metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")

# Dataset stand-in and scale per workload (eval::dataset_by_name profiles).
# The harness owns the profile choice; the names here are for provenance.
WORKLOADS = {
    "decompose": {"profile": "amazon-like", "scale": 16.0},
    "churn-insert": {"profile": "amazon-like", "scale": 1.0},
    "churn-delete-durable": {"profile": "slashdot-like", "scale": 1.0},
}
SELF_CHECK_SECONDS = 1
SELF_CHECK_SCALE = {"decompose": 0.25, "churn-insert": 0.1,
                    "churn-delete-durable": 0.1}
RUN_LIMIT_S = 170  # one run (excluding the build) must end within 180 s


class BenchError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = os.path.realpath(os.path.join(ROOT, target))
    if os.path.commonpath([path, os.path.realpath(ROOT)]) != os.path.realpath(ROOT):
        path = os.path.join(ROOT, ".bench_build")
    return path


def nproc():
    return len(os.sched_getaffinity(0))


def build(out_dir):
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError(2, "no src/ next to perfbench/: run from a full checkout")
    build_dir = os.path.join(out_dir, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(nproc())])
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(out_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                raise BenchError(2, "build failed, see " + log_path)
    return os.path.join(build_dir, "kbench")


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layer


def run_harness(exe, out_dir, workload, seed, seconds, trace, timeout,
                scale=None):
    """Runs kbench once; returns its parsed result line. `scale` shrinks
    the workload's dataset (self-check) and then sets up only once."""
    state_dir = os.path.join(out_dir, "state", "%s-%d" % (workload, os.getpid()))
    results_dir = os.path.join(out_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--state-dir", state_dir,
           "--scale", str(scale or WORKLOADS[workload]["scale"])]
    if scale:
        cmd += ["--setups", "1"]
    if trace:
        cmd += ["--trace-out", os.path.join(
            results_dir, "%s-seed%d.trace.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise BenchError(3, "%s did not finish within %.0f s" % (workload, timeout))
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise BenchError(3, "harness exited with code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def checked_metrics(raw, trace, e2e, layer):
    """The metric set the contract asks for, validated against BENCHMARK.json."""
    expected = layer if trace else e2e
    metrics = {}
    for name, m in raw["metrics"].items():
        if name not in expected:
            raise BenchError(4, "harness emitted unlisted metric %s" % name)
        if m["unit"] != expected[name]:
            raise BenchError(4, "metric %s has unit %s, BENCHMARK.json says %s"
                             % (name, m["unit"], expected[name]))
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    for name, unit in expected.items():
        if name in metrics:
            continue
        if not trace:
            raise BenchError(4, "harness did not emit %s" % name)
        metrics[name] = {"value": 0, "unit": unit}  # layer not exercised
    return {name: metrics[name] for name in expected}


def provenance(exe, seed, workload, seconds, trace):
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    cache = {}
    with open(os.path.join(os.path.dirname(exe), "CMakeCache.txt")) as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "compiler": version[0] if version else compiler,
        "nproc": nproc(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "dataset": dict(WORKLOADS[workload]),
    }


def run(args):
    start = time.monotonic()
    out_dir = build_root()
    exe = build(out_dir)
    built_s = time.monotonic() - start
    e2e, layer = load_contract()
    raw = run_harness(exe, out_dir, args.workload, args.seed, args.seconds,
                      args.trace, RUN_LIMIT_S - (time.monotonic() - start - built_s))
    metrics = checked_metrics(raw, args.trace, e2e, layer)
    result = {"correct": bool(raw["correct"]) and raw["failed"] == 0,
              "attempted": int(raw["attempted"]), "failed": int(raw["failed"]),
              "metrics": metrics}
    prov = provenance(exe, args.seed, args.workload, args.seconds, args.trace)
    path = os.path.join(out_dir, "results", "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump({"provenance": prov, "result": result, "info": raw["info"]},
                  f, indent=2)
        f.write("\n")
    print(json.dumps({"provenance": prov, "info": raw["info"]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def prediction_problems(e2e, layer):
    """Names in predictions.json that BENCHMARK.json does not define."""
    with open(os.path.join(BENCH_DIR, "predictions.json")) as f:
        predictions = json.load(f)["predictions"]
    problems = []
    for p in predictions:
        for name in p["metrics"]:
            if name not in layer:
                problems.append("predictions.json: unknown layer metric " + name)
        for name in p["moves"]:
            if name not in e2e and name not in layer:
                problems.append("predictions.json: unknown metric " + name)
        for name in p["workloads"] + p["no_change"]:
            if name not in WORKLOADS:
                problems.append("predictions.json: unknown workload " + name)
    return problems


def self_check():
    out_dir = build_root()
    exe = build(out_dir)
    e2e, layer = load_contract()
    problems = []
    measured_layers = set()
    for workload in WORKLOADS:
        for trace in (0, 1):
            raw = run_harness(exe, out_dir, workload, 1, SELF_CHECK_SECONDS,
                              trace, RUN_LIMIT_S, SELF_CHECK_SCALE[workload])
            tag = "%s --trace %d" % (workload, trace)
            checked_metrics(raw, trace, e2e, layer)  # names and units
            if raw["failed"] or not raw["correct"] or raw["attempted"] < 1:
                problems.append("%s: %d of %d operations failed"
                                % (tag, raw["failed"], raw["attempted"]))
            if trace:
                measured_layers.update(raw["metrics"])
            else:
                zero = [n for n in e2e if raw["metrics"][n]["value"] <= 0]
                if zero:
                    problems.append("%s: non-positive %s" % (tag, ", ".join(zero)))
            print("ok  %-32s attempted=%d failed=%d"
                  % (tag, raw["attempted"], raw["failed"]))
    unmeasured = sorted(set(layer) - measured_layers)
    if unmeasured:
        problems.append("per-layer metrics no workload emits: "
                        + ", ".join(unmeasured))
    problems += prediction_problems(e2e, layer)
    for p in problems:
        print("FAIL " + p)
    print("self-check: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_check:
            return self_check()
        if not args.workload:
            parser.error("--workload is required")
        return run(args)
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
