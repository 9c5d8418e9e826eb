#!/usr/bin/env python3
"""Builds and runs the repository benchmark, aic_perfbench.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the library from src/ plus
the aic_perfbench program) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls only rebuild what changed. Build output
goes to stderr, so the benchmark's result object stays the last line of
stdout. Traced runs also write their Chrome trace exports (open them in
chrome://tracing or Perfetto) under <build dir>/traces.

--selftest runs the benchmark's own tiny-size self-test and checks that
BENCHMARK.json names exactly the metrics the benchmark prints, with the
same units and directions.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def check_benchmark_json(binary):
    """BENCHMARK.json and the benchmark's metric catalog must agree."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    listed = subprocess.run([binary, "--list-metrics"], capture_output=True,
                            text=True, check=True).stdout
    catalog = json.loads(listed.strip().splitlines()[-1])
    errors = []
    seen = set()
    for scope in ("end_to_end", "per_layer"):
        for m in declared[scope]:
            seen.add(m["name"])
            c = catalog.get(m["name"])
            if c is None:
                errors.append("%s: not printed by the benchmark" % m["name"])
            elif (c["scope"], c["unit"], c["better"]) != (
                    scope, m["unit"], m["better"]):
                errors.append("%s: BENCHMARK.json says %s/%s/%s, the "
                              "benchmark %s/%s/%s" % (
                                  m["name"], scope, m["unit"], m["better"],
                                  c["scope"], c["unit"], c["better"]))
    for name in sorted(set(catalog) - seen):
        errors.append("%s: printed but not in BENCHMARK.json" % name)
    for e in errors:
        print("FAIL  " + e)
    print("%s  BENCHMARK.json matches the metric catalog (%d metrics)" % (
        "ok  " if not errors else "FAIL", len(catalog)))
    return not errors


def main(argv):
    bdir = build_dir()
    if not build(bdir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(bdir, "aic_perfbench")
    sys.stdout.flush()
    if argv == ["--selftest"]:
        ok = subprocess.run([binary, "--selftest"]).returncode == 0
        sys.stdout.flush()
        return 0 if check_benchmark_json(binary) and ok else 1
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-dir", traces]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
