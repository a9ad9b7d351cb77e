#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a cuttlefish checkout. The first run configures and
builds the library and the driver binary under $CARGO_TARGET_DIR (default
.bench_build) in the checkout; later runs reuse that build. The driver's
output is passed through; its last line is one JSON object holding the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) named
in BENCHMARK.json, and is checked against that list before it is printed.
"""

import argparse
import fcntl
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
RUN_TIMEOUT_S = 170

# The workload-specific headline figures each workload prints by name
# above its result line (README.md, "Reported figures").
REPORTED = {
    "fig10_sweep": ["sweep_vsps", "energy_savings_geomean_pct",
                    "edp_savings_geomean_pct", "slowdown_geomean_pct",
                    "fail_frac"],
    "long_phase": ["sweep_vsps", "energy_savings_geomean_pct",
                   "edp_savings_geomean_pct", "slowdown_geomean_pct",
                   "fail_frac"],
    "session_host": ["host_kernel_s", "host_slowdown_ratio",
                     "host_step_p50_ms", "fail_frac"],
}


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    """Configure (once) and build the driver; returns the binary path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no cuttlefish source tree (CMakeLists.txt, src/) at " + ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (%s)" % " ".join(cmd[:2]), code=3)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(build_dir, "perfbench"), out_dir


def declared(spec, trace):
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, spec, trace):
    """Problems with a result line, as a list of strings (empty: valid)."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    want = declared(spec, trace)
    got = result["metrics"]
    if set(got) != set(want):
        problems.append("metrics %s differ from BENCHMARK.json %s"
                        % (sorted(got), sorted(want)))
    for name, m in got.items():
        if name in want and m.get("unit") != want[name]:
            problems.append("%s: unit %r, declared %r"
                            % (name, m.get("unit"), want[name]))
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: value %r is not a finite number"
                            % (name, value))
        elif not trace and value == 0:
            problems.append("%s: end-to-end metric reads 0" % name)
    return problems


def run_driver(binary, out_dir, args):
    try:
        proc = subprocess.run([binary] + args + ["--out-dir", out_dir],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver did not finish within %d s" % RUN_TIMEOUT_S, code=5)
    return proc.returncode, proc.stdout.splitlines()


def run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (BENCHMARK.json has %s)"
             % (args.workload, ", ".join(names)))
    binary, out_dir = build()
    code, lines = run_driver(binary, out_dir, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)])
    if not lines:
        fail("driver printed nothing (exit %d)" % code, code=code or 4)
    for line in lines[:-1]:
        print(line)
    problems = check_result(lines[-1], spec, args.trace == 1)
    if problems:
        fail("invalid result line: " + "; ".join(problems), code=4)
    print(lines[-1])
    sys.stdout.flush()
    return code


def self_test():
    """Smoke-size check of the benchmark itself (README.md, "Self-test")."""
    spec = load_spec()
    errors = []
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[section]:
            if not NAME_RE.match(entry["name"]):
                errors.append("BENCHMARK.json: bad name %r" % entry["name"])
    binary, out_dir = build()

    code, lines = run_driver(binary, out_dir, ["--oracle-selftest"])
    print("\n".join(lines))
    if code != 0:
        errors.append("oracle did not trip on a bit-flipped table")

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            args = ["--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--smoke"]
            if workload == "fig10_sweep" and trace == 0:
                # Full size at the default seed: exercises the pinned digest.
                args = ["--workload", workload, "--seconds", "1",
                        "--trace", "0"]
            code, lines = run_driver(binary, out_dir, args)
            where = "%s trace %d" % (workload, trace)
            before = len(errors)
            if code != 0 or not lines:
                errors.append("%s: exit %d" % (where, code))
                continue
            errors += ["%s: %s" % (where, p)
                       for p in check_result(lines[-1], spec, trace == 1)]
            if not json.loads(lines[-1]).get("correct"):
                errors.append("%s: correct is false" % where)
            if trace == 0:
                printed = {}
                for line in lines:
                    parts = line.split()
                    if len(parts) >= 3 and parts[0] == "report":
                        printed[parts[1]] = parts[2:]
                for name in REPORTED[workload]:
                    if name not in printed:
                        errors.append("%s: figure %s not printed"
                                      % (where, name))
                    elif not NAME_RE.match(name):
                        errors.append("%s: bad figure name %s" % (where, name))
            print("self-test: %-24s %s"
                  % (where, "ok" if len(errors) == before else "FAIL"))
    for e in errors:
        print("self-test FAIL: " + e)
    print("self-test: %s" % ("FAIL" if errors else "PASS"))
    return 1 if errors else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
