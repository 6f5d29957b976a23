#!/usr/bin/env python3
"""Builds and runs the pmp2 repository benchmark (see README.md).

Run from the repository root:

  python3 benchmark/run.py                   # every workload, end-to-end metrics
  python3 benchmark/run.py --traced          # ... and the per-layer metrics
  python3 benchmark/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]
  python3 benchmark/run.py --prepare         # build and encode the inputs only
  python3 benchmark/run.py --repeat N        # N seeds per workload: median, IQR
  python3 benchmark/run.py --compare A.json B.json
  python3 benchmark/run.py --smoke           # 2 s per workload, both traces

Every mode builds the benchmark into .bench_build/ first and encodes the
three pinned input streams into .bench_build/streams/ (or --streams DIR)
when they are missing. A single-workload run prints the benchmark binary's
output, whose last line is its JSON result, and exits with its status. The
other modes write every result to --out and exit nonzero when any output
was wrong (or, for --compare, when a metric regressed beyond its bound).
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "pmp2_benchmark"
STREAMS = ("cif", "sd", "hd")
DEFAULT_SEED = 1
SMOKE_SECONDS = 2
# A workload process gets this long before it is killed (the contract each
# run is held to is 180 s).
RUN_TIMEOUT_S = 175


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(message, code=2):
    log("run.py: " + message)
    sys.exit(code)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark binary."""
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", *generator, "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    compile_ = ["cmake", "--build", str(BUILD), "--target", "pmp2_benchmark",
                "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def prepare(streams):
    """Encodes the missing input streams, one process per stream."""
    missing = [s for s in STREAMS if not (streams / (s + ".m2v")).is_file()]
    if not missing:
        return
    log("encoding %s into %s (once; HD takes about two minutes)"
        % (", ".join(missing), streams))
    procs = [subprocess.Popen([str(BINARY), "--prepare=" + s,
                               "--streams=" + str(streams)])
             for s in missing]
    codes = [p.wait() for p in procs]
    if any(codes):
        fail("stream preparation failed")


def setup(streams):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("pmp2 sources not found at %s" % (ROOT / "src"))
    # One build at a time: concurrent invocations in one checkout wait
    # here instead of racing on the build and the stream cache.
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        build()
        prepare(streams)


def run_one(workload, seed, seconds, trace, streams, echo):
    """Runs one workload process. Returns (exit code, result or None, host)."""
    cmd = [str(BINARY), "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace,
           "--streams=" + str(streams)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s: timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1, None, ""
    lines = proc.stdout.splitlines()
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    host = next((l for l in lines if l.startswith("host ")), "")
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, result, host


def run_many(out, workloads, seeds, traces, seconds, streams):
    doc = {"schema": "pmp2-benchmark/1", "runs": []}
    ok = True
    for workload in workloads:
        for seed in seeds:
            for trace in traces:
                log("== %s seed=%d trace=%d seconds=%s"
                    % (workload, seed, trace, seconds))
                code, result, host = run_one(workload, seed, seconds, trace,
                                             streams, echo=False)
                doc["host"] = host
                ok = ok and code == 0 and bool(result and result["correct"])
                doc["runs"].append({"workload": workload, "seed": seed,
                                    "trace": trace, "seconds": seconds,
                                    "exit_code": code, "result": result})
                if result:
                    for name, m in result["metrics"].items():
                        print("%-14s %-40s %14.6g %s"
                              % (workload, name, m["value"], m["unit"]))
                    if not result["correct"] or result["failed"]:
                        print("%-14s FAILED %d of %d"
                              % (workload, result["failed"],
                                 result["attempted"]))
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    log("wrote " + str(out))
    return doc, ok


def values_by_metric(doc, trace):
    """{(workload, metric): [values]} over a results document's runs."""
    table = {}
    for run in doc["runs"]:
        if run["trace"] != trace or not run["result"]:
            continue
        for name, m in run["result"]["metrics"].items():
            table.setdefault((run["workload"], name), []).append(m["value"])
    return table


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(doc):
    for trace in (0, 1):
        for (workload, name), values in values_by_metric(doc, trace).items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            print("%-14s %-40s median %12.6g  IQR %12.6g  IQR/median %6.3f"
                  "  (n=%d)" % (workload, name, med, q3 - q1, spread,
                                len(values)))


def compare(base_path, new_path):
    """Regression check of new against base with BENCHMARK.json's bounds."""
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    base_values = values_by_metric(base, 0)
    new_values = values_by_metric(new, 0)
    ok = all(r["result"] and r["result"]["correct"] for r in new["runs"])
    if not ok:
        print("FAIL: a run in %s reported wrong outputs" % new_path)
    bench = spec()
    for workload in [w["name"] for w in bench["workloads"]]:
        for metric in bench["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base_values or key not in new_values:
                continue
            a = statistics.median(base_values[key])
            b = statistics.median(new_values[key])
            change = (b - a) / a if a else 0.0
            worse = change if metric["better"] == "lower" else -change
            verdict = "REGRESSION" if worse > metric["bound"] else "ok"
            ok = ok and verdict == "ok"
            print("%-14s %-16s %12.6g -> %12.6g  %+7.2f%%  bound %4.1f%%  %s"
                  % (workload, metric["name"], a, b, 100 * change,
                     100 * metric["bound"], verdict))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="also run every workload traced")
    parser.add_argument("--prepare", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--streams", default=str(BUILD / "streams"))
    parser.add_argument("--out", default=str(BUILD / "results" / "latest.json"))
    args = parser.parse_args()

    if args.compare:
        sys.exit(0 if compare(*args.compare) else 1)

    streams = Path(args.streams).resolve()
    setup(streams)
    if args.prepare:
        return
    seconds = args.seconds or spec()["run_seconds"]
    if args.smoke:
        seconds = SMOKE_SECONDS
    if args.workload and args.repeat == 1 and not args.smoke:
        code, _, _ = run_one(args.workload, args.seed, seconds, args.trace,
                             streams, echo=True)
        sys.exit(code)

    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in spec()["workloads"]])
    seeds = range(args.seed, args.seed + max(args.repeat, 1))
    traces = (0, 1) if args.traced or args.smoke else (args.trace,)
    doc, ok = run_many(args.out, workloads, seeds, traces, seconds, streams)
    if args.repeat > 1:
        summarize(doc)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
