#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a source checkout.

One run:
    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 30 --trace 0

The last line of standard output is the run's JSON result.  With
--repeat K the workload runs K times with seeds seed..seed+K-1, and a
steadiness report gives each metric's median, quartiles and relative
spread (interquartile distance over the median) against its bound in
BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
SERVE = os.path.join("_build", "default", "bin", "mcs_serve.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")) or not os.path.isdir(
        os.path.join(ROOT, "lib")
    ):
        fail("no source tree to build (dune-project and lib/ are missing)")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe", "./bin/mcs_serve.exe"],
            cwd=ROOT,
            stdout=sys.stderr,
        )
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if r.returncode != 0:
        fail("build failed")


def run_once(args, seed):
    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve-bin", SERVE,
    ]
    # Its own process group, so that a run cut short takes the daemon it
    # spawned down with it.
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(out)
    sys.stdout.flush()
    return p.returncode, out


def last_json(out):
    lines = [l for l in out.splitlines() if l.startswith("{")]
    return json.loads(lines[-1]) if lines else None


def repeat(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for k in range(args.repeat):
        code, out = run_once(args, args.seed + k)
        res = last_json(out)
        if code != 0 or res is None or not res["correct"]:
            fail("run with seed %d failed" % (args.seed + k))
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print("steadiness of %s over %d runs (seeds %d..%d)"
          % (args.workload, args.repeat, args.seed, args.seed + args.repeat - 1))
    print("%-30s %14s %14s %14s %8s %6s" % ("metric", "q1", "median", "q3", "spread", "bound"))
    report = {}
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "over bound" if spread > bound else ("over 1/3" if spread > bound / 3 else "ok")
        print("%-30s %14.6g %14.6g %14.6g %8.4f %6s %s"
              % (name, q1, med, q3, spread, "-" if bound is None else bound, flag))
        report[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                        "values": vs}
    print(json.dumps({"workload": args.workload, "runs": args.repeat, "metrics": report}))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["paper-grid", "random-sweep", "serve-mix"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run K times with consecutive seeds and report steadiness")
    args = p.parse_args()
    build()
    if args.repeat > 0:
        repeat(args)
        return
    code, _ = run_once(args, args.seed)
    sys.exit(code)


if __name__ == "__main__":
    main()
