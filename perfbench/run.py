"""mackeykit benchmark: seeded workloads, oracle-checked ops, per-layer traces.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: cli-mix, modules-fp, modules-q, lattice (see workloads.py for
what each runs and why).  The default seed is 0; CLI reports are pinned by
sha256 for that seed only (pins.json; regenerate with worker.py
--write-pins after an intended output change).

Each workload runs in a fresh worker process with BLAS pinned to one
thread.  Op and set-up times are the worker's CPU time scaled to a
reference machine speed by an interleaved calibration kernel (worker.py
says why).  With --trace 0 the last line of stdout is a JSON object whose
metrics are the end-to-end ones:

    ops_per_s    verified ops per second of op time (closed loop, one caller)
    op_p50_ms    median op latency (Harrell-Davis estimate)
    op_p90_ms    90th-percentile op latency, likewise (runs hold at least
                 100 ops, so ten or more lie beyond it)
    setup_s      median set-up time over three fresh processes
    peak_rss_mb  peak resident set of the measuring process

With --trace 1 they are the per-layer self times (wall seconds) and
counts of layers.py, plus trace_overhead.  Lines before the last give a readable table, the
machine and the failure ratio.  The exit code is 0 when the run completed,
even if an op failed its oracle ("correct": false), and 2 when the checkout
holds no program to measure.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["cli-mix", "modules-fp", "modules-q", "lattice"]
SETUP_SAMPLES = 3
TIMEOUT_S = 150


def _worker(args, *extra):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by Lentz's method on
    its continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(a * math.log(x) + b * math.log1p(-x)
                     + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)) / a
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(2000):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-13:
            return front * (f - 1.0)
    raise ArithmeticError("incomplete beta did not converge")


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a weighted mean of all order
    statistics, steadier than one order statistic when the ops have only a
    few distinct costs."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "mackeykit", "__init__.py")):
        sys.stderr.write(f"no mackeykit sources under {ROOT}/src: nothing to measure\n")
        return 2

    try:
        res = _worker(args)
        setups = [res["setup_s"]]
        if not args.trace:
            setups += [_worker(args, "--setup-only")["setup_s"]
                       for _ in range(SETUP_SAMPLES - 1)]
    finally:
        shutil.rmtree(os.path.join(ROOT, ".perfbench_work"), ignore_errors=True)

    lat_ms = sorted(x * 1000.0 for x in res["latencies"])
    attempted = len(lat_ms)
    failed = len(res["failures"])
    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {
            "ops_per_s": {"value": (attempted - failed) / (sum(lat_ms) / 1000.0), "unit": "1/s"},
            "op_p50_ms": {"value": hd_quantile(lat_ms, 0.5), "unit": "ms"},
            "op_p90_ms": {"value": hd_quantile(lat_ms, 0.9), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    info = dict(res["env"], workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, git_commit=_git_commit(), samples=attempted,
                ops_per_pass=res["ops_per_pass"], setup_samples_s=setups,
                fail_ratio=failed / attempted)
    print(json.dumps({"info": info}))
    for f in res["failures"][:20]:
        print(json.dumps({"failed_op": f}))
    for name, m in metrics.items():
        print(f"{args.workload:11s} {name:34s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:11s} {'fail_ratio':34s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} ops)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
