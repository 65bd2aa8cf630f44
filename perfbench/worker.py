"""One workload in one fresh process; started by run.py.

Usage (from the checkout root):
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --setup-only
    python3 perfbench/worker.py --workload NAME --write-pins

Times are CPU time of this process (time.process_time), scaled to a
reference machine speed.  The process runs one thread, BLAS included, so on
an idle machine CPU time equals wall time; on a shared machine wall time
also counts the time other tenants hold the core, which no change to the
program can move (on a shared 2-core VM, 4-second buckets of a fixed Python
loop ranged 0.9x-1.8x of their median in wall time, 0.93x-1.03x in CPU
time).  CPU speed itself drifts with the neighbours' load, so a fixed
calibration kernel is timed before every CALIBRATE_EVERY-th op, and each
pass's times are multiplied by REFERENCE_KERNEL_S over that pass's median
kernel time (on that VM, over 35 passes of modules-fp, the pass-time spread
fell from 0.13 to 0.06 of the median; kernel and pass times correlated at
0.89).  Set-up (interpreter start, imports, input generation, warming) is
the CPU time spent before the first op, scaled the same way.
The ops then run in whole passes over the seeded op list, one at a time (a
closed loop with a single caller), for about --seconds; each pass runs
the next round of the op list, built afresh on new relabellings.
With --trace 1 the first pass runs untraced, for the overhead ratio, and
the rest run with every layer's entry points wrapped.  The result is one
JSON object on the last line of stdout.  --write-pins records the sha256 of
every CLI report of every round at the default seed into pins.json.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy  # noqa: E402  (after the BLAS thread count is pinned)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = ".perfbench_work"
PINS = os.path.join(HERE, "pins.json")
# op_p90_ms needs at least ten samples beyond it
MIN_OPS = 100
# the calibration kernel runs before every CALIBRATE_EVERY-th op; its CPU time
# at reference speed (median on the 2-core VM the benchmark was defined on)
CALIBRATE_EVERY = 5
REFERENCE_KERNEL_S = 0.0028
CALIBRATION_MATRIX = numpy.arange(1600, dtype=numpy.int64).reshape(40, 40) % 7


def _kernel(a) -> None:
    """Fixed calibration work: a Python loop with dict stores and small
    int64 matrix products, like the program's own mix."""
    s = 0
    d = {}
    for i in range(10000):
        s += i * i
        d[i & 255] = s
    for _ in range(15):
        a = (a @ a) % 7


def _speed_scale(samples) -> float:
    """Factor taking CPU times measured now to reference speed."""
    return REFERENCE_KERNEL_S / statistics.median(samples)


def _kernel_time(a) -> float:
    t0 = time.process_time()
    _kernel(a)
    return time.process_time() - t0


def _import_program():
    """Import mackeykit from this checkout's src/, and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import mackeykit
    if os.path.dirname(os.path.abspath(mackeykit.__file__)) != os.path.join(src, "mackeykit"):
        raise SystemExit(f"mackeykit imported from {mackeykit.__file__}, not {src}")
    return mackeykit


def _run_passes(workload, ops, seconds, latencies, failures, min_ops=MIN_OPS, tracer=None):
    """Whole passes, the first over `ops` and each later one over the next
    round, for about `seconds` of op time (stop when the next pass would end
    more than half a pass late) and at least `min_ops` ops.  The tracer, if
    any, is installed only while ops run, not while a round is built."""
    start = len(latencies)
    k = 0
    while True:
        if tracer:
            tracer.install()
        try:
            _run_pass(ops, latencies, failures)
        finally:
            if tracer:
                tracer.uninstall()
        k += 1
        spent = sum(latencies[start:])
        if spent + 0.5 * spent / k >= seconds and len(latencies) - start >= min_ops:
            return
        ops = workload.round(k)


def _run_pass(ops, latencies, failures):
    """Run every op once; its latency is its CPU time scaled to reference
    speed by the calibration kernel timings interleaved with this pass."""
    raw, kernel = [], []
    for i, op in enumerate(ops):
        if i % CALIBRATE_EVERY == 0:
            kernel.append(_kernel_time(CALIBRATION_MATRIX))
        t0 = time.process_time()
        try:
            result = op.run()
            error = None
        except Exception as exc:  # an unexpected raise is a failed op
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        raw.append(time.process_time() - t0)
        problems = [error] if error else []
        if not error:
            try:
                problems = op.check(result)
            except Exception as exc:  # a result the oracle cannot read is wrong
                problems = [f"unreadable result: {type(exc).__name__}: {exc}"]
        if problems:
            failures.append({"op": op.id, "problems": problems[:3]})
    scale = _speed_scale(kernel)
    latencies.extend(x * scale for x in raw)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--write-pins", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, HERE)
    mackeykit = _import_program()
    import workloads

    with open(PINS) as fh:
        all_pins = json.load(fh)
    pins = None if args.write_pins else all_pins.get(args.workload, {})
    workload = workloads.Workload(args.workload, ROOT, WORKDIR, args.seed, pins)
    ops = workload.round(0)
    setup_s = time.process_time()  # CPU time since the process started
    setup_s *= _speed_scale([_kernel_time(CALIBRATION_MATRIX) for _ in range(5)])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    latencies, failures = [], []
    if args.write_pins:
        for k in range(workloads.ROUNDS):
            _run_pass(workload.round(k), latencies, failures)
        all_pins[args.workload] = dict(sorted(workload.cli.hashes.items()))
        with open(PINS, "w") as fh:
            json.dump(all_pins, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(json.dumps({"pinned": len(workload.cli.hashes), "failures": failures}))
        return 0 if not failures else 1

    out = {"setup_s": setup_s}
    if args.trace:
        from layers import Tracer
        _run_pass(ops, latencies, failures)
        plain = sum(latencies)
        tracer = Tracer()
        _run_passes(workload, workload.round(1), args.seconds - plain, latencies, failures,
                    min_ops=1, tracer=tracer)
        traced = latencies[len(ops):]
        overhead = (sum(traced) / (len(traced) // len(ops))) / plain
        out["layers"] = tracer.metrics(overhead)
    else:
        _run_passes(workload, ops, args.seconds, latencies, failures)
    out.update(
        latencies=latencies,
        ops_per_pass=len(ops),
        failures=failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env={
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "blas": _blas_name(numpy),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "mackeykit": mackeykit.__version__,
        },
    )
    print(json.dumps(out))
    return 0


def _blas_name(numpy) -> str:
    try:
        cfg = numpy.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout differs across numpy versions
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
