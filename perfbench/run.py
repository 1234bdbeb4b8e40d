#!/usr/bin/env python3
"""hbpc benchmark: four solver workloads, end-to-end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload orbit --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: repeated
solves for ``--seconds``, every result checked, medians reported.
``--trace 1`` runs the workload untraced, then twice under the outside-in
tracer (tracing.py), checks that the traced runs are bitwise equal to the
untraced one and that their counts repeat exactly, and reports the
per-layer metrics. The last line of standard output is one JSON object; the
line before it holds the machine notes. Both, and the spans, are also
written to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# One BLAS thread: the workloads keep at most nproc = 2 threads busy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_PROBES = 3     # fresh processes timed for setup_s
MIN_REPS = 3         # repetitions measured even past --seconds
PROBE_TIMEOUT = 120.0
CAL_MIN_S = 0.3      # machine-speed calibration after each rep: at least this,
CAL_SHARE = 0.2      # or this share of the rep's time


def _import_hbpc():
    """Import hbpc from this checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "hbpc", "__init__.py")):
        raise SystemExit(f"perfbench: no hbpc sources under {SRC}")
    sys.path.insert(0, SRC)
    import hbpc
    if not os.path.abspath(hbpc.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported hbpc from {hbpc.__file__}, not {SRC}")
    return hbpc


def machine_notes() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": cpu,
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_at_start": list(os.getloadavg()),
            "python": platform.python_version()}


def probe_setup(workload: str) -> float:
    """Seconds from spawning a fresh interpreter until it is ready to solve."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--setup-probe"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe for {workload} failed (exit {code})")
    return elapsed


def _equal(a, b) -> bool:
    """Bitwise equality of nested tuples/lists of arrays and plain values."""
    import numpy as np
    if isinstance(a, (tuple, list)):
        return (isinstance(b, (tuple, list)) and len(a) == len(b)
                and all(_equal(x, y) for x, y in zip(a, b)))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _fail_if_differs(rep, first, why: str):
    for kind, out in rep.outputs.items():
        if kind in first.outputs and not _equal(out, first.outputs[kind]):
            for rec in rep.records:
                if rec.kind == kind:
                    rec.ok, rec.why = False, why


def run_reps(wl, seconds: float, seed: int):
    """Start repetitions until ``seconds`` have passed, checking every rep
    bitwise against the first. Returns the reps and the machine speeds
    measured before the first rep and after each one."""
    from calibrate import speed
    rng = random.Random(seed)
    threads = getattr(wl, "workers", 1)
    reps, speeds = [], [speed(CAL_MIN_S, threads)]
    t_start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - t_start < seconds:
        t0 = time.perf_counter()
        rep = wl.rep(rng)
        speeds.append(speed(max(CAL_MIN_S, CAL_SHARE * (time.perf_counter() - t0)),
                            threads))
        if reps:
            _fail_if_differs(rep, reps[0], "differs bitwise from the first rep")
        reps.append(rep)
    return reps, speeds


def _tally(reps):
    records = [rec for rep in reps for rec in rep.records]
    attempted = sum(rec.ops for rec in records)
    failed = sum(rec.ops for rec in records if not rec.ok)
    for rec in records:
        if not rec.ok:
            print(f"perfbench: {rec.kind} failed: {rec.why}", file=sys.stderr)
    return attempted, failed


def _rates(reps, kind):
    return [rec.steps / rec.wall for rep in reps for rec in rep.records
            if rec.kind == kind and rec.ok]


def _summary(values) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "samples": len(values)}


def end_to_end(wl, args, notes):
    t0 = time.perf_counter()
    wl.references()
    notes["reference_s"] = time.perf_counter() - t0
    setup = [probe_setup(wl.name) for _ in range(SETUP_PROBES)]
    reps, speeds = run_reps(wl, args.seconds, args.seed)
    attempted, failed = _tally(reps)
    rates = _rates(reps, wl.primary)
    errs = [rec.err for rep in reps for rec in rep.records
            if rec.kind == wl.primary and rec.ok]
    notes.update(reps=len(reps), machine_speed=_summary(speeds),
                 setup_s=_summary(setup))
    for kind in sorted({rec.kind for rep in reps for rec in rep.records}):
        if _rates(reps, kind):
            notes[f"steps_per_s_raw.{kind}"] = _summary(_rates(reps, kind))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        # median rate at machine speed 1.0; the raw medians stay in the notes
        "steps_per_s": (statistics.median(rates) / statistics.median(speeds)
                        if rates else 0.0, "steps/s"),
        "err_digits": (-math.log10(max(errs[0], 1e-300)) if errs else 0.0, "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }
    return metrics, attempted, failed


def traced(wl, args, notes):
    from layers import per_layer
    from tracing import Instrumented, Tracer
    wl.references()
    untraced = [wl.rep(random.Random(args.seed))
                for _ in range(3 if wl.name == "pipeline" else 1)]
    passes = []
    for _ in range(2):
        tracer, log = Tracer(), {}
        t0 = time.perf_counter()
        with Instrumented(tracer, wl):
            rep = wl.rep(random.Random(args.seed), log)
        passes.append((tracer, log, rep, time.perf_counter() - t0))
        _fail_if_differs(rep, untraced[0], "traced run differs bitwise from untraced")
    attempted, failed = _tally(untraced + [p[2] for p in passes])
    (tracer, log, rep, traced_wall), (tracer2, _, rep2, _) = passes
    counts = tracer.counts()
    if counts != tracer2.counts():
        print("perfbench: per-layer counts differ between two traced runs",
              file=sys.stderr)
        failed += sum(rec.ops for rec in rep2.records)
    untraced_wall = statistics.median(
        sum(rec.wall for rec in r.records) for r in untraced)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.save(os.path.join(OUT_DIR, f"spans-{wl.name}-seed{args.seed}.npz"))
    notes["counts"] = counts
    metrics = per_layer(wl, tracer, log, rep, untraced, traced_wall / untraced_wall)
    return metrics, attempted, failed


def main(argv=None) -> int:
    notes = machine_notes()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["orbit", "pipeline", "study", "stiff_limit"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up, print 'ready' and exit")
    args = parser.parse_args(argv)

    hbpc = _import_hbpc()
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](ROOT)
    wl.setup()
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    import numpy
    import scipy
    workers = getattr(wl, "workers", 1)
    notes.update(numpy=numpy.__version__, scipy=scipy.__version__,
                 hbpc=hbpc.__version__, workload=wl.name, seed=args.seed,
                 seconds=args.seconds, trace=args.trace, worker_threads=workers,
                 worker_threads_within_nproc=workers <= notes["nproc"])
    if args.trace:
        metrics, attempted, failed = traced(wl, args, notes)
    else:
        metrics, attempted, failed = end_to_end(wl, args, notes)
    result = {"correct": failed == 0 and attempted > 0,
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": float(v), "unit": u}
                          for name, (v, u) in metrics.items()}}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"notes": notes, "result": result}, fh, indent=1)
    print(json.dumps({"notes": notes}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
