#!/usr/bin/env python3
"""CPU time of two hbpc source trees on one case, in alternating pairs.

    python3 scripts/ab_cpu.py OLD_SRC NEW_SRC --case p1 --pairs 25

OLD_SRC and NEW_SRC are directories that hold an ``hbpc`` package (a
checkout's ``src``). Both are imported into this one process, as ``hbpc_old``
and ``hbpc_new``, so the two calls of a pair share the interpreter, the
host's load of the moment and its CPU. Each pair runs the case once with each
tree, the older tree first in even pairs and the newer first in odd ones,
after one warm-up call of each. A call's CPU time is this process's plus that
of the children it reaped (``integrate_parallel``'s forked processes); its
wall time is printed beside it.

Cases, each the config of a ``perfbench`` workload:

- ``orbit``: serial ``integrate`` of Arenstorf, Alg2 q=8 kmax=7, at
  dt = period/100000 over 200 steps;
- ``study``: serial ``integrate`` of scalar_pow (alpha=0.2), Alg1 q=8
  kmax=9, Newton rel 1e-13 / abs 1e-15, at N=640, the study's largest N;
- ``pipeline``: ``integrate_parallel`` of Pareschi-Russo (eps=1), Alg1 q=8
  kmax=3, N=240;
- ``limit``: ``limit_integrate`` of van der Pol (eps=1e-3), Limit q=6,
  N=160, about 61 sweeps per step (``perfbench``'s ``stiff_limit``, which
  ``BENCHMARK.json`` does not list);
- ``p0``, ``p1``: on ``pipeline``'s config, ``run_blocks`` over the
  iterates of ``integrate_parallel``'s process 0 or 1 on two CPUs, every
  other block received from a serial run recorded beforehand
  (``co_runner_cost.recorded_inputs``): the work of one pipeline process
  with no wait in it.

Prints one line per pair, then the median over pairs of the CPU-time ratio
new/old, the pairs in which the new tree took less CPU, the median wall
ratio, each tree's median CPU ms, and whether every pair's updates and Newton
counts were bitwise equal; exits 1 when they were not. The benchmark's
``steps_per_s`` spread is too wide on a shared 2-vCPU VM to resolve a change
under 10 %; pairs in one process resolve a few per cent.
"""

import argparse
import dataclasses
import importlib
import importlib.util
import os
import statistics
import sys
import time

# One BLAS thread, as the benchmark runs: the cases' products are at most 4 x 4.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from co_runner_cost import recorded_inputs  # noqa: E402

CASES = ("orbit", "study", "limit", "pipeline", "p0", "p1")


def load(src: str, name: str):
    """The ``hbpc`` package under ``src``, imported as ``name``."""
    pkg = os.path.join(os.path.abspath(src), "hbpc")
    init = os.path.join(pkg, "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"ab_cpu: no hbpc package under {src}")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _run_fingerprint(run) -> tuple:
    return run.updates.tobytes(), tuple(run.newton_per_iterate.tolist())


def _lanes_fingerprint(lanes) -> tuple:
    states = b"".join(lane.last_w.tobytes()
                      + (b"" if lane.updates is None else lane.updates.tobytes())
                      for lane in lanes)
    return states, tuple(lane.newton for lane in lanes)


def build(case: str, name: str):
    """A call of ``case`` on the package ``name``, returning the fingerprint
    (state bytes, Newton counts) of what it computed."""
    problems, solver, pipeline, newton = (importlib.import_module(f"{name}.{mod}")
                                          for mod in ("problems", "solver", "pipeline", "newton"))
    if case == "orbit":
        base = problems.make("arenstorf")
        dt = base.t_end / 100000
        p = dataclasses.replace(base, t_end=200 * dt, ref_t_end=None)
        cfg = solver.SolverConfig(variant="Alg2", q=8, kmax=7, n_steps=200)
        return lambda: _run_fingerprint(solver.integrate(p, cfg))
    if case == "study":
        p = problems.make("scalar_pow", alpha=0.2)
        cfg = solver.SolverConfig(variant="Alg1", q=8, kmax=9, n_steps=640,
                                  newton=newton.NewtonConfig(rel_tol=1e-13, abs_tol=1e-15))
        return lambda: _run_fingerprint(solver.integrate(p, cfg))
    if case == "limit":
        p = problems.make("van_der_pol", eps=1e-3)
        cfg = solver.SolverConfig(variant="Limit", q=6, kmax=1, n_steps=160)
        return lambda: _run_fingerprint(solver.limit_integrate(p, cfg))
    (p, cfg, seed, blocks), groups = recorded_inputs(name)
    if case == "pipeline":
        workers = pipeline.WorkerAssignment("Alg1", 3).n_workers
        return lambda: _run_fingerprint(pipeline.integrate_parallel(p, cfg, workers=workers))
    return lambda: _lanes_fingerprint(solver.run_blocks(
        p, cfg, seed, groups[int(case[1])], receive=lambda b: blocks[b.n, b.k]))


def _children_cpu() -> float:
    t = os.times()
    return t.children_user + t.children_system


def timed(call) -> tuple:
    """(fingerprint, CPU seconds, wall seconds) of one call."""
    w0, c0, k0 = time.perf_counter(), time.process_time(), _children_cpu()
    out = call()
    return out, time.process_time() - c0 + _children_cpu() - k0, time.perf_counter() - w0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old_src", metavar="OLD_SRC")
    ap.add_argument("new_src", metavar="NEW_SRC")
    ap.add_argument("--case", choices=CASES, required=True)
    ap.add_argument("--pairs", type=int, default=16, help="alternating pairs")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    calls = {}
    for side, src in (("old", args.old_src), ("new", args.new_src)):
        load(src, f"hbpc_{side}")
        calls[side] = build(args.case, f"hbpc_{side}")
        calls[side]()  # warm up
    print("pair,first,old_cpu_ms,new_cpu_ms,cpu_ratio,old_wall_ms,new_wall_ms")
    cpu = {"old": [], "new": []}
    wall = {"old": [], "new": []}
    same = True
    for i in range(args.pairs):
        order = ("old", "new") if i % 2 == 0 else ("new", "old")
        outs = {}
        for side in order:
            outs[side], c, w = timed(calls[side])
            cpu[side].append(c)
            wall[side].append(w)
        same = same and outs["old"] == outs["new"]
        print(f"{i},{order[0]},{1e3 * cpu['old'][-1]:.1f},{1e3 * cpu['new'][-1]:.1f},"
              f"{cpu['new'][-1] / cpu['old'][-1]:.3f},"
              f"{1e3 * wall['old'][-1]:.1f},{1e3 * wall['new'][-1]:.1f}")
    ratio = statistics.median(n / o for n, o in zip(cpu["new"], cpu["old"]))
    wall_ratio = statistics.median(n / o for n, o in zip(wall["new"], wall["old"]))
    faster = sum(n < o for n, o in zip(cpu["new"], cpu["old"]))
    print(f"case {args.case}: CPU ratio new/old median {ratio:.3f}, new faster in "
          f"{faster} of {args.pairs} pairs; wall ratio median {wall_ratio:.3f}")
    print(f"median CPU ms: old {1e3 * statistics.median(cpu['old']):.1f}, "
          f"new {1e3 * statistics.median(cpu['new']):.1f}")
    print(f"updates and Newton counts bitwise equal: {'yes' if same else 'NO'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
