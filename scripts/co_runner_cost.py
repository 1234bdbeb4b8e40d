#!/usr/bin/env python3
"""What a co-running process costs a fixed compute: one pipeline process's
blocks, replayed on a pinned CPU beside partners that sleep, spin or compute.

The replay is the work of ``integrate_parallel``'s process 1 on two CPUs on
the ``pipeline`` benchmark's config (Pareschi-Russo eps=1, Alg1 q=8 kmax=3,
N=240): ``run_blocks`` over the iterates ``pipeline._placement`` gives it
({1, 2, 3}), with the blocks it would receive (the predictor's, iterate 0)
taken from a serial run recorded beforehand, so it computes what that process
computes and waits on nothing. This process pins itself to one usable CPU
with ``sched_setaffinity``; a forked partner, pinned to another, meanwhile

- sleeps, blocked on a pipe read (an idle CPU beside the replay);
- spins on ``poll(0)`` over that pipe, as a pipeline process does for up to
  5 ms before it blocks on a receive;
- computes: replays process 0's blocks (the predictor chain) in a loop.

The partners run in interleaved sets, so a drift in the host's load reaches
all three alike. Each cell is the median of ``--reps`` replays in ms; the
last line gives each partner's median cost against the sleeping one.

    python3 scripts/co_runner_cost.py --sets 3 --reps 3

Needs two usable CPUs.
"""

import argparse
import importlib
import os
import select
import statistics
import sys
import time

# One BLAS thread, as the benchmark runs: the replay's products are 2 x 2.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

PARTNERS = ("sleeping", "spinning", "computing")


def recorded_inputs(package: str = "hbpc"):
    """(problem, config, seed, {(n, k): block}) of a serial run, and the
    iterates of each process on two CPUs, from the imported hbpc tree named
    ``package``. A block is recorded as ``run_blocks`` sends it: its
    (s, 7, d) stage array."""
    pipeline, problems, solver = (importlib.import_module(f"{package}.{m}")
                                  for m in ("pipeline", "problems", "solver"))
    p = problems.make("pareschi_russo", eps=1.0)
    cfg = solver.SolverConfig(variant="Alg1", q=8, kmax=3, n_steps=240)
    seed = solver.eval_stage(p, p.w0)
    blocks = {}
    solver.run_blocks(p, cfg, seed, range(cfg.kmax + 1),
                      send=lambda b, stages: blocks.__setitem__((b.n, b.k), stages))
    proc = pipeline._placement(cfg.variant, cfg.kmax, 2)
    groups = [[k for k in range(cfg.kmax + 1) if proc[k] == c] for c in (0, 1)]
    return (p, cfg, seed, blocks), groups


def replay(inputs, iterates) -> float:
    """Seconds ``run_blocks`` takes over ``iterates``, other blocks received
    from the recording."""
    from hbpc.solver import run_blocks

    p, cfg, seed, blocks = inputs
    t0 = time.perf_counter()
    run_blocks(p, cfg, seed, iterates, receive=lambda b: blocks[b.n, b.k])
    return time.perf_counter() - t0


def partner(kind: str, cpu: int, inputs, iterates, stop, ready) -> None:
    """Run as ``kind`` on ``cpu`` until ``stop`` becomes readable, computing
    by replaying ``iterates``."""
    os.sched_setaffinity(0, {cpu})
    ready.send(None)
    if kind == "sleeping":
        stop.recv()
        return
    poller = select.poll()
    poller.register(stop.fileno(), select.POLLIN)
    while not poller.poll(0):
        if kind == "computing":
            replay(inputs, iterates)


def measure(kind: str, cpu: int, inputs, groups, reps: int) -> float:
    """Median replay ms of process 1's iterates here while a forked ``kind``
    partner, process 0 if it computes, runs on ``cpu``."""
    from multiprocessing import Pipe

    from hbpc.pipeline import fork_join

    stop, ready = Pipe(duplex=False), Pipe(duplex=False)

    def job(c: int):
        if c:
            return partner(kind, cpu, inputs, groups[0], stop[0], ready[1])
        try:
            if not ready[0].poll(60.0):
                raise RuntimeError(f"the {kind} partner did not start")
            return [replay(inputs, groups[1]) for _ in range(reps)]
        finally:
            stop[1].send(None)

    times = fork_join(job, 2, f"co-runner-{kind}", close=(stop, ready))[0]
    return 1e3 * statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sets", type=int, default=3, help="interleaved sets of partners")
    ap.add_argument("--reps", type=int, default=3, help="replays per cell")
    args = ap.parse_args()
    if args.sets < 1 or args.reps < 1:
        ap.error("--sets and --reps must be at least 1")
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        print("co_runner_cost: needs two usable CPUs", file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {cpus[0]})
    inputs, groups = recorded_inputs()
    replay(inputs, groups[1])  # warm up
    print("set," + ",".join(f"{kind}_ms" for kind in PARTNERS))
    rows = []
    for s in range(args.sets):
        rows.append([measure(kind, cpus[1], inputs, groups, args.reps)
                     for kind in PARTNERS])
        print(f"{s}," + ",".join(f"{ms:.1f}" for ms in rows[-1]))
    costs = [f"{kind} {statistics.median(r[i] / r[0] - 1.0 for r in rows):+.0%}"
             for i, kind in enumerate(PARTNERS[1:], 1)]
    print("median cost against a sleeping partner: " + ", ".join(costs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
