#!/usr/bin/env python3
"""What a co-running process costs a fixed compute: one pipeline process's
blocks, replayed on a pinned CPU beside partners that sleep, spin or compute.

The replay is the work of ``integrate_parallel``'s process 0 on the
``pipeline`` benchmark's config (Pareschi-Russo eps=1, Alg1 q=8 kmax=3,
N=240): ``run_blocks`` over iterates {0, 1}, with the blocks it would receive
(iterate 2 of the step before) taken from a serial run recorded beforehand,
so it computes what that process computes and waits on nothing. This process
pins itself to one usable CPU with ``sched_setaffinity``; a forked partner,
pinned to another, meanwhile

- sleeps, blocked on a pipe read (an idle CPU beside the replay);
- spins on ``poll(0)`` over that pipe, as a pipeline process does for up to
  5 ms before it blocks on a receive;
- computes: replays the other process's blocks (iterates {2, 3}) in a loop.

The partners run in interleaved sets, so a drift in the host's load reaches
all three alike. Each cell is the median of ``--reps`` replays in ms; the
last line gives each partner's median cost against the sleeping one.

    python3 scripts/co_runner_cost.py --sets 3 --reps 3

Needs two usable CPUs.
"""

import argparse
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


def recorded_inputs():
    """(problem, config, seed, {(n, k): (states, bundles)}) of a serial run."""
    from hbpc.core import eval_bundle
    from hbpc.problems import make
    from hbpc.solver import SolverConfig, StageSource, run_blocks

    p = make("pareschi_russo", eps=1.0)
    cfg = SolverConfig(variant="Alg1", q=8, kmax=3, n_steps=240)
    seed = StageSource(p.w0.copy(), eval_bundle(p, p.w0))
    blocks = {}
    run_blocks(p, cfg, seed, range(cfg.kmax + 1),
               send=lambda b, ws, fs: blocks.__setitem__((b.n, b.k), (ws, fs)))
    return p, cfg, seed, blocks


def replay(inputs, iterates) -> float:
    """Seconds ``run_blocks`` takes over ``iterates``, other blocks received
    from the recording."""
    from hbpc.solver import run_blocks

    p, cfg, seed, blocks = inputs
    t0 = time.perf_counter()
    run_blocks(p, cfg, seed, iterates, receive=lambda b: blocks[b.n, b.k])
    return time.perf_counter() - t0


def partner(kind: str, cpu: int, inputs, stop, ready) -> None:
    """Run as ``kind`` on ``cpu`` until ``stop`` becomes readable."""
    os.sched_setaffinity(0, {cpu})
    ready.send(None)
    if kind == "sleeping":
        stop.recv()
        return
    poller = select.poll()
    poller.register(stop.fileno(), select.POLLIN)
    while not poller.poll(0):
        if kind == "computing":
            replay(inputs, [2, 3])


def measure(kind: str, cpu: int, inputs, reps: int) -> float:
    """Median replay ms of iterates {0, 1} here while a forked ``kind``
    partner runs on ``cpu``."""
    from multiprocessing import Pipe

    from hbpc.pipeline import fork_join

    stop, ready = Pipe(duplex=False), Pipe(duplex=False)

    def job(c: int):
        if c:
            return partner(kind, cpu, inputs, stop[0], ready[1])
        try:
            if not ready[0].poll(60.0):
                raise RuntimeError(f"the {kind} partner did not start")
            return [replay(inputs, [0, 1]) for _ in range(reps)]
        finally:
            stop[1].send(None)

    times = fork_join(job, 2, f"co-runner-{kind}", local=True, close=(stop, ready))[0]
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
    inputs = recorded_inputs()
    replay(inputs, [0, 1])  # warm up
    print("set," + ",".join(f"{kind}_ms" for kind in PARTNERS))
    rows = []
    for s in range(args.sets):
        rows.append([measure(kind, cpus[1], inputs, args.reps) for kind in PARTNERS])
        print(f"{s}," + ",".join(f"{ms:.1f}" for ms in rows[-1]))
    costs = [f"{kind} {statistics.median(r[i] / r[0] - 1.0 for r in rows):+.0%}"
             for i, kind in enumerate(PARTNERS[1:], 1)]
    print("median cost against a sleeping partner: " + ", ".join(costs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
