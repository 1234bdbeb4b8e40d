"""Pipelined parallel-in-time execution of the predictor-corrector sweeps.

Each worker runs the serial solver's block loop, ``solver.run_blocks``, over
the iterates it owns (``WorkerAssignment``) and receives the other inputs
over channels. ``dependencies`` decides what travels: a block that another
worker reads as its blue input (same step) goes out with all its stages, one
read as a red term or predictor source (next step) with its last stage only,
and not at all from the last step. For the high-order variants worker p owns
iterates {2p, 2p+1} and reads from ``up{p-1}`` and ``down{p}``; the low-order
variant runs one worker per iterate and only ships upward. Channels carry
strictly increasing steps and hold at most 8 messages.

Workers run the same block functions as the serial solver on the same cached
flux bundles, so a parallel run is bit-identical to the serial one. A
synchronous cycle simulator exposes the schedule lengths that bound the
attainable speedup.
"""

from __future__ import annotations

import functools
import queue
import threading
import time
from dataclasses import dataclass

import numpy as np

from .core import SplitProblem, eval_bundle
# perfbench/tracing.py patches the block functions by name on this module too
from .solver import (Block, RunResult, SolverConfig, StageSource,  # noqa: F401
                     correction_block, dependencies, predictor_block, run_blocks,
                     run_result)


class DeadlockError(RuntimeError):
    """A worker starved on a channel; guards against scheduling bugs."""


class _Aborted(Exception):
    """Internal: another worker failed, unwind quietly."""


@dataclass(frozen=True)
class WorkerAssignment:
    """Which worker computes which iterates, per variant."""

    variant: str
    kmax: int

    def __post_init__(self):
        if self.variant in ("Alg1", "Alg2") and self.kmax % 2 == 0:
            raise ValueError(
                f"the paired-iterate pipeline needs odd kmax, got {self.kmax}")

    @property
    def width(self) -> int:
        """Iterates per worker: all of them serially, one per LO lane, else a pair."""
        if self.variant == "serial":
            return self.kmax + 1
        return 1 if self.variant == "LO" else 2

    @property
    def n_workers(self) -> int:
        return (self.kmax + 1) // self.width

    def owner(self, k: int) -> int:
        return k // self.width

    def iterates(self, p: int):
        return list(range(p * self.width, (p + 1) * self.width))


@dataclass(frozen=True)
class BlockResult:
    """Payload exchanged between workers for one computed block.

    The last-stage state and bundle always travel; the full per-stage lists
    ride along when the receiver's quadrature needs them (upward messages).
    """

    n: int
    k: int
    w_last: np.ndarray
    f_last: object
    stages_w: list | None = None
    stages_f: list | None = None


def simulate_schedule(variant: str, kmax: int, N: int) -> int:
    """Cycle count of the greedy synchronous schedule (one block per worker
    per cycle, results visible the following cycle)."""
    if kmax < 1 or N < 1:
        raise ValueError("kmax and N must be at least 1")
    asg = WorkerAssignment(variant=variant, kmax=kmax)
    dep_variant = "Alg1" if variant == "serial" else variant
    order = {p: [Block(n, k) for n in range(N) for k in asg.iterates(p)]
             for p in range(asg.n_workers)}
    cursor = {p: 0 for p in order}
    done = {}
    cycle = 0
    remaining = N * (kmax + 1)
    while remaining:
        cycle += 1
        progressed = False
        for p, blocks in order.items():
            i = cursor[p]
            if i >= len(blocks):
                continue
            b = blocks[i]
            if all(done.get(d, cycle) < cycle
                   for d in dependencies(b, dep_variant, kmax)):
                done[b] = cycle
                cursor[p] = i + 1
                remaining -= 1
                progressed = True
        if not progressed:
            raise DeadlockError(
                f"schedule stalled at cycle {cycle} for {variant}, kmax={kmax}, N={N}")
    return cycle


def _chan_wait(op, abort: threading.Event, timeout: float, what: str):
    """Retry the queue operation ``op`` until it succeeds; unwind once another
    worker has failed, and raise DeadlockError after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return op(timeout=0.05)
        except (queue.Empty, queue.Full):
            if abort.is_set():
                raise _Aborted()
            if time.monotonic() > deadline:
                raise DeadlockError(f"{what} starved for {timeout:.0f}s")


def _chan_get(q_: queue.Queue, abort: threading.Event, timeout: float, name: str):
    return _chan_wait(q_.get, abort, timeout, f"receive on channel {name}")


def integrate_parallel(p: SplitProblem, cfg: SolverConfig, workers: int | None = None,
                       reference=None, channel_log: dict | None = None,
                       channel_timeout: float = 120.0) -> RunResult:
    """Run the pipelined executor; the result is bit-identical to integrate.

    ``workers`` is checked against the variant's required count when given.
    ``channel_log``, if supplied as a dict, is filled with the sequence of
    step indices sent over each channel (for discipline checks).
    """
    if cfg.variant not in ("Alg1", "Alg2", "LO"):
        raise ValueError(f"variant {cfg.variant!r} has no pipelined executor")
    asg = WorkerAssignment(variant=cfg.variant, kmax=cfg.kmax)
    P = asg.n_workers
    if workers is not None and workers != P:
        raise ValueError(f"variant {cfg.variant} with kmax={cfg.kmax} "
                         f"requires exactly {P} workers, got {workers}")

    # readers[k][v]: worker v reads Block(n, k) from another worker, as its
    # blue input (True: all stages) or as a step n+1 source (False: last stage)
    readers = {k: {} for k in range(cfg.kmax + 1)}
    chans = {}  # (sender, receiver) -> (queue, name)
    for j in range(cfg.kmax + 1):
        v = asg.owner(j)
        for d in dependencies(Block(1, j), cfg.variant, cfg.kmax):
            w = asg.owner(d.k)
            if w != v:
                readers[d.k][v] = d.n == 1
                name = f"up{w}" if v > w else f"down{v}"
                chans[w, v] = (queue.Queue(maxsize=8), name)
                if channel_log is not None:
                    channel_log[name] = []

    seed = StageSource(p.w0.copy(), eval_bundle(p, p.w0))
    abort = threading.Event()
    lanes, errors = [None] * P, [None] * P

    def work(w: int):
        def receive(b: Block):
            q_, name = chans[asg.owner(b.k), w]
            msg = _chan_get(q_, abort, channel_timeout, name)
            assert (msg.n, msg.k) == (b.n, b.k), f"channel {name} out of order"
            return msg.stages_w or [msg.w_last], msg.stages_f or [msg.f_last]

        def send(b: Block, ws, fs):
            for v, blue in readers[b.k].items():
                if not blue and b.n == cfg.n_steps - 1:
                    continue  # no step follows to read it
                q_, name = chans[w, v]
                msg = (BlockResult(b.n, b.k, ws[-1], fs[-1], ws, fs) if blue
                       else BlockResult(b.n, b.k, ws[-1], fs[-1]))
                _chan_wait(functools.partial(q_.put, msg), abort, channel_timeout,
                           f"send on channel {name}")
                if channel_log is not None:
                    channel_log[name].append(b.n)

        try:
            lanes[w] = run_blocks(p, cfg, seed, asg.iterates(w), receive, send)
        except BaseException as exc:  # noqa: BLE001 - re-raised after the join
            errors[w] = exc
            abort.set()

    threads = [threading.Thread(target=work, args=(w,),
                                name=f"lane{w}" if cfg.variant == "LO" else f"pair{w}")
               for w in range(P)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wallclock = time.perf_counter() - t0

    for exc in errors:
        if exc is not None and not isinstance(exc, _Aborted):
            raise exc
    return run_result(p, cfg, [lane for ls in lanes for lane in ls], reference,
                      wallclock)
