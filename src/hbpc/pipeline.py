"""Pipelined parallel-in-time execution of the predictor-corrector sweeps.

The unit of work is a block: all stages of one (timestep, iterate) pair. For
the high-order variants worker p owns iterates {2p, 2p+1}; per step it first
corrects its lower iterate (blue input arriving from worker p-1), ships the
result's last stage down to worker p-1 (the red term it needs one step
later), corrects its upper iterate, and ships that iterate's full stages up
to worker p+1. The low-order variant dedicates one worker per iterate and
only ships full stages upward. All channels are unidirectional and carry
strictly increasing step indices.

Workers run the same block functions as the serial solver on the same cached
flux bundles, so a parallel run is bit-identical to the serial one. A
synchronous cycle simulator exposes the schedule lengths that bound the
attainable speedup.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass

import numpy as np

from .core import SplitProblem, eval_bundle
from .solver import (RunResult, SolverConfig, StageSource, _iterate_errors,
                     correction_block, predictor_block)
from .tableaux import builtin


class DeadlockError(RuntimeError):
    """A worker starved on a channel; guards against scheduling bugs."""


class _Aborted(Exception):
    """Internal: another worker failed, unwind quietly."""


@dataclass(frozen=True, order=True)
class Block:
    """One unit of pipeline work: all stages of iterate k at timestep n."""

    n: int
    k: int


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
    def n_workers(self) -> int:
        if self.variant == "serial":
            return 1
        if self.variant == "LO":
            return self.kmax + 1
        return (self.kmax + 1) // 2

    def owner(self, k: int) -> int:
        if self.variant == "serial":
            return 0
        if self.variant == "LO":
            return k
        return k // 2

    def iterates(self, p: int):
        if self.variant == "serial":
            return list(range(self.kmax + 1))
        if self.variant == "LO":
            return [p]
        return [2 * p, 2 * p + 1]


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

    @property
    def last(self) -> StageSource:
        return StageSource(self.w_last, self.f_last)


def dependencies(b: Block, variant: str, kmax: int) -> set:
    """Blocks that must complete before b can run (seed needs drop out)."""
    deps = set()
    if b.k == 0:
        src_k = 1 if variant == "Alg2" else 0
        if b.n >= 1:
            deps.add(Block(b.n - 1, src_k))
        return deps
    deps.add(Block(b.n, b.k - 1))
    red_k = b.k if variant == "LO" else min(b.k + 1, kmax)
    if b.n >= 1:
        deps.add(Block(b.n - 1, red_k))
    return deps


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


def _chan_put(q_: queue.Queue, item, abort: threading.Event, timeout: float, name: str):
    deadline = time.monotonic() + timeout
    while True:
        try:
            q_.put(item, timeout=0.05)
            return
        except queue.Full:
            if abort.is_set():
                raise _Aborted()
            if time.monotonic() > deadline:
                raise DeadlockError(f"send on channel {name} starved for {timeout:.0f}s")


def _chan_get(q_: queue.Queue, abort: threading.Event, timeout: float, name: str):
    deadline = time.monotonic() + timeout
    while True:
        try:
            return q_.get(timeout=0.05)
        except queue.Empty:
            if abort.is_set():
                raise _Aborted()
            if time.monotonic() > deadline:
                raise DeadlockError(f"receive on channel {name} starved for {timeout:.0f}s")


class _WorkerState:
    """Per-worker accumulators the coordinator collects after the join."""

    def __init__(self, kmax: int):
        self.newton_iters = np.zeros(kmax + 1, dtype=int)
        self.cap_hits = 0
        self.final_last = {}
        self.updates = None
        self.exc = None


def _tally(state: _WorkerState, k: int, results):
    for res in results:
        state.newton_iters[k] += res.iters
        state.cap_hits += res.converged_by == "iter_cap"


def _ho_worker(p: int, P: int, prob: SplitProblem, cfg: SolverConfig, tab, dt,
               seed_src: StageSource, chans, state: _WorkerState,
               abort: threading.Event, timeout: float, log):
    up_in, up_out, down_in, down_out = chans
    kmax = cfg.kmax
    lo_k, hi_k = 2 * p, 2 * p + 1
    gs = cfg.variant == "Alg2"
    own_lo = seed_src    # iterate 2p   at step n-1 (last stage)
    own_hi = seed_src    # iterate 2p+1 at step n-1 (last stage)
    down_red = seed_src  # iterate 2p+2 at step n-1 (last stage)
    if p == P - 1:
        state.updates = np.empty((cfg.n_steps + 1, prob.dim))
        state.updates[0] = prob.w0

    for n in range(cfg.n_steps):
        if p == 0:
            src = own_hi if cfg.variant == "Alg2" else own_lo
            ws, fs, results = predictor_block(prob, tab, dt, src, cfg.newton)
        else:
            msg = _chan_get(up_in, abort, timeout, f"up{p - 1}")
            assert msg.n == n, "upward channel out of order"
            ws, fs, results = correction_block(
                prob, tab, dt, own_hi, msg.stages_w, msg.stages_f, gs,
                cfg.newton, cfg.corrector_start)
        _tally(state, lo_k, results)
        lo_last = StageSource(ws[-1], fs[-1])
        if p >= 1:
            _chan_put(down_out, BlockResult(n, lo_k, ws[-1], fs[-1]), abort,
                      timeout, f"down{p - 1}")
            if log is not None:
                log[f"down{p - 1}"].append(n)

        if hi_k == kmax:
            red_hi = own_hi
        else:
            if n >= 1:
                msg = _chan_get(down_in, abort, timeout, f"down{p}")
                assert msg.n == n - 1, "downward channel out of order"
                down_red = msg.last
            red_hi = down_red
        ws2, fs2, results = correction_block(
            prob, tab, dt, red_hi, ws, fs, gs, cfg.newton, cfg.corrector_start)
        _tally(state, hi_k, results)
        if p < P - 1:
            _chan_put(up_out, BlockResult(n, hi_k, ws2[-1], fs2[-1], ws2, fs2),
                      abort, timeout, f"up{p}")
            if log is not None:
                log[f"up{p}"].append(n)

        own_lo = lo_last
        own_hi = StageSource(ws2[-1], fs2[-1])
        if p == P - 1:
            state.updates[n + 1] = ws2[-1]
        if n == cfg.n_steps - 1:
            state.final_last[lo_k] = ws[-1]
            state.final_last[hi_k] = ws2[-1]


def _lo_worker(k: int, prob: SplitProblem, cfg: SolverConfig, tab, dt,
               seed_src: StageSource, chans, state: _WorkerState,
               abort: threading.Event, timeout: float, log):
    up_in, up_out = chans
    kmax = cfg.kmax
    own = seed_src  # iterate k at step n-1 (last stage)
    if k == kmax:
        state.updates = np.empty((cfg.n_steps + 1, prob.dim))
        state.updates[0] = prob.w0

    for n in range(cfg.n_steps):
        if k == 0:
            ws, fs, results = predictor_block(prob, tab, dt, own, cfg.newton)
        else:
            msg = _chan_get(up_in, abort, timeout, f"up{k - 1}")
            assert msg.n == n, "upward channel out of order"
            ws, fs, results = correction_block(
                prob, tab, dt, own, msg.stages_w, msg.stages_f, False,
                cfg.newton, cfg.corrector_start)
        _tally(state, k, results)
        if k < kmax:
            _chan_put(up_out, BlockResult(n, k, ws[-1], fs[-1], ws, fs),
                      abort, timeout, f"up{k}")
            if log is not None:
                log[f"up{k}"].append(n)
        own = StageSource(ws[-1], fs[-1])
        if k == kmax:
            state.updates[n + 1] = ws[-1]
        if n == cfg.n_steps - 1:
            state.final_last[k] = ws[-1]


def integrate_parallel(p: SplitProblem, cfg: SolverConfig, workers: int | None = None,
                       reference=None, channel_log: dict | None = None,
                       channel_timeout: float = 120.0,
                       channel_capacity: int = 8) -> RunResult:
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

    tab = builtin(cfg.q)
    dt = p.t_end / cfg.n_steps
    seed_src = StageSource(p.w0.copy(), eval_bundle(p, p.w0))
    abort = threading.Event()
    states = [_WorkerState(cfg.kmax) for _ in range(P)]
    ups = [queue.Queue(maxsize=channel_capacity) for _ in range(P - 1)]
    if channel_log is not None:
        for i in range(P - 1):
            channel_log[f"up{i}"] = []
            if cfg.variant != "LO":
                channel_log[f"down{i}"] = []

    threads = []
    if cfg.variant == "LO":
        for k in range(P):
            chans = (ups[k - 1] if k >= 1 else None,
                     ups[k] if k < P - 1 else None)
            threads.append(threading.Thread(
                target=_run_guarded, name=f"lane{k}",
                args=(_lo_worker, (k, p, cfg, tab, dt, seed_src, chans,
                                   states[k], abort, channel_timeout, channel_log),
                      states[k], abort)))
    else:
        downs = [queue.Queue(maxsize=channel_capacity) for _ in range(P - 1)]
        for wp in range(P):
            chans = (ups[wp - 1] if wp >= 1 else None,
                     ups[wp] if wp < P - 1 else None,
                     downs[wp] if wp < P - 1 else None,
                     downs[wp - 1] if wp >= 1 else None)
            threads.append(threading.Thread(
                target=_run_guarded, name=f"pair{wp}",
                args=(_ho_worker, (wp, P, p, cfg, tab, dt, seed_src, chans,
                                   states[wp], abort, channel_timeout, channel_log),
                      states[wp], abort)))

    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wallclock = time.perf_counter() - t0

    for st in states:
        if st.exc is not None and not isinstance(st.exc, _Aborted):
            raise st.exc

    newton_per_iterate = np.zeros(cfg.kmax + 1, dtype=int)
    final_last = [None] * (cfg.kmax + 1)
    cap_hits = 0
    updates = None
    for st in states:
        newton_per_iterate += st.newton_iters
        cap_hits += st.cap_hits
        for k, w in st.final_last.items():
            final_last[k] = w
        if st.updates is not None:
            updates = st.updates

    return RunResult(config=cfg, t_end=p.t_end, updates=updates,
                     final_last_w=final_last,
                     errors=_iterate_errors(p, reference, final_last),
                     newton_per_iterate=newton_per_iterate,
                     iter_cap_hits=cap_hits, wallclock=wallclock)


def _run_guarded(fn, args, state: _WorkerState, abort: threading.Event):
    try:
        fn(*args)
    except BaseException as exc:  # noqa: BLE001 - ferried to the coordinator
        state.exc = exc
        abort.set()
