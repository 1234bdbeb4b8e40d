"""Pipelined parallel-in-time execution of the predictor-corrector sweeps.

Each logical worker runs the serial solver's block loop, ``solver.run_blocks``,
over the iterates it owns (``WorkerAssignment``) and receives the other inputs
from the workers that own them. ``dependencies`` decides what travels: a block
that another worker reads as its blue input (same step) goes out with all its
stages, one read as a red term or predictor source (next step) with its last
stage only, and not at all from the last step. For the high-order variants
worker p owns iterates {2p, 2p+1} and reads from ``up{p-1}`` and ``down{p}``;
the low-order variant runs one worker per iterate and only ships upward.

The workers run in min(workers, usable CPUs) forked processes, each one
``run_blocks`` over the iterates of a run of consecutive workers. A block read
in another process crosses one pipe per ordered process pair as one flat
float64 buffer, with all stages if a reader there needs them; the receiver
computes on views of it, so on the sender's bits. ``channel_log`` records the
logical hand-offs per worker pair, crossing or not, so it does not depend on
the CPU count. A process's exception reaches the caller with its type,
message and notes, once every process is terminated and joined.

Workers run the same block functions as the serial solver on the same cached
flux bundles, so a parallel run is bit-identical to the serial one. A
synchronous cycle simulator exposes the schedule lengths that bound the
attainable speedup.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from .core import FluxBundle, SplitProblem, eval_bundle
# perfbench/tracing.py patches the block functions by name on this module too
from .solver import (Block, RunResult, SolverConfig, StageSource,  # noqa: F401
                     correction_block, dependencies, predictor_block, run_blocks,
                     run_result)


class DeadlockError(RuntimeError):
    """A worker starved on a channel, or the schedule simulator stalled."""


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
    """One received block, as ``_unpack`` rebuilds it from a message.

    The last-stage state and bundle always travel; the full per-stage lists
    ride along when a reader's quadrature needs them (upward messages).
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


def _usable_cpus() -> int:
    """CPUs this process may run on, the cap on the pipeline's process count."""
    return len(os.sched_getaffinity(0))


def _pack(b: Block, ws, fs) -> bytes:
    """Block b's stages as one flat float64 buffer: (n, k), then per stage
    w, Phi_E, Phi_I, dPhi_E, dPhi_I, Phi, dPhi."""
    return np.concatenate([(float(b.n), float(b.k)),
                           *(a for w, f in zip(ws, fs)
                             for a in (w, f.phi_e, f.phi_i, f.dphi_e, f.dphi_i,
                                       f.phi, f.dphi))]).tobytes()


def _unpack(buf: bytes, dim: int) -> BlockResult:
    """``_pack``'s block, as views into ``buf``: the sender's bits."""
    a = np.frombuffer(buf)
    rows = a[2:].reshape(-1, 7, dim)
    ws, fs = [r[0] for r in rows], [FluxBundle(*r[1:]) for r in rows]
    return BlockResult(int(a[0]), int(a[1]), ws[-1], fs[-1],
                       *((ws, fs) if len(rows) > 1 else ()))


def _receive(conns, inbox: dict, b: Block, dim: int, timeout: float,
             name: str) -> BlockResult:
    """Block b's message, filing every message that arrives on ``conns``
    meanwhile into ``inbox`` by (n, k); raise DeadlockError once nothing has
    arrived for ``timeout`` seconds."""
    from multiprocessing.connection import wait

    while (b.n, b.k) not in inbox:
        ready = wait(conns, timeout)
        if not ready:
            raise DeadlockError(f"receive on channel {name} starved for {timeout:g}s")
        for conn in ready:
            msg = _unpack(conn.recv_bytes(), dim)
            inbox[msg.n, msg.k] = msg
    return inbox.pop((b.n, b.k))


def integrate_parallel(p: SplitProblem, cfg: SolverConfig, workers: int | None = None,
                       reference=None, channel_log: dict | None = None,
                       channel_timeout: float = 120.0) -> RunResult:
    """Run the pipelined executor; the result is bit-identical to integrate.

    ``workers`` is checked against the variant's required count when given.
    ``channel_log``, if supplied as a dict, is filled with the sequence of
    step indices handed over each logical channel, whether or not the hand-off
    crossed a process (for discipline checks). The workers are forked, so call
    it while no other thread of the caller is running.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    if cfg.variant not in ("Alg1", "Alg2", "LO"):
        raise ValueError(f"variant {cfg.variant!r} has no pipelined executor")
    asg = WorkerAssignment(variant=cfg.variant, kmax=cfg.kmax)
    P = asg.n_workers
    if workers is not None and workers != P:
        raise ValueError(f"variant {cfg.variant} with kmax={cfg.kmax} "
                         f"requires exactly {P} workers, got {workers}")
    C = min(P, _usable_cpus())
    proc = [v * C // P for v in range(P)]  # worker -> its process

    # readers[k][v]: worker v reads Block(n, k) from another worker, as its
    # blue input (True: all stages) or as a step n+1 source (False: last stage)
    readers = {k: {} for k in range(cfg.kmax + 1)}
    names = {}  # (sender, reader) -> channel name
    for j in range(cfg.kmax + 1):
        v = asg.owner(j)
        for d in dependencies(Block(1, j), cfg.variant, cfg.kmax):
            w = asg.owner(d.k)
            if w != v:
                readers[d.k][v] = d.n == 1
                names[w, v] = f"up{w}" if v > w else f"down{v}"

    seed = StageSource(p.w0.copy(), eval_bundle(p, p.w0))
    # fork: the problem's callbacks are closures, which a spawned child could
    # not be sent
    ctx = multiprocessing.get_context("fork")
    pipes = {(a, b): ctx.Pipe(duplex=False) for a in range(C) for b in range(C) if a != b}
    results = [ctx.Pipe(duplex=False) for _ in range(C)]

    def work(c: int):
        ins = [r for (_, b), (r, _) in pipes.items() if b == c]
        inbox = {}
        log = {name: [] for (w, _), name in names.items() if proc[w] == c}

        def receive(b: Block):
            v = next(v for v in readers[b.k] if proc[v] == c)
            msg = _receive(ins, inbox, b, p.dim, channel_timeout,
                           names[asg.owner(b.k), v])
            return msg.stages_w or [msg.w_last], msg.stages_f or [msg.f_last]

        def send(b: Block, ws, fs):
            blue_to = {}  # process -> whether a reader there needs all stages
            for v, blue in readers[b.k].items():
                if not blue and b.n == cfg.n_steps - 1:
                    continue  # no step follows to read it
                log[names[asg.owner(b.k), v]].append(b.n)
                if proc[v] != c:
                    blue_to[proc[v]] = blue_to.get(proc[v], False) or blue
            for to, blue in blue_to.items():
                pipes[c, to][1].send_bytes(_pack(b, ws, fs) if blue
                                           else _pack(b, ws[-1:], fs[-1:]))

        iterates = [k for v in range(P) if proc[v] == c for k in asg.iterates(v)]
        try:
            out = run_blocks(p, cfg, seed, iterates, receive, send), log
        except Exception as exc:  # noqa: BLE001 - the parent re-raises it
            out = exc
        results[c][1].send(out)

    children = [ctx.Process(target=work, args=(c,), name=f"hbpc-pipeline-{c}",
                            daemon=True) for c in range(C)]
    got = [None] * C
    t0 = time.perf_counter()
    try:
        for child in children:
            child.start()
        while None in got:
            live = [c for c in range(C) if got[c] is None]
            wait([results[c][0] for c in live] + [children[c].sentinel for c in live])
            for c in live:
                exited = not children[c].is_alive()  # then it has sent all it will
                if results[c][0].poll():
                    got[c] = results[c][0].recv()
                    if isinstance(got[c], Exception):
                        raise got[c]
                elif exited:
                    raise RuntimeError(
                        f"pipeline process {children[c].name} (pid {children[c].pid}) "
                        f"exited with code {children[c].exitcode} without a result")
    finally:
        for child in children:
            if child.is_alive():
                child.terminate()
            if child.pid is not None:  # a failed fork leaves the rest unstarted
                child.join()
        wallclock = time.perf_counter() - t0
        for conn in [c for pair in [*pipes.values(), *results] for c in pair]:
            conn.close()

    if channel_log is not None:
        for _, log in got:
            channel_log.update(log)
    return run_result(p, cfg, [lane for lanes, _ in got for lane in lanes], reference,
                      wallclock)
