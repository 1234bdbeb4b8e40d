"""Pipelined parallel-in-time execution of the predictor-corrector sweeps.

Each logical worker runs the serial solver's block loop, ``solver.run_blocks``,
over the iterates it owns (``WorkerAssignment``) and receives the other inputs
from the workers that own them. ``dependencies`` decides what travels: a block
that another worker reads, as its blue input (same step) or as a red term or
predictor source (next step), goes out whole, and no next-step source goes
out from the last step. For the high-order variants worker p owns iterates
{2p, 2p+1} and reads from ``up{p-1}`` and ``down{p}``; the low-order variant
runs one worker per iterate and only ships upward.

The workers run in min(workers, usable CPUs) processes, placed per iterate by
``_placement``: the caller runs process 0 and forks the others (``fork_join``,
shared with the study harness). For Alg1 and LO, the boundary after iterate 0
is one-way, as no block reads back across it: process 0 runs the predictor
chain alone and only sends, and the other processes take equal runs of
iterates 1..kmax. Those further LO cuts are one-way too; a further Alg1 cut
parts iterates k and k+1, which read each other (blue input one way, red term
the other), so each step pays a round trip across it. Alg2's predictor reads
iterate 1, so it has no one-way boundary and each process takes an equal run
of workers. A block read in another process crosses one pipe per ordered
process pair whole: its (s, 7, d) stage array's bytes behind a 16-byte (n, k)
header; the receiver computes on a read-only view of them, so on the sender's
bits. A process waiting for a block polls its incoming pipes without blocking
for up to ``_SPIN_S`` before it sleeps, so it stays on its CPU through the gap
in which a partner computes the block; once nothing has arrived for
``channel_timeout`` seconds it raises ``DeadlockError`` naming the block and
its logical channel, if any. Each process holds only its own pipe ends, so a
send or receive raises at once if its partner has ended. ``channel_log``
records the logical hand-offs per worker pair, crossing or not, so it does
not depend on the CPU count. A process's exception reaches the caller with
its type, message and notes.

Workers run the same block functions as the serial solver on the same stage
arrays, so a parallel run is bit-identical to the serial one. A
synchronous cycle simulator exposes the schedule lengths that bound the
attainable speedup.
"""

from __future__ import annotations

import math
import os
import select
import time
from dataclasses import dataclass

import numpy as np

# nothing here calls eval_bundle: perfbench/tracing.py patches it by name
from .core import SplitProblem, eval_bundle  # noqa: F401
# perfbench/tracing.py patches the block functions by name on this module too
from .solver import (Block, RunResult, SolverConfig, correction_block,  # noqa: F401
                     dependencies, eval_stage, predictor_block, run_blocks, run_result)


# How long a receive polls its pipes without blocking before it sleeps. A
# partner takes about 0.35-0.65 ms to produce the next block; a receiver that
# sleeps through that gap idles its vCPU, a virtual machine's host may then
# take the vCPU away, and the hand-off waits until the host gives it back. On
# 2 vCPUs with the host busy (over 8 % steal), pipeline's config
# (pareschi_russo Alg1 q=8 kmax=3, N=240) took a median 0.57 s per call with
# blocking receives, 0.55 s with a 0.2 ms budget, 0.41 s with 1 ms and 0.35 s
# with 5 ms; on a quiet host every budget took 0.27-0.30 s. Spinning takes no
# CPU from a partner: there is at most one process per usable CPU, the
# caller's process 0 among them.
_SPIN_S = 0.005


class DeadlockError(RuntimeError):
    """A worker starved on a channel, or the schedule simulator stalled."""


class _PartnerLost(DeadlockError):
    """A process's partner ended before it sent or took a block."""


@dataclass(frozen=True)
class WorkerAssignment:
    """Which worker computes which iterates, per variant."""

    variant: str
    kmax: int

    def __post_init__(self):
        if self.variant not in ("Alg1", "Alg2", "LO", "serial"):
            raise ValueError(f"variant {self.variant!r} has no pipeline "
                             "(use one of Alg1, Alg2, LO, serial)")
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


# nothing in src builds one: perfbench/tracing.py patches it by name
@dataclass(frozen=True)
class BlockResult:
    """One received block: every stage's state and bundle, and the last
    stage's, which a red term or predictor source reads."""

    n: int
    k: int
    w_last: np.ndarray
    f_last: object
    stages_w: list
    stages_f: list


def simulate_schedule(variant: str, kmax: int, N: int) -> int:
    """Cycle count of the greedy synchronous schedule (one block per worker
    per cycle, results visible the following cycle).

    One pass in (n, k) order: a block finishes one cycle after the later of
    its worker's previous block and its dependencies, which must precede it.
    """
    if kmax < 1 or N < 1:
        raise ValueError("kmax and N must be at least 1")
    asg = WorkerAssignment(variant=variant, kmax=kmax)
    dep_variant = "Alg1" if variant == "serial" else variant
    # as run_blocks' back: each iterate's dependencies as (step offset, iterate)
    offsets = [[(d.n - 1, d.k) for d in dependencies(Block(1, k), dep_variant, kmax)]
               for k in range(kmax + 1)]
    for k, deps in enumerate(offsets):
        for dn, j in deps:
            if (dn, j) >= (0, k):
                raise DeadlockError(
                    f"schedule stalls: Block(n, {k}) depends on Block(n{dn:+d}, {j}), "
                    f"which does not precede it, for {variant}, kmax={kmax}, N={N}")
    owner = [asg.owner(k) for k in range(kmax + 1)]
    last = [0] * asg.n_workers  # cycle of each worker's latest block
    done = []  # done[n][k]: the cycle Block(n, k) runs in
    for n in range(N):
        done.append(row := [0] * (kmax + 1))
        for k in range(kmax + 1):
            cycle = last[owner[k]]
            for dn, j in offsets[k]:
                if n + dn >= 0 and done[n + dn][j] > cycle:  # else a seed input
                    cycle = done[n + dn][j]
            last[owner[k]] = row[k] = cycle + 1
    return max(last)


def _usable_cpus() -> int:
    """CPUs this process may run on, the cap on the pipeline's process count."""
    return len(os.sched_getaffinity(0))


def _placement(variant: str, kmax: int, cpus: int) -> list:
    """Each iterate's process, one of min(workers, ``cpus``). A boundary before
    iterate j is one-way if no iterate below j reads one at or above j
    (``dependencies``); the first ends process 0, and the other processes take
    equal runs of the iterates above it. With none, each process takes an
    equal run of workers."""
    asg = WorkerAssignment(variant=variant, kmax=kmax)
    C = min(cpus, asg.n_workers)
    top = [max(d.k for d in dependencies(Block(1, k), variant, kmax)) for k in range(kmax + 1)]
    j = next((j for j in range(1, kmax + 1) if max(top[:j]) < j), None)
    if C == 1 or j is None:
        return [asg.owner(k) * C // asg.n_workers for k in range(kmax + 1)]
    return [0 if k < j else 1 + (k - j) * (C - 1) // (kmax + 1 - j) for k in range(kmax + 1)]


def _pack(b: Block, stages) -> bytes:
    """Block b's (s, 7, d) ``stages`` as one message: (n, k) as two int64,
    then the stages' bytes."""
    return np.array((b.n, b.k), np.int64).tobytes() + stages.tobytes()


def _unpack(buf: bytes, dim: int) -> tuple:
    """``_pack``'s (n, k) and a read-only (s, 7, d) view of its stages in
    ``buf``: the sender's bits."""
    n, k = np.frombuffer(buf, np.int64, 2).tolist()
    return n, k, np.frombuffer(buf, offset=16).reshape(-1, 7, dim)


def _receive(conns, inbox: dict, b: Block, dim: int, timeout: float,
             name: str | None, sender: tuple | None = None) -> np.ndarray:
    """Block b's stages, filing every message that arrives on ``conns``
    meanwhile into ``inbox`` by (n, k); raise DeadlockError, naming b and the
    logical channel ``name`` if given, once nothing has arrived for
    ``timeout`` seconds, or at once on EOF from ``sender``, the (process, pipe)
    that carries b, if given.

    Each wait polls ``conns`` without blocking for up to ``_SPIN_S`` and only
    then blocks for the rest of ``timeout``.
    """
    poll = select.poll()
    for conn in conns:
        poll.register(conn, select.POLLIN)
    by_fd = {conn.fileno(): conn for conn in conns}
    on = f" on channel {name}" if name else ""
    spin = min(_SPIN_S, timeout)
    while (b.n, b.k) not in inbox:
        start = time.perf_counter()
        while not (ready := poll.poll(0)) and time.perf_counter() - start < spin:
            pass
        if not ready:
            ready = poll.poll(1e3 * max(0.0, timeout - (time.perf_counter() - start)))
        if not ready:
            raise DeadlockError(f"receive of Block({b.n}, {b.k}){on} starved for {timeout:g}s")
        for fd, _ in ready:
            try:
                n, k, stages = _unpack(by_fd[fd].recv_bytes(), dim)
                inbox[n, k] = stages
            except EOFError:
                if sender and by_fd[fd] is sender[1]:
                    raise _PartnerLost(f"receive of Block({b.n}, {b.k}){on}: process "
                                       f"{sender[0]} ended without sending it")
                poll.unregister(fd)  # a partner that has sent all it will
    return inbox.pop((b.n, b.k))


def fork_join(job, count: int, name: str, close=()) -> list:
    """[job(0), ..., job(count - 1)]: job(0) here, every other in a forked child
    f"{name}-{c}" (a spawned one could not be sent a problem's closures, so call
    it while no other thread runs). A job's exception is raised here with its
    type, message, attributes and notes; a child that exits without a result
    raises RuntimeError naming it; a lost partner only if nothing else failed.
    Every child is terminated and joined, and the pipe pairs in ``close``
    closed (before the wait if job(0) lost a partner), before this returns."""
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    results = {c: ctx.Pipe(duplex=False) for c in range(1, count)}

    def run(c: int):
        try:
            results[c][1].send(job(c))
        except Exception as exc:  # noqa: BLE001 - the parent re-raises it
            results[c][1].send(exc)

    children = {c: ctx.Process(target=run, args=(c,), name=f"{name}-{c}", daemon=True)
                for c in results}
    got = {}
    try:
        for child in children.values():
            child.start()
        try:
            got[0] = job(0)
        except _PartnerLost as exc:  # a child's end is the cause: wait for it
            got[0] = exc
            for conn in [c for pair in close for c in pair]:
                conn.close()  # so that no child stays blocked on this process
        while pending := [c for c in children if c not in got]:
            wait([results[c][0] for c in pending] + [children[c].sentinel for c in pending])
            for c in pending:
                exited = not children[c].is_alive()  # then it has sent all it will
                if results[c][0].poll():
                    got[c] = results[c][0].recv()
                    if isinstance(got[c], Exception) and not isinstance(got[c], _PartnerLost):
                        raise got[c]
                elif exited:
                    raise RuntimeError(f"process {children[c].name} (pid {children[c].pid}) "
                                       f"exited with code {children[c].exitcode} without a result")
        if lost := [r for r in got.values() if isinstance(r, _PartnerLost)]:
            raise lost[0]
    finally:
        for child in children.values():
            if child.pid is not None:  # a failed fork leaves the rest unstarted
                child.terminate()  # a no-op on one that has exited
                child.join()
            child.close()  # its sentinel, else held open by a traceback
        for conn in [c for pair in [*results.values(), *close] for c in pair]:
            conn.close()
    return [got[c] for c in range(count)]


def integrate_parallel(p: SplitProblem, cfg: SolverConfig, workers: int | None = None,
                       reference=None, channel_log: dict | None = None,
                       channel_timeout: float = 120.0) -> RunResult:
    """Run the pipelined executor; the result is bit-identical to integrate.

    ``workers`` is checked against the variant's required count when given.
    ``channel_log``, if supplied as a dict, is filled with the sequence of
    step indices handed over each logical channel, whether or not the hand-off
    crossed a process (for discipline checks). The caller runs process 0 and
    forks the others (``fork_join``), so call it while no other thread of the
    caller is running; at one usable CPU it forks nothing.
    """
    from multiprocessing import Pipe

    if cfg.variant not in ("Alg1", "Alg2", "LO"):
        raise ValueError(f"variant {cfg.variant!r} has no pipelined executor")
    if not (math.isfinite(channel_timeout) and channel_timeout > 0):
        raise ValueError(f"channel_timeout must be finite and positive, "
                         f"got {channel_timeout!r}")
    asg = WorkerAssignment(variant=cfg.variant, kmax=cfg.kmax)
    P = asg.n_workers
    if workers is not None and workers != P:
        raise ValueError(f"variant {cfg.variant} with kmax={cfg.kmax} "
                         f"requires exactly {P} workers, got {workers}")
    proc = _placement(cfg.variant, cfg.kmax, _usable_cpus())  # iterate -> its process

    # readers[k][j]: iterate j reads Block(n, k) from another iterate, as its
    # blue input (True) or as a step n+1 source (False), over a logical
    # channel unless both are one worker's
    readers = {k: {} for k in range(cfg.kmax + 1)}
    for j in range(cfg.kmax + 1):
        v = asg.owner(j)
        for d in dependencies(Block(1, j), cfg.variant, cfg.kmax):
            if d.k != j:
                w = asg.owner(d.k)
                readers[d.k][j] = d.n == 1, None if w == v else f"up{w}" if v > w else f"down{v}"
    names = sorted({name for k in readers for _, name in readers[k].values()} - {None})
    seed = eval_stage(p, p.w0)
    C = proc[-1] + 1
    pipes = {(a, b): Pipe(duplex=False) for a in range(C) for b in range(C) if a != b}

    def work(c: int):
        for (a, b), (r, w) in pipes.items():  # a partner's end then shows as EOF or EPIPE
            for end in [r] * (b != c) + [w] * (a != c):
                end.close()
        ins = [r for (_, b), (r, _) in pipes.items() if b == c]
        inbox = {}
        log = {name: [] for name in names}

        def receive(b: Block):
            name = next(name for j, (_, name) in readers[b.k].items() if proc[j] == c)
            return _receive(ins, inbox, b, p.dim, channel_timeout, name,
                            (proc[b.k], pipes[proc[b.k], c][0]))

        def send(b: Block, stages):
            to = set()  # the processes that read it
            for j, (blue, name) in readers[b.k].items():
                if blue or b.n < cfg.n_steps - 1:  # else no step follows to read it
                    to.add(proc[j])
                    if name:
                        log[name].append(b.n)
            for d in to - {c}:
                try:
                    pipes[c, d][1].send_bytes(_pack(b, stages))
                except BrokenPipeError:
                    raise _PartnerLost(f"send of Block({b.n}, {b.k}): process {d} has ended")

        iterates = [k for k in range(cfg.kmax + 1) if proc[k] == c]
        return run_blocks(p, cfg, seed, iterates, receive, send), log

    t0 = time.perf_counter()
    got = fork_join(work, C, "hbpc-pipeline", close=pipes.values())
    wallclock = time.perf_counter() - t0

    if channel_log is not None:
        channel_log.update({name: [n for _, log in got for n in log[name]] for name in names})
    return run_result(p, cfg, [lane for lanes, _ in got for lane in lanes], reference,
                      wallclock)
