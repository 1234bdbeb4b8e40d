"""Pipelined executor: dependency graph, schedule counts, bit-identity."""

import multiprocessing
import os
import re
import threading
import time

import numpy as np
import pytest

import hbpc.pipeline as pipeline
from hbpc.core import NonFiniteError, SplitProblem
from hbpc.pipeline import (Block, DeadlockError, WorkerAssignment, _pack, _receive,
                           _unpack, dependencies, integrate_parallel, simulate_schedule)
from hbpc.problems import scalar_pow, van_der_pol
from hbpc.solver import SolverConfig, eval_stage, integrate, run_blocks, run_result


def test_dependencies_predictor():
    assert dependencies(Block(0, 0), "Alg1", 3) == set()
    assert dependencies(Block(4, 0), "Alg1", 3) == {Block(3, 0)}
    assert dependencies(Block(4, 0), "Alg2", 3) == {Block(3, 1)}
    assert dependencies(Block(4, 0), "LO", 3) == {Block(3, 0)}


def test_dependencies_corrections():
    # hierarchical red: one iterate above, clamped at kmax
    assert dependencies(Block(4, 1), "Alg1", 3) == {Block(4, 0), Block(3, 2)}
    assert dependencies(Block(4, 2), "Alg1", 3) == {Block(4, 1), Block(3, 3)}
    assert dependencies(Block(4, 3), "Alg1", 3) == {Block(4, 2), Block(3, 3)}
    assert dependencies(Block(4, 1), "Alg2", 3) == {Block(4, 0), Block(3, 2)}
    assert dependencies(Block(0, 2), "Alg1", 3) == {Block(0, 1)}
    # LO red: the same lane one step back
    for k in (1, 2, 3):
        assert dependencies(Block(4, k), "LO", 3) == {Block(4, k - 1), Block(3, k)}


def test_worker_assignment_shapes():
    asg = WorkerAssignment(variant="Alg1", kmax=7)
    assert asg.n_workers == 4
    assert asg.iterates(0) == [0, 1]
    assert asg.iterates(3) == [6, 7]
    assert [asg.owner(k) for k in range(8)] == [0, 0, 1, 1, 2, 2, 3, 3]

    lo = WorkerAssignment(variant="LO", kmax=4)
    assert lo.n_workers == 5
    assert lo.iterates(2) == [2]
    assert lo.owner(3) == 3

    ser = WorkerAssignment(variant="serial", kmax=5)
    assert ser.n_workers == 1
    assert ser.iterates(0) == list(range(6))


def test_worker_assignment_rejects_even_kmax_for_pairs():
    with pytest.raises(ValueError):
        WorkerAssignment(variant="Alg1", kmax=4)
    with pytest.raises(ValueError):
        WorkerAssignment(variant="Alg2", kmax=2)
    WorkerAssignment(variant="LO", kmax=4)  # fine: one worker per lane


def test_schedule_cycle_counts():
    for kmax in (1, 3, 5, 7):
        for N in (1, 2, 5, 12):
            assert simulate_schedule("Alg1", kmax, N) == 2 * N + kmax - 1
            assert simulate_schedule("Alg2", kmax, N) == 2 * N + kmax - 1
            assert simulate_schedule("serial", kmax, N) == N * (kmax + 1)
    for kmax in (1, 2, 3, 6):
        for N in (1, 4, 9):
            assert simulate_schedule("LO", kmax, N) == N + kmax
    assert simulate_schedule("Alg1", 1, 10) == 20  # one pair pipelines nothing


def _greedy_schedule(variant, kmax, N):
    """The cycle-by-cycle simulator ``simulate_schedule`` replaced: each cycle
    every worker runs its next block if that block's dependencies finished in
    an earlier cycle."""
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
                   for d in pipeline.dependencies(b, dep_variant, kmax)):
                done[b] = cycle
                cursor[p] = i + 1
                remaining -= 1
                progressed = True
        if not progressed:
            raise DeadlockError(f"schedule stalled at cycle {cycle}")
    return cycle


def test_one_pass_schedule_matches_the_greedy_simulator():
    for variant in ("Alg1", "Alg2", "LO", "serial"):
        for kmax in range(1, 16, 2):
            for N in range(1, 13):
                assert simulate_schedule(variant, kmax, N) == \
                    _greedy_schedule(variant, kmax, N), (variant, kmax, N)


@pytest.mark.parametrize("late", [lambda b: Block(b.n, b.k + 1),  # same step, later
                                  lambda b: Block(b.n + 1, b.k),  # next step
                                  lambda b: b],                   # itself
                         ids=["later-iterate", "next-step", "itself"])
def test_schedule_dependency_that_does_not_precede_raises(monkeypatch, late):
    real = pipeline.dependencies

    def deps(b, variant, kmax):
        return real(b, variant, kmax) | ({late(b)} if b.k == 1 else set())

    monkeypatch.setattr(pipeline, "dependencies", deps)
    for variant in ("Alg1", "LO", "serial"):
        with pytest.raises(DeadlockError):
            _greedy_schedule(variant, 3, 4)
        with pytest.raises(DeadlockError, match=r"Block\(n, 1\) depends on"):
            simulate_schedule(variant, 3, 4)


@pytest.mark.parametrize("variant", ["Limit", "bogus", "alg1"])
def test_variants_without_a_pipeline_are_rejected(variant):
    allowed = r"\(use one of Alg1, Alg2, LO, serial\)"
    with pytest.raises(ValueError, match=f"^variant {variant!r} has no pipeline {allowed}$"):
        WorkerAssignment(variant=variant, kmax=3)
    with pytest.raises(ValueError, match="has no pipeline"):
        simulate_schedule(variant, 3, 10)


def test_schedule_validation():
    with pytest.raises(ValueError):
        simulate_schedule("Alg1", 0, 5)
    with pytest.raises(ValueError):
        simulate_schedule("Alg1", 3, 0)
    with pytest.raises(ValueError):
        simulate_schedule("Alg1", 4, 5)  # even kmax has no pairing


@pytest.mark.parametrize("variant", ["Alg1", "LO", "Alg2"])
@pytest.mark.parametrize("kmax", [1, 3, 7, 9])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_placement(variant, kmax, cpus):
    asg = WorkerAssignment(variant=variant, kmax=kmax)
    C = min(cpus, asg.n_workers)
    proc = pipeline._placement(variant, kmax, cpus)
    assert len(proc) == kmax + 1
    # contiguous and ascending runs of iterates, none of them empty
    assert proc[0] == 0 and all(b - a in (0, 1) for a, b in zip(proc, proc[1:]))
    assert proc[-1] + 1 == C
    if variant == "Alg2":  # no one-way boundary: equal runs of workers
        assert proc == [asg.owner(k) * C // asg.n_workers for k in range(kmax + 1)]
        return
    if C > 1:  # the predictor alone in process 0, equal runs of the rest
        assert proc.count(0) == 1
        sizes = [proc.count(c) for c in range(1, C)]
        assert max(sizes) - min(sizes) <= 1
    # every hand-off flows up, so none sits on a cycle of two processes: for
    # LO at any count, for Alg1 on two (a further Alg1 cut parts a cycle)
    if variant == "LO" or C <= 2:
        for k in range(kmax + 1):
            for d in dependencies(Block(1, k), variant, kmax):
                assert proc[d.k] <= proc[k], (k, d)


@pytest.mark.parametrize("variant,kmax,start", [
    ("Alg1", 3, "hierarchical"), ("Alg2", 3, "hierarchical"),
    ("Alg1", 1, "hierarchical"), ("LO", 2, "hierarchical"),
    ("LO", 4, "hierarchical"), ("Alg2", 7, "hierarchical"), ("Alg1", 3, "red"),
], ids=["Alg1-3", "Alg2-3", "Alg1-1", "LO-2", "LO-4", "Alg2-7", "Alg1-3-red"])
def test_parallel_matches_serial_bitwise(variant, kmax, start):
    p = scalar_pow()
    cfg = SolverConfig(variant=variant, q=4, kmax=kmax, n_steps=20,
                       corrector_start=start)
    ser = integrate(p, cfg)
    par = integrate_parallel(p, cfg)
    assert np.array_equal(ser.updates, par.updates)
    assert np.array_equal(ser.errors, par.errors)
    assert np.array_equal(ser.newton_per_iterate, par.newton_per_iterate)
    for a, b in zip(ser.final_last_w, par.final_last_w):
        assert np.array_equal(a, b)


def test_parallel_bitwise_on_a_stiff_problem():
    p = van_der_pol(eps=0.1)
    cfg = SolverConfig(variant="Alg1", q=6, kmax=3, n_steps=25)
    assert np.array_equal(integrate(p, cfg).updates,
                          integrate_parallel(p, cfg).updates)


def test_parallel_matches_serial_bitwise_where_workers_skip(monkeypatch,
                                                           computed_corrections):
    # Once the sweeps sit at their fixed point, Block(n, k) reuses Block(n, k-1)
    # where both are a process's own and k-1 read its blue input in that
    # process too. A process counts in its own memory, so the run_blocks of
    # each process integrate_parallel places on two CPUs runs here, fed the
    # serial run's blocks through the pipeline's message format.
    from hbpc.newton import NewtonConfig

    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    p = scalar_pow()
    cfg = SolverConfig(variant="Alg1", q=8, kmax=9, n_steps=40,
                       newton=NewtonConfig(rel_tol=1e-13, abs_tol=1e-15))
    seed = eval_stage(p, p.w0)
    sent = {}
    run_blocks(p, cfg, seed, range(cfg.kmax + 1),
               send=lambda b, stages: sent.__setitem__(b, _pack(b, stages)))
    serial = sum(computed_corrections)
    computed_corrections.clear()

    def receive(b):
        n, k, stages = _unpack(sent[b], p.dim)
        assert (n, k) == (b.n, b.k)
        return stages

    proc = pipeline._placement(cfg.variant, cfg.kmax, 2)
    groups = [[k for k in range(cfg.kmax + 1) if proc[k] == c] for c in range(proc[-1] + 1)]
    assert len(groups) == 2
    lanes = [lane for iterates in groups for lane in run_blocks(p, cfg, seed, iterates, receive)]
    # the block after the process boundary follows the predictor, which no
    # skip replaces, and received inputs are new objects with the sender's
    # bits, which the skip compares, so the processes skip as often as the
    # serial run
    assert sum(computed_corrections) == serial < cfg.kmax * cfg.n_steps
    ser = integrate(p, cfg)
    assert run_result(p, cfg, lanes, None, 0.0).updates.tobytes() == ser.updates.tobytes()
    par = integrate_parallel(p, cfg)
    assert ser.updates.tobytes() == par.updates.tobytes()
    assert ser.errors.tobytes() == par.errors.tobytes()
    assert np.array_equal(ser.newton_per_iterate, par.newton_per_iterate)
    assert ser.iter_cap_hits == par.iter_cap_hits
    for a, b in zip(ser.final_last_w, par.final_last_w):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("variant,kmax,n_steps,expected_log", [
    *(pytest.param(v, k, 12, None, id=f"{v}-{k}")
      for v, k in [("Alg1", 3), ("Alg1", 7), ("Alg2", 5), ("LO", 4)]),
    # every logical channel is logged, down0 too, which carries nothing at one
    # step: no step follows to read Block(0, 2)
    pytest.param("Alg1", 3, 1, {"up0": [0], "down0": []}, id="Alg1-3-one-step")])
def test_process_count_changes_neither_bits_nor_channel_log(monkeypatch, variant, kmax,
                                                            n_steps, expected_log):
    p = scalar_pow()
    cfg = SolverConfig(variant=variant, q=4, kmax=kmax, n_steps=n_steps)
    ser = integrate(p, cfg)
    logs = []
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
        log = {}
        par = integrate_parallel(p, cfg, channel_log=log)
        logs.append(log)
        assert ser.updates.tobytes() == par.updates.tobytes()
        assert np.array_equal(ser.newton_per_iterate, par.newton_per_iterate)
        for a, b in zip(ser.final_last_w, par.final_last_w):
            assert a.tobytes() == b.tobytes()
    assert logs[0] == logs[1] == logs[2] == logs[3]
    if expected_log is not None:
        assert logs[0] == expected_log


def test_worker_count_is_checked():
    p = scalar_pow()
    cfg = SolverConfig(variant="Alg1", q=4, kmax=3, n_steps=4)
    integrate_parallel(p, cfg, workers=2)
    with pytest.raises(ValueError):
        integrate_parallel(p, cfg, workers=3)
    with pytest.raises(ValueError):
        integrate_parallel(p, SolverConfig(variant="Limit", n_steps=4))


def test_channel_log_discipline():
    p = scalar_pow()
    n_steps = 6
    log = {}
    integrate_parallel(p, SolverConfig(variant="Alg1", q=4, kmax=3,
                                       n_steps=n_steps), channel_log=log)
    assert set(log) == {"up0", "down0"}
    assert log["up0"] == list(range(n_steps))
    # a step n+1 source is not sent from the last step: nothing reads it
    assert log["down0"] == list(range(n_steps - 1))

    log = {}
    integrate_parallel(p, SolverConfig(variant="LO", q=4, kmax=2,
                                       n_steps=n_steps), channel_log=log)
    assert set(log) == {"up0", "up1"}
    assert all(v == list(range(n_steps)) for v in log.values())

    # a middle worker reads both channels
    log = {}
    integrate_parallel(p, SolverConfig(variant="Alg2", q=4, kmax=5,
                                       n_steps=n_steps), channel_log=log)
    assert set(log) == {"up0", "up1", "down0", "down1"}
    assert all(log[f"up{i}"] == list(range(n_steps)) for i in (0, 1))
    assert all(log[f"down{i}"] == list(range(n_steps - 1)) for i in (0, 1))


def test_channel_get_starvation_raises():
    quiet, unused = multiprocessing.get_context("fork").Pipe(duplex=False)
    t0 = time.monotonic()
    with pytest.raises(DeadlockError, match="channel up0"):
        _receive([quiet], {}, Block(3, 1), 1, 0.1, "up0")
    assert time.monotonic() - t0 < 2.0
    quiet.close()
    unused.close()


@pytest.mark.parametrize("variant,kmax,cpus,lost,on", [
    # within worker 0, across processes 0 and 1: the sender, the caller, keeps
    # its pipe ends open until the call ends, so the receive starves
    ("Alg1", 3, 2, Block(2, 0), " starved for 0.5s"),
    # the sender, process 1, ends and closes its pipe without the block
    ("LO", 2, 3, Block(2, 1), " on channel up1: process 1 ended without sending it"),
], ids=["within-a-worker", "logical-channel"])
def test_starved_process_names_the_awaited_block(monkeypatch, variant, kmax, cpus, lost, on):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
    pack = pipeline._pack

    def mislabel(b, stages):  # runs in the forked processes
        return pack(Block(b.n + 100, b.k) if b == lost else b, stages)

    monkeypatch.setattr(pipeline, "_pack", mislabel)
    t0 = time.monotonic()
    with pytest.raises(DeadlockError, match=re.escape(
            f"receive of Block({lost.n}, {lost.k}){on}")):
        integrate_parallel(scalar_pow(), SolverConfig(variant=variant, q=4, kmax=kmax,
                                                      n_steps=8),
                           channel_timeout=0.5)
    assert time.monotonic() - t0 < 5.0
    assert multiprocessing.active_children() == []


def _message(b: Block, dim: int = 1) -> bytes:
    """Block b as ``_pack`` sends it: one stage, at w = n + k/10."""
    return _pack(b, eval_stage(scalar_pow(), np.full(dim, b.n + b.k / 10))[None])


def _block_of(stages) -> tuple:
    """The (n, k) of the block whose stages ``_message`` sent."""
    return divmod(round(10 * stages[-1, 0, 0]), 10)


def test_a_block_in_flight_is_its_stage_arrays_bytes():
    p = van_der_pol()
    stages = np.stack([eval_stage(p, p.w0 * (1 + l / 10)) for l in range(3)])
    buf = _pack(Block(7, 2), stages)
    assert isinstance(buf, bytes) and len(buf) == 16 + stages.nbytes
    n, k, got = _unpack(buf, p.dim)
    assert (n, k) == (7, 2)
    assert got.shape == (3, 7, p.dim) and got.dtype == np.float64
    assert not got.flags.writeable
    assert got.tobytes() == stages.tobytes()


def test_receive_returns_a_queued_message_at_once():
    # on two pipes, the awaited block arrives on the second while an earlier
    # block waits on the first, as at a process that reads from two others
    ctx = multiprocessing.get_context("fork")
    for pipes in (1, 2):
        ends = [ctx.Pipe(duplex=False) for _ in range(pipes)]
        conns = [r for r, _ in ends]
        ends[0][1].send_bytes(_message(Block(3, 2)))
        ends[-1][1].send_bytes(_message(Block(3, 1)))
        inbox = {}
        # a timeout too short to wait at all: both messages are there already
        msg = _receive(conns, inbox, Block(3, 1), 1, 1e-9, "up0")
        assert _block_of(msg) == (3, 1) and msg[-1, 0].tolist() == [3.1]
        assert msg[:, 0].tolist() == [[3.1]]
        assert list(inbox) == [(3, 2)]  # filed on the way
        assert _block_of(_receive(conns, inbox, Block(3, 2), 1, 1e-9, "up0"))[1] == 2
        assert not inbox and not any(r.poll() for r in conns)
        for pair in ends:
            for conn in pair:
                conn.close()


def test_receive_raises_at_once_when_the_sender_ends_without_the_block():
    r, w = multiprocessing.get_context("fork").Pipe(duplex=False)
    w.send_bytes(_message(Block(2, 1)))  # sent before it ended, but not the one awaited
    w.close()
    inbox = {}
    t0 = time.monotonic()
    with pytest.raises(DeadlockError, match=re.escape(
            "receive of Block(3, 1) on channel up0: process 1 ended without sending it")):
        _receive([r], inbox, Block(3, 1), 1, 10.0, "up0", (1, r))
    assert time.monotonic() - t0 < 0.5
    assert list(inbox) == [(2, 1)]
    r.close()


def test_receive_waits_past_eof_on_another_pipe():
    # a partner that finished has sent all it will; the awaited block's
    # sender is still computing it
    ctx = multiprocessing.get_context("fork")
    (done_r, done_w), (r, w) = ctx.Pipe(duplex=False), ctx.Pipe(duplex=False)
    done_w.close()
    timer = threading.Timer(0.1, w.send_bytes, args=(_message(Block(3, 1)),))
    timer.start()
    msg = _receive([done_r, r], {}, Block(3, 1), 1, 10.0, "up0", (2, r))
    timer.join()
    assert _block_of(msg) == (3, 1)
    # a later receive from the ended partner still sees its end
    with pytest.raises(DeadlockError, match="process 1 ended without sending it"):
        _receive([done_r, r], {}, Block(3, 0), 1, 10.0, "up0", (1, done_r))
    for conn in (done_r, r, w):
        conn.close()


def test_receive_blocks_once_the_spin_budget_runs_out():
    r, w = multiprocessing.get_context("fork").Pipe(duplex=False)
    delay = 20 * pipeline._SPIN_S
    timer = threading.Timer(delay, w.send_bytes, args=(_message(Block(3, 1)),))
    t0, cpu0 = time.monotonic(), time.process_time()
    timer.start()
    msg = _receive([r], {}, Block(3, 1), 1, 10.0, "up0")
    elapsed, cpu = time.monotonic() - t0, time.process_time() - cpu0
    timer.join()
    assert _block_of(msg) == (3, 1)
    assert elapsed >= delay
    assert cpu < delay / 2  # it spun for the budget, then slept in poll
    r.close()
    w.close()


def test_receive_timeout_shorter_than_the_spin_budget(monkeypatch):
    monkeypatch.setattr(pipeline, "_SPIN_S", 5.0)
    quiet, unused = multiprocessing.get_context("fork").Pipe(duplex=False)
    t0 = time.monotonic()
    with pytest.raises(DeadlockError, match="channel up0 starved for 0.05s"):
        _receive([quiet], {}, Block(3, 1), 1, 0.05, "up0")
    assert 0.05 <= time.monotonic() - t0 < 2.0
    quiet.close()
    unused.close()


@pytest.mark.parametrize("timeout", [float("nan"), float("inf"), 0.0, -1.0])
def test_channel_timeout_must_be_finite_and_positive(monkeypatch, timeout):
    from multiprocessing.process import BaseProcess

    def no_fork(proc):
        raise AssertionError("forked before checking channel_timeout")

    monkeypatch.setattr(BaseProcess, "start", no_fork)
    with pytest.raises(ValueError, match=re.escape(f"channel_timeout must be finite "
                                                   f"and positive, got {timeout!r}")):
        integrate_parallel(scalar_pow(), SolverConfig(variant="Alg1", q=4, kmax=3,
                                                      n_steps=8),
                           channel_timeout=timeout)


def _fails_below(then, threshold=0.6):
    """w' = -w from w = 1, whose implicit flux is ``then(w)`` once w[0] < threshold."""
    def phi_i(w):
        return -w if w[0] >= threshold else then(w)
    return SplitProblem(dim=1, phi_e=lambda w: np.zeros(1), phi_i=phi_i,
                        w0=np.ones(1), t_end=1.0,
                        jac_e=lambda w: np.zeros((1, 1)),
                        jac_i=lambda w: -np.eye(1),
                        dphi_i_jac=lambda w: np.eye(1))


def _raise_with_note(w):
    exc = NonFiniteError("phi_i is undefined here")
    exc.add_note("raised by the test problem")
    raise exc


@pytest.mark.parametrize("variant,kmax", [("Alg1", 3), ("Alg2", 7), ("LO", 2)])
def test_worker_failure_raises_and_leaves_no_thread(monkeypatch, variant, kmax):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 3)
    cfg = SolverConfig(variant=variant, q=4, kmax=kmax, n_steps=20)
    before = set(threading.enumerate())
    for then in (lambda w: np.full(1, np.nan), _raise_with_note):
        p = _fails_below(then)
        with pytest.raises(NonFiniteError) as ser:
            integrate(p, cfg)
        t0 = time.monotonic()
        with pytest.raises(NonFiniteError) as par:
            integrate_parallel(p, cfg, channel_timeout=10.0)
        assert time.monotonic() - t0 < 5.0  # the peers were killed, not starved
        assert set(threading.enumerate()) <= before
        assert multiprocessing.active_children() == []
    # a deterministic message: every failing block raises the same error
    assert type(par.value) is type(ser.value)
    assert str(par.value) == str(ser.value)
    assert par.value.__notes__ == ser.value.__notes__ == ["raised by the test problem"]


def test_worker_exit_without_a_result_raises_promptly(monkeypatch):
    parent = os.getpid()

    def exit_in_worker(w):
        if os.getpid() != parent:
            os._exit(3)
        return -w

    def exit_in_last(w):  # its partners see its end while they await each other
        if multiprocessing.current_process().name == "hbpc-pipeline-2":
            os._exit(3)
        return -w

    def nan_in_caller(w):  # the children wait on the caller's blocks
        return np.full(1, np.nan) if os.getpid() == parent else -w

    exited = (RuntimeError, r"process hbpc-pipeline-\d \(pid \d+\) exited with code 3")
    for variant, kmax, cpus, then, (error, match) in [
            ("Alg1", 3, 2, exit_in_worker, exited),  # the caller only sends
            ("Alg2", 3, 2, exit_in_worker, exited),  # the caller receives from it
            ("Alg2", 5, 3, exit_in_last, exited),
            ("Alg1", 3, 2, nan_in_caller, (NonFiniteError, None))]:
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
        t0 = time.monotonic()
        with pytest.raises(error, match=match):
            integrate_parallel(_fails_below(then),
                               SolverConfig(variant=variant, q=4, kmax=kmax, n_steps=20),
                               channel_timeout=10.0)
        assert time.monotonic() - t0 < 1.0, (variant, kmax, cpus)
        assert multiprocessing.active_children() == []


def test_failed_fork_raises_its_own_error(monkeypatch):
    from multiprocessing.process import BaseProcess

    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 3)
    start, started = BaseProcess.start, []

    def start_once(proc):
        if started:
            raise BlockingIOError(11, "fork refused")
        started.append(proc)
        start(proc)

    monkeypatch.setattr(BaseProcess, "start", start_once)
    with pytest.raises(BlockingIOError, match="fork refused"):
        integrate_parallel(scalar_pow(), SolverConfig(variant="LO", q=4, kmax=2,
                                                      n_steps=8))
    assert multiprocessing.active_children() == []


def test_integrate_parallel_closes_its_pipes(monkeypatch):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    cfg = SolverConfig(variant="Alg1", q=4, kmax=3, n_steps=8)
    before = len(os.listdir("/proc/self/fd"))
    integrate_parallel(scalar_pow(), cfg)
    with pytest.raises(NonFiniteError):
        integrate_parallel(_fails_below(_raise_with_note), cfg, channel_timeout=10.0)
    assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize("cpus,forks", [(1, 0), (2, 1), (3, 2)])
def test_the_caller_runs_process_0_and_forks_the_others(monkeypatch, cpus, forks):
    from multiprocessing.process import BaseProcess

    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
    start, started = BaseProcess.start, []

    def count(proc):
        started.append(proc.name)
        start(proc)

    monkeypatch.setattr(BaseProcess, "start", count)
    p, cfg = scalar_pow(), SolverConfig(variant="LO", q=4, kmax=2, n_steps=8)
    par = integrate_parallel(p, cfg)
    assert started == [f"hbpc-pipeline-{c}" for c in range(1, forks + 1)]
    assert par.updates.tobytes() == integrate(p, cfg).updates.tobytes()


@pytest.mark.parametrize("variant,kmax,cpus", [("Alg1", 3, 2), ("Alg2", 5, 3), ("LO", 2, 3)])
def test_each_process_holds_only_its_own_pipe_ends(monkeypatch, tmp_path, variant, kmax,
                                                  cpus):
    import json

    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
    created, real_pipe = [], multiprocessing.Pipe

    def pipe(duplex=True):  # integrate_parallel's pipes, in (sender, receiver) order
        created.append(real_pipe(duplex))
        return created[-1]

    monkeypatch.setattr(multiprocessing, "Pipe", pipe)
    proc = pipeline._placement(variant, kmax, cpus)
    real_run_blocks = pipeline.run_blocks

    def run_blocks(p, cfg, seed, iterates, *args):
        pairs = [(a, b) for a in range(cpus) for b in range(cpus) if a != b]
        held = {"read": sorted(pairs[i] for i, (r, _) in enumerate(created) if not r.closed),
                "write": sorted(pairs[i] for i, (_, w) in enumerate(created) if not w.closed)}
        for r, w in created:  # an end still held is a live descriptor
            for conn in (r, w):
                if not conn.closed:
                    os.fstat(conn.fileno())
        (tmp_path / f"{proc[iterates[0]]}.json").write_text(json.dumps(held))
        return real_run_blocks(p, cfg, seed, iterates, *args)

    monkeypatch.setattr(pipeline, "run_blocks", run_blocks)
    integrate_parallel(scalar_pow(), SolverConfig(variant=variant, q=4, kmax=kmax, n_steps=8))
    assert len(created) == cpus * (cpus - 1)
    for c in range(cpus):
        held = json.loads((tmp_path / f"{c}.json").read_text())
        assert held == {"read": [[a, c] for a in range(cpus) if a != c],
                        "write": [[c, b] for b in range(cpus) if b != c]}, c
