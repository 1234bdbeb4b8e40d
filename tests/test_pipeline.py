"""Pipelined executor: dependency graph, schedule counts, bit-identity."""

import queue
import threading

import numpy as np
import pytest

from hbpc.core import NonFiniteError, SplitProblem
from hbpc.pipeline import (Block, DeadlockError, WorkerAssignment, _chan_get,
                           dependencies, integrate_parallel, simulate_schedule)
from hbpc.problems import scalar_pow, van_der_pol
from hbpc.solver import SolverConfig, integrate


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


def test_schedule_validation():
    with pytest.raises(ValueError):
        simulate_schedule("Alg1", 0, 5)
    with pytest.raises(ValueError):
        simulate_schedule("Alg1", 3, 0)
    with pytest.raises(ValueError):
        simulate_schedule("Alg1", 4, 5)  # even kmax has no pairing


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


def test_parallel_matches_serial_bitwise_where_workers_skip(computed_corrections):
    # Workers of iterates {2p, 2p+1}, p >= 1, reuse Block(n, 2p) for
    # Block(n, 2p+1) once the sweeps sit at their fixed point.
    from hbpc.newton import NewtonConfig

    p = scalar_pow()
    cfg = SolverConfig(variant="Alg1", q=8, kmax=9, n_steps=40,
                       newton=NewtonConfig(rel_tol=1e-13, abs_tol=1e-15))
    ser = integrate(p, cfg)
    serial = sum(computed_corrections)
    computed_corrections.clear()
    par = integrate_parallel(p, cfg)
    # a worker skips only where iterate k-1 is its own, so less than serially
    assert serial < sum(computed_corrections) < cfg.kmax * cfg.n_steps
    assert ser.updates.tobytes() == par.updates.tobytes()
    assert ser.errors.tobytes() == par.errors.tobytes()
    assert np.array_equal(ser.newton_per_iterate, par.newton_per_iterate)
    assert ser.iter_cap_hits == par.iter_cap_hits
    for a, b in zip(ser.final_last_w, par.final_last_w):
        assert a.tobytes() == b.tobytes()


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
    empty = queue.Queue()
    with pytest.raises(DeadlockError):
        _chan_get(empty, threading.Event(), 0.1, "up0")


def _nan_below(threshold=0.6):
    """w' = -w from w = 1, whose implicit flux turns NaN once w[0] < threshold."""
    def phi_i(w):
        return -w if w[0] >= threshold else np.full(1, np.nan)
    return SplitProblem(dim=1, phi_e=lambda w: np.zeros(1), phi_i=phi_i,
                        w0=np.ones(1), t_end=1.0,
                        jac_e=lambda w: np.zeros((1, 1)),
                        jac_i=lambda w: -np.eye(1),
                        dphi_i_jac=lambda w: np.eye(1))


@pytest.mark.parametrize("variant,kmax", [("Alg1", 3), ("Alg2", 7), ("LO", 2)])
def test_worker_failure_raises_and_leaves_no_thread(variant, kmax):
    p = _nan_below()
    cfg = SolverConfig(variant=variant, q=4, kmax=kmax, n_steps=20)
    with pytest.raises(NonFiniteError):
        integrate(p, cfg)
    before = set(threading.enumerate())
    with pytest.raises(NonFiniteError):
        integrate_parallel(p, cfg, channel_timeout=10.0)
    assert set(threading.enumerate()) <= before
