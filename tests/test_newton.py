"""Damped Newton solver: convergence modes, damping, failure signalling."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hbpc.core import NonFiniteError
from hbpc.newton import NewtonConfig, SingularJacobianError, _norm, _norms, judge, solve


def _linear(A, b):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    return (lambda w: A @ w - b), (lambda w: A)


def test_linear_system_converges_in_one_step():
    A = [[4.0, 1.0], [-1.0, 3.0]]
    b = [1.0, 2.0]
    F, J = _linear(A, b)
    res = solve(F, J, np.zeros(2))
    assert res.iters == 1
    assert res.converged_by == "absolute"
    assert res.w == pytest.approx(np.linalg.solve(A, b), rel=1e-14)
    assert len(res.residual_history) == 2
    assert len(res.damping_history) == 1


def test_zero_initial_residual_returns_immediately():
    F, J = _linear([[2.0]], [2.0])
    res = solve(F, J, np.array([1.0]))
    assert res.iters == 0
    assert res.converged_by == "absolute"
    assert res.residual_norm == 0.0
    assert res.residual_history == [0.0]
    assert res.damping_history == []


def test_implicit_stage_closed_form():
    # Backward-style stage for phi(w) = -w, dphi(w) = w:
    # w - w0 + dt*w - 0.5*dt^2*w = 0  =>  w = w0 / (1 + dt - dt^2/2)
    dt, w0 = 0.1, 1.0
    F = lambda w: np.array([w[0] - w0 + dt * w[0] - 0.5 * dt**2 * w[0]])
    J = lambda w: np.array([[1.0 + dt - 0.5 * dt**2]])
    res = solve(F, J, np.array([w0]))
    assert res.w[0] == pytest.approx(w0 / (1 + dt - 0.5 * dt**2), rel=1e-14)


def test_damping_kicks_in_and_never_recovers():
    # Undamped Newton overshoots arctan from |w| >= ~1.39 and the residual
    # grows, so theta must drop below 1 and stay non-increasing.
    F = lambda w: np.arctan(w)
    J = lambda w: np.array([[1.0 / (1.0 + w[0] ** 2)]])
    res = solve(F, J, np.array([1.5]), NewtonConfig(abs_tol=1e-12))
    assert res.converged_by in ("absolute", "relative")
    assert abs(res.w[0]) < 1e-6
    assert min(res.damping_history) < 1.0
    assert all(a >= b for a, b in
               zip(res.damping_history, res.damping_history[1:]))


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_singular_jacobian_raises():
    F = lambda w: np.array([1.0])
    J = lambda w: np.array([[0.0]])
    with pytest.raises(SingularJacobianError):
        solve(F, J, np.array([0.0]))


def test_iteration_cap_is_reported():
    # One step on w^3 = 0 contracts by only 2/3, far from any tolerance.
    F = lambda w: w**3
    J = lambda w: np.array([[3.0 * w[0] ** 2]])
    res = solve(F, J, np.array([1.0]), NewtonConfig(max_iter=1))
    assert res.converged_by == "iter_cap"
    assert res.iters == 1


def test_nonfinite_residual_raises():
    F = lambda w: np.array([np.nan])
    J = lambda w: np.array([[1.0]])
    with pytest.raises(NonFiniteError):
        solve(F, J, np.array([0.0]))


def test_nonfinite_jacobian_raises():
    F = lambda w: np.array([1.0])
    J = lambda w: np.array([[np.inf]])
    with pytest.raises(NonFiniteError):
        solve(F, J, np.array([0.0]))


@pytest.mark.parametrize("kw", [
    {"rel_tol": 0.0},
    {"abs_tol": -1e-3},
    {"growth_threshold": 1.0},
    {"growth_threshold": 0.0},
    {"damping_factor": 1.0},
    {"max_iter": 0},
    {"max_iter": 2.5},
    {"max_iter": np.nan},
    {"abs_tol": np.inf},
    {"rel_tol": np.inf},
    {"rel_tol": np.nan},
    {"abs_tol": np.nan},
    {"damping_init": 0.0},
    {"damping_init": -1.0},
    {"damping_init": 1.5},
    {"damping_init": np.nan},
])
def test_config_validation(kw):
    with pytest.raises(ValueError):
        NewtonConfig(**kw)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=2, max_size=2),
       st.floats(0.1, 2.0))
def test_diagonally_dominant_linear_solve_is_exact(b, shift):
    A = np.array([[3.0 + shift, 1.0], [-1.0, 2.0 + shift]])
    F, J = _linear(A, b)
    res = solve(F, J, np.zeros(2))
    assert res.iters <= 1
    assert res.w == pytest.approx(np.linalg.solve(A, b), abs=1e-12)


@pytest.mark.parametrize("A", [
    [[1e-301, 0.0], [0.0, 1.0]],                     # pivot below 1e-300
    [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]],  # exactly singular
], ids=["tiny_pivot", "exactly_singular"])
def test_degenerate_newton_matrix_raises(A):
    A = np.asarray(A)
    F = lambda w: np.ones(len(A))
    with pytest.raises(SingularJacobianError):
        solve(F, lambda w: A, np.zeros(len(A)))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), st.randoms(use_true_random=False))
def test_lu_solve_matches_scipy_bitwise(d, rnd):
    # The direct LAPACK calls must reproduce scipy.linalg.lu_factor/lu_solve.
    import scipy.linalg
    from hbpc.newton import _lu_solve_checked

    J = np.array([[rnd.uniform(-2, 2) for _ in range(d)] for _ in range(d)])
    J += 3.0 * np.eye(d)
    rhs = np.array([rnd.uniform(-2, 2) for _ in range(d)])
    ref = scipy.linalg.lu_solve(scipy.linalg.lu_factor(J), rhs)
    assert _lu_solve_checked(J, rhs).tobytes() == ref.tobytes()


def test_solve_starts_from_w0_itself_and_never_mutates_it():
    seen = []

    def F(w):
        seen.append(w)
        return w - 2.0

    J = lambda w: np.eye(1)
    w0 = np.array([2.0])
    res = solve(F, J, w0)
    assert res.iters == 0 and res.w is w0 and len(seen) == 1 and seen[0] is w0
    w0 = np.array([1.0])
    res = solve(F, J, w0)
    assert res.iters == 1 and seen[1] is w0 and res.w is not w0
    assert w0[0] == 1.0 and res.w[0] == 2.0


_START_MSG = "non-finite residual at the Newton starting point"
_ITER_MSG = "non-finite residual in Newton iteration"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["start", "iteration"])
def test_nonfinite_residual_message_names_where(bad, where):
    # The entry-wise check runs only behind a non-finite norm; its verdicts
    # and messages are those of checking every residual entry-wise.
    def F(w):
        if where == "start" or w[0] != 0.0:
            return np.array([1.0, bad])
        return np.array([1.0, 1.0])

    J = lambda w: np.eye(2)
    msg = _START_MSG if where == "start" else _ITER_MSG
    with pytest.raises(NonFiniteError, match=f"^{msg}$"):
        solve(F, J, np.zeros(2))


def test_finite_residual_with_overflowing_norm_does_not_raise():
    # Entries near 1e200 are finite though their 2-norm overflows to inf.
    F, J = _linear([[1.0, 0.0], [0.0, 2.0]], [1e200, -3e200])
    with np.errstate(over="ignore"):
        res = solve(F, J, np.zeros(2))
    assert res.residual_history[0] == np.inf
    assert res.iters == 1 and res.converged_by == "absolute"
    assert res.w.tolist() == [1e200, -1.5e200]


_JAC_MSG = "non-finite Jacobian in Newton iteration"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_newton_matrix_with_one_nonfinite_entry_raises(bad):
    # The entry-wise check runs only behind a non-finite sum of the matrix;
    # one bad entry among finite ones makes that sum non-finite.
    F, _ = _linear(np.eye(3), [1.0, 2.0, 3.0])
    J = lambda w: np.array([[1.0, 0.0, 0.0], [0.0, 1.0, bad], [0.0, 0.0, 1.0]])
    with pytest.raises(NonFiniteError, match=f"^{_JAC_MSG}$"):
        solve(F, J, np.zeros(3))


def test_newton_matrix_whose_sum_overflows_passes():
    # Each entry is finite, their sum overflows to inf: the verdict is the
    # entry-wise check's, so the iteration runs.
    F, J = _linear(np.diag([1.7e308] * 3), [1.7e308, 1.7e308, 1.7e308])
    with np.errstate(over="ignore"):
        assert J(None).sum() == np.inf
        res = solve(F, J, np.zeros(3))
    assert res.iters == 1 and res.converged_by == "absolute"
    assert res.w.tolist() == [1.0, 1.0, 1.0]


def _pivot_floor_verdict(J):
    """Today's pivot test on the LU of J: abs(diag).min() < 1e-300, where
    np.min propagates NaN, so a NaN pivot never trips it."""
    from scipy.linalg.lapack import dgetrf

    lu, _, _ = dgetrf(J)
    return bool(abs(lu.diagonal()).min() < 1e-300)


_BELOW_FLOOR = float(np.nextafter(1e-300, 0.0))
_PIVOT_ENTRY = st.sampled_from([0.0, -0.0, 1e-301, _BELOW_FLOOR, 1e-300, -1e-300,
                                1.0, -2.0, np.nan, np.inf, -np.inf])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda d: st.lists(st.lists(_PIVOT_ENTRY, min_size=d, max_size=d),
                       min_size=d, max_size=d)))
@example([[np.nan, 1.0], [1.0, 1.0]])
@example([[0.0, 0.0], [0.0, np.nan]])                # a NaN pivot beside a zero one
@example([[1e-300, 0.0], [0.0, 1.0]])                # exactly the floor: not below it
@example([[_BELOW_FLOOR, 0.0], [0.0, 1.0]])
@example([[1.0, 0.0], [0.0, -_BELOW_FLOOR]])
@example([[np.inf, 0.0], [0.0, 0.0]])
def test_lu_pivot_floor_matches_min_of_abs_diagonal(J):
    from hbpc.newton import _lu_solve_checked

    J = np.array(J)
    try:
        with np.errstate(all="ignore"):
            _lu_solve_checked(J, np.ones(len(J)))
        raised = False
    except SingularJacobianError:
        raised = True
    assert raised == _pivot_floor_verdict(J)


def _inline_rule(cfg, history, theta):
    """The reference for ``judge``: the stopping rule as an iteration loop
    spells it out, (damping, verdict) once ``history`` holds the residual
    norms of the start and of len(history) - 1 iterations."""
    it, rnorm = len(history) - 1, history[-1]
    if it == 0:
        return cfg.damping_init, "absolute" if rnorm <= cfg.abs_tol else None
    if rnorm > cfg.growth_threshold * history[-2]:
        theta *= cfg.damping_factor
    if rnorm <= cfg.abs_tol:
        return theta, "absolute"
    if rnorm / history[0] <= cfg.rel_tol:
        return theta, "relative"
    return theta, "iter_cap" if it == cfg.max_iter else None  # the loop ran out


_UNIT = st.floats(0.01, 0.99)
_CONFIGS = st.builds(NewtonConfig, rel_tol=st.floats(1e-16, 0.5),
                     abs_tol=st.floats(1e-16, 1.0), max_iter=st.integers(1, 6),
                     growth_threshold=_UNIT, damping_init=st.floats(1e-3, 1.0),
                     damping_factor=_UNIT)
_NORMS = st.one_of(st.floats(0.0, 1e3), st.sampled_from([0.0, 1e-14, 1.0, np.inf]))


@settings(max_examples=300, deadline=None)
@given(_CONFIGS.flatmap(lambda cfg: st.tuples(
    st.just(cfg), st.lists(_NORMS, min_size=1, max_size=cfg.max_iter + 1),
    st.floats(1e-6, 1.0))))
def test_judge_is_the_inline_rule(case):
    cfg, history, theta = case
    # a solve gets this far only if no earlier norm ended it
    assume(all(_inline_rule(cfg, history[:k], 1.0)[1] is None
               for k in range(1, len(history))))
    got = judge(cfg, history, theta if len(history) > 1 else None)
    assert got == _inline_rule(cfg, history, theta)


_DEFAULT = NewtonConfig()


@pytest.mark.parametrize("cfg, history, theta, expected", [
    (_DEFAULT, [1.0], None, (1.0, None)),                       # start, iterate on
    (_DEFAULT, [1e-14], None, (1.0, "absolute")),               # start at abs_tol
    (NewtonConfig(damping_init=0.25), [2.0], None, (0.25, None)),
    (_DEFAULT, [1.0, 0.95], 1.0, (0.5, None)),                  # too little drop: damp
    (_DEFAULT, [1.0, 0.9], 1.0, (1.0, None)),                   # exactly the threshold
    (_DEFAULT, [1.0, 0.95, 0.94], 0.5, (0.25, None)),           # damps again
    (NewtonConfig(abs_tol=0.5, rel_tol=1e-3), [1.0, 0.5], 1.0, (1.0, "absolute")),
    (NewtonConfig(abs_tol=1e-20), [1.0, 1e-6], 1.0, (1.0, "relative")),
    (NewtonConfig(max_iter=2), [1.0, 0.5, 0.25], 1.0, (1.0, "iter_cap")),
    (NewtonConfig(max_iter=2), [1.0, 0.5], 1.0, (1.0, None)),   # one short of the cap
    (NewtonConfig(max_iter=2), [1.0, 0.5, 0.5], 1.0, (0.5, "iter_cap")),
])
def test_judge_examples(cfg, history, theta, expected):
    assert judge(cfg, history, theta) == expected


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9), st.integers(1, 4), st.randoms(use_true_random=False),
       st.sampled_from([1e-160, 1.0, 1e150]))
def test_norms_rows_are_norm_bitwise(rows, d, rnd, scale):
    R = np.array([[rnd.uniform(-2, 2) * scale for _ in range(d)] for _ in range(rows)])
    with np.errstate(all="ignore"):
        got, ref = _norms(R).tolist(), [_norm(r) for r in R]
    assert got == ref


def _drawn_systems(d, rng, n):
    """``n`` (J, rhs) pairs of each kind at size d: well conditioned; a small
    leading diagonal, so partial pivoting swaps rows; and ill conditioned
    (condition numbers near 1e10 to 1e15)."""
    for _ in range(n):
        rhs = rng.standard_normal(d) * 10.0 ** rng.integers(-3, 4)
        yield rng.standard_normal((d, d)) + 3.0 * np.eye(d), rhs
        J = rng.standard_normal((d, d))
        J[np.diag_indices(d)] *= 1e-8
        yield J, rhs
        U, _ = np.linalg.qr(rng.standard_normal((d, d)))
        V, _ = np.linalg.qr(rng.standard_normal((d, d)))
        s = np.logspace(0, -rng.uniform(10, 15), d) if d > 1 else [10.0 ** -rng.uniform(10, 15)]
        yield (U * s) @ V.T, rhs


@pytest.mark.parametrize("d", [1, 2, 4])
def test_dgesv_equals_dgetrf_then_dgetrs_bitwise(d):
    # _lu_solve_checked makes one dgesv call; its LU (whose diagonal the
    # pivot floor reads), pivots and solution are those of dgetrf + dgetrs.
    from scipy.linalg.lapack import dgesv, dgetrf, dgetrs

    from hbpc.newton import _lu_solve_checked

    swapped = 0
    for J, rhs in _drawn_systems(d, np.random.default_rng(d), 700):
        lu, piv, x, info = dgesv(J, rhs)
        lu2, piv2, info2 = dgetrf(J)
        x2 = dgetrs(lu2, piv2, rhs)[0]
        assert info == info2 == 0
        assert lu.tobytes() == lu2.tobytes() and piv.tobytes() == piv2.tobytes()
        assert x.tobytes() == x2.tobytes()
        assert _lu_solve_checked(J, rhs).tobytes() == x2.tobytes()
        swapped += bool((piv != np.arange(d)).any())
    assert d == 1 or swapped >= 700


@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("kind", ["pivot_1e-301", "exactly_singular"])
def test_lu_solve_raises_below_the_pivot_floor(d, kind):
    from hbpc.newton import _lu_solve_checked

    J = np.eye(d) + np.triu(np.ones((d, d)), 1)
    J[-1, -1] = 1e-301 if kind == "pivot_1e-301" else 0.0
    if kind == "exactly_singular" and d > 1:
        J[-1] = J[0]  # a repeated row: an exact zero pivot after elimination
    with pytest.raises(SingularJacobianError):
        _lu_solve_checked(J, np.ones(d))


@pytest.mark.parametrize("J", [[[0.0, 0.0], [0.0, np.nan]], [[np.nan, 1.0], [1.0, 1.0]],
                               [[0.0, 1.0, 2.0], [0.0, np.nan, 1.0], [0.0, 1.0, 3.0]]],
                         ids=["zero-then-nan", "nan-then-zero", "d3"])
def test_zero_pivot_beside_nan_pivot_solves_as_dgetrs(J):
    # A NaN pivot keeps the floor from tripping on an exact zero one; dgesv
    # (info > 0) then returns the right-hand side unsolved, so the solve
    # falls back to dgetrs, whose NaN solution Newton's checks catch.
    from scipy.linalg.lapack import dgetrf, dgetrs

    from hbpc.newton import _lu_solve_checked

    J = np.array(J)
    rhs = np.ones(len(J))
    lu, piv, info = dgetrf(J)
    assert info > 0
    with np.errstate(all="ignore"):
        want = dgetrs(lu, piv, rhs)[0]
        assert _lu_solve_checked(J, rhs).tobytes() == want.tobytes()
    assert np.isnan(want).any()
