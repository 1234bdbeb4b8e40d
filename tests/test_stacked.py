"""The stacked stage solve: a wavefront's stage systems solved as one stack.

``solver._solve_stages`` must give every lane bitwise what ``_solve_stage``
gives it alone (its (7, d) stage, every ``NewtonResult`` field) and raise the
error of the first failing lane; ``run_blocks`` must give the same run
whether a wavefront takes the stacked or the per-block path.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbpc.core import FluxBundle, NonFiniteError, SplitProblem
from hbpc.newton import NewtonConfig, SingularJacobianError
from hbpc.problems import BUILTIN, make
from hbpc.solver import SolverConfig, _solve_stage, _solve_stages, eval_stage, integrate

# the rows of a (7, d) stage after its state, row 0
FIELDS = ("phi_e", "phi_i", "dphi_e", "dphi_i", "phi", "dphi")
CALLBACKS = ("phi_e", "phi_i", "jac_e", "jac_i", "dphi_i_jac")


def _per_lane(p, a, rhs, starts, ncfg):
    """``_solve_stage`` lane by lane: (outputs, None) or (outputs so far, the
    first error)."""
    outs = []
    with np.errstate(all="ignore"):
        for i, start in enumerate(starts):
            try:
                outs.append(_solve_stage(p, a[i], rhs[i], start, ncfg))
            except Exception as exc:  # noqa: BLE001 - compared below
                return outs, exc
    return outs, None


def _stacked(p, a, rhs, starts, ncfg):
    """``_solve_stages`` on the lanes' starts stacked into one (B, 7, d) array."""
    with np.errstate(all="ignore"):
        return _solve_stages(p, np.asarray(a, dtype=float), np.asarray(rhs, dtype=float),
                             np.array(starts), ncfg)


def _assert_parity(p, a, rhs, starts, ncfg=NewtonConfig()):
    """The stacked solve equals the per-lane one bitwise, or raises the same
    error with the same message; returns the per-lane results."""
    ref, exc = _per_lane(p, a, rhs, starts, ncfg)
    if exc is not None:
        with pytest.raises(type(exc)) as info:
            _stacked(p, a, rhs, starts, ncfg)
        assert str(info.value) == str(exc)
        return None
    stages, results = _stacked(p, a, rhs, starts, ncfg)
    assert stages.shape == (len(ref),) + starts[0].shape and len(results) == len(ref)
    for stage, res, (rstage, rres), start in zip(stages, results, ref, starts):
        assert stage[0].tobytes() == rstage[0].tobytes()
        # stacked lanes are rows of a new array: where a lane alone returns
        # its start itself, its stacked row holds the start's bits
        assert stage.tobytes() == rstage.tobytes()
        assert rstage is not start or stage.tobytes() == start.tobytes()
        for row, field in enumerate(FIELDS, 1):
            assert stage[row].tobytes() == rstage[row].tobytes(), field
        assert res.w.tobytes() == stage[0].tobytes()
        assert (res.iters, res.residual_norm, res.converged_by) == \
            (rres.iters, rres.residual_norm, rres.converged_by)
        assert res.residual_history == rres.residual_history
        assert res.damping_history == rres.damping_history
    return [res for _, res in ref]


def _start(p, w):
    return eval_stage(p, np.asarray(w, dtype=float))


def _at_start_rhs(a, start):
    """The rhs whose residual at ``start`` is exactly zero."""
    return start[0] - a * start[2] + 0.5 * a * a * start[4]


# (start, a, rhs or its offset from the rhs that holds at the start) per
# lane: lanes that converge at their start, after one iteration, after
# several, and damped ones (found by a search over random draws like the
# hypothesis test's)
_LANES = {
    "scalar_pow": [([1.0], 0.01, 0.0), ([0.95], 0.001, 1e-9), ([1.0], 0.05, [0.9]),
                   ([1.0118216247002567], 0.7102170416433428, [0.6441596127196337])],
    "pareschi_russo": [([1.5, 1.0], 0.02, 0.0), ([1.5, 1.0], 0.002, 1e-9),
                       ([1.5, 1.0], 0.1, [1.2, 0.7]),
                       ([0.9146254372380486, 1.190657986570967], 0.9189106348294802,
                        [1.9694291863890232, 1.151435643895316])],
    "van_der_pol": [([2.0, -0.6], 0.01, 0.0), ([2.0, -0.6], 0.001, 1e-9),
                    ([2.0, -0.6], 0.05, [1.9, -0.4]),
                    ([2.0236432494005134, -0.9667967279584844], 0.002706941299741837,
                     [2.8972988942744875, -0.5411207419018038])],
    "arenstorf": [([0.994, 0.0, 0.0, -2.0], 1e-3, 0.0),
                  ([0.994, 0.0, 0.0, -2.0], 1e-4, 1e-9),
                  ([0.9, 0.1, 0.2, -1.9], 0.01, [0.91, 0.1, 0.2, -1.9]),
                  ([1.0057506949520552, 0.0, 0.0, -2.8995951577540793],
                   0.008619743766571897, [0.9177864902787402, 0.0, 0.0, -2.1008510929958075])],
}


def _problem(name):
    return make("van_der_pol", eps=1e-3) if name == "van_der_pol" else make(name)


def _lanes(p, specs):
    a, rhs, starts = [], [], []
    for w, a_i, rhs_i in specs:
        start = _start(p, w)
        a.append(a_i)
        rhs.append(_at_start_rhs(a_i, start) + rhs_i if np.isscalar(rhs_i)
                   else np.array(rhs_i, dtype=float))
        starts.append(start)
    return a, rhs, starts


@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_lanes_retire_one_by_one_with_their_own_results(name):
    p = _problem(name)
    a, rhs, starts = _lanes(p, _LANES[name])
    results = _assert_parity(p, a, rhs, starts)
    iters = [r.iters for r in results]
    assert iters[0] == 0 and iters[1] == 1 and iters[2] >= 2
    assert min(results[3].damping_history) < 1.0
    assert len(set(iters)) == 4
    # reversed, so the longest lane comes first
    _assert_parity(p, a[::-1], rhs[::-1], starts[::-1])


@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_lanes_that_hit_the_iteration_cap(name):
    p = _problem(name)
    a, rhs, starts = _lanes(p, _LANES[name])
    ncfg = NewtonConfig(rel_tol=1e-300, abs_tol=1e-300, max_iter=1)
    results = _assert_parity(p, a, rhs, starts, ncfg)
    assert results[0].converged_by == "absolute"
    assert [r.converged_by for r in results[2:]] == ["iter_cap"] * 2


_ENTRY = st.floats(-0.5, 0.5)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(BUILTIN)), st.data())
def test_stacked_solve_matches_solve_stage_on_drawn_lanes(name, data):
    p = _problem(name)
    lanes = data.draw(st.integers(1, 9))
    a, rhs, starts = [], [], []
    for _ in range(lanes):
        w = p.w0 * (1 + np.array(data.draw(st.lists(_ENTRY, min_size=p.dim,
                                                    max_size=p.dim))))
        start = _start(p, w)
        a_i = 10 ** data.draw(st.floats(-4.0, 0.0))
        if data.draw(st.booleans()):
            r = _at_start_rhs(a_i, start)
        else:
            r = p.w0 * (1 + np.array(data.draw(st.lists(_ENTRY, min_size=p.dim,
                                                         max_size=p.dim))))
        a.append(a_i)
        rhs.append(r)
        starts.append(start)
    _assert_parity(p, a, rhs, starts)


def _linear(dim, jac_i, dphi_i_jac=None, phi_e=None, jac_e=None):
    """A problem Phi_I(w) = jac_i w with stacked callbacks; ``dphi_i_jac``
    is taken as given (zero by default), not derived."""
    ji = np.array(jac_i, dtype=float)
    dij = np.zeros((dim, dim)) if dphi_i_jac is None else np.array(dphi_i_jac, dtype=float)
    je = np.zeros((dim, dim)) if jac_e is None else np.array(jac_e, dtype=float)
    fns = {
        "phi_e": phi_e or (lambda w: np.zeros(dim)),
        "phi_i": lambda w: ji @ w,
        "jac_e": lambda w: je,
        "jac_i": lambda w: ji,
        "dphi_i_jac": lambda w: dij,
    }
    stacks = {
        "phi_e": lambda W: np.array([fns["phi_e"](w) for w in W]),
        "phi_i": lambda W: np.array([ji @ w for w in W]),
        "jac_e": lambda W: np.array([je] * len(W)),
        "jac_i": lambda W: np.array([ji] * len(W)),
        "dphi_i_jac": lambda W: np.array([dij] * len(W)),
    }
    for cb, fn in fns.items():
        fn.stack = stacks[cb]
    return SplitProblem(dim=dim, w0=np.ones(dim), t_end=1.0, name="linear", **fns)


def _error_lane(kind):
    """(problem, a, rhs, start) of one lane that fails in ``_solve_stage``;
    every start's fluxes are the unbroken problem's."""
    if kind == "nan_start":
        p = _problem("scalar_pow")
        start = _start(p, [1.0])
        return p, 0.01, np.array([np.nan]), start
    if kind == "nan_newton":  # Newton steps to w < 0, where w^-2.5 is NaN
        p = _problem("scalar_pow")
        start = _start(p, [1.0])
        return p, 0.01, np.array([-5.0]), start
    if kind == "jacobian":  # a start whose fluxes are finite but whose Phi_I' is not
        p = _problem("scalar_pow")
        start = _start(p, [1.0])
        start[0] = 0.0
        return p, 0.01, np.array([0.5]), start
    if kind == "pivot_d1":  # 1 - a * 2 = 0
        p = _linear(1, [[2.0]])
        return p, 0.5, np.array([3.0]), _start(p, [1.0])
    if kind == "pivot_d2":  # I - a diag(2, 1) has a zero pivot
        p = _linear(2, [[2.0, 0.0], [0.0, 1.0]])
        return p, 0.5, np.array([3.0, 1.0]), _start(p, [1.0, 1.0])
    if kind == "bundle":  # dPhi_E is evaluated for the converged stage only
        p = _linear(1, [[-1.0]], jac_e=[[np.nan]])
        return p, 0.1, np.array([0.5]), _start(_linear(1, [[-1.0]]), [1.0])
    raise ValueError(kind)


_ERRORS = {"nan_start": NonFiniteError, "nan_newton": NonFiniteError,
           "jacobian": NonFiniteError, "pivot_d1": SingularJacobianError,
           "pivot_d2": SingularJacobianError, "bundle": NonFiniteError}


@pytest.mark.parametrize("kind", sorted(_ERRORS))
def test_a_failing_lane_raises_what_solve_stage_raises(kind):
    # a lane at its start before the failing one, an iterating one after it;
    # the broken problem of "bundle" has no finite bundle to start from, so
    # its lanes share the failing lane's start
    p, a_bad, rhs_bad, bad = _error_lane(kind)
    good = bad if kind == "bundle" else _start(p, p.w0)
    a = [1e-3, a_bad, 1e-3]
    rhs = [_at_start_rhs(1e-3, good), rhs_bad, good[0] * 1.01]
    starts = [good, bad, good]
    ref, exc = _per_lane(p, a, rhs, starts, NewtonConfig())
    assert isinstance(exc, _ERRORS[kind]) and len(ref) == 1
    _assert_parity(p, a, rhs, starts)
    _assert_parity(p, a[1:], rhs[1:], starts[1:])


@pytest.mark.parametrize("first,second", [("nan_newton", "jacobian"),
                                          ("jacobian", "nan_newton"),
                                          ("nan_start", "nan_newton"),
                                          ("nan_newton", "nan_start")])
def test_the_first_failing_lane_decides_the_error(first, second):
    # the lanes fail at different Newton iterations; the stacked solve still
    # raises the error of the earlier lane, after a lane that converges
    p = _problem("scalar_pow")
    lanes = [_error_lane(first), _error_lane(second)]
    good = _start(p, [1.0])
    a = [0.05] + [lane[1] for lane in lanes]
    rhs = [np.array([0.9])] + [lane[2] for lane in lanes]
    starts = [good] + [lane[3] for lane in lanes]
    _assert_parity(p, a, rhs, starts)


def test_a_pivot_below_the_floor_but_not_zero_stops_the_lane_at_d1():
    # J = 1 - 1 + 0.5 * 2e-305 = 1e-305: dividing by it would step on to
    # finite states and, at max_iter = 1, return a capped result
    p = _linear(1, [[1.0]], dphi_i_jac=[[2e-305]])
    start = _start(p, [2e-160])
    ncfg = NewtonConfig(rel_tol=1e-300, abs_tol=1e-200, max_iter=1)
    assert isinstance(_per_lane(p, [1.0], [np.zeros(1)], [start], ncfg)[1],
                      SingularJacobianError)
    _assert_parity(p, [1.0], [np.zeros(1)], [start], ncfg)


def test_an_earlier_lane_failing_later_decides_over_a_pivot_at_d2():
    # lane 1 meets a zero pivot in its first Newton matrix; lane 0 fails
    # only once its first step reaches a state off (1, 1), where Phi_E is NaN
    p = _linear(2, [[2.0, 0.0], [0.0, 1.0]],
                phi_e=lambda w: np.zeros(2) if (w == 1.0).all() else np.full(2, np.nan))
    start = _start(p, [1.0, 1.0])
    a, rhs, starts = [0.1, 0.5], [np.array([2.0, 1.0]), np.array([3.0, 1.0])], [start] * 2
    ref, exc = _per_lane(p, a, rhs, starts, NewtonConfig())
    assert isinstance(exc, NonFiniteError) and not ref
    assert isinstance(_per_lane(p, a[1:], rhs[1:], starts[1:], NewtonConfig())[1],
                      SingularJacobianError)
    _assert_parity(p, a, rhs, starts)


def _unstacked(p):
    """``p`` with per-state callbacks only: the wrappers carry no ``.stack``."""
    return replace(p, **{cb: (lambda fn: lambda w: fn(w))(getattr(p, cb))
                         for cb in CALLBACKS})


def _run_items(run):
    items = [run.updates, np.array(run.final_last_w), run.errors,
             np.asarray(run.newton_per_iterate), np.array([run.iter_cap_hits])]
    for tr in run.traces:
        items += [np.asarray(tr.newton_iters), np.array(tr.residual_norms),
                  np.array(tr.last_stage_w)]
    return [np.asarray(x).tobytes() for x in items]


_TIGHT = NewtonConfig(rel_tol=1e-13, abs_tol=1e-15)


@pytest.mark.parametrize("case", [
    ("scalar_pow", "Alg1", "hierarchical", 8, 9, 40, _TIGHT),
    ("scalar_pow", "LO", "red", 6, 5, 20, NewtonConfig()),
    ("pareschi_russo", "Alg1", "red", 8, 3, 40, NewtonConfig()),
    ("pareschi_russo", "LO", "hierarchical", 8, 9, 20, NewtonConfig()),
    ("van_der_pol", "Alg1", "hierarchical", 8, 9, 20, NewtonConfig()),
    ("arenstorf", "Alg1", "hierarchical", 8, 5, 20, NewtonConfig()),
    ("scalar_pow", "Alg1", "hierarchical", 4, 7, 20, NewtonConfig()),
], ids=lambda c: "-".join(map(str, c[:6])))
def test_stacked_wavefronts_equal_per_block_wavefronts_bitwise(case, monkeypatch):
    import hbpc.solver as solver_mod

    name, variant, start, q, kmax, n, ncfg = case
    p = make(name)
    if name == "van_der_pol":
        p = make(name, eps=1e-3)
    if name == "arenstorf":
        p = replace(p, t_end=p.t_end * n / 100000)
    cfg = SolverConfig(variant=variant, q=q, kmax=kmax, n_steps=n, newton=ncfg,
                       corrector_start=start)
    calls = []
    kernel = solver_mod._solve_stages
    monkeypatch.setattr(solver_mod, "_solve_stages",
                        lambda *args: calls.append(len(args[3])) or kernel(*args))
    stacked = integrate(p, cfg, keep_traces=True)
    assert calls and min(calls) >= solver_mod._MIN_STACK
    calls.clear()
    per_block = integrate(_unstacked(p), cfg, keep_traces=True)
    assert not calls
    assert _run_items(stacked) == _run_items(per_block)


def test_stacked_path_needs_all_five_stacks_and_jacobi_sweeps(monkeypatch):
    import hbpc.solver as solver_mod

    calls = []
    kernel = solver_mod._solve_stages
    monkeypatch.setattr(solver_mod, "_solve_stages",
                        lambda *args: calls.append(1) or kernel(*args))
    p = make("pareschi_russo")
    cfg = SolverConfig(variant="Alg1", q=8, kmax=5, n_steps=4)
    integrate(p, cfg)
    assert calls
    calls.clear()
    integrate(p, replace(cfg, variant="Alg2"))          # Gauss-Seidel corrections
    integrate(replace(p, dphi_i_jac=None), cfg)        # finite-difference Newton matrix
    integrate(replace(p, jac_i=lambda w: p.jac_i(w)), cfg)  # one callback wrapped
    assert not calls


@pytest.fixture
def fallbacks(monkeypatch):
    """The lanes the stacked solve hands to ``_solve_stage`` one by one."""
    import hbpc.solver as solver_mod

    calls = []
    one = solver_mod._solve_stage
    monkeypatch.setattr(solver_mod, "_solve_stage",
                        lambda *args: calls.append(1) or one(*args))
    return calls


@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_every_lane_retiring_in_one_round(name, fallbacks):
    p = _problem(name)
    w, a_i, _ = _LANES[name][1]
    specs = [(np.array(w) * (1 + 0.01 * j), a_i * (1 + j), 1e-9) for j in range(5)]
    results = _assert_parity(p, *_lanes(p, specs))
    assert [r.iters for r in results] == [1] * 5
    assert not fallbacks


# scalar_pow lanes that take 1, 2, 3 and 4 Newton iterations (drawn like the
# hypothesis test's), then _LANES' damped one
_ROUNDS = [([1.4592203292675077], 0.00024033517408535087, [1.4607475537881056]),
           ([0.7858013800881416], 0.00016433225301749045, [0.8833688807855182]),
           ([1.3050029237453802], 0.17051522362866806, [1.0153255610421419]),
           ([0.7714516045301015], 0.330068966503163, [0.564214437312191]),
           _LANES["scalar_pow"][3]]


@pytest.mark.parametrize("order", [1, -1])
def test_lanes_retiring_over_several_rounds_one_damped(order, fallbacks):
    p = _problem("scalar_pow")
    results = _assert_parity(p, *_lanes(p, _ROUNDS[::order]))[::order]
    assert [r.iters for r in results[:4]] == [1, 2, 3, 4]
    assert results[4].iters > 4 and min(results[4].damping_history) < 1.0
    assert [min(r.damping_history) for r in results[:4]] == [1.0] * 4
    assert not fallbacks


def test_an_infinite_newton_matrix_at_d1_raises_the_lane_error():
    # J = 1 + a + a^2/2 * inf is +inf, not NaN, and its lane's residual is finite
    p = _linear(1, [[-1.0]], dphi_i_jac=[[np.inf]])
    start = _start(p, [1.0])
    a, rhs = [0.1, 0.1], [_at_start_rhs(0.1, start), _at_start_rhs(0.1, start) + 0.5]
    ref, exc = _per_lane(p, a, rhs, [start] * 2, NewtonConfig())
    assert isinstance(exc, NonFiniteError) and len(ref) == 1
    assert str(exc) == "non-finite Jacobian in Newton iteration"
    _assert_parity(p, a, rhs, [start] * 2)


@pytest.mark.parametrize("kind", ["jacobian", "bundle"])
def test_finite_entries_whose_sum_overflows_pass(kind, fallbacks):
    # three Newton matrices of 8.5e307 sum past the largest float, and so do
    # a bundle's phi = 1e308 and dphi = 1e308; each entry is finite
    if kind == "jacobian":
        p = _linear(1, [[-1.0]], dphi_i_jac=[[1.7e308]])
        a_i, ncfg = 1.0, NewtonConfig(max_iter=2)
    else:
        p = _linear(1, [[1.0]], phi_e=lambda w: np.array([1e308]))
        a_i, ncfg = 1e-154, NewtonConfig()
    start = _start(p, [1.0])
    a = [a_i] * 3
    rhs = [_at_start_rhs(a_i, start) + 1e-3 * (j + 1) for j in range(3)]
    results = _assert_parity(p, a, rhs, [start] * 3, ncfg)
    assert all(r.iters >= 1 for r in results)
    assert not fallbacks


@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_handed_in_sums_give_the_bundle_its_parts_give(name):
    # the Phi and dPhi rows of a solved or evaluated stage are the sums a
    # FluxBundle forms from the four parts
    p = _problem(name)
    stages = list(_stacked(p, *_lanes(p, _LANES[name]), NewtonConfig())[0])
    stages.append(eval_stage(p, p.w0))
    for stage in stages:
        ref = FluxBundle(phi_e=stage[1], phi_i=stage[2], dphi_e=stage[3], dphi_i=stage[4])
        for row, field in enumerate(FIELDS, 1):
            assert stage[row].tobytes() == getattr(ref, field).tobytes(), field
