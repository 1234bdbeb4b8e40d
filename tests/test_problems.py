"""Benchmark problem wiring: fluxes, analytic Jacobians, closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbpc.core import fd_jacobian
from hbpc.problems import (BUILTIN, arenstorf, make, pareschi_russo,
                           scalar_pow, van_der_pol)

_STATES = {
    "scalar_pow": np.array([0.8]),
    "pareschi_russo": np.array([0.7, -0.3]),
    "van_der_pol": np.array([1.5, -0.5]),
    "arenstorf": np.array([0.4, 0.3, -0.2, 0.1]),
}


def _problems():
    return [scalar_pow(), pareschi_russo(eps=0.5), van_der_pol(eps=0.1),
            arenstorf()]


def test_scalar_pow_exact_satisfies_the_ode():
    p = scalar_pow()
    for t in (0.0, 0.1, 0.2, 0.25):
        w = p.exact(t)
        h = 1e-6
        dw_dt = (p.exact(t + h) - p.exact(t - h)) / (2 * h)
        assert dw_dt == pytest.approx(-w ** -2.5, rel=1e-8)
    assert p.exact(0.0) == pytest.approx(p.w0)


def test_scalar_pow_split_fractions():
    p = scalar_pow(alpha=0.3)
    w = _STATES["scalar_pow"]
    full = -w ** -2.5
    assert p.phi_e(w) == pytest.approx(0.3 * full, rel=1e-14)
    assert p.phi_i(w) == pytest.approx(0.7 * full, rel=1e-14)


def test_scalar_pow_shares_one_power_per_state():
    p = scalar_pow(alpha=0.3)
    a, b = np.array([0.8]), np.array([0.6])
    W = np.array([[0.8], [0.6]])
    for w in (a, b, a, W, b, W):  # phi_e and phi_i of one state, interleaved
        full = -w ** -2.5
        assert p.phi_e(w).tobytes() == (0.3 * full).tobytes()
        assert p.phi_i(w).tobytes() == (0.7 * full).tobytes()
        assert p.phi_i.stack(w).tobytes() == (0.7 * full).tobytes()

    class Counted(np.ndarray):
        powers = 0

        def __pow__(self, e):
            Counted.powers += 1
            return np.asarray(self) ** e

    w = np.array([0.7]).view(Counted)
    p.phi_e(w)
    p.phi_i(w)
    assert Counted.powers == 1


@pytest.mark.parametrize("p", _problems(), ids=lambda p: p.name)
def test_analytic_jacobians_match_finite_differences(p):
    w = _STATES[p.name]
    assert p.jac_e(w) == pytest.approx(fd_jacobian(p.phi_e, w),
                                       rel=1e-6, abs=1e-6)
    assert p.jac_i(w) == pytest.approx(fd_jacobian(p.phi_i, w),
                                       rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("p", _problems(), ids=lambda p: p.name)
def test_solution_derivative_jacobian_matches_finite_differences(p):
    w = _STATES[p.name]

    def g(x):
        return p.jac_i(x) @ (p.phi_e(x) + p.phi_i(x))

    assert p.dphi_i_jac(w) == pytest.approx(fd_jacobian(g, w),
                                            rel=1e-5, abs=1e-5)


def test_problem_constants():
    sp = scalar_pow()
    assert sp.dim == 1 and sp.t_end == 0.25
    assert sp.w0 == pytest.approx([1.0])

    pr = pareschi_russo()
    assert pr.dim == 2 and pr.t_end == 5.0
    assert pr.w0 == pytest.approx([np.pi / 2, 1.0])

    eps = 0.05
    vdp = van_der_pol(eps=eps)
    assert vdp.dim == 2 and vdp.t_end == 0.5
    assert vdp.w0 == pytest.approx([2.0, -2.0 / 3.0 + 10.0 * eps / 81.0])

    ar = arenstorf()
    assert ar.dim == 4
    assert ar.t_end == pytest.approx(17.065216560159)
    assert ar.w0 == pytest.approx([0.994, 0.0, 0.0, -2.001585106379])
    assert np.array_equal(ar.ref_t_end, ar.w0)  # closed orbit
    assert ar.exact is None


def test_stiffness_scaling_with_eps():
    w = _STATES["van_der_pol"]
    f1 = van_der_pol(eps=0.1).phi_i(w)
    f2 = van_der_pol(eps=0.01).phi_i(w)
    assert f2[1] == pytest.approx(10.0 * f1[1], rel=1e-12)
    w = _STATES["pareschi_russo"]
    g1 = pareschi_russo(eps=0.1).phi_i(w)
    g2 = pareschi_russo(eps=0.01).phi_i(w)
    assert g2[1] == pytest.approx(10.0 * g1[1], rel=1e-12)


def test_factory_validation():
    with pytest.raises(ValueError):
        scalar_pow(alpha=1.5)
    with pytest.raises(ValueError):
        scalar_pow(alpha=-0.1)
    with pytest.raises(ValueError):
        pareschi_russo(eps=0.0)
    with pytest.raises(ValueError):
        van_der_pol(eps=-1.0)


def test_make_dispatch():
    assert make("scalar_pow", alpha=0.4).phi_e(np.array([1.0]))[0] == \
        pytest.approx(-0.4)
    assert make("van_der_pol", eps=0.25).name == "van_der_pol"
    assert make("arenstorf").dim == 4
    with pytest.raises(KeyError):
        make("lorenz")
    assert set(BUILTIN) == {"scalar_pow", "pareschi_russo", "van_der_pol",
                            "arenstorf"}


@settings(max_examples=40, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.05, 1.0))
def test_pareschi_russo_jacobian_consistency_everywhere(w1, w2, eps):
    p = pareschi_russo(eps=eps)
    w = np.array([w1, w2])
    assert p.jac_i(w) == pytest.approx(fd_jacobian(p.phi_i, w),
                                       rel=1e-5, abs=1e-4)


def test_arenstorf_dphi_i_jac_reuses_jac_i_bitwise():
    # dphi_i_jac takes the gravity matrix from the last jac_i call only when
    # it saw the same state object; alternating or equal-valued states must
    # give exactly what a fresh instance computes from scratch.
    p = arenstorf()
    w1 = np.array([0.4, 0.3, -0.2, 0.1])
    w2 = np.array([0.9, -0.05, 0.3, -1.8])

    def fresh(w):
        return arenstorf().dphi_i_jac(w).tobytes()

    p.jac_i(w1)
    assert p.dphi_i_jac(w1).tobytes() == fresh(w1)
    p.jac_i(w2)
    assert p.dphi_i_jac(w1).tobytes() == fresh(w1)
    assert p.dphi_i_jac(w2).tobytes() == fresh(w2)
    assert p.dphi_i_jac(w2.copy()).tobytes() == fresh(w2)
    p.jac_i(w1)
    p.jac_i(w2)
    assert p.dphi_i_jac(w1).tobytes() == fresh(w1)
    assert p.dphi_i_jac(w2).tobytes() == fresh(w2)


def _on_switching_threads(run, count: int = 4):
    """run(0), ..., run(count - 1) on threads that switch every microsecond."""
    import sys
    import threading

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)


def test_arenstorf_gravity_memo_under_thread_switching():
    p = arenstorf()
    states = [np.array([0.4 + 0.1 * i, 0.3, -0.2, 0.1 * i]) for i in range(4)]
    refs = [arenstorf().dphi_i_jac(w).tobytes() for w in states]
    bad = []

    def run(i):
        for _ in range(300):
            p.jac_i(states[i])
            if p.dphi_i_jac(states[i]).tobytes() != refs[i]:
                bad.append(i)

    _on_switching_threads(run)
    assert bad == []


def test_scalar_pow_power_memo_under_thread_switching():
    import threading
    import time

    p = scalar_pow(alpha=0.3)
    states = [np.array([0.5 + 0.1 * i]) for i in range(4)]
    refs = [(0.3 * -w ** -2.5).tobytes() for w in states]
    bad = []

    def run(i):
        for _ in range(300):
            if p.phi_e(states[i]).tobytes() != refs[i]:
                bad.append(i)

    def yield_each_line(frame, event, arg):  # a switch between any two lines of the memo
        if event == "line":
            time.sleep(0)
        return yield_each_line

    threading.settrace(lambda frame, event, arg:
                       yield_each_line if frame.f_code.co_name == "full" else None)
    try:
        _on_switching_threads(run)
    finally:
        threading.settrace(None)
    assert bad == []


def _numpy_scalar_arenstorf():
    """The Arenstorf callbacks as numpy float64-scalar and 2 x 2 array
    formulas, without the gravity memo: the reference the float-math
    callbacks must reproduce bit for bit."""
    mu = 0.012277471
    mu_p = 1.0 - mu

    def gravity(u, y):
        r2 = u * u + y * y
        r3 = r2 ** -1.5
        r5 = r2 ** -2.5
        return np.array([[r3 - 3.0 * u * u * r5, -3.0 * u * y * r5],
                         [-3.0 * u * y * r5, r3 - 3.0 * y * y * r5]])

    def gravity_derivs(u, y):
        r2 = u * u + y * y
        r5 = r2 ** -2.5
        r7 = r2 ** -3.5
        dP_dx = -9.0 * u * r5 + 15.0 * u ** 3 * r7
        dP_dy = -3.0 * y * r5 + 15.0 * u * u * y * r7
        dQ_dy = -3.0 * u * r5 + 15.0 * u * y * y * r7
        dR_dy = -9.0 * y * r5 + 15.0 * y ** 3 * r7
        return (np.array([[dP_dx, dP_dy], [dP_dy, dQ_dy]]),
                np.array([[dP_dy, dQ_dy], [dQ_dy, dR_dy]]))

    def accel_jac(w):
        return -mu_p * gravity(w[0] + mu, w[1]) - mu * gravity(w[0] - mu_p, w[1])

    def phi_e(w):
        return np.array([w[2], w[3], w[0] + 2.0 * w[3], w[1] - 2.0 * w[2]])

    def phi_i(w):
        d1 = ((w[0] + mu) ** 2 + w[1] ** 2) ** 1.5
        d2 = ((w[0] - mu_p) ** 2 + w[1] ** 2) ** 1.5
        ax = -mu_p * (w[0] + mu) / d1 - mu * (w[0] - mu_p) / d2
        ay = -mu_p * w[1] / d1 - mu * w[1] / d2
        return np.array([0.0, 0.0, ax, ay])

    def jac_e(w):
        return np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                         [1.0, 0.0, 0.0, 2.0], [0.0, 1.0, -2.0, 0.0]])

    def jac_i(w):
        J = np.zeros((4, 4))
        J[2:, :2] = accel_jac(w)
        return J

    def dphi_i_jac(w):
        A = accel_jac(w)
        dG1_dx, dG1_dy = gravity_derivs(w[0] + mu, w[1])
        dG2_dx, dG2_dy = gravity_derivs(w[0] - mu_p, w[1])
        dA_dx = -mu_p * dG1_dx - mu * dG2_dx
        dA_dy = -mu_p * dG1_dy - mu * dG2_dy
        v = w[2:]
        M = np.zeros((4, 4))
        M[2:, 0] = dA_dx @ v
        M[2:, 1] = dA_dy @ v
        M[2:, 2] = A[:, 0]
        M[2:, 3] = A[:, 1]
        return M

    return {"phi_e": phi_e, "phi_i": phi_i, "jac_e": jac_e, "jac_i": jac_i,
            "dphi_i_jac": dphi_i_jac}


# Positions near the orbit and the two bodies, plus values far enough out
# that Python float ``**`` and ``/`` raise (overflow, a state on a body).
_COORD = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([-0.012277471, 0.987722529]),
                   st.floats(-1e300, 1e300), st.floats(-1e-150, 1e-150))


@settings(max_examples=300, deadline=None)
@given(st.lists(_COORD, min_size=4, max_size=4),
       st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
def test_arenstorf_callbacks_equal_numpy_scalar_formulas_bitwise(coords, other):
    ref = _numpy_scalar_arenstorf()
    w = np.array(coords)
    w_other = np.array(other)
    with np.errstate(all="ignore"):
        p = arenstorf()
        # dphi_i_jac first on a fresh instance: no jac_i before it
        assert p.dphi_i_jac(w).tobytes() == ref["dphi_i_jac"](w).tobytes()
        for cb in ("phi_e", "phi_i", "jac_e", "jac_i"):
            assert getattr(p, cb)(w).tobytes() == ref[cb](w).tobytes(), cb
        # after jac_i at this state, and after jac_i at a different one
        assert p.dphi_i_jac(w).tobytes() == ref["dphi_i_jac"](w).tobytes()
        p.jac_i(w_other)
        assert p.dphi_i_jac(w).tobytes() == ref["dphi_i_jac"](w).tobytes()


@pytest.mark.parametrize("w", [
    [0.987722529, 0.0, 0.3, -0.2],    # on the second body: r = 0
    [-0.012277471, 0.0, 0.3, -0.2],   # on the first body
    [0.987722529, 1e-100, 1.0, 1.0],  # r^-2.5 overflows
    [1e160, 1.0, 2.0, 3.0],           # squares overflow
], ids=["body2", "body1", "tiny_r", "huge"])
def test_arenstorf_callbacks_match_numpy_where_python_floats_raise(w):
    # Python float ``**`` and ``/`` raise at these states; the callbacks
    # fall back to float64 scalars and return numpy's IEEE inf/NaN/0.
    from hbpc import problems

    ref = _numpy_scalar_arenstorf()
    w = np.array(w)
    raised = 0
    for fn in (problems._accel, problems._accel_jac, problems._accel_jac_derivs):
        try:
            fn(*w.tolist()[:2])
        except (OverflowError, ZeroDivisionError):
            raised += 1
    assert raised
    with np.errstate(all="ignore"):
        p = arenstorf()
        for cb in ("phi_i", "jac_i", "dphi_i_jac"):
            assert getattr(p, cb)(w).tobytes() == ref[cb](w).tobytes(), cb


# -- stacked callbacks ----------------------------------------------------------

_CALLBACKS = ("phi_e", "phi_i", "jac_e", "jac_i", "dphi_i_jac")
# entries near the problems' states, zero and negatives (scalar_pow's powers
# leave the reals), both bodies of Arenstorf, and magnitudes at which Python
# float ``**`` overflows (squares, r^-2.5, w^-3.5)
_STACK_ENTRY = st.one_of(st.floats(-3.0, 3.0), st.floats(-1e300, 1e300),
                         st.floats(-1e-150, 1e-150),
                         st.sampled_from([0.0, -0.012277471, 0.987722529]))


def _assert_rows_equal_per_state_calls(p, W):
    with np.errstate(all="ignore"):
        for cb in _CALLBACKS:
            fn = getattr(p, cb)
            stacked = fn.stack(W)
            assert stacked.shape[:2] == (len(W), p.dim), cb
            for i, w in enumerate(W):
                assert (np.ascontiguousarray(stacked[i]).tobytes()
                        == np.asarray(fn(w.copy())).tobytes()), (cb, w)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(BUILTIN)), st.data())
def test_stacked_callbacks_equal_per_state_calls_row_by_row(name, data):
    p = make(name)
    rows = data.draw(st.integers(1, 9))
    W = np.array(data.draw(st.lists(st.lists(_STACK_ENTRY, min_size=p.dim, max_size=p.dim),
                                    min_size=rows, max_size=rows)))
    _assert_rows_equal_per_state_calls(p, W)


@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_stacked_callbacks_equal_per_state_calls_on_many_states(name):
    # Array ``**`` differs from the float64-scalar powers of the per-state
    # code in about 5 % of samples at -3.5 and 0.09 % at 2, too rarely for
    # the drawn examples to be sure to meet one: 4000 seeded states do.
    p = make(name)
    rng = np.random.default_rng(7)
    W = p.w0 * (1.0 + rng.uniform(-0.5, 0.5, (4000, p.dim)))
    _assert_rows_equal_per_state_calls(p, W)


@pytest.mark.parametrize("name,rows", [
    ("arenstorf", [[0.987722529, 0.0, 0.3, -0.2],     # on the second body: r = 0
                   [-0.012277471, 0.0, 0.3, -0.2],    # on the first body
                   [0.987722529, 1e-100, 1.0, 1.0],   # r^-2.5 overflows
                   [1e160, 1.0, 2.0, 3.0],            # squares overflow
                   [0.5, 0.1, 0.2, -1.0]]),
    ("van_der_pol", [[1e160, 1.0], [2.0, 1e200], [2.0, -0.6], [np.inf, 1.0]]),
    ("scalar_pow", [[0.0], [-0.5], [1e-100], [0.8], [np.inf]]),
    ("scalar_pow", [[1e-100], [0.8]]),
], ids=["arenstorf", "van_der_pol", "scalar_pow", "scalar_pow_overflow"])
def test_stacked_callbacks_where_python_floats_raise_or_leave_the_reals(name, rows):
    _assert_rows_equal_per_state_calls(make(name), np.array(rows))
